#include "op_shapes.h"

#include <sstream>

namespace reuse {
namespace ir {

InferredShape
inferFullyConnected(const std::string &name, const Shape &input,
                    int64_t inputs, int64_t outputs)
{
    if (input.numel() != inputs) {
        std::ostringstream oss;
        oss << name << ": input " << input.str() << " has "
            << input.numel() << " elements, expected " << inputs;
        return InferredShape::fail(oss.str());
    }
    return InferredShape::ok(Shape({outputs}));
}

InferredShape
inferConv2d(const std::string &name, const Shape &input,
            int64_t in_channels, int64_t out_channels, int64_t kernel,
            int64_t stride)
{
    if (input.rank() != 3) {
        std::ostringstream oss;
        oss << name << ": conv2d expects [C,H,W], got " << input.str();
        return InferredShape::fail(oss.str());
    }
    if (input.dim(0) != in_channels) {
        std::ostringstream oss;
        oss << name << ": expected " << in_channels
            << " input channels, got " << input.dim(0);
        return InferredShape::fail(oss.str());
    }
    if (input.dim(1) < kernel || input.dim(2) < kernel) {
        std::ostringstream oss;
        oss << name << ": input " << input.str()
            << " smaller than kernel " << kernel;
        return InferredShape::fail(oss.str());
    }
    const int64_t oh = (input.dim(1) - kernel) / stride + 1;
    const int64_t ow = (input.dim(2) - kernel) / stride + 1;
    return InferredShape::ok(Shape({out_channels, oh, ow}));
}

InferredShape
inferConv3d(const std::string &name, const Shape &input,
            int64_t in_channels, int64_t out_channels, int64_t kernel,
            int64_t pad)
{
    if (input.rank() != 4) {
        std::ostringstream oss;
        oss << name << ": conv3d expects [C,D,H,W], got "
            << input.str();
        return InferredShape::fail(oss.str());
    }
    if (input.dim(0) != in_channels) {
        std::ostringstream oss;
        oss << name << ": expected " << in_channels
            << " input channels, got " << input.dim(0);
        return InferredShape::fail(oss.str());
    }
    if (input.dim(1) + 2 * pad < kernel ||
        input.dim(2) + 2 * pad < kernel ||
        input.dim(3) + 2 * pad < kernel) {
        std::ostringstream oss;
        oss << name << ": input " << input.str()
            << " smaller than kernel";
        return InferredShape::fail(oss.str());
    }
    const int64_t od = input.dim(1) + 2 * pad - kernel + 1;
    const int64_t oh = input.dim(2) + 2 * pad - kernel + 1;
    const int64_t ow = input.dim(3) + 2 * pad - kernel + 1;
    return InferredShape::ok(Shape({out_channels, od, oh, ow}));
}

InferredShape
inferMaxPool2d(const std::string &name, const Shape &input,
               int64_t window)
{
    if (input.rank() != 3) {
        std::ostringstream oss;
        oss << name << ": pool2d expects [C,H,W], got " << input.str();
        return InferredShape::fail(oss.str());
    }
    if (input.dim(1) < window || input.dim(2) < window) {
        std::ostringstream oss;
        oss << name << ": input " << input.str()
            << " smaller than pool window " << window;
        return InferredShape::fail(oss.str());
    }
    return InferredShape::ok(Shape(
        {input.dim(0), input.dim(1) / window, input.dim(2) / window}));
}

InferredShape
inferMaxPool3d(const std::string &name, const Shape &input,
               int64_t depth_window, int64_t spatial_window,
               bool ceil_mode)
{
    if (input.rank() != 4) {
        std::ostringstream oss;
        oss << name << ": pool3d expects [C,D,H,W], got "
            << input.str();
        return InferredShape::fail(oss.str());
    }
    auto div = [ceil_mode](int64_t v, int64_t w) {
        return ceil_mode ? (v + w - 1) / w : v / w;
    };
    const Shape out({input.dim(0), div(input.dim(1), depth_window),
                     div(input.dim(2), spatial_window),
                     div(input.dim(3), spatial_window)});
    if (out.dim(1) == 0 || out.dim(2) == 0 || out.dim(3) == 0) {
        std::ostringstream oss;
        oss << name << ": input " << input.str()
            << " smaller than pool windows " << depth_window << "/"
            << spatial_window;
        return InferredShape::fail(oss.str());
    }
    return InferredShape::ok(out);
}

InferredShape
inferPNorm(const std::string &name, const Shape &input, int64_t group)
{
    if (input.numel() % group != 0) {
        std::ostringstream oss;
        oss << name << ": input size " << input.numel()
            << " not divisible by group " << group;
        return InferredShape::fail(oss.str());
    }
    return InferredShape::ok(Shape({input.numel() / group}));
}

InferredShape
inferLstm(const std::string &name, const Shape &input,
          int64_t input_dim, int64_t cell_dim)
{
    if (input.numel() != input_dim) {
        std::ostringstream oss;
        oss << name << ": per-step input has " << input.numel()
            << " elements, expected " << input_dim;
        return InferredShape::fail(oss.str());
    }
    return InferredShape::ok(Shape({cell_dim}));
}

InferredShape
inferBiLstm(const std::string &name, const Shape &input,
            int64_t input_dim, int64_t cell_dim)
{
    if (input.numel() != input_dim) {
        std::ostringstream oss;
        oss << name << ": per-step input has " << input.numel()
            << " elements, expected " << input_dim;
        return InferredShape::fail(oss.str());
    }
    return InferredShape::ok(Shape({2 * cell_dim}));
}

InferredShape
inferActivation(const Shape &input)
{
    return InferredShape::ok(input);
}

InferredShape
inferFlatten(const Shape &input)
{
    return InferredShape::ok(Shape({input.numel()}));
}

} // namespace ir
} // namespace reuse
