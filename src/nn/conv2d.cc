#include "conv2d.h"

#include "common/logging.h"
#include "common/math_utils.h"
#include "ir/op_shapes.h"
#include "kernels/delta_kernels.h"

namespace reuse {

Conv2DLayer::Conv2DLayer(std::string name, int64_t in_channels,
                         int64_t out_channels, int64_t kernel,
                         int64_t stride)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      weights_(static_cast<size_t>(in_channels * out_channels * kernel *
                                   kernel),
               0.0f),
      biases_(static_cast<size_t>(out_channels), 0.0f)
{
    REUSE_ASSERT(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                     stride > 0,
                 "invalid conv2d parameters");
}

ShapeInference
Conv2DLayer::inferOutputShape(const Shape &input) const
{
    return toShapeInference(ir::inferConv2d(
        name(), input, in_channels_, out_channels_, kernel_, stride_));
}

Tensor
Conv2DLayer::forward(const Tensor &input) const
{
    const Shape out_shape = outputShape(input.shape());
    AlignedVector<float> hwc(static_cast<size_t>(out_shape.numel()));
    forwardChannelsLast(input, hwc.data());
    Tensor out(out_shape);
    kernels::channelsLastToFirst(hwc.data(),
                                 out_shape.dim(1) * out_shape.dim(2),
                                 out_channels_, out.data().data());
    return out;
}

void
Conv2DLayer::forwardChannelsLast(const Tensor &input, float *out) const
{
    const Shape out_shape = outputShape(input.shape());
    const int64_t h = input.shape().dim(1);
    const int64_t w = input.shape().dim(2);
    const int64_t oh = out_shape.dim(1);
    const int64_t ow = out_shape.dim(2);
    const int64_t c_out = out_channels_;
    const float *in = input.data().data();

    // One output row (all ox, all filters) at a time, so it and the
    // weight row of one (ci, ky, kx) stay cached while ox sweeps.
    // Per output element the terms accumulate in ascending (ci, ky,
    // kx) order after the bias, zero inputs skipped.
    for (int64_t oy = 0; oy < oh; ++oy) {
        float *out_row = out + oy * ow * c_out;
        for (int64_t ox = 0; ox < ow; ++ox)
            for (int64_t co = 0; co < c_out; ++co)
                out_row[ox * c_out + co] =
                    biases_[static_cast<size_t>(co)];
        for (int64_t ci = 0; ci < in_channels_; ++ci) {
            for (int64_t ky = 0; ky < kernel_; ++ky) {
                const float *in_row =
                    in + (ci * h + oy * stride_ + ky) * w;
                for (int64_t kx = 0; kx < kernel_; ++kx) {
                    const float *__restrict w_row =
                        &weights_[weightIndex(ci, 0, ky, kx)];
                    for (int64_t ox = 0; ox < ow; ++ox) {
                        const float in_v = in_row[ox * stride_ + kx];
                        if (in_v == 0.0f)
                            continue;
                        float *__restrict dst = out_row + ox * c_out;
                        for (int64_t co = 0; co < c_out; ++co)
                            dst[co] += in_v * w_row[co];
                    }
                }
            }
        }
    }
}

int64_t
Conv2DLayer::paramCount() const
{
    return in_channels_ * out_channels_ * kernel_ * kernel_ +
           out_channels_;
}

int64_t
Conv2DLayer::macCount(const Shape &input) const
{
    const Shape out_shape = outputShape(input);
    return out_shape.numel() * in_channels_ * kernel_ * kernel_;
}

} // namespace reuse
