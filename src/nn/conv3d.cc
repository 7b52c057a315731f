#include "conv3d.h"

#include <algorithm>

#include "common/logging.h"
#include "ir/op_shapes.h"
#include "kernels/delta_kernels.h"

namespace reuse {

Conv3DLayer::Conv3DLayer(std::string name, int64_t in_channels,
                         int64_t out_channels, int64_t kernel,
                         int64_t pad)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      pad_(pad),
      weights_(static_cast<size_t>(in_channels * out_channels * kernel *
                                   kernel * kernel),
               0.0f),
      biases_(static_cast<size_t>(out_channels), 0.0f)
{
    REUSE_ASSERT(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                     pad >= 0,
                 "invalid conv3d parameters");
}

ShapeInference
Conv3DLayer::inferOutputShape(const Shape &input) const
{
    return toShapeInference(ir::inferConv3d(
        name(), input, in_channels_, out_channels_, kernel_, pad_));
}

Tensor
Conv3DLayer::forward(const Tensor &input) const
{
    const Shape out_shape = outputShape(input.shape());
    AlignedVector<float> dhwc(static_cast<size_t>(out_shape.numel()));
    forwardChannelsLast(input, dhwc.data());
    Tensor out(out_shape);
    kernels::channelsLastToFirst(
        dhwc.data(), out_shape.dim(1) * out_shape.dim(2) * out_shape.dim(3),
        out_channels_, out.data().data());
    return out;
}

void
Conv3DLayer::forwardChannelsLast(const Tensor &input, float *out) const
{
    const Shape out_shape = outputShape(input.shape());
    const int64_t d = input.shape().dim(1);
    const int64_t h = input.shape().dim(2);
    const int64_t w = input.shape().dim(3);
    const int64_t od = out_shape.dim(1);
    const int64_t oh = out_shape.dim(2);
    const int64_t ow = out_shape.dim(3);
    const int64_t c_out = out_channels_;
    const float *in = input.data().data();

    // One output row (all ox, all filters) at a time; padded taps
    // are skipped by clipping the kernel and ox ranges.  Per output
    // element the terms accumulate in ascending (ci, kd, ky, kx)
    // order after the bias, zero inputs skipped.
    for (int64_t oz = 0; oz < od; ++oz) {
        for (int64_t oy = 0; oy < oh; ++oy) {
            float *out_row = out + (oz * oh + oy) * ow * c_out;
            for (int64_t ox = 0; ox < ow; ++ox)
                for (int64_t co = 0; co < c_out; ++co)
                    out_row[ox * c_out + co] =
                        biases_[static_cast<size_t>(co)];
            for (int64_t ci = 0; ci < in_channels_; ++ci) {
                for (int64_t kd = 0; kd < kernel_; ++kd) {
                    const int64_t iz = oz - pad_ + kd;
                    if (iz < 0 || iz >= d)
                        continue;
                    for (int64_t ky = 0; ky < kernel_; ++ky) {
                        const int64_t iy = oy - pad_ + ky;
                        if (iy < 0 || iy >= h)
                            continue;
                        const float *in_row =
                            in + ((ci * d + iz) * h + iy) * w;
                        for (int64_t kx = 0; kx < kernel_; ++kx) {
                            const float *__restrict w_row = &weights_
                                [weightIndex(ci, 0, kd, ky, kx)];
                            // ix = ox - pad + kx must lie in [0, w).
                            const int64_t ox0 =
                                std::max<int64_t>(0, pad_ - kx);
                            const int64_t ox1 =
                                std::min(ow, w + pad_ - kx);
                            for (int64_t ox = ox0; ox < ox1; ++ox) {
                                const float in_v =
                                    in_row[ox - pad_ + kx];
                                if (in_v == 0.0f)
                                    continue;
                                float *__restrict dst =
                                    out_row + ox * c_out;
                                for (int64_t co = 0; co < c_out; ++co)
                                    dst[co] += in_v * w_row[co];
                            }
                        }
                    }
                }
            }
        }
    }
}

int64_t
Conv3DLayer::paramCount() const
{
    return in_channels_ * out_channels_ * kernel_ * kernel_ * kernel_ +
           out_channels_;
}

int64_t
Conv3DLayer::macCount(const Shape &input) const
{
    const Shape out_shape = outputShape(input);
    return out_shape.numel() * in_channels_ * kernel_ * kernel_ *
           kernel_;
}

} // namespace reuse
