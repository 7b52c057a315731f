/**
 * @file
 * 2D convolutional layer (valid padding, configurable stride), as used
 * by the AutoPilot network.
 *
 * Weights are stored input-channel-major per kernel position so the
 * set of weights touched by one input pixel (all output filters at one
 * kernel offset) is contiguous, matching the accelerator's interleaved
 * weight layout (Sec. IV-C).  Outputs are accumulated channels-last
 * (HWC), so each multiply-accumulate row over the output filters is
 * unit-stride in both the weights and the outputs.
 */

#ifndef REUSE_DNN_NN_CONV2D_H
#define REUSE_DNN_NN_CONV2D_H

#include "common/aligned.h"
#include "nn/layer.h"

namespace reuse {

/**
 * 2D convolution: input [C_in, H, W] -> output [C_out, H', W'] with
 * H' = (H - Kh) / stride + 1 (valid padding).
 */
class Conv2DLayer : public Layer
{
  public:
    /**
     * @param name Layer name used in reports.
     * @param in_channels Number of input feature maps.
     * @param out_channels Number of filters / output feature maps.
     * @param kernel Kernel size K (square KxK kernels).
     * @param stride Stride in both spatial dimensions.
     */
    Conv2DLayer(std::string name, int64_t in_channels,
                int64_t out_channels, int64_t kernel, int64_t stride);

    LayerKind kind() const override { return LayerKind::Conv2D; }
    ShapeInference inferOutputShape(const Shape &input) const override;
    Tensor forward(const Tensor &input) const override;
    int64_t paramCount() const override;
    int64_t macCount(const Shape &input) const override;

    int64_t inChannels() const { return in_channels_; }
    int64_t outChannels() const { return out_channels_; }
    int64_t kernel() const { return kernel_; }
    int64_t stride() const { return stride_; }

    /**
     * Weight for (input channel ci, output filter co, kernel row ky,
     * kernel col kx).  Layout: w[((ci*K + ky)*K + kx)*C_out + co].
     */
    float weight(int64_t ci, int64_t co, int64_t ky, int64_t kx) const
    {
        return weights_[weightIndex(ci, co, ky, kx)];
    }

    /** Mutable access to the same weight. */
    float &weight(int64_t ci, int64_t co, int64_t ky, int64_t kx)
    {
        return weights_[weightIndex(ci, co, ky, kx)];
    }

    /** Flat weight storage. */
    AlignedVector<float> &weights() { return weights_; }
    const AlignedVector<float> &weights() const { return weights_; }

    /** Per-filter biases. */
    AlignedVector<float> &biases() { return biases_; }
    const AlignedVector<float> &biases() const { return biases_; }

    /**
     * Computes the output channels-last into `out`:
     * out[(oy * W' + ox) * C_out + co], outputShape().numel() floats.
     * forward() is this plus a transpose to [C_out, H', W']; the
     * reuse state keeps its buffer in this layout (see
     * core/conv_reuse.h).
     */
    void forwardChannelsLast(const Tensor &input, float *out) const;

  private:
    size_t weightIndex(int64_t ci, int64_t co, int64_t ky,
                       int64_t kx) const
    {
        return static_cast<size_t>(
            ((ci * kernel_ + ky) * kernel_ + kx) * out_channels_ + co);
    }

    int64_t in_channels_;
    int64_t out_channels_;
    int64_t kernel_;
    int64_t stride_;
    AlignedVector<float> weights_;
    AlignedVector<float> biases_;
};

} // namespace reuse

#endif // REUSE_DNN_NN_CONV2D_H
