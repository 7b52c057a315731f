/**
 * @file
 * 3D convolutional layer (same or valid padding), as used by C3D for
 * video classification (Eq. 2 of the paper).
 *
 * Input layout is [C, D, H, W]: feature maps, temporal depth, height,
 * width.  Weights follow the same input-major interleaving as the
 * other layers: all output filters for one (ci, kd, ky, kx) position
 * are contiguous.  Outputs are accumulated channels-last (DHWC) so
 * the filters of one output voxel are contiguous too.
 */

#ifndef REUSE_DNN_NN_CONV3D_H
#define REUSE_DNN_NN_CONV3D_H

#include "common/aligned.h"
#include "nn/layer.h"

namespace reuse {

/**
 * 3D convolution with cubic kernels KxKxK, stride 1, and optional
 * symmetric zero padding (C3D uses K=3, pad=1 for shape-preserving
 * convolutions).
 */
class Conv3DLayer : public Layer
{
  public:
    /**
     * @param name Layer name used in reports.
     * @param in_channels Number of input feature maps N_if.
     * @param out_channels Number of filters / output feature maps.
     * @param kernel Cubic kernel size K.
     * @param pad Symmetric zero padding in all three dimensions.
     */
    Conv3DLayer(std::string name, int64_t in_channels,
                int64_t out_channels, int64_t kernel, int64_t pad);

    LayerKind kind() const override { return LayerKind::Conv3D; }
    ShapeInference inferOutputShape(const Shape &input) const override;
    Tensor forward(const Tensor &input) const override;
    int64_t paramCount() const override;
    int64_t macCount(const Shape &input) const override;

    int64_t inChannels() const { return in_channels_; }
    int64_t outChannels() const { return out_channels_; }
    int64_t kernel() const { return kernel_; }
    int64_t pad() const { return pad_; }

    /** Flat weight storage. */
    AlignedVector<float> &weights() { return weights_; }
    const AlignedVector<float> &weights() const { return weights_; }

    /** Per-filter biases. */
    AlignedVector<float> &biases() { return biases_; }
    const AlignedVector<float> &biases() const { return biases_; }

    /**
     * Computes the output channels-last into `out`:
     * out[((oz * H' + oy) * W' + ox) * C_out + co],
     * outputShape().numel() floats.  forward() is this plus a
     * transpose to [C_out, D', H', W'].
     */
    void forwardChannelsLast(const Tensor &input, float *out) const;

  private:
    size_t weightIndex(int64_t ci, int64_t co, int64_t kd, int64_t ky,
                       int64_t kx) const
    {
        return static_cast<size_t>(
            (((ci * kernel_ + kd) * kernel_ + ky) * kernel_ + kx) *
                out_channels_ +
            co);
    }

    int64_t in_channels_;
    int64_t out_channels_;
    int64_t kernel_;
    int64_t pad_;
    AlignedVector<float> weights_;
    AlignedVector<float> biases_;
};

} // namespace reuse

#endif // REUSE_DNN_NN_CONV3D_H
