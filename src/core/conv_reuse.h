/**
 * @file
 * Incremental (reuse-based) execution of convolutional layers
 * (Sec. IV-C of the paper).
 *
 * The state buffers the previous execution's quantized input indices
 * and the full previous output volume.  For every changed input
 * element, all output neurons whose receptive field covers it are
 * corrected by delta * weight; unchanged inputs are skipped entirely.
 *
 * The buffered output volume is channels-last (HWC for 2D, DHWC for
 * 3D): every corrected window is one contiguous row of C_out floats,
 * matching the input-major weight rows (the kernels' contract, see
 * kernels/delta_kernels.h).  execute() returns the layer's usual
 * channels-first tensor, transposed from the buffer.
 */

#ifndef REUSE_DNN_CORE_CONV_REUSE_H
#define REUSE_DNN_CORE_CONV_REUSE_H

#include <vector>

#include "common/aligned.h"
#include "core/reuse_step_state.h"
#include "kernels/change_list.h"
#include "kernels/delta_kernels.h"
#include "nn/conv2d.h"
#include "nn/conv3d.h"
#include "quant/linear_quantizer.h"

namespace reuse {

/** Reuse state and incremental executor for a Conv2D or Conv3D layer. */
class ConvReuseState final : public ReuseStepState
{
  public:
    /** Builds reuse state for a 2D convolution. */
    ConvReuseState(const Conv2DLayer &layer, Shape input_shape,
                   LinearQuantizer quantizer,
                   int32_t cluster_radius = 0);

    /** Builds reuse state for a 3D convolution. */
    ConvReuseState(const Conv3DLayer &layer, Shape input_shape,
                   LinearQuantizer quantizer,
                   int32_t cluster_radius = 0);

    /** Executes the convolution on `input` with reuse. */
    Tensor execute(const Tensor &input, LayerExecRecord &rec) override;

    void reset() override { has_prev_ = false; }
    void releaseBuffers() override;
    /** Bytes held by the prev-indices/output buffers. */
    int64_t memoryBytes() const override;
    bool hasPrev() const override { return has_prev_; }
    void hashInto(uint64_t &h) const override;
    bool debugCorruptBuffer(uint64_t seed) override;
    std::unique_ptr<ReuseStepState> clone() const override
    {
        return std::make_unique<ConvReuseState>(*this);
    }

    /** The input quantizer in use. */
    const LinearQuantizer &quantizer() const { return quantizer_; }

    /** The near-match cluster radius (0 = exact matching). */
    int32_t clusterRadius() const { return cluster_radius_; }

  private:
    /** Shared constructor: exactly one of the layers is non-null. */
    ConvReuseState(const Conv2DLayer *conv2d, const Conv3DLayer *conv3d,
                   const Layer &layer, Shape input_shape,
                   LinearQuantizer quantizer, int32_t cluster_radius);

    /** From-scratch execution into the buffer (no previous frame). */
    void firstExecution(const Tensor &input, LayerExecRecord &rec);

    /** Channels-first copy of the buffered output. */
    Tensor bufferedOutput() const;

    const Conv2DLayer *conv2d_ = nullptr;
    const Conv3DLayer *conv3d_ = nullptr;
    LayerKind kind_;
    Shape input_shape_;
    /** Output shape, MAC count and delta geometry, fixed at build. */
    Shape out_shape_;
    int64_t macs_full_ = 0;
    int64_t kernel_ = 0;
    kernels::Conv2dGeometry geom2d_;
    kernels::Conv3dGeometry geom3d_;
    LinearQuantizer quantizer_;
    int32_t cluster_radius_ = 0;
    bool has_prev_ = false;
    AlignedVector<int32_t> prev_indices_;
    /** Previous output volume, channels-last (HWC / DHWC). */
    AlignedVector<float> prev_output_;
    /** Per-frame (position, delta) scratch, reused across frames. */
    kernels::ChangeList changes_;
};

} // namespace reuse

#endif // REUSE_DNN_CORE_CONV_REUSE_H
