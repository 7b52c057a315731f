/**
 * @file
 * Incremental (reuse-based) execution of a fully-connected layer
 * (Sec. IV-B of the paper).
 *
 * The state buffers the previous execution's quantized input indices
 * and output values.  Each new execution quantizes the inputs,
 * compares indices, and corrects the buffered outputs only for the
 * inputs that changed: z'_o = z_o + (c'_i - c_i) * W_io (Eq. 10).
 */

#ifndef REUSE_DNN_CORE_FC_REUSE_H
#define REUSE_DNN_CORE_FC_REUSE_H

#include <vector>

#include "common/aligned.h"
#include "core/reuse_step_state.h"
#include "kernels/change_list.h"
#include "nn/fully_connected.h"
#include "quant/linear_quantizer.h"

namespace reuse {

/**
 * Reuse state and incremental executor for one FC layer.
 */
class FcReuseState final : public ReuseStepState
{
  public:
    /**
     * @param layer The FC layer; must outlive this state.
     * @param quantizer Input quantizer (copied; quantizers are small).
     * @param cluster_radius Near-match cluster radius in quantization
     *        steps: index moves of at most this distance keep the
     *        buffered representative instead of emitting a correction
     *        (0 = exact matching, bit-exact with the baseline).
     */
    FcReuseState(const FullyConnectedLayer &layer,
                 LinearQuantizer quantizer, int32_t cluster_radius = 0);

    /**
     * Executes the layer on `input` with reuse; the first call (or the
     * first after reset()) computes from scratch on the quantized
     * input.
     */
    Tensor execute(const Tensor &input, LayerExecRecord &rec) override;

    void reset() override { has_prev_ = false; }
    void releaseBuffers() override;
    /** Bytes held by the prev-indices/outputs buffers. */
    int64_t memoryBytes() const override;
    bool hasPrev() const override { return has_prev_; }
    void hashInto(uint64_t &h) const override;
    bool debugCorruptBuffer(uint64_t seed) override;
    std::unique_ptr<ReuseStepState> clone() const override
    {
        return std::make_unique<FcReuseState>(*this);
    }

    /** Buffered output values of the previous execution. */
    const AlignedVector<float> &prevOutputs() const
    {
        return prev_outputs_;
    }

    /** Buffered quantization indices of the previous execution. */
    const AlignedVector<int32_t> &prevIndices() const
    {
        return prev_indices_;
    }

    /** The input quantizer in use. */
    const LinearQuantizer &quantizer() const { return quantizer_; }

    /** The near-match cluster radius (0 = exact matching). */
    int32_t clusterRadius() const { return cluster_radius_; }

  private:
    const FullyConnectedLayer &layer_;
    LinearQuantizer quantizer_;
    int32_t cluster_radius_ = 0;
    bool has_prev_ = false;
    AlignedVector<int32_t> prev_indices_;
    AlignedVector<float> prev_outputs_;
    /** Per-frame (position, delta) scratch, reused across frames. */
    kernels::ChangeList changes_;
};

} // namespace reuse

#endif // REUSE_DNN_CORE_FC_REUSE_H
