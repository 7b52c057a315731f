/**
 * @file
 * Incremental (reuse-based) execution of bidirectional LSTM layers
 * (Sec. IV-D of the paper).
 *
 * Recurrent layers run back-to-back over every element of the input
 * sequence, so "the previous execution" is the previous timestep of
 * the same cell.  Both the feed-forward input x_t and the recurrent
 * input h_{t-1} are quantized and compared to the values of the
 * previous step; corrections update the buffered gate pre-activations
 * of all four gates at once, since the gates share their inputs.
 */

#ifndef REUSE_DNN_CORE_LSTM_REUSE_H
#define REUSE_DNN_CORE_LSTM_REUSE_H

#include <vector>

#include "common/aligned.h"
#include "core/reuse_step_state.h"
#include "kernels/change_list.h"
#include "nn/lstm.h"
#include "quant/linear_quantizer.h"

namespace reuse {

/**
 * Reuse state for one LSTM cell direction.
 *
 * The state persists across the timesteps of one sequence and is
 * reset at sequence boundaries (the accelerator is power gated
 * between utterances; Sec. IV-A).
 */
class LstmCellReuseState
{
  public:
    /**
     * @param cell The LSTM cell; must outlive this state.
     * @param x_quantizer Quantizer for feed-forward inputs.
     * @param h_quantizer Quantizer for recurrent inputs.
     * @param owner_kind Layer kind of the owning layer, used to
     *        target fault-injection at uni- vs bidirectional LSTMs.
     */
    LstmCellReuseState(const LstmCell &cell, LinearQuantizer x_quantizer,
                       LinearQuantizer h_quantizer,
                       LayerKind owner_kind = LayerKind::BiLstm,
                       int32_t cluster_radius = 0);

    /**
     * Advances the cell one timestep with reuse.  Accumulates what
     * happened into `rec` (so the caller can aggregate steps and
     * directions into a single layer record).  Returns h_t, which
     * the state updates in place: valid until the next step.
     */
    const AlignedVector<float> &step(const AlignedVector<float> &x,
                                     LayerExecRecord &rec);

    /** Resets to the initial (h=0, c=0, no history) state. */
    void reset() { has_prev_ = false; }

    /** reset() + frees index/pre-activation storage (eviction). */
    void releaseBuffers();

    /** Bytes currently held by the buffered indices/pre-activations. */
    int64_t memoryBytes() const;

    /** Folds the buffered step state into checksum state `h`. */
    void hashInto(uint64_t &h) const;

    /** True when a previous timestep is buffered. */
    bool hasPrev() const { return has_prev_; }

    /** Flips one mantissa bit of the buffered input-gate preacts. */
    bool debugCorruptBuffer(uint64_t seed);

  private:
    const LstmCell &cell_;
    LinearQuantizer x_quant_;
    LinearQuantizer h_quant_;
    LayerKind owner_kind_;
    int32_t cluster_radius_ = 0;
    bool has_prev_ = false;
    AlignedVector<int32_t> prev_x_indices_;
    AlignedVector<int32_t> prev_h_indices_;
    LstmCell::Preacts preacts_;
    LstmCell::State state_;
    /** Per-step change lists (a first step's nonzero rows), reused. */
    kernels::ChangeList x_changes_;
    kernels::ChangeList h_changes_;
};

/**
 * Reuse state for a unidirectional LSTM layer: a single cell advanced
 * forward over the sequence, emitting one aggregated LayerExecRecord.
 */
class LstmLayerReuseState final : public ReuseStepState
{
  public:
    LstmLayerReuseState(const LstmLayer &layer,
                        LinearQuantizer x_quantizer,
                        LinearQuantizer h_quantizer,
                        int32_t cluster_radius = 0);

    /** Processes a whole sequence with reuse across timesteps. */
    std::vector<Tensor> executeSequence(const std::vector<Tensor> &inputs,
                                        LayerExecRecord &rec) override;

    void reset() override { cell_.reset(); }
    void releaseBuffers() override { cell_.releaseBuffers(); }
    int64_t memoryBytes() const override { return cell_.memoryBytes(); }
    void hashInto(uint64_t &h) const override { cell_.hashInto(h); }
    bool hasPrev() const override { return cell_.hasPrev(); }
    bool debugCorruptBuffer(uint64_t seed) override
    {
        return cell_.debugCorruptBuffer(seed);
    }
    std::unique_ptr<ReuseStepState> clone() const override
    {
        return std::make_unique<LstmLayerReuseState>(*this);
    }

  private:
    const LstmLayer &layer_;
    LstmCellReuseState cell_;
};

/**
 * Reuse state for a bidirectional LSTM layer: one cell state per
 * direction; executeSequence() runs both directions over the sequence
 * — at once on the kernel pool above the threading threshold, like
 * BiLstmLayer::forwardSequence() — and emits one aggregated
 * LayerExecRecord.
 */
class BiLstmReuseState final : public ReuseStepState
{
  public:
    BiLstmReuseState(const BiLstmLayer &layer, LinearQuantizer x_quantizer,
                     LinearQuantizer h_quantizer,
                     int32_t cluster_radius = 0);

    /**
     * Processes a whole sequence with reuse across timesteps; fills
     * `rec` with totals aggregated over steps, directions and gates.
     */
    std::vector<Tensor> executeSequence(const std::vector<Tensor> &inputs,
                                        LayerExecRecord &rec) override;

    /** executeSequence() fanning the directions out on `dispatch`. */
    std::vector<Tensor>
    executeSequence(const std::vector<Tensor> &inputs,
                    LayerExecRecord &rec,
                    const kernels::DeltaDispatch &dispatch);

    void reset() override
    {
        forward_.reset();
        backward_.reset();
    }
    void releaseBuffers() override
    {
        forward_.releaseBuffers();
        backward_.releaseBuffers();
    }
    int64_t memoryBytes() const override
    {
        return forward_.memoryBytes() + backward_.memoryBytes();
    }
    void hashInto(uint64_t &h) const override
    {
        forward_.hashInto(h);
        backward_.hashInto(h);
    }
    bool hasPrev() const override
    {
        return forward_.hasPrev() || backward_.hasPrev();
    }
    bool debugCorruptBuffer(uint64_t seed) override
    {
        return forward_.debugCorruptBuffer(seed);
    }
    std::unique_ptr<ReuseStepState> clone() const override
    {
        return std::make_unique<BiLstmReuseState>(*this);
    }

  private:
    const BiLstmLayer &layer_;
    LstmCellReuseState forward_;
    LstmCellReuseState backward_;
};

} // namespace reuse

#endif // REUSE_DNN_CORE_LSTM_REUSE_H
