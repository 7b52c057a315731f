/**
 * @file
 * The per-layer reuse-state interface.
 *
 * Every reuse-enabled layer of a stream carries one ReuseStepState:
 * the previous execution's quantized inputs and outputs (Sec. IV,
 * Table III) plus the incremental executor that corrects them.  A
 * ReuseState holds these in one vector indexed by layer, and the
 * engine drives them through this interface only, never by kind.
 *
 * Feed-forward states (FC, conv) execute single frames; recurrent
 * states (LSTM, BiLSTM) execute whole sequences, reusing across
 * timesteps.
 */

#ifndef REUSE_DNN_CORE_REUSE_STEP_STATE_H
#define REUSE_DNN_CORE_REUSE_STEP_STATE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned.h"
#include "core/exec_record.h"
#include "tensor/tensor.h"

namespace reuse {

/** Reuse state and incremental executor of one layer of one stream. */
class ReuseStepState
{
  public:
    virtual ~ReuseStepState() = default;

    /**
     * Executes one frame with reuse against the buffered previous
     * execution, updating the buffers and filling `rec`.  The first
     * call (or the first after reset()) computes from scratch.
     * Recurrent states run whole sequences only; calling this on one
     * panics.
     */
    virtual Tensor execute(const Tensor &input, LayerExecRecord &rec);

    /**
     * Executes a sequence, filling `rec` with totals over its steps.
     * By default each element runs through execute(), so the previous
     * execution of a step is the previous element, and the step
     * records are summed with LayerExecRecord::accumulate().
     */
    virtual std::vector<Tensor>
    executeSequence(const std::vector<Tensor> &inputs,
                    LayerExecRecord &rec);

    /** Drops the buffered execution (stream/sequence boundary). */
    virtual void reset() = 0;

    /**
     * Drops the buffered execution AND frees the buffer storage
     * (session eviction).  The next execution re-allocates lazily.
     */
    virtual void releaseBuffers() = 0;

    /** Bytes currently held by the reuse buffers. */
    virtual int64_t memoryBytes() const = 0;

    /** Folds the buffered state into checksum state `h`. */
    virtual void hashInto(uint64_t &h) const = 0;

    /** True when a previous execution is buffered. */
    virtual bool hasPrev() const = 0;

    /**
     * Testing hook: flips one seed-selected mantissa bit in the
     * buffered outputs (between-frame corruption).  Returns false
     * when nothing is buffered.
     */
    virtual bool debugCorruptBuffer(uint64_t seed) = 0;

    /** Deep copy, buffers and history included. */
    virtual std::unique_ptr<ReuseStepState> clone() const = 0;

  protected:
    ReuseStepState() = default;
    ReuseStepState(const ReuseStepState &) = default;
    ReuseStepState &operator=(const ReuseStepState &) = delete;
};

/**
 * Flips one seed-selected mantissa bit of `buf`; the shared body of
 * every debugCorruptBuffer().  Returns false when `buf` is empty.
 */
bool flipMantissaBit(AlignedVector<float> &buf, uint64_t seed);

} // namespace reuse

#endif // REUSE_DNN_CORE_REUSE_STEP_STATE_H
