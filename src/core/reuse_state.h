/**
 * @file
 * Per-stream reuse state, factored out of the reuse engine so that
 * many concurrent streams (serving sessions) can share one immutable
 * engine.  A ReuseState owns every buffer the paper's technique needs
 * to carry between consecutive executions of one input stream: one
 * ReuseStepState (previous quantized input indices and previous
 * outputs) per enabled layer, plus the refresh counter.
 */

#ifndef REUSE_DNN_CORE_REUSE_STATE_H
#define REUSE_DNN_CORE_REUSE_STATE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/reuse_step_state.h"

namespace reuse {

/**
 * The mutable, per-stream half of reuse-based inference.
 *
 * Created by ReuseEngine::makeState(); one instance per concurrent
 * input stream.  Movable (hand a session its state), cloneable (fork
 * a warmed stream), and evictable: releaseBuffers() frees the buffer
 * memory so a serving runtime can reclaim it under a budget, after
 * which the next execution simply runs from scratch and re-warms.
 *
 * A default-constructed ReuseState is empty and only valid for an
 * engine whose network it was sized for via ReuseEngine::makeState().
 */
class ReuseState
{
  public:
    ReuseState() = default;
    ReuseState(ReuseState &&) = default;
    ReuseState &operator=(ReuseState &&) = default;
    ReuseState(const ReuseState &) = delete;
    ReuseState &operator=(const ReuseState &) = delete;

    /** Deep copy (buffers and history included). */
    ReuseState clone() const;

    /**
     * Drops all buffered history (stream boundary / refresh); buffer
     * storage stays allocated for the next frame.
     */
    void reset();

    /**
     * Drops all buffered history AND frees the buffer storage
     * (session eviction).  The stream degrades to a from-scratch
     * execution on its next frame and re-warms automatically.
     */
    void releaseBuffers();

    /** Bytes currently held by all per-layer reuse buffers. */
    int64_t memoryBytes() const;

    /** True when any layer has a buffered previous execution. */
    bool warm() const;

    /** Number of layers this state was sized for (0 when empty). */
    size_t layerCount() const { return layers_.size(); }

    /** Executions since the last refresh/reset (drift control). */
    int64_t executionsSinceRefresh() const
    {
        return executions_since_refresh_;
    }

    /**
     * Per-layer accumulated drift estimate (incremental MACs since
     * the layer's last from-scratch execution, times FLT_EPSILON);
     * maintained by the engine's DriftGuard, empty when the engine
     * has no drift bound configured.
     */
    const std::vector<double> &accumulatedDrift() const
    {
        return accumulated_drift_;
    }

    /**
     * Order-stable FNV-1a checksum over every buffered byte this
     * state carries between frames (previous indices, previous
     * outputs / pre-activations, counters).  The serving runtime
     * validates it on dequeue to detect between-frame corruption.
     */
    uint64_t checksum() const;

    /**
     * Testing hook (active only when the build compiles fault
     * injection in): flips one seed-selected mantissa bit in the
     * first warm layer's buffered state, simulating between-frame
     * state corruption.  Returns false when nothing is warm or the
     * hooks are compiled out.
     */
    bool debugCorruptBuffer(uint64_t seed);

  private:
    friend class ReuseEngine;
    friend class DriftGuard;

    /** Indexed by network layer; null where the layer runs from scratch. */
    std::vector<std::unique_ptr<ReuseStepState>> layers_;

    int64_t executions_since_refresh_ = 0;
    /** Per-layer drift accumulators (see accumulatedDrift()). */
    std::vector<double> accumulated_drift_;
};

} // namespace reuse

#endif // REUSE_DNN_CORE_REUSE_STATE_H
