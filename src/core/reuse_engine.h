/**
 * @file
 * Reuse-based inference engine: drives a whole network over a stream
 * of inputs, executing quantization-enabled layers incrementally and
 * the remaining layers from scratch, while recording per-layer
 * execution traces for the statistics collector and the accelerator
 * simulator.
 *
 * The engine itself is immutable once constructed (network, plan,
 * config); all per-stream mutable state lives in a ReuseState.  The
 * stateless execute(ReuseState&, ...) const overloads are safe to
 * call from many threads concurrently as long as each ReuseState is
 * used by one thread at a time — this is what the serving runtime
 * (src/serve) builds on.
 */

#ifndef REUSE_DNN_CORE_REUSE_ENGINE_H
#define REUSE_DNN_CORE_REUSE_ENGINE_H

#include <memory>
#include <vector>

#include "core/drift_guard.h"
#include "core/exec_record.h"
#include "core/reuse_state.h"
#include "core/reuse_stats.h"
#include "ir/compiled_plan.h"
#include "nn/network.h"
#include "quant/quantization_plan.h"

namespace reuse {

/** Tunables of the reuse engine. */
struct ReuseEngineConfig {
    /**
     * Recompute enabled layers from scratch every `refreshPeriod`
     * executions to bound floating-point drift of the incremental
     * corrections; 0 disables refresh (the paper's configuration).
     */
    int refreshPeriod = 0;
    /**
     * Accumulated relative drift estimate (incremental MACs since the
     * last refresh times FLT_EPSILON; see DriftGuard) at which any
     * layer forces a full refresh; 0 disables the bound.
     */
    double driftBound = 0.0;
    /**
     * IR compilation options (pass selection and pinning policy); the
     * defaults are behavior-preserving.  Engines sharing options and
     * a model share one cached CompiledPlan (see ir/plan_cache.h).
     *
     * compileOptions.clusterRadius selects near-match reuse; when it
     * is left at 0 the engine constructor honors the
     * REUSE_CLUSTER_RADIUS environment variable as a process-wide
     * default.
     */
    ir::CompileOptions compileOptions;
};

/**
 * Engine implementing the paper's reuse-based inference.
 *
 * Each input stream owns a ReuseState from makeState().  For
 * feed-forward networks, call execute() once per frame; the engine
 * compares each enabled layer's quantized inputs against the previous
 * frame.  For recurrent networks, call executeSequence() once per
 * sequence (utterance); LSTM layers reuse across timesteps.
 * ReuseState::reset() emulates the accelerator being power gated
 * between input streams; ReuseStatsCollector::addTrace() accumulates
 * the returned traces into similarity/reuse statistics.
 */
class ReuseEngine
{
  public:
    /**
     * @param network Network to execute; must outlive the engine.
     * @param plan Per-layer quantization plan (copied).
     * @param config Engine tunables.
     */
    ReuseEngine(const Network &network, QuantizationPlan plan,
                ReuseEngineConfig config = {});

    /** Builds a fresh (cold) per-stream state for this engine. */
    ReuseState makeState() const;

    /** Builds a stats collector labelled with this network's layers. */
    ReuseStatsCollector makeStatsCollector() const;

    /**
     * Executes one frame of the stream owned by `state` (feed-forward
     * networks only), filling `trace` with per-layer records.
     */
    Tensor execute(ReuseState &state, const Tensor &input,
                   ExecutionTrace &trace) const;

    /**
     * Executes an input sequence against `state`.  For recurrent
     * networks the whole sequence flows layer-by-layer (state is
     * reset at the sequence boundary); for feed-forward networks this
     * maps execute() over the elements and concatenates the traces.
     */
    std::vector<Tensor> executeSequence(ReuseState &state,
                                        const std::vector<Tensor> &inputs,
                                        ExecutionTrace &trace) const;

    /** The network being executed. */
    const Network &network() const { return network_; }

    /** The active quantization plan. */
    const QuantizationPlan &plan() const { return plan_; }

    /** The engine tunables. */
    const ReuseEngineConfig &config() const { return config_; }

    /** The refresh policy derived from the config. */
    const DriftGuard &driftGuard() const { return drift_guard_; }

    /** The compiled execution schedule the engine runs. */
    const ir::CompiledPlan &compiledPlan() const { return *compiled_; }

    /** Shared handle to the schedule (for cache/introspection). */
    std::shared_ptr<const ir::CompiledPlan> compiledPlanPtr() const
    {
        return compiled_;
    }

  private:
    /** Executes one feed-forward plan step with or without reuse. */
    Tensor executeStep(ReuseState &state, const ir::PlanStep &step,
                       const Tensor &input, LayerExecRecord &rec) const;

    /**
     * Applies `step`'s fused activation to `t` in place, filling the
     * activation's own trace record and span exactly as an unfused
     * from-scratch execution would.
     */
    void runFusedActivation(const ir::PlanStep &step, Tensor &t,
                            ExecutionTrace &trace,
                            uint32_t base_flags) const;

    /** Fills a record for a from-scratch (non-reuse) execution. */
    void recordFromScratch(size_t li, const Shape &in_shape,
                           LayerExecRecord &rec) const;

    /** Panics when `state` was not created by this engine's makeState. */
    void checkState(const ReuseState &state) const;

    const Network &network_;
    QuantizationPlan plan_;
    ReuseEngineConfig config_;
    DriftGuard drift_guard_;
    std::shared_ptr<const ir::CompiledPlan> compiled_;
};

} // namespace reuse

#endif // REUSE_DNN_CORE_REUSE_ENGINE_H
