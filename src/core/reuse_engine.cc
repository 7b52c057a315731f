#include "reuse_engine.h"

#include <cstdlib>

#include "common/logging.h"
#include "core/conv_reuse.h"
#include "core/fc_reuse.h"
#include "core/lstm_reuse.h"
#include "fault/fault_injector.h"
#include "ir/plan_cache.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/conv3d.h"
#include "obs/trace_recorder.h"

namespace reuse {

namespace {

/**
 * Process-wide default near-match radius: REUSE_CLUSTER_RADIUS
 * applies when the config leaves compileOptions.clusterRadius at 0,
 * so existing call sites can opt streams into near-match reuse
 * without code changes.  Invalid or negative values are ignored
 * with a warning (radius 0 = exact matching).
 */
int32_t
envClusterRadius()
{
    const char *env = std::getenv("REUSE_CLUSTER_RADIUS");
    if (env == nullptr || *env == '\0')
        return 0;
    char *end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v < 0 || v > (1 << 20)) {
        warn(std::string("REUSE_CLUSTER_RADIUS='") + env +
             "' is not a valid radius; using exact matching");
        return 0;
    }
    return static_cast<int32_t>(v);
}

/**
 * The reuse state a plan step carries between executions; null for a
 * step that runs from scratch.  The only place the engine reads the
 * step's ExecMode.
 */
std::unique_ptr<ReuseStepState>
makeStepState(const ir::PlanStep &step)
{
    const LayerQuantization &lq = step.quant;
    switch (step.mode) {
      case ir::ExecMode::FromScratch:
        return nullptr;
      case ir::ExecMode::FcReuse:
        return std::make_unique<FcReuseState>(
            static_cast<const FullyConnectedLayer &>(*step.layer),
            *lq.input, step.clusterRadius);
      case ir::ExecMode::ConvReuse:
        if (step.layer->kind() == LayerKind::Conv2D) {
            return std::make_unique<ConvReuseState>(
                static_cast<const Conv2DLayer &>(*step.layer),
                step.inShape, *lq.input, step.clusterRadius);
        }
        return std::make_unique<ConvReuseState>(
            static_cast<const Conv3DLayer &>(*step.layer), step.inShape,
            *lq.input, step.clusterRadius);
      case ir::ExecMode::BiLstmReuse:
        REUSE_ASSERT(lq.recurrent.has_value(),
                     "BiLSTM layer " << step.layer->name()
                         << " needs a recurrent quantizer");
        return std::make_unique<BiLstmReuseState>(
            static_cast<const BiLstmLayer &>(*step.layer), *lq.input,
            *lq.recurrent, step.clusterRadius);
      case ir::ExecMode::LstmReuse:
        REUSE_ASSERT(lq.recurrent.has_value(),
                     "LSTM layer " << step.layer->name()
                         << " needs a recurrent quantizer");
        return std::make_unique<LstmLayerReuseState>(
            static_cast<const LstmLayer &>(*step.layer), *lq.input,
            *lq.recurrent, step.clusterRadius);
    }
    return nullptr;
}

} // namespace

ReuseEngine::ReuseEngine(const Network &network, QuantizationPlan plan,
                         ReuseEngineConfig config)
    : network_(network),
      plan_(std::move(plan)),
      config_(config),
      drift_guard_(config.refreshPeriod, config.driftBound)
{
    if (config_.compileOptions.clusterRadius == 0)
        config_.compileOptions.clusterRadius = envClusterRadius();
    // Compile (or fetch from the process-wide cache) the execution
    // schedule.  Compilation subsumes static validation: the shape
    // and safety passes run over the IR before any rewrite, so an
    // engine over an inconsistent network/plan still fails here
    // instead of deep in execution.
    compiled_ = ir::PlanCache::instance().getOrCompile(
        network_, plan_, config_.compileOptions);
    const DiagnosticReport &report = compiled_->report();
    for (const Diagnostic &d : report.diagnostics()) {
        if (d.severity == Severity::Warning)
            warn(d.str());
    }
    if (report.hasErrors()) {
        fatal(network_.name() + ": model validation failed\n" +
              report.str());
    }
}

ReuseState
ReuseEngine::makeState() const
{
    // Sized and indexed by the ORIGINAL layer index, not the step
    // position: traces, drift accounting and the stats collector all
    // speak layer indices.
    ReuseState state;
    state.layers_.resize(network_.layerCount());
    for (const ir::PlanStep &step : compiled_->steps())
        state.layers_[step.layerIndex] = makeStepState(step);
    state.accumulated_drift_.assign(network_.layerCount(), 0.0);
    return state;
}

ReuseStatsCollector
ReuseEngine::makeStatsCollector() const
{
    std::vector<std::string> names;
    names.reserve(network_.layerCount());
    for (size_t i = 0; i < network_.layerCount(); ++i)
        names.push_back(network_.layer(i).name());
    return ReuseStatsCollector(std::move(names));
}

void
ReuseEngine::checkState(const ReuseState &state) const
{
    REUSE_ASSERT(state.layerCount() == network_.layerCount(),
                 "ReuseState not created by this engine's makeState()");
}

void
ReuseEngine::recordFromScratch(size_t li, const Shape &in_shape,
                               LayerExecRecord &rec) const
{
    const Layer &layer = network_.layer(li);
    rec.layerIndex = li;
    rec.kind = layer.kind();
    rec.reuseEnabled = false;
    rec.firstExecution = false;
    rec.inputsTotal = in_shape.numel();
    rec.outputsTotal = layer.outputShape(in_shape).numel();
    rec.macsFull = layer.macCount(in_shape);
    rec.macsPerformed = rec.macsFull;
    rec.steps = 1;
    if (layer.kind() == LayerKind::Conv2D) {
        rec.kernelExtent =
            static_cast<const Conv2DLayer &>(layer).kernel();
    } else if (layer.kind() == LayerKind::Conv3D) {
        rec.kernelExtent =
            static_cast<const Conv3DLayer &>(layer).kernel();
    }
}

Tensor
ReuseEngine::executeStep(ReuseState &state, const ir::PlanStep &step,
                         const Tensor &input, LayerExecRecord &rec) const
{
    const size_t li = step.layerIndex;
    rec.layerIndex = li;
    if (ReuseStepState *layer_state = state.layers_[li].get())
        return layer_state->execute(input, rec);
    recordFromScratch(li, input.shape(), rec);
    return step.layer->forward(input);
}

void
ReuseEngine::runFusedActivation(const ir::PlanStep &step, Tensor &t,
                                ExecutionTrace &trace,
                                uint32_t base_flags) const
{
    const size_t ai = step.fusedActivationIndex;
    LayerExecRecord &rec = trace[ai];
    obs::TraceSpan span(obs::SpanKind::LayerExec,
                        static_cast<int32_t>(ai));
    const auto &act =
        static_cast<const ActivationLayer &>(*step.fusedActivation);
    applyActivation(act.activation(), t);
    // The activation's trace record is exactly what an unfused
    // from-scratch execution would have produced (shape-preserving,
    // zero MACs), so fused and unfused traces are indistinguishable.
    recordFromScratch(ai, t.shape(), rec);
    if (span.active())
        span.args(rec.inputsChecked, rec.inputsChanged, rec.macsFull,
                  rec.macsPerformed, base_flags);
}

Tensor
ReuseEngine::execute(ReuseState &state, const Tensor &input,
                     ExecutionTrace &trace) const
{
    REUSE_ASSERT(!network_.isRecurrent(),
                 "use executeSequence() for recurrent networks");
    checkState(state);
    fault::maybeStall();
    fault::maybeFatal();

    // Outermost scope on this thread decides frame sampling; under
    // the serving runtime the server's scope (which knows the session
    // and frame ids) already decided and this one is a pass-through.
    obs::FrameTraceScope frame_scope(0, obs::kAutoFrame);

    const bool refreshed = drift_guard_.shouldRefresh(state);
    if (refreshed) {
        obs::recordInstant(obs::SpanKind::DriftRefresh, -1,
                           state.executions_since_refresh_);
        state.reset();
    }
    ++state.executions_since_refresh_;

    trace.clear();
    trace.resize(network_.layerCount());
    if (network_.layerCount() == 0)
        return input;
    // Walk the compiled schedule, chaining step outputs through a
    // pointer so the input tensor is never copied: the first step
    // reads `input` directly, later steps read the previous step's
    // output in place.
    const uint32_t refresh_flag =
        refreshed ? obs::kFlagDriftRefresh : 0u;
    const Tensor *current = &input;
    Tensor next;
    for (const ir::PlanStep &step : compiled_->steps()) {
        LayerExecRecord &rec = trace[step.layerIndex];
        {
            obs::TraceSpan span(
                obs::SpanKind::LayerExec,
                static_cast<int32_t>(step.layerIndex));
            next = executeStep(state, step, *current, rec);
            if (span.active()) {
                uint32_t flags = refresh_flag;
                if (rec.firstExecution)
                    flags |= obs::kFlagFirstExecution;
                if (rec.reuseEnabled)
                    flags |= obs::kFlagReuseEnabled;
                span.args(rec.inputsChecked, rec.inputsChanged,
                          rec.macsFull, rec.macsPerformed, flags);
            }
        }
        if (step.fusedActivation != nullptr)
            runFusedActivation(step, next, trace, refresh_flag);
        current = &next;
    }
    if (refreshed) {
        for (LayerExecRecord &rec : trace) {
            if (rec.reuseEnabled && rec.firstExecution)
                rec.driftRefresh = true;
        }
    }
    drift_guard_.accumulate(state, trace);
    return next;
}

std::vector<Tensor>
ReuseEngine::executeSequence(ReuseState &state,
                             const std::vector<Tensor> &inputs,
                             ExecutionTrace &trace) const
{
    checkState(state);
    fault::maybeStall();
    fault::maybeFatal();

    if (!network_.isRecurrent()) {
        // Feed-forward: the sequence is a stream of frames.
        std::vector<Tensor> outputs;
        outputs.reserve(inputs.size());
        ExecutionTrace combined;
        ExecutionTrace frame_trace;
        for (const Tensor &in : inputs) {
            outputs.push_back(execute(state, in, frame_trace));
            combined.insert(combined.end(), frame_trace.begin(),
                            frame_trace.end());
        }
        trace = std::move(combined);
        return outputs;
    }

    // Recurrent: the whole sequence flows layer-by-layer (Sec. IV-D);
    // each call is a fresh utterance, so reuse state starts clean.
    // For tracing, the utterance counts as one frame.
    obs::FrameTraceScope frame_scope(0, obs::kAutoFrame);
    state.reset();
    trace.clear();
    trace.resize(network_.layerCount());
    // The first layer reads the caller's inputs in place; each later
    // layer reads its predecessor's outputs.
    const std::vector<Tensor> *layer_in = &inputs;
    std::vector<Tensor> current;
    for (const ir::PlanStep &step : compiled_->steps()) {
        const size_t li = step.layerIndex;
        LayerExecRecord &rec = trace[li];
        rec.layerIndex = li;
        obs::TraceSpan layer_span(obs::SpanKind::LayerExec,
                                  static_cast<int32_t>(li));
        const Layer &layer = *step.layer;
        if (ReuseStepState *layer_state = state.layers_[li].get()) {
            // Recurrent layers reuse across timesteps; feed-forward
            // layers inside the RNN reuse the previous element.
            current = layer_state->executeSequence(*layer_in, rec);
        } else {
            // From-scratch layer, applied per sequence element.
            rec.kind = layer.kind();
            rec.reuseEnabled = false;
            rec.firstExecution = false;
            rec.steps = static_cast<int64_t>(layer_in->size());
            std::vector<Tensor> outputs;
            outputs.reserve(layer_in->size());
            for (const Tensor &in : *layer_in) {
                rec.inputsTotal += in.numel();
                const int64_t macs = layer.macCount(in.shape());
                rec.macsFull += macs;
                rec.macsPerformed += macs;
                Tensor out = layer.forward(in);
                rec.outputsTotal += out.numel();
                outputs.push_back(std::move(out));
            }
            current = std::move(outputs);
        }
        layer_in = &current;
        if (layer_span.active()) {
            uint32_t flags = 0;
            if (rec.firstExecution)
                flags |= obs::kFlagFirstExecution;
            if (rec.reuseEnabled)
                flags |= obs::kFlagReuseEnabled;
            layer_span.args(rec.inputsChecked, rec.inputsChanged,
                            rec.macsFull, rec.macsPerformed, flags);
        }
    }
    if (layer_in == &inputs)
        current = inputs;
    return current;
}

} // namespace reuse
