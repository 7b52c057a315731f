#include "experiment.h"

#include "common/logging.h"
#include "quant/range_profiler.h"

namespace reuse {

QuantizationPlan
calibratePlan(const Network &network,
              const std::vector<Tensor> &calibration_inputs,
              int clusters, const std::vector<size_t> &enabled_layers)
{
    const NetworkRanges ranges =
        profileNetworkRanges(network, calibration_inputs);
    return makePlan(network, ranges, clusters, enabled_layers);
}

namespace {

std::vector<double>
similarityFrom(const ReuseStatsCollector &stats)
{
    std::vector<double> sims;
    sims.reserve(stats.layers().size());
    for (const auto &l : stats.layers()) {
        if (l.reuseEnabled && l.inputsChecked > 0)
            sims.push_back(l.similarity());
        else
            sims.push_back(-1.0);
    }
    return sims;
}

std::vector<double>
reuseFrom(const ReuseStatsCollector &stats)
{
    std::vector<double> fracs;
    fracs.reserve(stats.layers().size());
    for (const auto &l : stats.layers()) {
        if (l.reuseEnabled && l.macsFull > 0)
            fracs.push_back(l.computationReuse());
        else
            fracs.push_back(-1.0);
    }
    return fracs;
}

} // namespace

std::vector<double>
layerSimilarityVector(const ReuseStatsCollector &stats)
{
    return similarityFrom(stats);
}

WorkloadMeasurement
measureWorkload(const Network &network, const QuantizationPlan &plan,
                const std::vector<Tensor> &inputs,
                const MeasureOptions &options)
{
    REUSE_ASSERT(!inputs.empty(), "no inputs to measure");
    WorkloadMeasurement m;

    if (network.isRecurrent()) {
        return measureWorkloadSequences(network, plan, {inputs},
                                        options);
    }

    ReuseEngine engine(network, plan);
    ReuseState state = engine.makeState();
    ReuseStatsCollector stats = engine.makeStatsCollector();
    std::vector<Tensor> reuse_outputs;
    reuse_outputs.reserve(inputs.size());
    ExecutionTrace trace;
    for (const Tensor &in : inputs) {
        reuse_outputs.push_back(engine.execute(state, in, trace));
        stats.addTrace(trace);
        m.traces.push_back(trace);
    }

    if (options.withReference) {
        std::vector<Tensor> reference;
        reference.reserve(inputs.size());
        for (const Tensor &in : inputs)
            reference.push_back(network.forward(in));
        m.accuracy = compareOutputs(reference, reuse_outputs);
    }

    m.stats = std::move(stats);
    m.layerSimilarity = similarityFrom(m.stats);
    m.layerReuse = reuseFrom(m.stats);
    return m;
}

WorkloadMeasurement
measureWorkloadSequences(const Network &network,
                         const QuantizationPlan &plan,
                         const std::vector<std::vector<Tensor>> &sequences,
                         const MeasureOptions &options)
{
    REUSE_ASSERT(!sequences.empty(), "no sequences to measure");
    WorkloadMeasurement m;
    ReuseEngine engine(network, plan);
    ReuseState state = engine.makeState();
    ReuseStatsCollector stats = engine.makeStatsCollector();

    std::vector<Tensor> reuse_outputs;
    std::vector<Tensor> reference;
    ExecutionTrace trace;
    for (const auto &seq : sequences) {
        std::vector<Tensor> out = engine.executeSequence(state, seq, trace);
        stats.addTrace(trace);
        m.traces.push_back(trace);
        for (auto &t : out)
            reuse_outputs.push_back(std::move(t));
        if (options.withReference) {
            std::vector<Tensor> ref = network.forwardSequence(seq);
            for (auto &t : ref)
                reference.push_back(std::move(t));
        }
    }

    m.stats = std::move(stats);
    if (options.withReference)
        m.accuracy = compareOutputs(reference, reuse_outputs);
    m.layerSimilarity = similarityFrom(m.stats);
    m.layerReuse = reuseFrom(m.stats);
    return m;
}

} // namespace reuse
