/** @file Consistency tests between functional simulation and the
 *  analytic (similarity-driven) estimator. */

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/reuse_engine.h"
#include "harness/experiment.h"
#include "nn/activations.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"
#include "quant/range_profiler.h"
#include "sim/accelerator.h"

namespace reuse {
namespace {

struct Fixture {
    Rng rng{101};
    Network net{"mlp", Shape({64})};
    QuantizationPlan plan;

    Fixture()
    {
        net.addLayer(
            std::make_unique<FullyConnectedLayer>("FC1", 64, 512));
        net.addLayer(std::make_unique<ActivationLayer>(
            "RELU", ActivationKind::ReLU));
        net.addLayer(
            std::make_unique<FullyConnectedLayer>("FC2", 512, 128));
        initNetwork(net, rng);
        std::vector<Tensor> calib;
        for (int i = 0; i < 8; ++i) {
            Tensor t(Shape({64}));
            rng.fillGaussian(t.data(), 0.0f, 1.0f);
            calib.push_back(t);
        }
        const auto ranges = profileNetworkRanges(net, calib);
        plan = makePlan(net, ranges, 16, {0, 2});
    }
};

TEST(EstimateConsistency, MeasuredSimilarityReproducesCycles)
{
    // Run functionally, extract per-layer similarity, feed it to the
    // analytic estimator: total cycles must agree closely (the
    // estimator only approximates the per-execution distribution of
    // changes by its mean).
    Fixture f;
    ReuseEngine engine(f.net, f.plan);
    ReuseState state = engine.makeState();
    ReuseStatsCollector stats = engine.makeStatsCollector();
    ExecutionTrace trace;
    std::vector<ExecutionTrace> traces;
    Tensor x(Shape({64}));
    f.rng.fillGaussian(x.data(), 0.0f, 1.0f);
    const int execs = 30;
    for (int i = 0; i < execs; ++i) {
        for (int64_t j = 0; j < 64; ++j)
            x[j] += f.rng.gaussian(0.0f, 0.05f);
        engine.execute(state, x, trace);
        stats.addTrace(trace);
        traces.push_back(trace);
    }
    const auto sims = layerSimilarityVector(stats);

    AcceleratorSim sim;
    const auto functional =
        sim.simulate(f.net, AccelMode::Reuse, traces);
    const auto estimated =
        sim.estimate(f.net, AccelMode::Reuse, sims, execs);
    EXPECT_NEAR(estimated.cycles / functional.cycles, 1.0, 0.15);
    EXPECT_NEAR(static_cast<double>(estimated.totals.fpMul) /
                    static_cast<double>(functional.totals.fpMul),
                1.0, 0.15);
}

TEST(EstimateConsistency, BaselineExactMatch)
{
    Fixture f;
    ReuseEngine engine(f.net, QuantizationPlan(f.net));
    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    std::vector<ExecutionTrace> traces;
    Tensor x(Shape({64}), 0.25f);
    for (int i = 0; i < 5; ++i) {
        engine.execute(state, x, trace);
        traces.push_back(trace);
    }
    AcceleratorSim sim;
    const auto functional =
        sim.simulate(f.net, AccelMode::Baseline, traces);
    const auto estimated = sim.estimate(
        f.net, AccelMode::Baseline,
        std::vector<double>(f.net.layerCount(), -1.0), 5);
    EXPECT_DOUBLE_EQ(functional.cycles, estimated.cycles);
    EXPECT_EQ(functional.totals.edramWeightBytes,
              estimated.totals.edramWeightBytes);
    EXPECT_EQ(functional.totals.ioReadBytes,
              estimated.totals.ioReadBytes);
    EXPECT_EQ(functional.totals.fpAdd, estimated.totals.fpAdd);
}

TEST(EstimateConsistency, EstimateInBaselineModeIgnoresSimilarity)
{
    Fixture f;
    AcceleratorSim sim;
    std::vector<double> sims(f.net.layerCount(), 0.99);
    const auto a =
        sim.estimate(f.net, AccelMode::Baseline, sims, 4);
    const auto b = sim.estimate(
        f.net, AccelMode::Baseline,
        std::vector<double>(f.net.layerCount(), -1.0), 4);
    EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
}

} // namespace
} // namespace reuse
