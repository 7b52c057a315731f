/** @file Unit tests for the top-level accelerator simulator. */

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/reuse_engine.h"
#include "nn/activations.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"
#include "quant/range_profiler.h"
#include "sim/accelerator.h"

namespace reuse {
namespace {

struct Fixture {
    Rng rng{81};
    Network net{"mlp", Shape({32})};
    QuantizationPlan plan;

    Fixture()
    {
        net.addLayer(
            std::make_unique<FullyConnectedLayer>("FC1", 32, 256));
        net.addLayer(std::make_unique<ActivationLayer>(
            "RELU", ActivationKind::ReLU));
        net.addLayer(
            std::make_unique<FullyConnectedLayer>("FC2", 256, 64));
        initNetwork(net, rng);
        std::vector<Tensor> calib;
        for (int i = 0; i < 6; ++i) {
            Tensor t(Shape({32}));
            rng.fillGaussian(t.data(), 0.0f, 1.0f);
            calib.push_back(t);
        }
        const auto ranges = profileNetworkRanges(net, calib);
        plan = makePlan(net, ranges, 16, {0, 2});
    }

    std::vector<ExecutionTrace> traces(size_t frames, float sigma)
    {
        ReuseEngine engine(net, plan);
        ReuseState state = engine.makeState();
        ExecutionTrace trace;
        std::vector<ExecutionTrace> out;
        Tensor x(Shape({32}));
        rng.fillGaussian(x.data(), 0.0f, 1.0f);
        for (size_t i = 0; i < frames; ++i) {
            for (int64_t j = 0; j < 32; ++j)
                x[j] += rng.gaussian(0.0f, sigma);
            engine.execute(state, x, trace);
            out.push_back(trace);
        }
        return out;
    }
};

TEST(Accelerator, SimulateAccumulatesPerLayer)
{
    Fixture f;
    AcceleratorSim sim;
    const auto traces = f.traces(10, 0.1f);
    const auto result =
        sim.simulate(f.net, AccelMode::Reuse, traces);
    EXPECT_EQ(result.executions, 10);
    EXPECT_EQ(result.perLayer.size(), 3u);
    EXPECT_GT(result.cycles, 0.0);
    EXPECT_GT(result.seconds, 0.0);
    EXPECT_DOUBLE_EQ(result.seconds,
                     result.cycles / sim.params().frequencyHz);
    // Per-layer cycles sum to the total minus the initial DRAM load.
    double layer_cycles = 0.0;
    for (const auto &ev : result.perLayer)
        layer_cycles += ev.cycles;
    EXPECT_LE(layer_cycles, result.cycles + 1e-9);
}

TEST(Accelerator, InitialWeightLoadCharged)
{
    Fixture f;
    AcceleratorSim sim;
    const auto result =
        sim.simulate(f.net, AccelMode::Baseline, {});
    EXPECT_EQ(result.totals.dramWeightBytes,
              f.net.paramCount() * 4);
    EXPECT_GT(result.cycles, 0.0);
}

TEST(Accelerator, ReuseBeatsBaselineOnSimilarStream)
{
    Fixture f;
    AcceleratorSim sim;
    // Highly similar stream: tiny per-frame walk.
    const auto reuse_traces = f.traces(20, 0.02f);
    const auto reuse =
        sim.simulate(f.net, AccelMode::Reuse, reuse_traces);
    const auto baseline = sim.estimate(
        f.net, AccelMode::Baseline,
        std::vector<double>(f.net.layerCount(), -1.0), 20);
    EXPECT_GT(baseline.cycles, reuse.cycles);
}

TEST(Accelerator, EstimateBaselineMatchesFunctionalBaseline)
{
    // Synthetic baseline traces must match what a functional run
    // with a disabled plan produces.
    Fixture f;
    AcceleratorSim sim;
    ReuseEngine engine(f.net, QuantizationPlan(f.net));
    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    std::vector<ExecutionTrace> traces;
    Tensor x(Shape({32}), 0.5f);
    for (int i = 0; i < 3; ++i) {
        engine.execute(state, x, trace);
        traces.push_back(trace);
    }
    const auto functional =
        sim.simulate(f.net, AccelMode::Baseline, traces);
    const auto estimated = sim.estimate(
        f.net, AccelMode::Baseline,
        std::vector<double>(f.net.layerCount(), -1.0), 3);
    EXPECT_DOUBLE_EQ(functional.cycles, estimated.cycles);
    EXPECT_EQ(functional.totals.fpMul, estimated.totals.fpMul);
    EXPECT_EQ(functional.totals.edramWeightBytes,
              estimated.totals.edramWeightBytes);
}

TEST(Accelerator, EstimateSpeedupTracksSimilarity)
{
    Fixture f;
    AcceleratorSim sim;
    std::vector<double> sims(f.net.layerCount(), -1.0);
    sims[0] = 0.9;
    sims[2] = 0.9;
    const auto baseline = sim.estimate(
        f.net, AccelMode::Baseline, sims, 50);
    const auto reuse =
        sim.estimate(f.net, AccelMode::Reuse, sims, 50);
    const double speedup = baseline.cycles / reuse.cycles;
    // 90% similarity on every FC layer: speedup should approach but
    // not exceed ~10x (first execution and compare stage temper it).
    EXPECT_GT(speedup, 3.0);
    EXPECT_LT(speedup, 10.0);
}

TEST(Accelerator, EstimateMonotonicInSimilarity)
{
    Fixture f;
    AcceleratorSim sim;
    double prev_cycles = 1e300;
    for (double s : {0.0, 0.25, 0.5, 0.75, 0.95}) {
        std::vector<double> sims(f.net.layerCount(), -1.0);
        sims[0] = s;
        sims[2] = s;
        const auto r = sim.estimate(f.net, AccelMode::Reuse, sims, 20);
        EXPECT_LT(r.cycles, prev_cycles);
        prev_cycles = r.cycles;
    }
}

TEST(Accelerator, SynthesizedTraceShapes)
{
    Fixture f;
    std::vector<double> sims(f.net.layerCount(), -1.0);
    sims[0] = 0.5;
    const auto trace = synthesizeTrace(f.net, sims, false, 1);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_TRUE(trace[0].reuseEnabled);
    EXPECT_EQ(trace[0].inputsChanged, 16);
    EXPECT_EQ(trace[0].macsPerformed, trace[0].macsFull / 2);
    EXPECT_FALSE(trace[1].reuseEnabled);
    EXPECT_EQ(trace[2].macsPerformed, trace[2].macsFull);
}

TEST(Accelerator, FirstExecutionSynthesizedFromScratch)
{
    Fixture f;
    std::vector<double> sims(f.net.layerCount(), 0.9);
    const auto trace = synthesizeTrace(f.net, sims, true, 1);
    EXPECT_TRUE(trace[0].firstExecution);
    EXPECT_EQ(trace[0].macsPerformed, trace[0].macsFull);
}

} // namespace
} // namespace reuse
