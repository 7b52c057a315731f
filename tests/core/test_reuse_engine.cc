/** @file Unit tests for the whole-network reuse engine. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/fc_reuse.h"
#include "core/lstm_reuse.h"
#include "core/reuse_engine.h"
#include "nn/activations.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"
#include "nn/lstm.h"
#include "quant/range_profiler.h"

namespace reuse {
namespace {

struct MlpFixture {
    Rng rng{61};
    Network net{"mlp", Shape({6})};
    std::vector<Tensor> calib;
    NetworkRanges ranges;

    MlpFixture()
    {
        net.addLayer(
            std::make_unique<FullyConnectedLayer>("FC1", 6, 10));
        net.addLayer(std::make_unique<ActivationLayer>(
            "RELU", ActivationKind::ReLU));
        net.addLayer(
            std::make_unique<FullyConnectedLayer>("FC2", 10, 4));
        initNetwork(net, rng);
        for (int i = 0; i < 10; ++i) {
            Tensor t(Shape({6}));
            rng.fillGaussian(t.data(), 0.0f, 1.0f);
            calib.push_back(t);
        }
        ranges = profileNetworkRanges(net, calib);
    }

    QuantizationPlan plan(int clusters = 512,
                          std::vector<size_t> layers = {0, 2})
    {
        return makePlan(net, ranges, clusters, layers);
    }

    std::vector<Tensor> stream(size_t frames, float sigma)
    {
        std::vector<Tensor> s;
        Tensor x(Shape({6}));
        rng.fillGaussian(x.data(), 0.0f, 1.0f);
        for (size_t i = 0; i < frames; ++i) {
            for (int64_t j = 0; j < 6; ++j)
                x[j] += rng.gaussian(0.0f, sigma);
            s.push_back(x);
        }
        return s;
    }
};

TEST(ReuseEngine, FineQuantizationMatchesReference)
{
    // Small walk keeps inputs inside the calibrated quantizer range,
    // so with 4096 clusters the only divergence from the FP32
    // reference is negligible quantization noise.
    MlpFixture f;
    ReuseEngine engine(f.net, f.plan(4096));
    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    for (const Tensor &in : f.stream(20, 0.02f)) {
        const Tensor got = engine.execute(state, in, trace);
        const Tensor want = f.net.forward(in);
        for (int64_t j = 0; j < got.numel(); ++j)
            EXPECT_NEAR(got[j], want[j], 2e-2f);
    }
}

TEST(ReuseEngine, TraceCoversEveryLayer)
{
    MlpFixture f;
    ReuseEngine engine(f.net, f.plan());
    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    engine.execute(state, f.calib[0], trace);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_TRUE(trace[0].reuseEnabled);
    EXPECT_FALSE(trace[1].reuseEnabled);
    EXPECT_TRUE(trace[2].reuseEnabled);
    EXPECT_TRUE(trace[0].firstExecution);
}

TEST(ReuseEngine, DisabledPlanIsPureFromScratch)
{
    MlpFixture f;
    ReuseEngine engine(f.net, QuantizationPlan(f.net));
    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    const Tensor in = f.calib[0];
    const Tensor got = engine.execute(state, in, trace);
    const Tensor want = f.net.forward(in);
    for (int64_t j = 0; j < got.numel(); ++j)
        EXPECT_FLOAT_EQ(got[j], want[j]);
    for (const auto &rec : trace) {
        EXPECT_FALSE(rec.reuseEnabled);
        EXPECT_EQ(rec.macsPerformed, rec.macsFull);
    }
}

TEST(ReuseEngine, SecondIdenticalFrameSkipsEnabledLayers)
{
    MlpFixture f;
    ReuseEngine engine(f.net, f.plan());
    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    engine.execute(state, f.calib[0], trace);
    engine.execute(state, f.calib[0], trace);
    EXPECT_EQ(trace[0].inputsChanged, 0);
    EXPECT_EQ(trace[0].macsPerformed, 0);
    // FC2's input is FC1's (unchanged) output through ReLU.
    EXPECT_EQ(trace[2].inputsChanged, 0);
}

TEST(ReuseEngine, StatsAccumulateAcrossFrames)
{
    MlpFixture f;
    ReuseEngine engine(f.net, f.plan(16));
    ReuseState state = engine.makeState();
    ReuseStatsCollector stats = engine.makeStatsCollector();
    ExecutionTrace trace;
    for (const Tensor &in : f.stream(15, 0.05f)) {
        engine.execute(state, in, trace);
        stats.addTrace(trace);
    }
    const auto &layers = stats.layers();
    ASSERT_EQ(layers.size(), 3u);
    EXPECT_EQ(layers[0].executions + layers[0].firstExecutions, 15);
    EXPECT_GT(layers[0].similarity(), 0.0);
    EXPECT_EQ(layers[0].layerName, "FC1");
}

TEST(ReuseEngine, ResetStateForcesFromScratch)
{
    MlpFixture f;
    ReuseEngine engine(f.net, f.plan());
    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    engine.execute(state, f.calib[0], trace);
    state.reset();
    engine.execute(state, f.calib[0], trace);
    EXPECT_TRUE(trace[0].firstExecution);
}

TEST(ReuseEngine, RefreshPeriodTriggersPeriodically)
{
    MlpFixture f;
    ReuseEngineConfig cfg;
    cfg.refreshPeriod = 3;
    ReuseEngine engine(f.net, f.plan(), cfg);
    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    int first_count = 0;
    for (int i = 0; i < 9; ++i) {
        engine.execute(state, f.calib[0], trace);
        first_count += trace[0].firstExecution ? 1 : 0;
    }
    EXPECT_EQ(first_count, 3);   // frames 0, 3, 6
}

TEST(ReuseEngine, SequenceOfFramesMatchesPerFrameExecution)
{
    MlpFixture f;
    const auto frames = f.stream(5, 0.1f);
    ReuseEngine engine(f.net, f.plan(64));
    ReuseState a = engine.makeState();
    ReuseState b = engine.makeState();
    ExecutionTrace trace;
    const auto batch = engine.executeSequence(a, frames, trace);
    ASSERT_EQ(trace.size(), frames.size() * f.net.layerCount());
    for (size_t i = 0; i < frames.size(); ++i) {
        const Tensor one = engine.execute(b, frames[i], trace);
        for (int64_t j = 0; j < one.numel(); ++j)
            EXPECT_FLOAT_EQ(batch[i][j], one[j]);
    }
}

TEST(ReuseEngine, RecurrentNetworkRuns)
{
    Rng rng(62);
    Network net("rnn", Shape({5}));
    net.addLayer(std::make_unique<BiLstmLayer>("L1", 5, 4));
    net.addLayer(std::make_unique<FullyConnectedLayer>("FC", 8, 3));
    initNetwork(net, rng);

    std::vector<Tensor> seq;
    Tensor x(Shape({5}));
    rng.fillGaussian(x.data(), 0.0f, 1.0f);
    for (int t = 0; t < 8; ++t) {
        for (int64_t j = 0; j < 5; ++j)
            x[j] += rng.gaussian(0.0f, 0.05f);
        seq.push_back(x);
    }
    const NetworkRanges ranges = profileNetworkRanges(net, seq);
    const QuantizationPlan plan = makePlan(net, ranges, 4096, {0, 1});
    ReuseEngine engine(net, plan);
    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    const auto got = engine.executeSequence(state, seq, trace);
    const auto want = net.forwardSequence(seq);
    ASSERT_EQ(got.size(), want.size());
    for (size_t t = 0; t < got.size(); ++t)
        for (int64_t j = 0; j < got[t].numel(); ++j)
            EXPECT_NEAR(got[t][j], want[t][j], 5e-2f);

    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].kind, LayerKind::BiLstm);
    EXPECT_EQ(trace[0].steps, 8);
    EXPECT_EQ(trace[1].steps, 8);
    EXPECT_TRUE(trace[1].reuseEnabled);
}

TEST(ReuseEngine, RecurrentFcRecordSumsStepRecords)
{
    // An FC layer inside an RNN reuses across timesteps; its layer
    // record must be the field-wise sum of the per-step records,
    // near-match counters included.
    Rng rng(64);
    Network net("rnn", Shape({5}));
    net.addLayer(std::make_unique<BiLstmLayer>("L1", 5, 4));
    net.addLayer(std::make_unique<FullyConnectedLayer>("FC", 8, 3));
    initNetwork(net, rng);

    std::vector<Tensor> seq;
    Tensor x(Shape({5}));
    rng.fillGaussian(x.data(), 0.0f, 1.0f);
    for (int t = 0; t < 16; ++t) {
        for (int64_t j = 0; j < 5; ++j)
            x[j] += rng.gaussian(0.0f, 0.05f);
        seq.push_back(x);
    }
    const NetworkRanges ranges = profileNetworkRanges(net, seq);
    ReuseEngineConfig cfg;
    cfg.compileOptions.clusterRadius = 4;
    ReuseEngine engine(net, makePlan(net, ranges, 256, {0, 1}), cfg);
    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    engine.executeSequence(state, seq, trace);
    ASSERT_EQ(trace.size(), 2u);

    // Replay the FC layer step by step on the BiLSTM's outputs.
    const ir::PlanStep &bi_step = engine.compiledPlan().steps()[0];
    const ir::PlanStep &fc_step = engine.compiledPlan().steps()[1];
    ASSERT_EQ(fc_step.clusterRadius, 4);
    BiLstmReuseState bi(static_cast<const BiLstmLayer &>(net.layer(0)),
                        *bi_step.quant.input, *bi_step.quant.recurrent,
                        bi_step.clusterRadius);
    LayerExecRecord bi_rec;
    const std::vector<Tensor> hidden = bi.executeSequence(seq, bi_rec);
    FcReuseState fc(static_cast<const FullyConnectedLayer &>(net.layer(1)),
                    *fc_step.quant.input, fc_step.clusterRadius);
    LayerExecRecord sum;
    for (const Tensor &h : hidden) {
        LayerExecRecord rec;
        fc.execute(h, rec);
        sum.inputsChecked += rec.inputsChecked;
        sum.inputsChanged += rec.inputsChanged;
        sum.inputsNearMatched += rec.inputsNearMatched;
        sum.nearMatchDrift += rec.nearMatchDrift;
        sum.inputsTotal += rec.inputsTotal;
        sum.outputsTotal += rec.outputsTotal;
        sum.macsFull += rec.macsFull;
        sum.macsPerformed += rec.macsPerformed;
    }

    const LayerExecRecord &got = trace[1];
    EXPECT_GT(sum.inputsNearMatched, 0);
    EXPECT_EQ(got.kind, LayerKind::FullyConnected);
    EXPECT_TRUE(got.reuseEnabled);
    EXPECT_FALSE(got.firstExecution);
    EXPECT_EQ(got.steps, 16);
    EXPECT_EQ(got.inputsChecked, sum.inputsChecked);
    EXPECT_EQ(got.inputsChanged, sum.inputsChanged);
    EXPECT_EQ(got.inputsNearMatched, sum.inputsNearMatched);
    EXPECT_DOUBLE_EQ(got.nearMatchDrift, sum.nearMatchDrift);
    EXPECT_EQ(got.inputsTotal, sum.inputsTotal);
    EXPECT_EQ(got.outputsTotal, sum.outputsTotal);
    EXPECT_EQ(got.macsFull, sum.macsFull);
    EXPECT_EQ(got.macsPerformed, sum.macsPerformed);
}

TEST(ReuseEngineDeath, ExecuteOnRecurrentPanics)
{
    Rng rng(63);
    Network net("rnn", Shape({5}));
    net.addLayer(std::make_unique<BiLstmLayer>("L1", 5, 4));
    initNetwork(net, rng);
    ReuseEngine engine(net, QuantizationPlan(net));
    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    EXPECT_DEATH((void)engine.execute(state, Tensor(Shape({5})), trace),
                 "executeSequence");
}

} // namespace
} // namespace reuse
