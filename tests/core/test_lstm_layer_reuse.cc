/** @file Unit tests for reuse on unidirectional LSTM layers. */

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/lstm_reuse.h"
#include "core/reuse_engine.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"
#include "nn/lstm.h"
#include "quant/range_profiler.h"

namespace reuse {
namespace {

std::vector<Tensor>
slowSequence(Rng &rng, int64_t dim, size_t len, float sigma)
{
    std::vector<Tensor> seq;
    Tensor x(Shape({dim}));
    rng.fillGaussian(x.data(), 0.0f, 1.0f);
    for (size_t t = 0; t < len; ++t) {
        for (int64_t i = 0; i < dim; ++i)
            x[i] += rng.gaussian(0.0f, sigma);
        seq.push_back(x);
    }
    return seq;
}

TEST(LstmLayerReuse, FineQuantizationTracksReference)
{
    Rng rng(211);
    LstmLayer layer("lstm", 6, 5);
    initLstm(layer.cell(), rng);
    LstmLayerReuseState state(layer,
                              LinearQuantizer(4096, -4.0f, 4.0f),
                              LinearQuantizer(4096, -1.0f, 1.0f));
    const auto seq = slowSequence(rng, 6, 10, 0.2f);
    LayerExecRecord rec;
    const auto got = state.executeSequence(seq, rec);
    const auto want = layer.forwardSequence(seq);
    ASSERT_EQ(got.size(), want.size());
    for (size_t t = 0; t < got.size(); ++t)
        for (int64_t j = 0; j < got[t].numel(); ++j)
            EXPECT_NEAR(got[t][j], want[t][j], 3e-2f);
}

TEST(LstmLayerReuse, RecordAggregatesSteps)
{
    Rng rng(212);
    LstmLayer layer("lstm", 7, 4);
    initLstm(layer.cell(), rng);
    LstmLayerReuseState state(layer, LinearQuantizer(16, -4.0f, 4.0f),
                              LinearQuantizer(16, -1.0f, 1.0f));
    const auto seq = slowSequence(rng, 7, 8, 0.05f);
    LayerExecRecord rec;
    state.executeSequence(seq, rec);
    EXPECT_EQ(rec.kind, LayerKind::Lstm);
    EXPECT_EQ(rec.steps, 8);
    // 8 steps x (7 x-inputs + 4 h-inputs), one direction only.
    EXPECT_EQ(rec.inputsTotal, 8 * (7 + 4));
    EXPECT_EQ(rec.macsFull, 8 * layer.cell().macCountPerStep());
    // First step is from scratch: 7 checked steps remain.
    EXPECT_EQ(rec.inputsChecked, 7 * (7 + 4));
}

TEST(LstmLayerReuse, SlowSequencesShowReuse)
{
    Rng rng(213);
    LstmLayer layer("lstm", 10, 8);
    initLstm(layer.cell(), rng);
    LstmLayerReuseState state(layer, LinearQuantizer(16, -4.0f, 4.0f),
                              LinearQuantizer(16, -1.0f, 1.0f));
    const auto seq = slowSequence(rng, 10, 20, 0.004f);
    LayerExecRecord rec;
    state.executeSequence(seq, rec);
    EXPECT_GT(rec.similarity(), 0.5);
    EXPECT_GT(rec.reuseFraction(), 0.5);
}

TEST(LstmLayerReuse, EngineRunsUniLstmNetwork)
{
    Rng rng(214);
    Network net("rnn", Shape({8}));
    net.addLayer(std::make_unique<LstmLayer>("LSTM1", 8, 6));
    net.addLayer(std::make_unique<FullyConnectedLayer>("FC", 6, 3));
    initNetwork(net, rng);

    const auto seq = slowSequence(rng, 8, 10, 0.05f);
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

    EXPECT_EQ(trace[0].kind, LayerKind::Lstm);
    EXPECT_TRUE(trace[0].reuseEnabled);
    EXPECT_EQ(trace[0].steps, 10);
}

TEST(LstmLayerReuse, ResetReproducesSequence)
{
    Rng rng(215);
    LstmLayer layer("lstm", 4, 3);
    initLstm(layer.cell(), rng);
    LstmLayerReuseState state(layer,
                              LinearQuantizer(4096, -4.0f, 4.0f),
                              LinearQuantizer(4096, -1.0f, 1.0f));
    const auto seq = slowSequence(rng, 4, 5, 0.1f);
    LayerExecRecord rec1;
    const auto out1 = state.executeSequence(seq, rec1);
    state.reset();
    LayerExecRecord rec2;
    const auto out2 = state.executeSequence(seq, rec2);
    for (size_t t = 0; t < out1.size(); ++t)
        for (int64_t j = 0; j < out1[t].numel(); ++j)
            EXPECT_FLOAT_EQ(out1[t][j], out2[t][j]);
}

TEST(LstmLayerReuseDeath, SingleFrameExecutePanics)
{
    Rng rng(216);
    LstmLayer layer("lstm", 4, 3);
    initLstm(layer.cell(), rng);
    LstmLayerReuseState state(layer, LinearQuantizer(16, -4.0f, 4.0f),
                              LinearQuantizer(16, -1.0f, 1.0f));
    LayerExecRecord rec;
    EXPECT_DEATH((void)state.execute(Tensor(Shape({4})), rec),
                 "executeSequence");
}

} // namespace
} // namespace reuse
