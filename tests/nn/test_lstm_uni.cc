/** @file Unit tests for the unidirectional LSTM layer. */

#include <gtest/gtest.h>

#include "common/random.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"
#include "nn/lstm.h"
#include "nn/network.h"

namespace reuse {
namespace {

TEST(LstmLayer, ShapesAndFlags)
{
    LstmLayer layer("lstm", 10, 6);
    EXPECT_EQ(layer.kind(), LayerKind::Lstm);
    EXPECT_TRUE(layer.isRecurrent());
    EXPECT_TRUE(layer.isReusable());
    EXPECT_EQ(layer.outputShape(Shape({10})), Shape({6}));
    EXPECT_EQ(layer.paramCount(), layer.cell().paramCount());
    EXPECT_EQ(layer.macCount(Shape({10})),
              layer.cell().macCountPerStep());
    EXPECT_STREQ(layerKindName(layer.kind()), "LSTM");
}

TEST(LstmLayer, ForwardSequenceMatchesManualCellSteps)
{
    Rng rng(201);
    LstmLayer layer("lstm", 5, 4);
    initLstm(layer.cell(), rng);

    std::vector<Tensor> seq;
    for (int t = 0; t < 6; ++t) {
        Tensor x(Shape({5}));
        rng.fillGaussian(x.data(), 0.0f, 1.0f);
        seq.push_back(x);
    }
    const auto outs = layer.forwardSequence(seq);
    ASSERT_EQ(outs.size(), seq.size());

    LstmCell::State state = layer.cell().initialState();
    LstmCell::Workspace ws;
    for (size_t t = 0; t < seq.size(); ++t) {
        layer.cell().step(seq[t].data().data(), state, ws);
        for (int64_t j = 0; j < 4; ++j)
            EXPECT_FLOAT_EQ(outs[t][j], state.h[static_cast<size_t>(j)]);
    }
}

TEST(LstmLayer, OutputsAreBounded)
{
    Rng rng(202);
    LstmLayer layer("lstm", 8, 6);
    initLstm(layer.cell(), rng);
    std::vector<Tensor> seq;
    for (int t = 0; t < 15; ++t) {
        Tensor x(Shape({8}));
        rng.fillGaussian(x.data(), 0.0f, 3.0f);
        seq.push_back(x);
    }
    for (const auto &out : layer.forwardSequence(seq)) {
        for (int64_t j = 0; j < out.numel(); ++j) {
            EXPECT_GT(out[j], -1.0f);
            EXPECT_LT(out[j], 1.0f);
        }
    }
}

TEST(LstmLayer, WorksInsideNetwork)
{
    Rng rng(203);
    Network net("deepspeech-ish", Shape({16}));
    net.addLayer(std::make_unique<LstmLayer>("LSTM1", 16, 12));
    net.addLayer(std::make_unique<LstmLayer>("LSTM2", 12, 12));
    net.addLayer(std::make_unique<FullyConnectedLayer>("FC", 12, 4));
    initNetwork(net, rng);
    EXPECT_TRUE(net.isRecurrent());
    EXPECT_EQ(net.outputShape(), Shape({4}));

    std::vector<Tensor> seq;
    for (int t = 0; t < 5; ++t) {
        Tensor x(Shape({16}));
        rng.fillGaussian(x.data(), 0.0f, 1.0f);
        seq.push_back(x);
    }
    const auto outs = net.forwardSequence(seq);
    ASSERT_EQ(outs.size(), 5u);
    for (const auto &o : outs)
        EXPECT_EQ(o.shape(), Shape({4}));
}

TEST(LstmLayerDeath, SingleStepForwardPanics)
{
    LstmLayer layer("lstm", 3, 2);
    EXPECT_DEATH((void)layer.forward(Tensor(Shape({3}))),
                 "forwardSequence");
}

} // namespace
} // namespace reuse
