/** @file Unit tests for the LSTM cell and bidirectional LSTM layer. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/math_utils.h"
#include "common/random.h"
#include "nn/initializers.h"
#include "nn/lstm.h"

namespace reuse {
namespace {

TEST(LstmCell, InitialStateIsZero)
{
    LstmCell cell(4, 3);
    const auto s = cell.initialState();
    EXPECT_EQ(s.h.size(), 3u);
    EXPECT_EQ(s.c.size(), 3u);
    for (float v : s.h)
        EXPECT_EQ(v, 0.0f);
    for (float v : s.c)
        EXPECT_EQ(v, 0.0f);
}

TEST(LstmCell, StepMatchesManualGateEquations)
{
    // One-dimensional cell with hand-set weights so Eqs. 3-8 can be
    // evaluated by hand.
    LstmCell cell(1, 1);
    const float wx[4] = {0.5f, -0.3f, 0.8f, 0.2f};
    const float wh[4] = {0.1f, 0.4f, -0.2f, 0.6f};
    const float b[4] = {0.05f, 1.0f, -0.1f, 0.0f};
    for (int g = 0; g < NumLstmGates; ++g) {
        cell.feedForward(g).weight(0, 0) = wx[g];
        cell.feedForward(g).biases()[0] = b[g];
        cell.recurrent(g).weight(0, 0) = wh[g];
        cell.recurrent(g).biases()[0] = 0.0f;
    }
    LstmCell::State prev;
    prev.h = {0.3f};
    prev.c = {-0.2f};
    const AlignedVector<float> x = {0.7f};
    LstmCell::State s = prev;
    LstmCell::Workspace ws;
    cell.step(x.data(), s, ws);

    const float zi = wx[0] * x[0] + wh[0] * prev.h[0] + b[0];
    const float zf = wx[1] * x[0] + wh[1] * prev.h[0] + b[1];
    const float zg = wx[2] * x[0] + wh[2] * prev.h[0] + b[2];
    const float zo = wx[3] * x[0] + wh[3] * prev.h[0] + b[3];
    const float c_t = sigmoid(zf) * prev.c[0] +
                      sigmoid(zi) * std::tanh(zg);
    const float h_t = sigmoid(zo) * std::tanh(c_t);
    EXPECT_NEAR(s.c[0], c_t, 1e-6f);
    EXPECT_NEAR(s.h[0], h_t, 1e-6f);
}

TEST(LstmCell, HiddenOutputBounded)
{
    // h = sigmoid(.) * tanh(.) is always in (-1, 1).
    Rng rng(3);
    LstmCell cell(8, 6);
    initLstm(cell, rng);
    LstmCell::State s = cell.initialState();
    LstmCell::Workspace ws;
    for (int t = 0; t < 20; ++t) {
        AlignedVector<float> x(8);
        for (auto &v : x)
            v = rng.gaussian(0.0f, 2.0f);
        cell.step(x.data(), s, ws);
        for (float h : s.h) {
            EXPECT_GT(h, -1.0f);
            EXPECT_LT(h, 1.0f);
        }
    }
}

TEST(LstmCell, PreactsPlusFinishEqualsStep)
{
    Rng rng(4);
    LstmCell cell(5, 4);
    initLstm(cell, rng);
    LstmCell::State prev = cell.initialState();
    AlignedVector<float> x(5);
    for (auto &v : x)
        v = rng.gaussian(0.0f, 1.0f);
    kernels::ChangeList x_rows;
    kernels::ChangeList h_rows;
    kernels::collectRows(x.data(), 5, x_rows);
    kernels::collectRows(prev.h.data(), 4, h_rows);
    LstmCell::Preacts preacts;
    cell.computePreacts(x_rows, h_rows, preacts);
    LstmCell::State s1 = prev;
    cell.finishStep(preacts, s1);
    LstmCell::State s2 = prev;
    LstmCell::Workspace ws;
    cell.step(x.data(), s2, ws);
    for (size_t j = 0; j < s1.h.size(); ++j) {
        EXPECT_FLOAT_EQ(s1.h[j], s2.h[j]);
        EXPECT_FLOAT_EQ(s1.c[j], s2.c[j]);
    }
}

TEST(LstmCell, CountsMatchDimensions)
{
    LstmCell cell(120, 320);
    EXPECT_EQ(cell.macCountPerStep(),
              4 * (120 * 320 + 320 * 320));
    // 4 gates x (Wx + bias + Wh + zero-bias-vector).
    EXPECT_EQ(cell.paramCount(),
              4 * (120 * 320 + 320 + 320 * 320 + 320));
}

TEST(BiLstm, OutputIsConcatOfDirections)
{
    Rng rng(5);
    BiLstmLayer layer("bilstm", 6, 4);
    initLstm(layer, rng);
    std::vector<Tensor> seq;
    for (int t = 0; t < 5; ++t) {
        Tensor x(Shape({6}));
        rng.fillGaussian(x.data(), 0.0f, 1.0f);
        seq.push_back(x);
    }
    const auto out = layer.forwardSequence(seq);
    ASSERT_EQ(out.size(), 5u);
    for (const auto &o : out)
        EXPECT_EQ(o.shape(), Shape({8}));

    // Forward half at t=0 must equal one manual forward-cell step.
    LstmCell::Workspace ws;
    auto s = layer.forwardCell().initialState();
    layer.forwardCell().step(seq[0].data().data(), s, ws);
    for (int64_t j = 0; j < 4; ++j)
        EXPECT_FLOAT_EQ(out[0][j], s.h[static_cast<size_t>(j)]);

    // Backward half at the last step equals one backward-cell step on
    // the last input.
    auto sb = layer.backwardCell().initialState();
    layer.backwardCell().step(seq[4].data().data(), sb, ws);
    for (int64_t j = 0; j < 4; ++j)
        EXPECT_FLOAT_EQ(out[4][4 + j], sb.h[static_cast<size_t>(j)]);
}

TEST(BiLstm, RecurrentFlagsAndShapes)
{
    BiLstmLayer layer("bilstm", 120, 320);
    EXPECT_TRUE(layer.isRecurrent());
    EXPECT_TRUE(layer.isReusable());
    EXPECT_EQ(layer.outputDim(), 640);
    EXPECT_EQ(layer.outputShape(Shape({120})), Shape({640}));
    EXPECT_EQ(layer.paramCount(),
              2 * layer.forwardCell().paramCount());
}

TEST(BiLstm, ReversedInputMirrorsDirections)
{
    // Running the layer on the reversed sequence must swap the roles
    // of the two directions when the cells share weights.
    Rng rng(6);
    BiLstmLayer layer("bilstm", 3, 2);
    initLstm(layer.forwardCell(), rng);
    // Copy forward weights into the backward cell.
    for (int g = 0; g < NumLstmGates; ++g) {
        layer.backwardCell().feedForward(g).weights() =
            layer.forwardCell().feedForward(g).weights();
        layer.backwardCell().feedForward(g).biases() =
            layer.forwardCell().feedForward(g).biases();
        layer.backwardCell().recurrent(g).weights() =
            layer.forwardCell().recurrent(g).weights();
        layer.backwardCell().recurrent(g).biases() =
            layer.forwardCell().recurrent(g).biases();
    }
    std::vector<Tensor> seq;
    for (int t = 0; t < 4; ++t) {
        Tensor x(Shape({3}));
        rng.fillGaussian(x.data(), 0.0f, 1.0f);
        seq.push_back(x);
    }
    std::vector<Tensor> rev(seq.rbegin(), seq.rend());
    const auto out = layer.forwardSequence(seq);
    const auto out_rev = layer.forwardSequence(rev);
    // Forward half of out[t] == backward half of out_rev[T-1-t].
    for (size_t t = 0; t < seq.size(); ++t) {
        for (int64_t j = 0; j < 2; ++j) {
            EXPECT_NEAR(out[t][j],
                        out_rev[seq.size() - 1 - t][2 + j], 1e-6f);
        }
    }
}

TEST(BiLstmDeath, SingleStepForwardPanics)
{
    BiLstmLayer layer("bilstm", 3, 2);
    EXPECT_DEATH((void)layer.forward(Tensor(Shape({3}))),
                 "forwardSequence");
}

} // namespace
} // namespace reuse
