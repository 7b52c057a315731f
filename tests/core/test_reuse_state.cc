/** @file Unit tests for the extracted per-stream ReuseState. */

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/reuse_engine.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/conv3d.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"
#include "nn/lstm.h"
#include "quant/range_profiler.h"

namespace reuse {
namespace {

struct StateFixture {
    Rng rng{71};
    Network net{"mlp", Shape({6})};
    std::vector<Tensor> calib;
    NetworkRanges ranges;

    StateFixture()
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

    QuantizationPlan plan(int clusters = 64)
    {
        return makePlan(net, ranges, clusters, {0, 2});
    }

    std::vector<Tensor> stream(size_t frames, float sigma = 0.05f)
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

void
expectIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.numel(), b.numel());
    for (int64_t j = 0; j < a.numel(); ++j)
        EXPECT_FLOAT_EQ(a[j], b[j]);
}

TEST(ReuseState, FreshStateIsColdAndSmall)
{
    StateFixture f;
    ReuseEngine engine(f.net, f.plan());
    ReuseState state = engine.makeState();
    EXPECT_FALSE(state.warm());
    EXPECT_EQ(state.layerCount(), 3u);
    EXPECT_EQ(state.executionsSinceRefresh(), 0);

    ExecutionTrace trace;
    engine.execute(state, f.calib[0], trace);
    EXPECT_TRUE(state.warm());
    EXPECT_GT(state.memoryBytes(), 0);
    EXPECT_EQ(state.executionsSinceRefresh(), 1);
}

TEST(ReuseState, DistinctStatesAreIndependentStreams)
{
    StateFixture f;
    ReuseEngine engine(f.net, f.plan());
    const auto frames = f.stream(10);

    // Interleave two streams (same inputs, offset by one frame) over
    // one engine; each must behave exactly like a dedicated engine.
    ReuseState a = engine.makeState();
    ReuseState b = engine.makeState();
    ReuseEngine ref_a(f.net, f.plan());
    ReuseEngine ref_b(f.net, f.plan());
    ReuseState ref_a_state = ref_a.makeState();
    ReuseState ref_b_state = ref_b.makeState();
    ExecutionTrace trace;
    for (size_t i = 0; i + 1 < frames.size(); ++i) {
        const Tensor out_a = engine.execute(a, frames[i], trace);
        const Tensor out_b = engine.execute(b, frames[i + 1], trace);
        expectIdentical(out_a,
                        ref_a.execute(ref_a_state, frames[i], trace));
        expectIdentical(out_b,
                        ref_b.execute(ref_b_state, frames[i + 1], trace));
    }
}

TEST(ReuseState, CloneContinuesIdentically)
{
    StateFixture f;
    ReuseEngine engine(f.net, f.plan());
    const auto frames = f.stream(12);

    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    for (size_t i = 0; i < 6; ++i)
        engine.execute(state, frames[i], trace);

    ReuseState fork = state.clone();
    EXPECT_EQ(fork.executionsSinceRefresh(),
              state.executionsSinceRefresh());
    EXPECT_EQ(fork.memoryBytes(), state.memoryBytes());
    for (size_t i = 6; i < frames.size(); ++i) {
        const Tensor a = engine.execute(state, frames[i], trace);
        const Tensor b = engine.execute(fork, frames[i], trace);
        expectIdentical(a, b);
    }
}

TEST(ReuseState, ReleaseBuffersBehavesLikeReset)
{
    StateFixture f;
    ReuseEngine engine(f.net, f.plan());
    const auto frames = f.stream(12);

    ReuseState released = engine.makeState();
    ReuseState reset = engine.makeState();
    ExecutionTrace trace;
    for (size_t i = 0; i < 6; ++i) {
        engine.execute(released, frames[i], trace);
        engine.execute(reset, frames[i], trace);
    }
    const int64_t warm_bytes = released.memoryBytes();
    EXPECT_GT(warm_bytes, 0);

    released.releaseBuffers();
    reset.reset();
    EXPECT_FALSE(released.warm());
    EXPECT_FALSE(reset.warm());
    EXPECT_LT(released.memoryBytes(), warm_bytes);
    EXPECT_EQ(released.executionsSinceRefresh(), 0);

    // An evicted (released) stream must re-warm to the exact same
    // outputs as a merely reset stream: both run frame 6 from scratch.
    for (size_t i = 6; i < frames.size(); ++i) {
        const Tensor a = engine.execute(released, frames[i], trace);
        const Tensor b = engine.execute(reset, frames[i], trace);
        expectIdentical(a, b);
    }
    EXPECT_TRUE(released.warm());
    EXPECT_EQ(released.memoryBytes(), warm_bytes);
}

TEST(ReuseState, RefreshCountsPerState)
{
    StateFixture f;
    ReuseEngineConfig cfg;
    cfg.refreshPeriod = 3;
    ReuseEngine engine(f.net, f.plan(), cfg);

    ReuseState a = engine.makeState();
    ReuseState b = engine.makeState();
    ExecutionTrace trace;
    // Drive `a` twice as fast as `b`; refresh boundaries must follow
    // each state's own counter, not a shared engine counter.
    int a_first = 0;
    int b_first = 0;
    for (int i = 0; i < 6; ++i) {
        engine.execute(a, f.calib[0], trace);
        a_first += trace[0].firstExecution ? 1 : 0;
        engine.execute(a, f.calib[0], trace);
        a_first += trace[0].firstExecution ? 1 : 0;
        engine.execute(b, f.calib[0], trace);
        b_first += trace[0].firstExecution ? 1 : 0;
    }
    EXPECT_EQ(a_first, 4);  // executions 0, 3, 6, 9 of 12
    EXPECT_EQ(b_first, 2);  // executions 0, 3 of 6
}

TEST(ReuseState, MoveTransfersWarmth)
{
    StateFixture f;
    ReuseEngine engine(f.net, f.plan());
    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    engine.execute(state, f.calib[0], trace);
    const int64_t bytes = state.memoryBytes();

    ReuseState moved = std::move(state);
    EXPECT_TRUE(moved.warm());
    EXPECT_EQ(moved.memoryBytes(), bytes);
    const Tensor out = engine.execute(moved, f.calib[0], trace);
    EXPECT_EQ(trace[0].inputsChanged, 0);
    (void)out;
}

TEST(ReuseStateDeath, ForeignStatePanics)
{
    StateFixture f;
    ReuseEngine engine(f.net, f.plan());

    Rng rng(72);
    Network other("tiny", Shape({4}));
    other.addLayer(std::make_unique<FullyConnectedLayer>("FC", 4, 2));
    initNetwork(other, rng);
    ReuseEngine other_engine(other, QuantizationPlan(other));

    ReuseState wrong = other_engine.makeState();
    ExecutionTrace trace;
    EXPECT_DEATH((void)engine.execute(wrong, f.calib[0], trace),
                 "state");
}

// ---------------------------------------------------------------------
// ReuseState contract, for every layer kind that carries reuse state.
// ---------------------------------------------------------------------

enum class NetKind { Fc, Conv2d, Conv3d, Lstm, BiLstm };

/**
 * A small network whose reuse layers are all of one kind, followed by
 * a reuse-enabled FC head.  A "unit" is what one executeSequence()
 * call consumes: four frames of a feed-forward stream, or one
 * four-step sequence of a recurrent network.
 */
struct ContractNet {
    Rng rng{75};
    std::unique_ptr<Network> net;
    QuantizationPlan plan;
    Tensor walk;

    explicit ContractNet(NetKind kind)
    {
        std::unique_ptr<Layer> body;
        Shape in_shape;
        switch (kind) {
          case NetKind::Fc:
            in_shape = Shape({6});
            body = std::make_unique<FullyConnectedLayer>("FC0", 6, 10);
            break;
          case NetKind::Conv2d:
            in_shape = Shape({2, 6, 6});
            body = std::make_unique<Conv2DLayer>("CONV0", 2, 3, 3, 1);
            break;
          case NetKind::Conv3d:
            in_shape = Shape({2, 3, 5, 5});
            body = std::make_unique<Conv3DLayer>("CONV0", 2, 3, 3, 1);
            break;
          case NetKind::Lstm:
            in_shape = Shape({5});
            body = std::make_unique<LstmLayer>("LSTM0", 5, 4);
            break;
          case NetKind::BiLstm:
            in_shape = Shape({5});
            body = std::make_unique<BiLstmLayer>("BILSTM0", 5, 4);
            break;
        }
        const int64_t body_out = body->outputShape(in_shape).numel();
        net = std::make_unique<Network>("contract", in_shape);
        net->addLayer(std::move(body));
        if (in_shape.rank() > 1)
            net->addLayer(std::make_unique<FlattenLayer>("FLAT"));
        net->addLayer(
            std::make_unique<FullyConnectedLayer>("HEAD", body_out, 3));
        initNetwork(*net, rng);

        walk = Tensor(in_shape);
        rng.fillGaussian(walk.data(), 0.0f, 1.0f);
        std::vector<Tensor> calib;
        for (int i = 0; i < 4; ++i) {
            for (const Tensor &t : unit())
                calib.push_back(t);
        }
        plan = makePlan(*net, profileNetworkRanges(*net, calib), 64,
                        {0, net->layerCount() - 1});
    }

    /** The next unit of a slow random walk. */
    std::vector<Tensor> unit()
    {
        std::vector<Tensor> u;
        for (int i = 0; i < 4; ++i) {
            for (int64_t j = 0; j < walk.numel(); ++j)
                walk[j] += rng.gaussian(0.0f, 0.05f);
            u.push_back(walk);
        }
        return u;
    }
};

void
expectBitIdentical(const std::vector<Tensor> &a,
                   const std::vector<Tensor> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t t = 0; t < a.size(); ++t) {
        ASSERT_EQ(a[t].numel(), b[t].numel());
        for (int64_t j = 0; j < a[t].numel(); ++j)
            EXPECT_EQ(a[t][j], b[t][j]) << "step " << t << " elem " << j;
    }
}

class ReuseStateContract : public ::testing::TestWithParam<NetKind>
{
  protected:
    ContractNet f{GetParam()};
    ReuseEngine engine{*f.net, f.plan};
    ExecutionTrace trace;

    std::vector<Tensor> run(ReuseState &state,
                            const std::vector<Tensor> &unit)
    {
        return engine.executeSequence(state, unit, trace);
    }

    /** A state warmed on three units. */
    ReuseState warmState()
    {
        ReuseState state = engine.makeState();
        for (int i = 0; i < 3; ++i)
            run(state, f.unit());
        EXPECT_TRUE(state.warm());
        EXPECT_GT(state.memoryBytes(), 0);
        return state;
    }
};

TEST_P(ReuseStateContract, EveryReuseLayerIsEnabled)
{
    ReuseState state = engine.makeState();
    run(state, f.unit());
    ASSERT_EQ(trace.size() % f.net->layerCount(), 0u);
    EXPECT_TRUE(trace[0].reuseEnabled);
    EXPECT_TRUE(trace[f.net->layerCount() - 1].reuseEnabled);
}

TEST_P(ReuseStateContract, CloneContinuesBitIdentically)
{
    ReuseState state = warmState();
    ReuseState fork = state.clone();
    EXPECT_EQ(fork.memoryBytes(), state.memoryBytes());
    for (int i = 0; i < 3; ++i) {
        const std::vector<Tensor> u = f.unit();
        expectBitIdentical(run(state, u), run(fork, u));
    }
}

TEST_P(ReuseStateContract, ReleasedStateFreesAllAndReplaysLikeReset)
{
    ReuseState released = warmState();
    ReuseState reset = released.clone();
    released.releaseBuffers();
    reset.reset();
    EXPECT_EQ(released.memoryBytes(), 0);
    EXPECT_FALSE(released.warm());
    EXPECT_EQ(released.checksum(), reset.checksum());
    for (int i = 0; i < 2; ++i) {
        const std::vector<Tensor> u = f.unit();
        expectBitIdentical(run(released, u), run(reset, u));
    }
    EXPECT_EQ(released.memoryBytes(), reset.memoryBytes());
}

TEST_P(ReuseStateContract, CloneChecksumTracksAdvance)
{
    ReuseState state = warmState();
    ReuseState fork = state.clone();
    EXPECT_EQ(fork.checksum(), state.checksum());

    const std::vector<Tensor> u = f.unit();
    run(state, u);
    EXPECT_NE(fork.checksum(), state.checksum());
    run(fork, u);
    EXPECT_EQ(fork.checksum(), state.checksum());
}

INSTANTIATE_TEST_SUITE_P(
    LayerKinds, ReuseStateContract,
    ::testing::Values(NetKind::Fc, NetKind::Conv2d, NetKind::Conv3d,
                      NetKind::Lstm, NetKind::BiLstm),
    [](const ::testing::TestParamInfo<NetKind> &info) {
        switch (info.param) {
          case NetKind::Fc: return "fc";
          case NetKind::Conv2d: return "conv2d";
          case NetKind::Conv3d: return "conv3d";
          case NetKind::Lstm: return "lstm";
          case NetKind::BiLstm: return "bilstm";
        }
        return "unknown";
    });

} // namespace
} // namespace reuse
