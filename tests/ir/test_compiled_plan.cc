/** @file Unit tests for CompiledPlan, including fused-vs-unfused
 *  bit-exactness through the differential oracle. */

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/reuse_engine.h"
#include "ir/compiled_plan.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"
#include "nn/pooling.h"
#include "quant/range_profiler.h"
#include "support/diff_oracle.h"

namespace reuse {
namespace ir {
namespace {

/** Random MLP with fusable activations and a quantization plan. */
struct MlpFixture {
    Rng rng{73};
    Network net{"fused-mlp", Shape({6})};
    std::vector<Tensor> calib;
    QuantizationPlan plan;

    MlpFixture()
    {
        net.addLayer(
            std::make_unique<FullyConnectedLayer>("FC1", 6, 12));
        net.addLayer(std::make_unique<ActivationLayer>(
            "RELU", ActivationKind::ReLU));
        net.addLayer(
            std::make_unique<FullyConnectedLayer>("FC2", 12, 8));
        net.addLayer(std::make_unique<ActivationLayer>(
            "SIGM", ActivationKind::Sigmoid));
        net.addLayer(
            std::make_unique<FullyConnectedLayer>("FC3", 8, 4));
        net.addLayer(std::make_unique<ActivationLayer>(
            "SM", ActivationKind::Softmax));
        initNetwork(net, rng);
        for (int i = 0; i < 12; ++i) {
            Tensor t(Shape({6}));
            rng.fillGaussian(t.data(), 0.0f, 1.0f);
            calib.push_back(t);
        }
        plan = makePlan(net, profileNetworkRanges(net, calib), 256,
                        {0, 2, 4});
    }

    std::vector<Tensor> stream(size_t frames, float sigma)
    {
        std::vector<Tensor> s;
        Tensor x = calib[0];
        for (size_t i = 0; i < frames; ++i) {
            for (int64_t j = 0; j < x.numel(); ++j)
                x[j] += rng.gaussian(0.0f, sigma);
            s.push_back(x);
        }
        return s;
    }
};

/** Random conv net (conv+ReLU pairs, flatten, FC head). */
struct ConvFixture {
    Rng rng{97};
    Network net{"fused-cnn", Shape({2, 10, 10})};
    std::vector<Tensor> calib;
    QuantizationPlan plan;

    ConvFixture()
    {
        net.addLayer(
            std::make_unique<Conv2DLayer>("C1", 2, 4, 3, 1));
        net.addLayer(std::make_unique<ActivationLayer>(
            "RELU1", ActivationKind::ReLU));
        net.addLayer(
            std::make_unique<Conv2DLayer>("C2", 4, 4, 3, 1));
        net.addLayer(std::make_unique<ActivationLayer>(
            "TANH", ActivationKind::Tanh));
        net.addLayer(std::make_unique<FlattenLayer>("FLAT"));
        net.addLayer(
            std::make_unique<FullyConnectedLayer>("FC", 144, 5));
        initNetwork(net, rng);
        for (int i = 0; i < 8; ++i) {
            Tensor t(Shape({2, 10, 10}));
            rng.fillGaussian(t.data(), 0.0f, 1.0f);
            calib.push_back(t);
        }
        plan = makePlan(net, profileNetworkRanges(net, calib), 256,
                        {0, 2, 5});
    }

    std::vector<Tensor> stream(size_t frames, float sigma)
    {
        std::vector<Tensor> s;
        Tensor x = calib[0];
        for (size_t i = 0; i < frames; ++i) {
            for (int64_t j = 0; j < x.numel(); ++j)
                x[j] += rng.gaussian(0.0f, sigma);
            s.push_back(x);
        }
        return s;
    }
};

TEST(CompiledPlanTest, SchedulesFusedStepsWithModes)
{
    MlpFixture f;
    const auto plan = CompiledPlan::compile(f.net, f.plan);
    ASSERT_TRUE(plan->valid());
    EXPECT_EQ(plan->layerCount(), 6u);
    EXPECT_EQ(plan->fusedCount(), 3u);
    ASSERT_EQ(plan->steps().size(), 3u);
    for (const PlanStep &step : plan->steps()) {
        EXPECT_EQ(step.mode, ExecMode::FcReuse);
        EXPECT_TRUE(step.reuseSafe);
        ASSERT_NE(step.fusedActivation, nullptr);
        EXPECT_EQ(step.fusedActivationIndex, step.layerIndex + 1);
    }
    EXPECT_EQ(plan->steps()[0].inShape, Shape({6}));
    EXPECT_EQ(plan->steps()[0].outShape, Shape({12}));
}

TEST(CompiledPlanTest, FusionCanBeDisabled)
{
    MlpFixture f;
    CompileOptions options;
    options.fuseActivations = false;
    const auto plan = CompiledPlan::compile(f.net, f.plan, options);
    ASSERT_TRUE(plan->valid());
    EXPECT_EQ(plan->fusedCount(), 0u);
    EXPECT_EQ(plan->steps().size(), 6u);
    for (const PlanStep &step : plan->steps())
        EXPECT_EQ(step.fusedActivation, nullptr);
}

TEST(CompiledPlanTest, InvalidModelCompilesToEmptySchedule)
{
    Network net("broken", Shape({8}));
    net.addLayer(std::make_unique<FullyConnectedLayer>("FC1", 8, 4));
    net.addLayer(std::make_unique<FullyConnectedLayer>("FC2", 16, 2));
    const auto plan =
        CompiledPlan::compile(net, QuantizationPlan(net));
    EXPECT_FALSE(plan->valid());
    EXPECT_TRUE(plan->steps().empty());
    EXPECT_TRUE(plan->report().has(diag::kShapeMismatch));
    EXPECT_NE(plan->dump().find("no schedule"), std::string::npos);
}

TEST(CompiledPlanTest, DumpIsStableAndFloatFree)
{
    MlpFixture f;
    const auto plan = CompiledPlan::compile(f.net, f.plan);
    const std::string dump = plan->dump();
    EXPECT_EQ(dump, plan->dump());
    EXPECT_NE(dump.find("plan fused-mlp"), std::string::npos);
    EXPECT_NE(dump.find("fused(RELU:relu)"), std::string::npos);
    EXPECT_NE(dump.find("fc-reuse"), std::string::npos);
    EXPECT_EQ(dump.find('.'), std::string::npos);  // no floats
}

TEST(CompiledPlanTest, FusedMlpIsBitExactAgainstUnfused)
{
    MlpFixture f;
    ReuseEngineConfig unfused_cfg;
    unfused_cfg.compileOptions.fuseActivations = false;
    ReuseEngine fused(f.net, f.plan);
    ReuseEngine unfused(f.net, f.plan, unfused_cfg);
    ASSERT_EQ(fused.compiledPlan().fusedCount(), 3u);
    ASSERT_EQ(unfused.compiledPlan().fusedCount(), 0u);

    const std::vector<Tensor> inputs = f.stream(24, 0.05f);
    ReuseState state = fused.makeState();
    ExecutionTrace trace;
    std::vector<Tensor> outputs;
    for (const Tensor &in : inputs)
        outputs.push_back(fused.execute(state, in, trace));

    const testing::OracleReport report =
        testing::diffAgainstReplay(unfused, inputs, outputs);
    EXPECT_TRUE(report.allBitExact())
        << "first mismatch at frame " << report.firstMismatchFrame
        << ", max |diff| " << report.maxAbsDiff;
}

TEST(CompiledPlanTest, FusedConvNetIsBitExactAgainstUnfused)
{
    ConvFixture f;
    ReuseEngineConfig unfused_cfg;
    unfused_cfg.compileOptions.fuseActivations = false;
    ReuseEngine fused(f.net, f.plan);
    ReuseEngine unfused(f.net, f.plan, unfused_cfg);
    ASSERT_EQ(fused.compiledPlan().fusedCount(), 2u);

    const std::vector<Tensor> inputs = f.stream(12, 0.03f);
    ReuseState state = fused.makeState();
    ExecutionTrace trace;
    std::vector<Tensor> outputs;
    for (const Tensor &in : inputs)
        outputs.push_back(fused.execute(state, in, trace));

    const testing::OracleReport report =
        testing::diffAgainstReplay(unfused, inputs, outputs);
    EXPECT_TRUE(report.allBitExact())
        << "first mismatch at frame " << report.firstMismatchFrame
        << ", max |diff| " << report.maxAbsDiff;
}

TEST(CompiledPlanTest, FusedTracesMatchUnfusedLayout)
{
    // Fused execution must stay trace-compatible: one record per
    // original layer, with the fused activation's slot filled.
    MlpFixture f;
    ReuseEngine fused(f.net, f.plan);
    ReuseState state = fused.makeState();
    ExecutionTrace trace;
    fused.execute(state, f.calib[0], trace);
    ASSERT_EQ(trace.size(), 6u);
    for (size_t li = 0; li < trace.size(); ++li) {
        EXPECT_GT(trace[li].outputsTotal, 0) << "layer " << li;
        EXPECT_EQ(trace[li].reuseEnabled, li % 2 == 0)
            << "layer " << li;
    }
}

TEST(CompiledPlanTest, PinnedCompileDowngradesUnsafeReuse)
{
    Network net("pinned", Shape({4, 8, 8}));
    net.addLayer(std::make_unique<MaxPool2DLayer>("POOL", 2));
    QuantizationPlan qp(net);
    qp.layer(0).input = LinearQuantizer(16, -1.0f, 1.0f);
    CompileOptions options;
    options.pinUnsafeLayers = true;
    const auto plan = CompiledPlan::compile(net, qp, options);
    ASSERT_TRUE(plan->valid());
    EXPECT_EQ(plan->pinnedCount(), 1u);
    ASSERT_EQ(plan->steps().size(), 1u);
    EXPECT_EQ(plan->steps()[0].mode, ExecMode::FromScratch);
    EXPECT_TRUE(plan->steps()[0].pinned);
    EXPECT_FALSE(plan->steps()[0].quant.enabled());
}

} // namespace
} // namespace ir
} // namespace reuse
