/** @file Unit tests for weights-buffer residency planning. */

#include <gtest/gtest.h>

#include "common/random.h"
#include "nn/fully_connected.h"
#include "nn/lstm.h"
#include "sim/weights_residency.h"

namespace reuse {
namespace {

TEST(Residency, SmallNetworkFullyResident)
{
    Network net("small", Shape({100}));
    net.addLayer(
        std::make_unique<FullyConnectedLayer>("FC1", 100, 100));
    AcceleratorParams p;
    const auto plan = planResidency(net, p);
    EXPECT_TRUE(plan.fullyResident);
    EXPECT_TRUE(plan.resident[0]);
    EXPECT_EQ(plan.initialLoadBytes, net.paramCount() * 4);
    EXPECT_EQ(plan.perExecutionStreamBytes, 0);
}

TEST(Residency, OversizedLayersSpill)
{
    Network net("big", Shape({4096}));
    // Two layers of ~67 MB each against a 36 MB buffer: the first is
    // kept resident greedily? No -- 67 MB alone exceeds 36 MB, so
    // both spill.
    net.addLayer(
        std::make_unique<FullyConnectedLayer>("FC1", 4096, 4096));
    net.addLayer(
        std::make_unique<FullyConnectedLayer>("FC2", 4096, 4096));
    AcceleratorParams p;
    const auto plan = planResidency(net, p);
    EXPECT_FALSE(plan.fullyResident);
    EXPECT_FALSE(plan.resident[0]);
    EXPECT_FALSE(plan.resident[1]);
    EXPECT_EQ(plan.perExecutionStreamBytes, net.paramCount() * 4);
}

TEST(Residency, GreedyFrontToBack)
{
    Network net("mix", Shape({2048}));
    net.addLayer(
        std::make_unique<FullyConnectedLayer>("FC1", 2048, 2048));
    net.addLayer(
        std::make_unique<FullyConnectedLayer>("FC2", 2048, 2048));
    AcceleratorParams p;
    // Buffer fits exactly one 2048x2048 fp32 layer (16 MB + bias).
    p.weightsBufferBytes = 17ll * 1024 * 1024;
    const auto plan = planResidency(net, p);
    EXPECT_TRUE(plan.resident[0]);
    EXPECT_FALSE(plan.resident[1]);
    EXPECT_FALSE(plan.fullyResident);
    EXPECT_GT(plan.perExecutionStreamBytes, 0);
}

TEST(Residency, WeightBytesParameterScalesFootprint)
{
    Network net("fp8", Shape({4096}));
    net.addLayer(
        std::make_unique<FullyConnectedLayer>("FC1", 4096, 4096));
    AcceleratorParams p;
    p.weightsBufferBytes = 20ll * 1024 * 1024;
    // fp32: 67 MB > 20 MB -> spills.
    EXPECT_FALSE(planResidency(net, p).fullyResident);
    // 8-bit weights: 16.8 MB < 20 MB -> fits.
    p.weightBytes = 1;
    EXPECT_TRUE(planResidency(net, p).fullyResident);
}

TEST(Residency, RecurrentFitsOneLayerAtATime)
{
    // EESEN-like: five BiLSTM layers, total > buffer but each layer
    // fits individually.
    Network net("rnn", Shape({120}));
    net.addLayer(std::make_unique<BiLstmLayer>("L1", 120, 320));
    for (int i = 2; i <= 5; ++i) {
        // Appended in place: GCC 12's -Wrestrict misfires on
        // `"..." + std::string` in Release builds.
        std::string name(1, 'L');
        name += std::to_string(i);
        net.addLayer(std::make_unique<BiLstmLayer>(name, 640, 320));
    }
    AcceleratorParams p;
    p.weightsBufferBytes = 10ll * 1024 * 1024;
    const auto plan = planResidency(net, p);
    EXPECT_FALSE(plan.fullyResident);
    for (size_t i = 0; i < net.layerCount(); ++i)
        EXPECT_TRUE(plan.resident[i]) << "layer " << i;
}

TEST(Residency, RecurrentFullyResidentWhenSmall)
{
    Network net("rnn", Shape({16}));
    net.addLayer(std::make_unique<BiLstmLayer>("L1", 16, 8));
    AcceleratorParams p;
    const auto plan = planResidency(net, p);
    EXPECT_TRUE(plan.fullyResident);
    EXPECT_EQ(plan.initialLoadBytes, net.paramCount() * 4);
}

TEST(Residency, ParamFreeLayersAlwaysResident)
{
    Network net("acts", Shape({10}));
    net.addLayer(
        std::make_unique<FullyConnectedLayer>("FC", 10, 10));
    AcceleratorParams p;
    const auto plan = planResidency(net, p);
    EXPECT_EQ(plan.totalWeightBytes, net.paramCount() * 4);
}

} // namespace
} // namespace reuse
