/**
 * @file
 * Quickstart: the smallest end-to-end use of the library.
 *
 * Builds a two-layer MLP, calibrates input quantizers on a short
 * stream, then runs reuse-based inference over a correlated input
 * stream and prints how much computation was avoided and how close
 * the outputs stay to plain FP32 inference.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <iostream>

#include "common/random.h"
#include "core/reuse_engine.h"
#include "nn/activations.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"
#include "quant/accuracy.h"
#include "quant/range_profiler.h"

using namespace reuse;

int
main()
{
    // 1. Build a small network: 64 -> 256 -> 10 with a ReLU.
    Rng rng(42);
    Network net("demo", Shape({64}));
    net.addLayer(std::make_unique<FullyConnectedLayer>("FC1", 64, 256));
    net.addLayer(
        std::make_unique<ActivationLayer>("RELU", ActivationKind::ReLU));
    net.addLayer(std::make_unique<FullyConnectedLayer>("FC2", 256, 10));
    initNetwork(net, rng);
    std::cout << net.summary() << "\n";

    // 2. Make a temporally correlated input stream (random walk), as
    // produced by any sensor sampling a slowly changing world.
    auto make_stream = [&](size_t frames) {
        std::vector<Tensor> stream;
        Tensor x(Shape({64}));
        rng.fillGaussian(x.data(), 0.0f, 1.0f);
        for (size_t i = 0; i < frames; ++i) {
            for (int64_t j = 0; j < 64; ++j)
                x[j] += rng.gaussian(0.0f, 0.03f);
            stream.push_back(x);
        }
        return stream;
    };

    // 3. Calibrate per-layer quantizers on a "training" stream
    // (16 clusters, the paper's speech setting).
    const std::vector<Tensor> calibration = make_stream(32);
    const NetworkRanges ranges = profileNetworkRanges(net, calibration);
    const QuantizationPlan plan = makePlan(net, ranges, 16, {0, 2});

    // 4. Run reuse-based inference over a fresh stream.
    // The engine is immutable; the stream's reuse buffers live in a
    // ReuseState, and each frame's trace feeds the stats collector.
    ReuseEngine engine(net, plan);
    ReuseState state = engine.makeState();
    ReuseStatsCollector stats = engine.makeStatsCollector();
    ExecutionTrace trace;
    const std::vector<Tensor> stream = make_stream(100);
    std::vector<Tensor> outputs;
    std::vector<Tensor> reference;
    for (const Tensor &frame : stream) {
        outputs.push_back(engine.execute(state, frame, trace));
        stats.addTrace(trace);
        reference.push_back(net.forward(frame));
    }

    // 5. Report: how much work was avoided, and at what accuracy.
    std::cout << "\nPer-layer results over " << stream.size()
              << " frames:\n";
    for (const auto &ls : stats.layers()) {
        if (!ls.reuseEnabled)
            continue;
        std::cout << "  " << ls.layerName << ": input similarity "
                  << ls.similarity() * 100.0 << "%, computation reuse "
                  << ls.computationReuse() * 100.0 << "%\n";
    }
    const AccuracyReport acc = compareOutputs(reference, outputs);
    std::cout << "Network-wide MACs avoided: "
              << stats.networkComputationReuse() * 100.0 << "%\n"
              << "Top-1 agreement with FP32 inference: "
              << acc.top1Agreement * 100.0 << "%\n"
              << "Mean relative output error: "
              << acc.meanRelativeError << "\n";
    return 0;
}
