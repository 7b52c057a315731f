/**
 * @file
 * Self-driving scenario: the AutoPilot network maps every camera
 * frame to a steering command.  Consecutive dash-cam frames are
 * nearly identical, so almost all per-frame computation can be reused
 * from the previous frame — the paper's strongest case (5.2x).
 *
 * Build & run:  ./build/examples/self_driving
 */

#include <iostream>

#include "common/table_writer.h"
#include "energy/energy_model.h"
#include "harness/experiment.h"
#include "harness/workload_setup.h"
#include "sim/accelerator.h"

using namespace reuse;

int
main()
{
    std::cout << "Self-driving steering with computation reuse\n"
              << "============================================\n";

    Workload w = setupAutopilot({});
    const Network &net = *w.bundle.network;
    std::cout << net.summary() << "\n\n";

    // Drive for 30 frames (one second of 30 fps video).
    const size_t frames = 30;
    const auto inputs = w.generator->take(frames);

    // Run both engines frame by frame and show the steering stream.
    ReuseEngine engine(net, w.plan);
    ReuseState state = engine.makeState();
    ReuseStatsCollector stats = engine.makeStatsCollector();
    ExecutionTrace trace;
    std::cout << "frame  steering(reuse)  steering(fp32)   changed "
                 "inputs\n";
    std::vector<Tensor> outputs;
    std::vector<Tensor> reference;
    for (size_t f = 0; f < frames; ++f) {
        const Tensor out = engine.execute(state, inputs[f], trace);
        stats.addTrace(trace);
        const Tensor ref = net.forward(inputs[f]);
        outputs.push_back(out);
        reference.push_back(ref);
        int64_t changed = 0;
        int64_t checked = 0;
        for (const auto &rec : trace) {
            changed += rec.inputsChanged;
            checked += rec.inputsChecked;
        }
        if (f % 5 == 0) {
            std::cout << "  " << f << "      "
                      << formatDouble(out[0], 5) << "        "
                      << formatDouble(ref[0], 5) << "        "
                      << (checked
                              ? formatPercent(
                                    static_cast<double>(changed) /
                                    static_cast<double>(checked))
                              : std::string("-"))
                      << "\n";
        }
    }

    std::cout << "\nMean input similarity over quantized layers: "
              << formatPercent(stats.meanSimilarity()) << "\n"
              << "Network-wide MACs avoided: "
              << formatPercent(stats.networkComputationReuse()) << "\n";

    // Latency/energy on the accelerator: a steering command must be
    // ready well within the 33 ms frame budget.
    std::vector<ExecutionTrace> traces;
    ReuseState state2 = engine.makeState();
    for (const Tensor &in : inputs) {
        engine.execute(state2, in, trace);
        traces.push_back(trace);
    }
    AcceleratorSim sim;
    const auto reuse_run = sim.simulate(net, AccelMode::Reuse, traces);
    const auto baseline = sim.estimate(
        net, AccelMode::Baseline,
        std::vector<double>(net.layerCount(), -1.0),
        static_cast<int64_t>(frames));
    const auto e_base = computeEnergy(baseline);
    const auto e_reuse = computeEnergy(reuse_run);
    std::cout << "Per-frame latency: baseline "
              << formatDouble(baseline.seconds / frames * 1e6, 0)
              << " us -> reuse "
              << formatDouble(reuse_run.seconds / frames * 1e6, 0)
              << " us (speedup "
              << formatDouble(baseline.cycles / reuse_run.cycles, 2)
              << "x)\n"
              << "Per-frame energy: baseline "
              << formatDouble(e_base.total() / frames * 1e6, 1)
              << " uJ -> reuse "
              << formatDouble(e_reuse.total() / frames * 1e6, 1)
              << " uJ (savings "
              << formatPercent(1.0 - e_reuse.total() / e_base.total())
              << ")\n";
    return 0;
}
