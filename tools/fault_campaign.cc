/**
 * @file
 * fault_campaign: sweeps every fault kind across every reuse-enabled
 * layer kind and asserts, via the differential oracle, that the
 * runtime recovers — post-refresh frames (feed-forward) and
 * post-fault sequences (recurrent) must match a golden replay
 * bit-exactly, and benign faults (stall, drop, duplicate) must leave
 * the stream bit-exact throughout.
 *
 * Run by the fault-campaign CI job as
 *   fault_campaign --all --seeds 8
 * Exit status is 0 only when every seeded run recovered.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/reuse_engine.h"
#include "fault/fault_injector.h"
#include "kernels/dispatch.h"
#include "kernels/thread_pool.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/conv3d.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"
#include "nn/lstm.h"
#include "quant/range_profiler.h"
#include "support/diff_oracle.h"

namespace {

using namespace reuse;
using testing::OracleReport;

/** Refresh period of the feed-forward campaign engines: the fault is
 *  always fired inside the first window, so frames from this index on
 *  must be bit-exact again. */
constexpr uint64_t kRefreshPeriod = 8;
constexpr size_t kDefaultFrames = 16;

struct BuiltCase {
    std::unique_ptr<Network> net;
    QuantizationPlan plan;
    LayerKind kind = LayerKind::FullyConnected;
    bool recurrent = false;
};

QuantizationPlan
profiledPlan(Network &net, Rng &rng,
             const std::vector<size_t> &reusable)
{
    std::vector<Tensor> calib;
    for (int i = 0; i < 12; ++i) {
        Tensor t(net.inputShape());
        rng.fillGaussian(t.data(), 0.0f, 1.0f);
        calib.push_back(t);
    }
    return makePlan(net, profileNetworkRanges(net, calib), 64,
                    reusable);
}

BuiltCase
buildNet(const std::string &name)
{
    Rng rng(17);
    BuiltCase c;
    if (name == "fc") {
        // FC1's dense first-frame GEMV (360k MACs) and most of its
        // delta applies reach kDefaultParallelMacThreshold, so they
        // split over the kernel pool and faults land while it runs.
        c.kind = LayerKind::FullyConnected;
        c.net = std::make_unique<Network>("fc", Shape({600}));
        c.net->addLayer(
            std::make_unique<FullyConnectedLayer>("FC1", 600, 600));
        c.net->addLayer(std::make_unique<ActivationLayer>(
            "RELU1", ActivationKind::ReLU));
        c.net->addLayer(
            std::make_unique<FullyConnectedLayer>("FC2", 600, 19));
        initNetwork(*c.net, rng);
        c.plan = profiledPlan(*c.net, rng, {0, 2});
    } else if (name == "conv2d") {
        c.kind = LayerKind::Conv2D;
        c.net = std::make_unique<Network>("conv2d", Shape({3, 13, 11}));
        c.net->addLayer(
            std::make_unique<Conv2DLayer>("CONV1", 3, 5, 3, 1));
        c.net->addLayer(std::make_unique<ActivationLayer>(
            "RELU1", ActivationKind::ReLU));
        c.net->addLayer(std::make_unique<FullyConnectedLayer>(
            "FC1", 5 * 11 * 9, 13));
        initNetwork(*c.net, rng);
        c.plan = profiledPlan(*c.net, rng, {0, 2});
    } else if (name == "conv3d") {
        c.kind = LayerKind::Conv3D;
        c.net =
            std::make_unique<Network>("conv3d", Shape({2, 5, 7, 7}));
        c.net->addLayer(
            std::make_unique<Conv3DLayer>("CONV1", 2, 4, 3, 1));
        c.net->addLayer(std::make_unique<FullyConnectedLayer>(
            "FC1", 4 * 5 * 7 * 7, 9));
        initNetwork(*c.net, rng);
        c.plan = profiledPlan(*c.net, rng, {0, 1});
    } else if (name == "lstm") {
        c.kind = LayerKind::Lstm;
        c.recurrent = true;
        c.net = std::make_unique<Network>("lstm", Shape({11}));
        c.net->addLayer(
            std::make_unique<LstmLayer>("LSTM1", 11, 13));
        initNetwork(*c.net, rng);
        c.plan = QuantizationPlan(*c.net);
        c.plan.layer(0).input = LinearQuantizer(64, -4.0f, 4.0f);
        c.plan.layer(0).recurrent = LinearQuantizer(64, -1.0f, 1.0f);
    } else if (name == "bilstm") {
        c.kind = LayerKind::BiLstm;
        c.recurrent = true;
        c.net = std::make_unique<Network>("bilstm", Shape({9}));
        c.net->addLayer(
            std::make_unique<BiLstmLayer>("BLSTM1", 9, 10));
        initNetwork(*c.net, rng);
        c.plan = QuantizationPlan(*c.net);
        c.plan.layer(0).input = LinearQuantizer(64, -4.0f, 4.0f);
        c.plan.layer(0).recurrent = LinearQuantizer(64, -1.0f, 1.0f);
    } else {
        std::cerr << "fault_campaign: unknown net '" << name << "'\n";
        std::exit(2);
    }
    return c;
}

std::vector<Tensor>
makeStream(const Shape &shape, size_t frames, uint64_t seed,
           float sigma)
{
    Rng rng(seed);
    std::vector<Tensor> s;
    Tensor x(shape);
    rng.fillGaussian(x.data(), 0.0f, 1.0f);
    for (size_t i = 0; i < frames; ++i) {
        for (int64_t j = 0; j < x.numel(); ++j)
            x[j] += rng.gaussian(0.0f, sigma);
        s.push_back(x);
    }
    return s;
}

/** Worker stalls that fired inside a kernel-pool chunk. */
std::atomic<uint64_t> g_pool_chunk_stalls{0};

/**
 * Arms `plan` and replaces the injector's pool chunk hook with one
 * that also counts the stalls firing inside a chunk.
 */
void
armCounted(const fault::FaultPlan &plan)
{
    fault::FaultInjector::global().arm(plan);
    kernels::KernelThreadPool::setChunkHook([] {
        fault::FaultInjector &inj = fault::FaultInjector::global();
        const uint64_t before = inj.fires();
        inj.maybeStall();
        if (inj.fires() != before)
            g_pool_chunk_stalls.fetch_add(1, std::memory_order_relaxed);
    });
}

bool
isFrameFault(fault::FaultKind kind)
{
    return kind == fault::FaultKind::DroppedFrame ||
           kind == fault::FaultKind::DuplicatedFrame;
}

bool
isBenign(fault::FaultKind kind)
{
    return isFrameFault(kind) ||
           kind == fault::FaultKind::WorkerStall;
}

/**
 * One feed-forward seeded run: arm the fault inside the first refresh
 * window, drive the stream through a session the way the serving
 * runtime would (drops answered from the last output, duplicates
 * executed twice), then replay the effective stream on a fresh state
 * and demand bit-exactness from the first post-fault refresh on.
 */
bool
runFeedForward(const BuiltCase &c, fault::FaultKind kind,
               uint64_t seed, size_t frames, std::string &why)
{
    ReuseEngineConfig cfg;
    cfg.refreshPeriod = kRefreshPeriod;
    ReuseEngine engine(*c.net, c.plan, cfg);
    const auto inputs =
        makeStream(c.net->inputShape(), frames, 1000 + seed, 0.2f);

    fault::FaultPlan plan;
    plan.kind = kind;
    // Frame faults and stalls are layer-agnostic hooks; filtering
    // them by layer kind would suppress them entirely.
    if (!isBenign(kind))
        plan.layerKind = c.kind;
    plan.fireAtInvocation = 2 + seed % 5;
    plan.seed = 100 + seed;
    armCounted(plan);

    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    // Effective stream: the inputs the reuse state actually consumed
    // (drops removed, duplicates doubled), plus aligned outputs.
    std::vector<Tensor> effective;
    std::vector<Tensor> outputs;
    bool has_last = false;
    Tensor last;
    for (const Tensor &in : inputs) {
        if (fault::frameFaultsArmed() && fault::shouldDropFrame() &&
            has_last)
            continue;    // serve answers with the previous output
        const bool dup =
            fault::frameFaultsArmed() && fault::shouldDuplicateFrame();
        Tensor out = engine.execute(state, in, trace);
        if (dup)
            out = engine.execute(state, in, trace);
        effective.push_back(in);
        outputs.push_back(out);
        if (dup) {
            effective.push_back(in);
            outputs.push_back(out);
        }
        last = out;
        has_last = true;
    }
    const uint64_t fires = fault::FaultInjector::global().fires();
    fault::FaultInjector::global().disarm();

    if (fires == 0) {
        why = "fault never fired";
        return false;
    }
    const OracleReport report =
        testing::diffAgainstReplay(engine, effective, outputs);
    if (isBenign(kind)) {
        if (!report.allBitExact()) {
            why = "benign fault diverged at frame " +
                  std::to_string(report.firstMismatchFrame);
            return false;
        }
        return true;
    }
    if (!report.bitExactFrom(kRefreshPeriod)) {
        why = "not bit-exact after refresh (first mismatch frame " +
              std::to_string(report.firstMismatchFrame) + ", max diff " +
              std::to_string(report.maxAbsDiff) + ")";
        return false;
    }
    return true;
}

/**
 * One recurrent seeded run: executeSequence resets reuse state at
 * every sequence boundary, so a fault fired in sequence k must leave
 * every later sequence bit-exact against the golden replay.
 */
bool
runRecurrent(const BuiltCase &c, fault::FaultKind kind, uint64_t seed,
             std::string &why)
{
    ReuseEngine engine(*c.net, c.plan);
    constexpr size_t kSequences = 4;
    std::vector<std::vector<Tensor>> sequences;
    for (size_t s = 0; s < kSequences; ++s)
        sequences.push_back(makeStream(c.net->inputShape(), 8,
                                       2000 + 13 * seed + s, 0.15f));

    fault::FaultPlan plan;
    plan.kind = kind;
    if (kind != fault::FaultKind::WorkerStall)
        plan.layerKind = c.kind;    // stalls are layer-agnostic
    plan.fireAtInvocation = 1 + seed % 4;
    plan.seed = 300 + seed;
    armCounted(plan);

    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    std::vector<std::vector<Tensor>> outputs;
    size_t fired_in_sequence = kSequences;
    for (size_t s = 0; s < kSequences; ++s) {
        outputs.push_back(
            engine.executeSequence(state, sequences[s], trace));
        if (fired_in_sequence == kSequences &&
            fault::FaultInjector::global().fires() > 0)
            fired_in_sequence = s;
    }
    const uint64_t fires = fault::FaultInjector::global().fires();
    fault::FaultInjector::global().disarm();

    if (fires == 0) {
        why = "fault never fired";
        return false;
    }
    const OracleReport report =
        testing::diffSequencesAgainstReplay(engine, sequences,
                                            outputs);
    const size_t contained_from =
        kind == fault::FaultKind::WorkerStall
            ? 0    // stalls never corrupt
            : fired_in_sequence + 1;
    if (!report.bitExactFrom(contained_from)) {
        why = "sequence after fault diverged (fired in sequence " +
              std::to_string(fired_in_sequence) +
              ", first mismatch " +
              std::to_string(report.firstMismatchFrame) + ")";
        return false;
    }
    // Sequences before the fault must have been untouched too.
    for (size_t s = 0; s < fired_in_sequence && s < kSequences; ++s) {
        if (!report.frameBitExact[s]) {
            why = "sequence " + std::to_string(s) +
                  " diverged before the fault fired";
            return false;
        }
    }
    return true;
}

void
usage(std::ostream &os)
{
    os << "usage: fault_campaign [options]\n"
          "\n"
          "Sweeps fault kinds x layer kinds and asserts, via the\n"
          "differential oracle, bit-exact recovery in every seeded\n"
          "run.\n"
          "\n"
          "options:\n"
          "  --all            sweep every net and fault kind (default\n"
          "                   when no --net/--kind filter is given)\n"
          "  --net NAME       only this net: fc, conv2d, conv3d,\n"
          "                   lstm, bilstm\n"
          "  --kind NAME      only this fault kind (e.g.\n"
          "                   output-bit-flip)\n"
          "  --seeds N        seeded runs per combination (default 4)\n"
          "  --frames N       frames per feed-forward run (default "
       << kDefaultFrames << ")\n"
          "  --help           print this message\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string only_net;
    std::string only_kind;
    uint64_t seeds = 4;
    size_t frames = kDefaultFrames;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "fault_campaign: " << flag
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--all") {
            // Default behaviour; kept explicit for CI readability.
        } else if (arg == "--net") {
            only_net = next("--net");
        } else if (arg == "--kind") {
            only_kind = next("--kind");
        } else if (arg == "--seeds") {
            seeds = std::strtoull(next("--seeds").c_str(), nullptr, 10);
        } else if (arg == "--frames") {
            frames = std::strtoull(next("--frames").c_str(), nullptr,
                                   10);
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "fault_campaign: unknown option " << arg
                      << "\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (seeds == 0 || frames < 2 * kRefreshPeriod) {
        std::cerr << "fault_campaign: need --seeds >= 1 and --frames"
                     " >= "
                  << 2 * kRefreshPeriod << "\n";
        return 2;
    }
    if (!fault::injectionCompiledIn()) {
        std::cerr << "fault_campaign: build with"
                     " -DREUSE_FAULT_INJECTION=ON\n";
        return 2;
    }
    if (only_kind.size() &&
        !fault::parseFaultKind(only_kind).has_value()) {
        std::cerr << "fault_campaign: unknown fault kind '"
                  << only_kind << "'\n";
        return 2;
    }

    // A two-worker pool on any host, so the FC net's split kernels
    // run on pool workers and stalls fire inside their chunks.
    setenv("REUSE_KERNEL_THREADS", "2", 1);

    const std::vector<std::string> nets = {"fc", "conv2d", "conv3d",
                                           "lstm", "bilstm"};
    size_t runs = 0;
    size_t failures = 0;
    for (const std::string &net_name : nets) {
        if (only_net.size() && net_name != only_net)
            continue;
        const BuiltCase c = buildNet(net_name);
        // Recoverable kinds only: EngineFatal kills the process by
        // design (it exists for the postmortem flight recorder) and
        // has no recovery invariant for a campaign to check.
        for (int k = 0; k < fault::kNumRecoverableFaultKinds; ++k) {
            const auto kind = static_cast<fault::FaultKind>(k);
            if (only_kind.size() &&
                only_kind != fault::faultKindName(kind))
                continue;
            // Frame faults model the serving dequeue path, which is
            // feed-forward only.
            if (c.recurrent && isFrameFault(kind))
                continue;
            size_t combo_failures = 0;
            for (uint64_t seed = 1; seed <= seeds; ++seed) {
                ++runs;
                std::string why;
                const bool ok =
                    c.recurrent
                        ? runRecurrent(c, kind, seed, why)
                        : runFeedForward(c, kind, seed, frames, why);
                if (!ok) {
                    ++combo_failures;
                    ++failures;
                    std::cout << "FAIL " << net_name << " x "
                              << fault::faultKindName(kind)
                              << " seed=" << seed << ": " << why
                              << "\n";
                }
            }
            std::cout << (combo_failures ? "FAIL " : "ok   ")
                      << net_name << " x "
                      << fault::faultKindName(kind) << " ("
                      << seeds - combo_failures << "/" << seeds
                      << " seeds recovered)\n";
        }
    }
    std::cout << "\nfault_campaign: " << runs - failures << "/"
              << runs << " runs recovered bit-exactly\n";
    std::cout << "fault_campaign: " << g_pool_chunk_stalls.load()
              << " worker stalls fired inside kernel-pool chunks\n";
    // The scalar family never splits, so only a SIMD family must have
    // stalled a pool chunk when the FC net's stalls were swept.
    const bool stalls_swept =
        (only_net.empty() || only_net == "fc") &&
        (only_kind.empty() || only_kind == "worker-stall");
    if (stalls_swept &&
        kernels::defaultDispatch().arch != kernels::KernelArch::Scalar &&
        g_pool_chunk_stalls.load() == 0) {
        std::cout << "FAIL no worker stall fired inside a kernel-pool"
                     " chunk\n";
        return 1;
    }
    return failures == 0 ? 0 : 1;
}
