/**
 * @file
 * Shared pieces of the end-to-end benchmark: options, the metric
 * report, sample statistics, host fingerprint, span analysis and the
 * per-layer probes.  Every timing here is taken from outside the
 * library, around calls into its public functions.
 */

#ifndef REUSE_E2EBENCH_BENCH_H
#define REUSE_E2EBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/exec_record.h"
#include "harness/workload_setup.h"
#include "obs/trace_recorder.h"
#include "tensor/tensor.h"

namespace reuse {
class ReuseEngine;
}

namespace e2e {

using reuse::Tensor;

/** Command-line options (see main.cc). */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** One named metric with its unit. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of one workload run. */
struct RunResult {
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** Fixed model seed: weights and calibration never vary with --seed. */
constexpr uint64_t kModelSeed = 42;

/** Setups per run; setup_s reports their median. */
constexpr int kSetupRepeats = 7;

// ---------------------------------------------------------------- time

inline double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------- statistics

/** Linear-interpolated quantile of `v` (p in [0, 1]); 0 when empty. */
double quantile(std::vector<double> v, double p);

inline double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / double(v.size());
}

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * The tail rank reported as "p99": the highest percentile, capped at
 * 0.99, that still leaves at least ten samples beyond it.
 */
double tailRank(size_t samples);

/** Quantile at tailRank(v.size()). */
inline double
tail(std::vector<double> v)
{
    const double p = tailRank(v.size());
    return quantile(std::move(v), p);
}

/** num / den, 0 when den is 0. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Exact counts reduced from execution traces. */
struct Counts {
    int64_t macsFull = 0;
    int64_t macsPerformed = 0;
    int64_t checked = 0;
    int64_t changed = 0;
    int64_t nearMatched = 0;
    /** Frames (sequence steps for recurrent networks). */
    int64_t executions = 0;
    /** Executions that ran a reuse layer from scratch. */
    int64_t coldExecutions = 0;

    /** Adds one execute() trace, or one executeSequence() of `steps`. */
    void add(const reuse::ExecutionTrace &trace, int64_t steps)
    {
        bool cold = false;
        for (const reuse::LayerExecRecord &rec : trace) {
            macsFull += rec.macsFull;
            macsPerformed += rec.macsPerformed;
            if (!rec.reuseEnabled)
                continue;
            checked += rec.inputsChecked;
            changed += rec.inputsChanged;
            nearMatched += rec.inputsNearMatched;
            cold = cold || rec.firstExecution;
        }
        // executeSequence() resets the state: every sequence starts cold.
        cold = cold || steps > 1;
        executions += steps;
        coldExecutions += cold ? 1 : 0;
    }

    void merge(const Counts &o)
    {
        macsFull += o.macsFull;
        macsPerformed += o.macsPerformed;
        checked += o.checked;
        changed += o.changed;
        nearMatched += o.nearMatched;
        executions += o.executions;
        coldExecutions += o.coldExecutions;
    }

    /** Adds the core.* count metrics derived from these counts. */
    void report(RunResult &out) const;
};

/** ||a - b||_2 / ||b||_2 over two equally sized tensors. */
double relErr(const Tensor &a, const Tensor &b);

/** FNV-1a over the bit patterns of a tensor's values. */
uint64_t hashTensor(const Tensor &t);

/** Peak resident set size of this process in MiB. */
double peakRssMb();

// ---------------------------------------------------------------- host

/**
 * Single-thread STREAM-triad bandwidth probe (GB/s, best of N), run
 * in a child process; call before any thread is started.
 */
double triadGbps();

/**
 * Prints the host fingerprint line and checks the thread budget.
 * Returns false when the threads this workload uses exceed nproc.
 */
bool reportHost(size_t serve_workers, double triad_gbps);

// ------------------------------------------------------------- setups

/** Builds a paper workload at kModelSeed ("Kaldi", "AutoPilot", ...). */
reuse::Workload buildWorkload(const std::string &model);

/** Input stream `index` of a seeded pool (one utterance/clip each). */
std::vector<Tensor> makeUtterance(const reuse::Workload &w, uint64_t seed,
                                  size_t index, size_t length);

// --------------------------------------------------------------- spans

/** Per-frame decomposition of one traced frame (microseconds). */
struct FrameSpans {
    double frameUs = 0.0;
    /** Union of layer_exec spans (time attributed to a layer). */
    double layerUs = 0.0;
    /** Union of kernel spans (scan/apply/first_exec/pool) and of
     *  layer_exec spans of layers run from scratch (nn forward). */
    double childUs = 0.0;
};

/** Reduced view of a drained trace. */
struct SpanSummary {
    std::vector<FrameSpans> frames;
    std::vector<double> queueWaitUs;
    std::vector<double> poolDispatchUs;
    /** Sum of frame_exec durations (busy time of the workers). */
    double busyUs = 0.0;
};

/** Drains the recorder and reduces the spans it held into `out`. */
void drainSpans(SpanSummary &out);

// -------------------------------------------------------------- probes

/**
 * Outside-in per-layer probes on layer inputs captured from real
 * frames: Layer::forward per layer (nn), the per-layer reuse states
 * (core), and the kernels replayed on the same inputs with each
 * layer's quantizer (kernels).  Adds nn.*, core.layer_us.*,
 * core.reuse_efficiency.*, kernels.* metrics prefixed by `tag`.
 */
void probeLayers(const reuse::Workload &w, const reuse::ReuseEngine &engine,
                 const std::vector<std::vector<Tensor>> &utterances,
                 const std::string &tag, double triad_gbps,
                 RunResult &out);

/** Times quant calibration and plan compilation (quant.*, ir.*). */
void probeSetupLayers(const std::string &model, RunResult &out);

// ----------------------------------------------------------- workloads

RunResult runStream(const Options &opt, const std::string &model);
RunResult runServe(const Options &opt);

} // namespace e2e

#endif // REUSE_E2EBENCH_BENCH_H
