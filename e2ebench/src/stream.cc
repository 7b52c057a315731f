/**
 * @file
 * Closed-loop stream workloads (kaldi-stream, autopilot-stream,
 * eesen-seq): one caller runs each utterance/clip/sequence through
 * the reuse engine and through Network::forward on the same inputs,
 * alternating which goes first, and checks every reuse output
 * against the plain one.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "core/reuse_engine.h"
#include "ir/plan_cache.h"

namespace e2e {

namespace {

/** Pool size and stream length per model. */
struct Sizing {
    size_t streams;
    size_t length;
    /** Streams handed to the per-layer probes (trace runs). */
    size_t probeStreams;
};

Sizing
sizingFor(const std::string &model)
{
    if (model == "AutoPilot")
        return {12, 16, 2};
    if (model == "EESEN")
        return {32, 16, 4};
    // 5 s utterances at 100 frames/s.  Cold first frames (0.2%) then
    // stay out of the p99, whose warm tail is far steadier on a
    // contended host than the threaded cold-frame GEMV.
    return {8, 500, 1};
}

/**
 * Largest relative output error a frame may show before the output
 * check fails it.  Reuse computes on quantized inputs, so outputs
 * differ from the FP32 plain pass by the quantization error; the
 * contract is that they stay close to it.
 */
constexpr double kMaxRelErr = 0.5;

} // namespace

RunResult
runStream(const Options &opt, const std::string &model)
{
    RunResult r;
    const Sizing sz = sizingFor(model);
    const std::string tag = model == "AutoPilot" ? "autopilot"
                            : model == "EESEN"   ? "eesen"
                                                 : "kaldi";
    const double triad = triadGbps();
    r.correct = reportHost(0, triad);

    // Setup: model build + calibration + plan compile, repeated.
    std::unique_ptr<reuse::Workload> w;
    std::unique_ptr<reuse::ReuseEngine> engine;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        engine.reset();
        w.reset();
        const double t0 = nowUs();
        w = std::make_unique<reuse::Workload>(buildWorkload(model));
        engine = std::make_unique<reuse::ReuseEngine>(*w->bundle.network,
                                                      w->plan);
        setup_s.push_back((nowUs() - t0) / 1e6);
    }
    const reuse::Network &net = *w->bundle.network;
    const bool recurrent = net.isRecurrent();

    std::vector<std::vector<Tensor>> pool;
    for (size_t u = 0; u < sz.streams; ++u)
        pool.push_back(makeUtterance(*w, opt.seed, u, sz.length));

    reuse::ReuseState state = engine->makeState();
    reuse::ExecutionTrace trace;
    auto &tracer = reuse::obs::TraceRecorder::instance();
    tracer.setSampleEvery(0);

    std::vector<double> reuse_us, traced_us, bare_us, plain_us;
    double reuse_total_us = 0.0;
    int64_t frames = 0;
    double err_max = 0.0;
    Counts counts;
    SpanSummary spans;
    int64_t state_bytes = 0;

    const double deadline = nowUs() + opt.seconds * 1e6;
    for (size_t u = 0;; ++u) {
        if (u >= sz.streams && nowUs() >= deadline)
            break;
        const std::vector<Tensor> &utt = pool[u % sz.streams];
        const bool first_pass = u < sz.streams;
        // Trace runs cycle through four utterance kinds: reuse + plain
        // (output check, plain baseline), traced reuse, untraced reuse
        // only (the like-for-like reference for the tracing overhead),
        // traced reuse.
        const bool traced = opt.trace && (u % 2 == 1);
        const bool reuse_only = opt.trace && (u % 4 == 2);
        std::vector<double> &sink = traced       ? traced_us
                                    : reuse_only ? bare_us
                                                 : reuse_us;
        std::vector<Tensor> outs, plain;

        auto run_reuse = [&] {
            tracer.setSampleEvery(traced ? 1 : 0);
            if (recurrent) {
                const double t0 = nowUs();
                outs = engine->executeSequence(state, utt, trace);
                const double us = nowUs() - t0;
                sink.push_back(us / double(utt.size()));
                reuse_total_us += us;
                frames += int64_t(utt.size());
                if (first_pass)
                    counts.add(trace, int64_t(utt.size()));
            } else {
                // Latency samples are warm frames: each utterance's cold
                // first frame runs the contention-sensitive plain path
                // and counts in stream_fps and core.first_exec_frac.
                state.reset();
                for (const Tensor &x : utt) {
                    const double t0 = nowUs();
                    outs.push_back(engine->execute(state, x, trace));
                    const double us = nowUs() - t0;
                    if (outs.size() > 1)
                        sink.push_back(us);
                    reuse_total_us += us;
                    ++frames;
                    if (first_pass)
                        counts.add(trace, 1);
                }
            }
            tracer.setSampleEvery(0);
            state_bytes = std::max(state_bytes, state.memoryBytes());
            if (traced)
                drainSpans(spans);
        };
        auto run_plain = [&] {
            if (recurrent) {
                const double t0 = nowUs();
                plain = net.forwardSequence(utt);
                plain_us.push_back((nowUs() - t0) / double(utt.size()));
            } else {
                for (const Tensor &x : utt) {
                    const double t0 = nowUs();
                    plain.push_back(net.forward(x));
                    plain_us.push_back(nowUs() - t0);
                }
            }
        };
        if (traced || reuse_only) {
            run_reuse();
            continue;
        }
        if (u % 2 == 0) {
            run_reuse();
            run_plain();
        } else {
            run_plain();
            run_reuse();
        }
        for (size_t f = 0; f < outs.size(); ++f) {
            const double e = relErr(outs[f], plain[f]);
            err_max = std::max(err_max, e);
            ++r.attempted;
            if (!(e <= kMaxRelErr))
                ++r.failed;
        }
    }

    std::printf("frames: reuse %zu untraced (+%zu traced), plain %zu; "
                "p99 rank %.4f\n",
                reuse_us.size(), traced_us.size(), plain_us.size(),
                tailRank(reuse_us.size()));
    if (!opt.trace) {
        r.add("setup_s", median(setup_s), "s");
        r.add("frame_us_p50", median(reuse_us), "us");
        r.add("frame_us_p99", tail(reuse_us), "us");
        r.add("stream_fps", ratio(double(frames), reuse_total_us / 1e6),
              "1/s");
        // Closed loop: the highest frame rate whose frame period the
        // p99 frame still meets.
        r.add("max_fps_at_slo", ratio(1e6, tail(reuse_us)), "1/s");
        r.add("served_frac",
              ratio(double(r.attempted - r.failed), double(r.attempted)),
              "ratio");
        r.add("peak_rss_mb", peakRssMb(), "MB");
        return r;
    }

    const double reuse_p50 = median(reuse_us);
    // A recurrent "frame" span covers a whole sequence; report per step.
    const double per_frame = recurrent ? 1.0 / double(sz.length) : 1.0;
    std::vector<double> self_us;
    double frame_sum = 0.0, layer_sum = 0.0;
    for (const FrameSpans &f : spans.frames) {
        self_us.push_back((f.frameUs - f.childUs) * per_frame);
        frame_sum += f.frameUs;
        layer_sum += f.layerUs;
    }
    r.add("out_rel_err_max", err_max, "ratio");
    r.add("core.execute_us_p50", reuse_p50, "us");
    r.add("core.self_us_p50", median(self_us), "us");
    counts.report(r);
    r.add("nn.plain_frame_us_p50", median(plain_us), "us");
    r.add("core.measured_speedup", ratio(median(plain_us), reuse_p50), "x");
    r.add("core.state_bytes", double(state_bytes), "bytes");
    r.add("kernels.pool_dispatch_us_p50", median(spans.poolDispatchUs),
          "us");
    const double attributed = ratio(layer_sum, frame_sum);
    r.add("obs.trace_overhead_frac",
          ratio(median(traced_us), median(bare_us)) - 1.0, "ratio");
    r.add("obs.attributed_frac", attributed, "ratio");
    if (attributed < 0.5)
        std::fprintf(stderr, "e2ebench: warning: layer spans cover only "
                             "%.1f%% of frame time\n",
                     attributed * 100.0);

    const std::vector<std::vector<Tensor>> probe(
        pool.begin(), pool.begin() + long(sz.probeStreams));
    probeLayers(*w, *engine, probe, tag, triad, r);
    probeSetupLayers(model, r);
    const auto cache = reuse::ir::PlanCache::instance().stats();
    r.add("ir.plan_cache_hit_frac",
          ratio(double(cache.hits), double(cache.hits + cache.misses)),
          "ratio");
    return r;
}

} // namespace e2e
