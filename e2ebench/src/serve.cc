/**
 * @file
 * Open-loop serving workload (kaldi-serve): Kaldi frames offered to a
 * StreamingServer on a fixed schedule at a fixed ladder of absolute
 * rates.  Session slots churn: each session opens, streams one
 * utterance and closes, and a new one takes its slot.  Every frame is
 * timed from when it was due, not from when it was submitted, so a
 * late generator or a stall counts against the frames behind it.
 * Afterwards every session is replayed on a dedicated ReuseState and
 * its outputs must be bit-identical to what the server returned.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/reuse_engine.h"
#include "ir/plan_cache.h"
#include "serve/streaming_server.h"

namespace e2e {

namespace {

using reuse::SessionId;
using reuse::SloClass;
using reuse::StreamingServer;

/** Serve workers; with the generator thread that makes nproc = 4. */
constexpr size_t kWorkers = 3;
/** Concurrent session slots. */
constexpr size_t kSlots = 256;
/** Frames per utterance (one session's stream). */
constexpr size_t kUttLen = 32;
/** Distinct utterances in the seeded input pool. */
constexpr size_t kPoolUtts = 384;
/** Pool utterances the plain baseline and the accuracy check run. */
constexpr size_t kPlainUtts = 32;

/**
 * The fixed rate ladder (frames/s): about 25/40/70% of the capacity
 * of 3 workers measured on the reference host (about 8000 frames/s),
 * plus a rung well above capacity that bounds max_fps_at_slo.  Never
 * recalibrated at run time: a faster server gets the same load and
 * shows lower latency.
 * The latency rung `mid` sits below half the capacity because the
 * host's memory contention slows service by up to 1.5x for seconds at
 * a time, and queueing amplifies that nonlinearly near saturation.
 */
struct Rung {
    const char *name;
    double fps;
    /** Share of --seconds this rung is offered for. */
    double share;
};
constexpr Rung kLadder[] = {
    {"low", 2000.0, 0.2},
    {"mid", 3200.0, 0.4},
    {"high", 5600.0, 0.2},
    {"over", 12000.0, 0.2},
};
constexpr size_t kMid = 1;

/** SLO a rung must meet to count towards max_fps_at_slo. */
constexpr double kInteractiveP99LimitUs = 10'000.0;
constexpr double kMaxFailFrac = 0.01;
/** Backlog at rung end, in seconds of offered frames. */
constexpr double kMaxBacklogS = 0.02;

/**
 * Windows a rung's Interactive tail is taken over: the reported tail
 * is the median of the per-window tails, so a host stall that hits
 * one window (the whole VM descheduled for milliseconds) does not
 * move it.
 */
constexpr size_t kTailWindows = 8;

/** Unmeasured lead-in at the mid rate (cold first frames settle). */
constexpr double kWarmupS = 1.0;

/** 2:1:1 Interactive/Standard/Batch over the slots. */
SloClass
classFor(size_t slot)
{
    if (slot % 2 == 0)
        return SloClass::Interactive;
    return slot % 4 == 1 ? SloClass::Standard : SloClass::Batch;
}

struct Phase {
    std::string name;
    double fps;
    double us;
    /** Index into the per-phase stats; -1 = not measured. */
    int measured;
    bool traced;
};

struct FrameRec {
    double due = 0.0;
    double done = -1.0;
    int phase = -1;
    SloClass cls = SloClass::Interactive;
    bool shed = false;
};

struct SessRec {
    SessionId id = 0;
    size_t utt = 0;
    size_t len = 0;
    size_t submitted = 0;
    /** Accepted frames not yet completed. */
    size_t pending = 0;
    std::vector<char> shed;
    std::vector<uint64_t> hashes;
    std::vector<uint64_t> cold;
};

struct Inflight {
    std::future<Tensor> fut;
    size_t frame;
    size_t sess;
    size_t accepted;
};

struct PhaseStats {
    std::string name;
    double fps = 0.0;
    uint64_t attempted = 0, shed = 0, completed = 0, missed = 0;
    std::vector<double> lat;
    /** Interactive latencies, by window of the rung. */
    std::vector<double> interactive[kTailWindows];
    size_t backlog = 0;
    double start = 0.0;
    double seconds = 0.0;
    std::vector<double> submitUs, lateUs, openUs, closeUs;
    uint64_t opened = 0;

    double failFrac() const
    {
        return ratio(double(shed + missed), double(attempted));
    }
    double onTimeFps() const
    {
        return ratio(double(completed - missed), seconds);
    }
    size_t interactiveCount() const
    {
        size_t n = 0;
        for (const auto &w : interactive)
            n += w.size();
        return n;
    }
    /** Median over windows of the Interactive tail ("p99"). */
    double interactiveTail() const
    {
        std::vector<double> tails;
        for (const auto &w : interactive)
            tails.push_back(tail(w));
        return median(tails);
    }
};

} // namespace

RunResult
runServe(const Options &opt)
{
    // Kernel work stays on the serve workers: no intra-layer pool.
    setenv("REUSE_KERNEL_THREADS", "0", 1);
    RunResult r;
    const double triad = triadGbps();
    r.correct = reportHost(kWorkers, triad);

    StreamingServer::Config cfg;
    cfg.workerThreads = kWorkers;
    std::unique_ptr<reuse::Workload> w;
    std::unique_ptr<reuse::ReuseEngine> engine;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        engine.reset();
        w.reset();
        const double t0 = nowUs();
        w = std::make_unique<reuse::Workload>(buildWorkload("Kaldi"));
        engine = std::make_unique<reuse::ReuseEngine>(*w->bundle.network,
                                                      w->plan);
        StreamingServer probe(*engine, cfg);
        setup_s.push_back((nowUs() - t0) / 1e6);
    }
    const reuse::Network &net = *w->bundle.network;

    std::vector<std::vector<Tensor>> pool;
    for (size_t u = 0; u < kPoolUtts; ++u)
        pool.push_back(makeUtterance(*w, opt.seed, u, kUttLen));

    // Phase schedule.
    std::vector<Phase> phases;
    phases.push_back(
        {"warmup", kLadder[kMid].fps, kWarmupS * 1e6, -1, false});
    if (opt.trace) {
        const double half = std::min(opt.seconds / 2.0, 2.0) * 1e6;
        phases.push_back({"mid", kLadder[kMid].fps, half, 0, false});
        phases.push_back({"mid-traced", kLadder[kMid].fps, half, 1, true});
        // Large enough rings that the traced phase never wraps.
        reuse::obs::TraceRecorder::instance().setRingCapacity(1 << 17);
    } else {
        // Ascending, so the overload rung's backlog comes last; `low`
        // absorbs what is left of the start-up transient.
        int idx = 0;
        for (const Rung &rung : kLadder)
            phases.push_back({rung.name, rung.fps,
                              rung.share * opt.seconds * 1e6, idx++,
                              false});
    }
    size_t measured = 0;
    for (const Phase &p : phases)
        measured += p.measured >= 0 ? 1 : 0;
    std::vector<PhaseStats> stats(measured);

    auto &tracer = reuse::obs::TraceRecorder::instance();
    tracer.setSampleEvery(0);
    StreamingServer server(*engine, cfg);

    // Sized up front: no reallocation stalls inside the generator loop.
    double offered = 0.0;
    for (const Phase &p : phases)
        offered += p.fps * p.us / 1e6;
    std::vector<FrameRec> frames;
    frames.reserve(size_t(offered) + kSlots);
    std::vector<SessRec> sessions;
    sessions.reserve(size_t(offered) / kUttLen + 2 * kSlots);
    std::vector<Inflight> inflight;
    inflight.reserve(4096);
    uint64_t errors = 0;
    auto poll = [&] {
        for (size_t i = 0; i < inflight.size();) {
            if (inflight[i].fut.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                ++i;
                continue;
            }
            const double t = nowUs();
            Inflight e = std::move(inflight[i]);
            inflight[i] = std::move(inflight.back());
            inflight.pop_back();
            frames[e.frame].done = t;
            --sessions[e.sess].pending;
            try {
                sessions[e.sess].hashes[e.accepted] = hashTensor(e.fut.get());
            } catch (...) {
                ++errors;
            }
        }
    };

    struct Slot {
        long sess = -1;
        size_t pos = 0;
    };
    std::vector<Slot> slots(kSlots);
    size_t next_session = 0;
    // A churned session closes only once its last frame completed, so
    // closeSession() never blocks the generator behind a queued frame
    // (under EDF a Batch frame may legitimately wait up to its 1 s
    // budget).
    std::vector<size_t> closing;
    auto reap = [&](PhaseStats *ps) {
        for (size_t i = 0; i < closing.size();) {
            SessRec &s = sessions[closing[i]];
            if (s.pending > 0) {
                ++i;
                continue;
            }
            s.cold = server.sessionSnapshot(s.id).coldFrames;
            const double t0 = nowUs();
            server.closeSession(s.id);
            if (ps != nullptr)
                ps->closeUs.push_back(nowUs() - t0);
            closing[i] = closing.back();
            closing.pop_back();
        }
    };

    auto drain = [&] {
        const double deadline = nowUs() + 60e6;
        while (!inflight.empty() && nowUs() < deadline) {
            poll();
            reap(nullptr);
        }
    };

    // Plain-pass baseline and accuracy on a fixed slice of the pool
    // (trace runs, once the server is idle): fresh state per
    // utterance, reuse vs Network::forward.
    std::vector<double> plain_us;
    double err_max = 0.0;
    size_t plain_next = 0;
    auto plain_chunk = [&](size_t utterances) {
        reuse::ReuseState st = engine->makeState();
        reuse::ExecutionTrace tr;
        for (size_t i = 0; i < utterances && plain_next < kPlainUtts;
             ++i, ++plain_next) {
            st.reset();
            for (const Tensor &x : pool[plain_next]) {
                const Tensor y = engine->execute(st, x, tr);
                const double t0 = nowUs();
                const Tensor ref = net.forward(x);
                plain_us.push_back(nowUs() - t0);
                err_max = std::max(err_max, relErr(y, ref));
            }
        }
    };

    const uint64_t steals0 = server.metrics().steals();
    double due = nowUs() + 1000.0;
    size_t k = 0;
    for (size_t pi = 0; pi < phases.size(); ++pi) {
        const Phase &ph = phases[pi];
        PhaseStats *ps = ph.measured >= 0 ? &stats[size_t(ph.measured)]
                                          : nullptr;
        const double start = due;
        const double end = start + ph.us;
        if (ps != nullptr) {
            ps->name = ph.name;
            ps->fps = ph.fps;
            ps->start = start;
            ps->seconds = ph.us / 1e6;
        }
        for (; due < end; due += 1e6 / ph.fps, ++k) {
            double now = nowUs();
            while (now < due) {
                poll();
                reap(ps);
                now = nowUs();
            }
            if (ph.traced != (tracer.sampleEvery() != 0))
                tracer.setSampleEvery(ph.traced ? 1 : 0);
            const size_t slot_idx = k % kSlots;
            Slot &slot = slots[slot_idx];
            if (slot.sess < 0 ||
                slot.pos == sessions[size_t(slot.sess)].len) {
                if (slot.sess >= 0)
                    closing.push_back(size_t(slot.sess));
                SessRec s;
                s.utt = next_session % kPoolUtts;
                // Stagger first utterances so slots churn evenly.
                s.len = next_session < kSlots
                            ? kUttLen - (slot_idx % kUttLen)
                            : kUttLen;
                s.shed.assign(s.len, 0);
                s.hashes.assign(s.len, 0);
                const double t0 = nowUs();
                s.id = server.openSession(
                    "default",
                    opt.seed * 1000003ull + uint64_t(next_session),
                    classFor(slot_idx));
                if (ps != nullptr) {
                    ps->openUs.push_back(nowUs() - t0);
                    ++ps->opened;
                }
                slot.sess = long(sessions.size());
                slot.pos = 0;
                sessions.push_back(std::move(s));
                ++next_session;
            }
            SessRec &s = sessions[size_t(slot.sess)];
            FrameRec fr;
            fr.due = due;
            fr.phase = ph.measured;
            fr.cls = classFor(slot_idx);
            const double t0 = nowUs();
            auto outcome =
                server.trySubmitFrame(s.id, pool[s.utt][slot.pos]);
            const double t1 = nowUs();
            if (ps != nullptr) {
                ps->submitUs.push_back(t1 - t0);
                ps->lateUs.push_back(t0 - due);
            }
            if (outcome.accepted()) {
                ++s.pending;
                inflight.push_back({std::move(outcome.result), frames.size(),
                                    size_t(slot.sess),
                                    slot.pos - size_t(std::count(
                                                   s.shed.begin(),
                                                   s.shed.begin() +
                                                       long(slot.pos),
                                                   char(1)))});
            } else {
                fr.shed = true;
                s.shed[slot.pos] = 1;
            }
            frames.push_back(fr);
            ++slot.pos;
            s.submitted = slot.pos;
        }
        if (ps == nullptr)
            continue;
        ps->backlog = inflight.size();
        tracer.setSampleEvery(0);
        // Each rung starts on an idle server.
        drain();
        due = nowUs() + 1000.0;
    }
    tracer.setSampleEvery(0);
    for (Slot &slot : slots)
        if (slot.sess >= 0)
            closing.push_back(size_t(slot.sess));
    drain();
    if (opt.trace)
        plain_chunk(kPlainUtts);
    if (!inflight.empty()) {
        std::fprintf(stderr, "e2ebench: %zu frames never completed\n",
                     inflight.size());
        r.correct = false;
        errors += inflight.size();
        inflight.clear();
    }
    reap(nullptr);
    const uint64_t total_steals = server.metrics().steals() - steals0;
    server.stop();
    SpanSummary spans;
    if (opt.trace)
        drainSpans(spans);

    for (const FrameRec &fr : frames) {
        if (fr.phase < 0)
            continue;
        PhaseStats &ps = stats[size_t(fr.phase)];
        ++ps.attempted;
        if (fr.shed) {
            ++ps.shed;
            continue;
        }
        if (fr.done < 0.0)
            continue;
        ++ps.completed;
        const double lat = fr.done - fr.due;
        ps.lat.push_back(lat);
        if (fr.cls == SloClass::Interactive) {
            const size_t win = std::min(
                kTailWindows - 1,
                size_t((fr.due - ps.start) /
                       (ps.seconds * 1e6 / double(kTailWindows))));
            ps.interactive[win].push_back(lat);
        }
        if (lat > double(cfg.slo.budget(fr.cls)))
            ++ps.missed;
    }

    // Bit-exact replay of every session on a dedicated state,
    // resetting where the server ran a frame cold.
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> mismatches{0};
    // The server has stopped: the replay may use every core.
    const size_t replay_threads = kWorkers + 1;
    std::vector<Counts> counts(replay_threads);
    std::vector<std::thread> replayers;
    for (size_t t = 0; t < replay_threads; ++t) {
        replayers.emplace_back([&, t] {
            reuse::ReuseState st = engine->makeState();
            reuse::ExecutionTrace tr;
            for (size_t i = next++; i < sessions.size(); i = next++) {
                const SessRec &s = sessions[i];
                st.reset();
                size_t a = 0;
                for (size_t f = 0; f < s.submitted; ++f) {
                    if (s.shed[f])
                        continue;
                    if (std::find(s.cold.begin(), s.cold.end(), a) !=
                        s.cold.end())
                        st.reset();
                    const Tensor y = engine->execute(st, pool[s.utt][f], tr);
                    counts[t].add(tr, 1);
                    if (hashTensor(y) != s.hashes[a])
                        ++mismatches;
                    ++a;
                }
            }
        });
    }
    for (std::thread &t : replayers)
        t.join();
    Counts total;
    for (const Counts &c : counts)
        total.merge(c);

    uint64_t attempted = 0;
    for (const FrameRec &fr : frames)
        attempted += fr.phase >= 0 ? 1 : 0;
    r.attempted = attempted;
    r.failed = mismatches.load() + errors;
    std::printf("serve: %zu frames offered, %zu sessions, replay "
                "mismatches %llu, errors %llu\n",
                frames.size(), sessions.size(),
                static_cast<unsigned long long>(mismatches.load()),
                static_cast<unsigned long long>(errors));
    for (const PhaseStats &ps : stats) {
        std::printf("rung %-10s offered %6.0f f/s: on-time %8.1f f/s, "
                    "p50 %7.1f us, interactive p%.2f %8.1f us (n=%zu, "
                    "median of %zu windows), "
                    "shed %llu, missed %llu, backlog %zu, late p99 %.0f "
                    "us\n",
                    ps.name.c_str(), ps.fps, ps.onTimeFps(), median(ps.lat),
                    tailRank(ps.interactive[0].size()) * 100.0,
                    ps.interactiveTail(), ps.interactiveCount(),
                    kTailWindows,
                    static_cast<unsigned long long>(ps.shed),
                    static_cast<unsigned long long>(ps.missed), ps.backlog,
                    tail(ps.lateUs));
    }

    if (!opt.trace) {
        const PhaseStats &mid = stats[kMid];
        // Each rung is judged on its own; the answer is the on-time
        // rate of the highest rung that meets the SLO.
        double max_fps = 0.0;
        for (const PhaseStats &ps : stats) {
            const bool ok =
                ps.interactiveTail() <= kInteractiveP99LimitUs &&
                ps.failFrac() <= kMaxFailFrac &&
                double(ps.backlog) <= ps.fps * kMaxBacklogS;
            if (ok)
                max_fps = ps.onTimeFps();
        }
        r.add("setup_s", median(setup_s), "s");
        r.add("frame_us_p50", median(mid.lat), "us");
        r.add("frame_us_p99", mid.interactiveTail(), "us");
        r.add("stream_fps", ratio(double(mid.completed), mid.seconds),
              "1/s");
        r.add("max_fps_at_slo", max_fps, "1/s");
        r.add("served_frac", 1.0 - mid.failFrac(), "ratio");
        r.add("peak_rss_mb", peakRssMb(), "MB");
        return r;
    }

    r.add("out_rel_err_max", err_max, "ratio");
    r.add("nn.plain_frame_us_p50", median(plain_us), "us");
    const PhaseStats &plain_mid = stats[0];
    const PhaseStats &traced_mid = stats[1];
    r.add("serve.queue_wait_us_p50", median(spans.queueWaitUs), "us");
    r.add("serve.queue_wait_us_p99", tail(spans.queueWaitUs), "us");
    r.add("serve.submit_us_p50", median(plain_mid.submitUs), "us");
    r.add("serve.gen_late_us_p99", tail(plain_mid.lateUs), "us");
    r.add("serve.open_session_us_p50", median(plain_mid.openUs), "us");
    r.add("serve.close_session_us_p50", median(plain_mid.closeUs), "us");
    r.add("serve.worker_busy_frac",
          ratio(spans.busyUs, double(kWorkers) * traced_mid.seconds * 1e6),
          "ratio");
    r.add("serve.steals", double(total_steals), "count");
    // Each session's first frame runs cold (no memory budget, so no
    // eviction re-warms); the count follows the session churn.
    r.add("serve.cold_frames", double(plain_mid.opened), "count");
    r.add("serve.shed_frac",
          ratio(double(plain_mid.shed), double(plain_mid.attempted)),
          "ratio");
    r.add("serve.miss_frac",
          ratio(double(plain_mid.missed), double(plain_mid.completed)),
          "ratio");

    std::vector<double> exec_us, self_us;
    double frame_sum = 0.0, layer_sum = 0.0;
    for (const FrameSpans &f : spans.frames) {
        exec_us.push_back(f.frameUs);
        self_us.push_back(f.frameUs - f.childUs);
        frame_sum += f.frameUs;
        layer_sum += f.layerUs;
    }
    r.add("core.execute_us_p50", median(exec_us), "us");
    r.add("core.self_us_p50", median(self_us), "us");
    total.report(r);
    reuse::ReuseState warm = engine->makeState();
    {
        reuse::ExecutionTrace tr;
        engine->execute(warm, pool[0][0], tr);
    }
    r.add("core.state_bytes", double(warm.memoryBytes() * int64_t(kSlots)),
          "bytes");
    r.add("kernels.pool_dispatch_us_p50", median(spans.poolDispatchUs),
          "us");
    const double attributed = ratio(layer_sum, frame_sum);
    r.add("obs.trace_overhead_frac",
          ratio(median(traced_mid.lat), median(plain_mid.lat)) - 1.0,
          "ratio");
    r.add("obs.attributed_frac", attributed, "ratio");
    if (attributed < 0.5)
        std::fprintf(stderr, "e2ebench: warning: layer spans cover only "
                             "%.1f%% of frame time\n",
                     attributed * 100.0);

    const std::vector<std::vector<Tensor>> probe(pool.begin(),
                                                 pool.begin() + 6);
    probeLayers(*w, *engine, probe, "kaldi", triad, r);
    probeSetupLayers("Kaldi", r);
    const auto cache = reuse::ir::PlanCache::instance().stats();
    r.add("ir.plan_cache_hit_frac",
          ratio(double(cache.hits), double(cache.hits + cache.misses)),
          "ratio");
    return r;
}

} // namespace e2e
