#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "bench.h"
#include "common/aligned.h"
#include "kernels/dispatch.h"
#include "workloads/multi_session_generator.h"

namespace e2e {

double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
tailRank(size_t samples)
{
    if (samples <= 20)
        return 0.5;
    return std::min(0.99, 1.0 - 10.0 / static_cast<double>(samples));
}

void
Counts::report(RunResult &out) const
{
    const double mac_reuse =
        1.0 - ratio(double(macsPerformed), double(macsFull));
    out.add("core.mac_reuse_frac", mac_reuse, "ratio");
    out.add("core.input_similarity",
            1.0 - ratio(double(changed), double(checked)), "ratio");
    out.add("core.near_match_frac",
            ratio(double(nearMatched), double(checked)), "ratio");
    out.add("core.first_exec_frac",
            ratio(double(coldExecutions), double(executions)), "ratio");
    out.add("core.ideal_speedup", ratio(1.0, 1.0 - mac_reuse), "x");
}

double
relErr(const Tensor &a, const Tensor &b)
{
    double diff = 0.0, ref = 0.0;
    for (int64_t i = 0; i < b.numel(); ++i) {
        const double d = double(a[i]) - double(b[i]);
        diff += d * d;
        ref += double(b[i]) * double(b[i]);
    }
    if (ref == 0.0)
        return diff == 0.0 ? 0.0 : INFINITY;
    return std::sqrt(diff / ref);
}

uint64_t
hashTensor(const Tensor &t)
{
    // FNV-1a over 32-bit words: any bit flip in any value changes it.
    uint64_t h = 1469598103934665603ull;
    for (float v : t.data()) {
        uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        h ^= bits;
        h *= 1099511628211ull;
    }
    return h;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

double
triadProbe()
{
    // 3 x 32 MiB, well past the last-level cache of the hosts this
    // targets; float arrays, 12 bytes moved per element.
    const size_t n = size_t{1} << 23;
    reuse::AlignedVector<float> a(n, 0.0f), b(n, 1.0f), c(n, 2.0f);
    double best = 0.0;
    for (int rep = 0; rep < 8; ++rep) {
        const float s = 0.5f + 0.01f * static_cast<float>(rep);
        const double t0 = nowUs();
        for (size_t i = 0; i < n; ++i)
            a[i] = b[i] + s * c[i];
        const double us = nowUs() - t0;
        best = std::max(best, 12.0 * double(n) / (us * 1e3));
    }
    // Keep the stores observable.
    if (a[n / 2] < 0.0f)
        std::printf("%f\n", double(a[n / 2]));
    return best;
}

/** CPU brand string from CPUID (no file reads), "unknown" elsewhere. */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[sizeof regs + 1] = {};
        std::memcpy(brand, regs, sizeof regs);
        std::string model(brand);
        const size_t first = model.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : model.substr(first);
    }
#endif
    return "unknown";
}

} // namespace

double
triadGbps()
{
    // The probe's 96 MiB must not count in this process's peak RSS,
    // so it runs in a child (forked while still single-threaded).
    int fds[2];
    if (pipe(fds) != 0)
        return 0.0;
    const pid_t pid = fork();
    if (pid == 0) {
        const double v = triadProbe();
        const ssize_t n = write(fds[1], &v, sizeof v);
        _exit(n == sizeof v ? 0 : 1);
    }
    close(fds[1]);
    double v = 0.0;
    if (pid < 0 || read(fds[0], &v, sizeof v) != sizeof v)
        v = 0.0;
    close(fds[0]);
    if (pid > 0)
        waitpid(pid, nullptr, 0);
    return v;
}

bool
reportHost(size_t serve_workers, double triad_gbps)
{
    namespace k = reuse::kernels;
    const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
    const size_t pool = k::KernelThreadPool::global().workerCount();
    // The calling thread (the frame loop or the load generator) plus
    // the kernel pool plus the serve workers.
    const size_t threads = 1 + pool + serve_workers;
    std::string model = cpuModel();
    for (char &ch : model)
        if (ch == '"' || ch == '\\')
            ch = ' ';
    std::printf("host: {\"cpu\": \"%s\", \"nproc\": %zu, \"arch\": \"%s\", "
                "\"kernel_pool_workers\": %zu, \"serve_workers\": %zu, "
                "\"threads\": %zu, \"triad_gbps\": %.3f}\n",
                model.c_str(), nproc,
                k::archName(k::defaultDispatch().arch), pool,
                serve_workers, threads, triad_gbps);
    if (threads > nproc) {
        std::fprintf(stderr,
                     "e2ebench: %zu threads exceed nproc = %zu\n",
                     threads, nproc);
        return false;
    }
    return true;
}

reuse::Workload
buildWorkload(const std::string &model)
{
    reuse::WorkloadSetupConfig cfg;
    cfg.seed = kModelSeed;
    return reuse::setupWorkload(model, cfg);
}

std::vector<Tensor>
makeUtterance(const reuse::Workload &w, uint64_t seed, size_t index,
              size_t length)
{
    auto gen = w.makeGenerator(
        reuse::MultiSessionGenerator::sessionSeed(seed, index));
    return gen->take(length);
}

namespace {

/** Length of the union of [lo, hi) intervals clipped to [a, b). */
double
unionLength(std::vector<std::pair<double, double>> iv, double a, double b)
{
    std::sort(iv.begin(), iv.end());
    double total = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    bool open = false;
    for (auto [lo, hi] : iv) {
        lo = std::max(lo, a);
        hi = std::min(hi, b);
        if (hi <= lo)
            continue;
        if (open && lo <= cur_hi) {
            cur_hi = std::max(cur_hi, hi);
            continue;
        }
        if (open)
            total += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
    }
    if (open)
        total += cur_hi - cur_lo;
    return total;
}

} // namespace

void
drainSpans(SpanSummary &out)
{
    using reuse::obs::SpanKind;
    auto &rec = reuse::obs::TraceRecorder::instance();
    const std::vector<reuse::obs::TraceEvent> events = rec.snapshot();
    if (rec.droppedEvents() > 0)
        std::fprintf(stderr, "e2ebench: warning: %llu trace events "
                             "dropped (ring wrap)\n",
                     static_cast<unsigned long long>(rec.droppedEvents()));
    rec.clear();

    struct Frame {
        double lo, hi;
        std::vector<std::pair<double, double>> layer, child;
    };
    std::map<uint32_t, std::vector<Frame>> frames;
    for (const auto &ev : events) {
        const double lo = double(ev.startNs) / 1e3;
        const double hi = lo + double(ev.durNs) / 1e3;
        if (ev.kind == SpanKind::FrameExec) {
            frames[ev.tid].push_back({lo, hi, {}, {}});
            out.busyUs += hi - lo;
        } else if (ev.kind == SpanKind::QueueWait) {
            out.queueWaitUs.push_back(hi - lo);
        } else if (ev.kind == SpanKind::PoolDispatch) {
            out.poolDispatchUs.push_back(hi - lo);
        }
    }
    for (auto &[tid, list] : frames)
        std::sort(list.begin(), list.end(),
                  [](const Frame &x, const Frame &y) { return x.lo < y.lo; });
    for (const auto &ev : events) {
        const bool layer = ev.kind == SpanKind::LayerExec;
        const bool kernel = ev.kind == SpanKind::LayerScan ||
                            ev.kind == SpanKind::LayerApply ||
                            ev.kind == SpanKind::FirstExec ||
                            ev.kind == SpanKind::PoolDispatch;
        if (!layer && !kernel)
            continue;
        auto it = frames.find(ev.tid);
        if (it == frames.end())
            continue;
        const double lo = double(ev.startNs) / 1e3;
        const double hi = lo + double(ev.durNs) / 1e3;
        auto &list = it->second;
        auto pos = std::upper_bound(
            list.begin(), list.end(), lo,
            [](double v, const Frame &f) { return v < f.lo; });
        if (pos == list.begin())
            continue;
        Frame &f = *(pos - 1);
        if (lo >= f.hi)
            continue;
        if (layer) {
            f.layer.emplace_back(lo, hi);
            if (!(ev.flags & reuse::obs::kFlagReuseEnabled))
                f.child.emplace_back(lo, hi);
        } else {
            f.child.emplace_back(lo, hi);
        }
    }
    for (auto &[tid, list] : frames) {
        for (Frame &f : list) {
            FrameSpans s;
            s.frameUs = f.hi - f.lo;
            s.layerUs = unionLength(std::move(f.layer), f.lo, f.hi);
            s.childUs = unionLength(std::move(f.child), f.lo, f.hi);
            out.frames.push_back(s);
        }
    }
}

} // namespace e2e
