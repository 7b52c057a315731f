#include "thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "common/math_utils.h"
#include "obs/exemplar.h"
#include "obs/trace_recorder.h"

namespace reuse {
namespace kernels {

namespace {

std::atomic<KernelThreadPool::ChunkHook> g_chunk_hook{nullptr};

void
runChunkHook()
{
    if (KernelThreadPool::ChunkHook hook =
            g_chunk_hook.load(std::memory_order_acquire))
        hook();
}

size_t
defaultWorkerCount()
{
    if (const char *env = std::getenv("REUSE_KERNEL_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        return v > 0 ? static_cast<size_t>(v) : 0;
    }
    // The calling thread participates, so on an H-hardware-thread
    // machine H-1 workers saturate it; cap at 3 workers (4-way
    // layer parallelism) — delta updates are memory bound and wider
    // fan-out mostly adds synchronization cost.  Single-core
    // machines get zero workers: parallelFor() runs inline.
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw <= 1)
        return 0;
    return std::min<size_t>(3, hw - 1);
}

/** Runs the chunks of [0, total) in order on the calling thread. */
void
runInline(int64_t total, int64_t grain,
          const KernelThreadPool::ChunkFn &fn)
{
    for (int64_t begin = 0; begin < total; begin += grain) {
        runChunkHook();
        fn(begin, std::min(total, begin + grain));
    }
}

/**
 * Makes the calling thread's frame context a copy of `caller` whose
 * exemplar spans go to `staging`; restores the previous context on
 * exit.
 */
class AdoptFrameContext
{
  public:
    AdoptFrameContext(const obs::FrameContext &caller,
                      obs::ExemplarStaging *staging)
        : saved_(obs::frameContext())
    {
        obs::FrameContext &ctx = obs::frameContext();
        ctx = caller;
        ctx.staging = staging;
    }
    ~AdoptFrameContext() { obs::frameContext() = saved_; }

    AdoptFrameContext(const AdoptFrameContext &) = delete;
    AdoptFrameContext &operator=(const AdoptFrameContext &) = delete;

  private:
    obs::FrameContext saved_;
};

} // namespace

KernelThreadPool::KernelThreadPool(size_t workers)
{
    workers_.reserve(workers);
    for (size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

KernelThreadPool::~KernelThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    work_cv_.notifyAll();
    for (std::thread &t : workers_)
        t.join();
}

KernelThreadPool &
KernelThreadPool::global()
{
    static KernelThreadPool pool(defaultWorkerCount());
    return pool;
}

void
KernelThreadPool::setChunkHook(ChunkHook hook)
{
    g_chunk_hook.store(hook, std::memory_order_release);
}

void
KernelThreadPool::runChunks(Job &job)
{
    for (;;) {
        const int64_t c =
            job.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= job.chunks)
            break;
        const int64_t begin = c * job.grain;
        const int64_t end = std::min(job.total, begin + job.grain);
        runChunkHook();
        (*job.fn)(begin, end);
        if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            job.chunks) {
            MutexLock lock(mutex_);
            done_cv_.notifyAll();
        }
    }
}

void
KernelThreadPool::workerLoop()
{
    uint64_t seen = 0;
    MutexLock lock(mutex_);
    for (;;) {
        while (!stop_ && generation_ == seen)
            work_cv_.wait(lock);
        if (stop_)
            return;
        seen = generation_;
        Job *job = current_;
        if (job == nullptr)
            continue;  // Job already retired; nothing to do.
        ++workers_in_job_;
        lock.unlock();
        runChunks(*job);
        lock.lock();
        --workers_in_job_;
        done_cv_.notifyAll();
    }
}

bool
KernelThreadPool::tryRunJob(int64_t total, int64_t grain,
                            const ChunkFn &fn)
{
    bool idle = false;
    if (workers_.empty() ||
        !busy_.compare_exchange_strong(idle, true,
                                       std::memory_order_acquire))
        return false;
    Job job;
    job.fn = &fn;
    job.total = total;
    job.grain = grain;
    job.chunks = ceilDiv(total, grain);
    {
        MutexLock lock(mutex_);
        current_ = &job;
        ++generation_;
    }
    work_cv_.notifyAll();
    runChunks(job);
    {
        // Wait until every chunk ran AND every worker left the job,
        // so `job` (on this stack frame) cannot be touched after we
        // return.
        MutexLock lock(mutex_);
        while (workers_in_job_ != 0 ||
               job.done.load(std::memory_order_acquire) != job.chunks)
            done_cv_.wait(lock);
        current_ = nullptr;
    }
    busy_.store(false, std::memory_order_release);
    return true;
}

void
KernelThreadPool::parallelFor(int64_t total, int64_t grain,
                              const ChunkFn &fn)
{
    if (total <= 0)
        return;
    if (grain <= 0)
        grain = total;
    // Dispatch span on the calling thread: covers inline execution
    // and the fan-out/join of the pooled path alike (chunk bodies on
    // pool workers are outside any sampled frame and stay untraced).
    obs::TraceSpan dispatch_span(obs::SpanKind::PoolDispatch);
    dispatch_span.args(total, grain);
    // Inline execution keeps the chunk boundaries, so the result is
    // bit-identical to the threaded path.
    if (total <= grain || !tryRunJob(total, grain, fn))
        runInline(total, grain, fn);
}

void
KernelThreadPool::runPair(const std::function<void()> &first,
                          const std::function<void()> &second)
{
    const obs::FrameContext caller = obs::frameContext();
    // Each task stages its exemplar spans privately (the caller's
    // buffer is not thread-safe); they are appended in task order.
    std::unique_ptr<obs::ExemplarStaging[]> staged;
    if (caller.staging != nullptr)
        staged = std::make_unique<obs::ExemplarStaging[]>(2);
    const ChunkFn fn = [&](int64_t task, int64_t) {
        const AdoptFrameContext adopt(
            caller, staged ? &staged[task] : nullptr);
        (task == 0 ? first : second)();
    };
    if (!tryRunJob(2, 1, fn))
        runInline(2, 1, fn);
    if (!staged)
        return;
    for (int task = 0; task < 2; ++task) {
        const obs::ExemplarStaging &part = staged[task];
        for (uint32_t k = 0; k < part.count; ++k)
            caller.staging->add(part.spans[k]);
        caller.staging->overflow += part.overflow;
    }
}

} // namespace kernels
} // namespace reuse
