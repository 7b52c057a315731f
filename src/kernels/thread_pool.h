/**
 * @file
 * Small persistent thread pool for intra-layer kernel parallelism.
 *
 * Large FC / LSTM-gate delta updates partition their output range
 * across the pool so single-session latency improves, not just
 * cross-session throughput (the serve worker pool parallelizes
 * across sessions; this pool parallelizes inside one layer).
 *
 * Design mirrors the serve worker-pool idioms (mutex + condvar
 * signalling, persistent threads joined on destruction).  One job
 * runs at a time.  A call that finds the pool busy — a nested call
 * from inside a chunk, or a second caller while another caller's job
 * runs — executes inline on its own thread instead of waiting, so
 * nesting cannot deadlock and no caller queues behind another's job.
 *
 * Determinism: chunk boundaries depend only on (total, grain), never
 * on the worker count or scheduling, and chunks are disjoint — so a
 * kernel whose chunks don't overlap produces bit-identical results
 * for any pool size, including zero workers (inline execution).
 */

#ifndef REUSE_DNN_KERNELS_THREAD_POOL_H
#define REUSE_DNN_KERNELS_THREAD_POOL_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace reuse {
namespace kernels {

/**
 * Persistent worker pool executing chunked parallel-for jobs.
 */
class KernelThreadPool
{
  public:
    /** Function applied to one chunk [begin, end) of the range. */
    using ChunkFn = std::function<void(int64_t begin, int64_t end)>;

    /**
     * @param workers Number of persistent worker threads.  The
     *   calling thread always participates in a job, so effective
     *   parallelism is workers + 1; zero workers means parallelFor()
     *   runs inline.
     */
    explicit KernelThreadPool(size_t workers);

    /** Stops and joins the workers. */
    ~KernelThreadPool();

    KernelThreadPool(const KernelThreadPool &) = delete;
    KernelThreadPool &operator=(const KernelThreadPool &) = delete;

    /**
     * Process-wide pool used by the kernel dispatchers.  Sized from
     * REUSE_KERNEL_THREADS when set; otherwise uses a small default
     * derived from the hardware concurrency (0 workers on
     * single-core machines).  Created on first use.
     */
    static KernelThreadPool &global();

    /**
     * Splits [0, total) into ceil(total/grain) chunks of `grain`
     * elements and runs `fn` on every chunk, distributing chunks
     * over the workers and the calling thread.  Blocks until all
     * chunks completed.  Safe to call from multiple threads and from
     * inside a chunk: when the pool is already running a job, the
     * chunks run inline on the calling thread, with the same
     * boundaries.
     */
    void parallelFor(int64_t total, int64_t grain, const ChunkFn &fn);

    /**
     * Runs two independent tasks at once: `second` as a pool chunk
     * while the caller runs `first`, then joins.  Runs them inline,
     * `first` then `second`, when the pool has no workers or is
     * busy.  Each task runs under a copy of the caller's frame trace
     * context, so its spans carry the caller's session/frame ids on
     * whichever thread runs it; the exemplar spans the tasks stage
     * are appended to the caller's after the join, `first`'s before
     * `second`'s.  Emits no PoolDispatch span: the tasks are layer
     * work, not a kernel fan-out.
     */
    void runPair(const std::function<void()> &first,
                 const std::function<void()> &second);

    /**
     * Process-wide hook invoked once per chunk, on the executing
     * thread, before the chunk body runs — on the pooled AND the
     * inline path, so it fires for any pool size.  Used by the fault
     * injector (src/fault) to model worker stalls; nullptr (the
     * default) disables it.  The hook must not call back into the
     * pool.
     */
    using ChunkHook = void (*)();
    static void setChunkHook(ChunkHook hook);

    /** Number of persistent worker threads. */
    size_t workerCount() const { return workers_.size(); }

  private:
    struct Job {
        const ChunkFn *fn = nullptr;
        int64_t total = 0;
        int64_t grain = 0;
        int64_t chunks = 0;
        std::atomic<int64_t> next{0};
        std::atomic<int64_t> done{0};
    };

    void workerLoop() EXCLUDES(mutex_);
    void runChunks(Job &job) EXCLUDES(mutex_);
    /**
     * Runs the chunks of [0, total) on the pool and the caller;
     * false (nothing ran) when the pool has no workers or is busy.
     */
    bool tryRunJob(int64_t total, int64_t grain, const ChunkFn &fn)
        EXCLUDES(mutex_);

    std::vector<std::thread> workers_;

    /** Set while a job owns the pool; claimed by compare-exchange. */
    std::atomic<bool> busy_{false};

    /** Guards the signalling state below. */
    Mutex mutex_;
    CondVar work_cv_;
    CondVar done_cv_;
    Job *current_ GUARDED_BY(mutex_) = nullptr;
    uint64_t generation_ GUARDED_BY(mutex_) = 0;
    int workers_in_job_ GUARDED_BY(mutex_) = 0;
    bool stop_ GUARDED_BY(mutex_) = false;
};

} // namespace kernels
} // namespace reuse

#endif // REUSE_DNN_KERNELS_THREAD_POOL_H
