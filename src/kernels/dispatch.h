/**
 * @file
 * Process-wide kernel dispatch configuration.
 *
 * One DeltaDispatch value names the implementation family
 * (KernelArch) every kernel entry point routes to, plus the
 * threading policy.  The default is computed once per process:
 * CPUID picks the widest compiled-and-runnable arch, and the
 * REUSE_KERNELS environment variable overrides it (falling back,
 * with a warning, when it names an arch this host cannot execute).
 */

#ifndef REUSE_DNN_KERNELS_DISPATCH_H
#define REUSE_DNN_KERNELS_DISPATCH_H

#include <cstdint>

#include "kernels/cpu_features.h"
#include "kernels/thread_pool.h"

namespace reuse {
namespace kernels {

/**
 * Default MAC threshold (changed × outputs) at which a dispatched
 * FC/LSTM apply or GEMV splits its output range over the thread
 * pool, and at which the BiLSTM directions run at once.  Measured by
 * `micro_kernels --json` (pool_records: the split apply against the
 * same apply on the caller, alternately, with the weights streaming
 * from the shared cache), 8 runs on a 4-vCPU AVX-512 host with 3
 * workers: every Kaldi/AutoPilot shape of 262k MACs or more split in
 * a median 0.42–0.74x (at most 0.95x) of the caller's time;
 * 144k–205k MACs broke even (medians 0.87–0.94x, up to 1.03x);
 * 100k–140k MACs lost (medians 1.40–1.56x: AutoPilot FC1 at 10%,
 * Kaldi FC1 at 100% and FC6 at 10%), and below 100k MACs waking the
 * workers costs more than the apply itself.
 */
constexpr int64_t kDefaultParallelMacThreshold = 1 << 18;

/**
 * Runtime kernel-dispatch configuration.  The process-wide default
 * is read once from the environment: REUSE_KERNELS=
 * scalar|blocked|avx2|avx512|neon forces an implementation family,
 * REUSE_KERNEL_PAR_THRESHOLD overrides the threading threshold
 * (negative disables threading), and REUSE_KERNEL_THREADS sizes the
 * pool (see thread_pool.h).
 */
struct DeltaDispatch {
    /** Implementation family every kernel routes to. */
    KernelArch arch = KernelArch::Blocked;
    /** MAC count at which to thread; negative = never. */
    int64_t parallel_mac_threshold = kDefaultParallelMacThreshold;
    /** Pool to thread on; null = KernelThreadPool::global(). */
    KernelThreadPool *pool = nullptr;
};

/** Process-wide dispatch configuration (CPUID + env, cached). */
const DeltaDispatch &defaultDispatch();

} // namespace kernels
} // namespace reuse

#endif // REUSE_DNN_KERNELS_DISPATCH_H
