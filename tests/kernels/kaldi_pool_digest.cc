/**
 * @file
 * Prints a digest of one Kaldi utterance run through the reuse
 * engine and through Network::forward, plus the kernel pool's worker
 * count.  The `kernels.kaldi_pool_digest` ctest (pool_digest.cmake)
 * runs it with REUSE_KERNEL_THREADS = 0, 1 and 3 — the global pool
 * is sized once per process — and requires the same digest from all
 * three: the FC applies and GEMVs that reach the threading threshold
 * split over the pool, and the split must not change a bit.
 */

#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/checksum.h"
#include "core/reuse_engine.h"
#include "harness/workload_setup.h"
#include "kernels/thread_pool.h"

int
main()
{
    using namespace reuse;
    WorkloadSetupConfig cfg;
    cfg.seed = 7;
    const Workload w = setupKaldi(cfg);
    const Network &net = *w.bundle.network;
    const ReuseEngine engine(net, w.plan);
    ReuseState state = engine.makeState();
    const std::vector<Tensor> frames = w.makeGenerator(11)->take(60);

    uint64_t digest = checksumInit();
    ExecutionTrace trace;
    for (const Tensor &frame : frames) {
        checksumVector(digest, engine.execute(state, frame, trace).data());
        for (const LayerExecRecord &rec : trace)
            checksumValue(digest, rec.macsPerformed);
        checksumVector(digest, net.forward(frame).data());
    }
    checksumValue(digest, state.checksum());
    std::printf("workers %zu digest %016llx\n",
                kernels::KernelThreadPool::global().workerCount(),
                static_cast<unsigned long long>(digest));
    return 0;
}
