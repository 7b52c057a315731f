/**
 * @file
 * Microbenchmarks of the core kernels, in two modes:
 *
 *  - default: google-benchmark suite of from-scratch versus
 *    reuse-based execution of FC and conv layers at several
 *    similarity levels;
 *  - `--json=PATH`: a hand-rolled scalar vs SIMD comparison of
 *    the delta-update kernels that verifies
 *    bit-exactness while timing, writes machine-readable records
 *    (ns per delta update, effective GB/s, % of the STREAM-style
 *    memory peak probed at startup, speedups per layer shape) plus
 *    per-layer conv records for the AutoPilot and C3D conv shapes
 *    (plain forward GMAC/s, delta apply ns per change) and a host
 *    fingerprint to PATH.  With `--min-speedup=X` it gates the FC
 *    shapes with >= 1024 outputs at 10-40% changed inputs, and exits
 *    non-zero when the SIMD apply of one whose changed weight rows
 *    fit in the per-core L2 is less than X times faster than the
 *    scalar reference, or when that of one whose rows exceed the L2
 *    streams at less than kMinPastL2RooflinePct of the probed
 *    memory peak; with `--min-conv-simd-vs-scalar=Z` it exits non-zero
 *    when the dispatched conv delta apply of any conv shape is slower
 *    than Z times its scalar reference in the same run (the CI
 *    perf-smoke gates, each comparing two measurements from one
 *    run); each fc_gemv record also carries `gemv_vs_delta`, gemv
 *    over the 100% apply of the same rows, which CI bounds.  The
 *    `pool_records` time the dispatched apply split over the kernel
 *    pool against the same apply on the caller (`pool_vs_caller`)
 *    for the Kaldi, AutoPilot and EESEN FC/gate shapes at several
 *    change fractions: the measurement behind
 *    kDefaultParallelMacThreshold, which CI bounds for every shape
 *    whose MACs reach the threshold;
 *  - `--arch`: prints the kernel dispatch decision (compiled and
 *    runnable families, the chosen arch, the REUSE_KERNELS
 *    override) and the probed memory peak, then exits.
 *
 * These measure the host-side software kernels (not the modelled
 * accelerator) and demonstrate that the incremental algorithm also
 * pays off in software when similarity is high.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/aligned.h"
#include "common/math_utils.h"
#include "common/random.h"
#include "core/conv_reuse.h"
#include "core/fc_reuse.h"
#include "kernels/cpu_features.h"
#include "kernels/delta_kernels.h"
#include "kernels/dispatch.h"
#include "nn/initializers.h"
#include "workloads/model_zoo.h"

namespace reuse {
namespace {

/** Perturbs a fraction of the inputs by more than one quantizer step. */
void
perturb(Tensor &t, Rng &rng, double fraction, float step)
{
    const auto n = t.numel();
    const auto count = static_cast<int64_t>(fraction * n);
    for (int64_t k = 0; k < count; ++k) {
        const int64_t i = rng.uniformInt(0, n - 1);
        t[i] += 2.0f * step * (rng.bernoulli(0.5) ? 1.0f : -1.0f);
    }
}

void
BM_FcFromScratch(benchmark::State &state)
{
    const int64_t n = state.range(0);
    const int64_t m = state.range(1);
    Rng rng(1);
    FullyConnectedLayer fc("fc", n, m);
    initGlorot(fc, rng);
    Tensor in(Shape({n}));
    rng.fillGaussian(in.data(), 0.0f, 1.0f);
    for (auto _ : state) {
        benchmark::DoNotOptimize(fc.forward(in));
    }
    state.SetItemsProcessed(state.iterations() * n * m);
}
BENCHMARK(BM_FcFromScratch)
    ->Args({400, 2000})
    ->Args({1152, 1164});

void
BM_FcReuse(benchmark::State &state)
{
    const int64_t n = state.range(0);
    const int64_t m = state.range(1);
    const double change_fraction =
        static_cast<double>(state.range(2)) / 100.0;
    Rng rng(2);
    FullyConnectedLayer fc("fc", n, m);
    initGlorot(fc, rng);
    LinearQuantizer quant(16, -4.0f, 4.0f);
    FcReuseState reuse(fc, quant);
    Tensor in(Shape({n}));
    rng.fillGaussian(in.data(), 0.0f, 1.0f);
    LayerExecRecord rec;
    reuse.execute(in, rec);
    for (auto _ : state) {
        state.PauseTiming();
        perturb(in, rng, change_fraction, quant.step());
        state.ResumeTiming();
        benchmark::DoNotOptimize(reuse.execute(in, rec));
    }
    state.SetItemsProcessed(state.iterations() * n * m);
}
BENCHMARK(BM_FcReuse)
    ->Args({400, 2000, 0})
    ->Args({400, 2000, 10})
    ->Args({400, 2000, 34})
    ->Args({400, 2000, 100})
    ->Args({1152, 1164, 10});

void
BM_Conv2dFromScratch(benchmark::State &state)
{
    Rng rng(3);
    Conv2DLayer conv("conv", 3, 24, 5, 2);
    initGlorot(conv, rng);
    Tensor in(Shape({3, 66, 200}));
    rng.fillGaussian(in.data(), 0.0f, 1.0f);
    for (auto _ : state) {
        benchmark::DoNotOptimize(conv.forward(in));
    }
    state.SetItemsProcessed(state.iterations() *
                            conv.macCount(in.shape()));
}
BENCHMARK(BM_Conv2dFromScratch);

void
BM_Conv2dReuse(benchmark::State &state)
{
    const double change_fraction =
        static_cast<double>(state.range(0)) / 100.0;
    Rng rng(4);
    Conv2DLayer conv("conv", 3, 24, 5, 2);
    initGlorot(conv, rng);
    const Shape in_shape({3, 66, 200});
    LinearQuantizer quant(32, -4.0f, 4.0f);
    ConvReuseState reuse(conv, in_shape, quant);
    Tensor in(in_shape);
    rng.fillGaussian(in.data(), 0.0f, 1.0f);
    LayerExecRecord rec;
    reuse.execute(in, rec);
    for (auto _ : state) {
        state.PauseTiming();
        perturb(in, rng, change_fraction, quant.step());
        state.ResumeTiming();
        benchmark::DoNotOptimize(reuse.execute(in, rec));
    }
    state.SetItemsProcessed(state.iterations() *
                            conv.macCount(in_shape));
}
BENCHMARK(BM_Conv2dReuse)->Arg(0)->Arg(15)->Arg(54);

void
BM_Quantize(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(5);
    LinearQuantizer quant(16, -4.0f, 4.0f);
    Tensor in(Shape({n}));
    rng.fillGaussian(in.data(), 0.0f, 1.0f);
    for (auto _ : state) {
        benchmark::DoNotOptimize(quant.indices(in));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Quantize)->Arg(400)->Arg(39600);

// ---------------------------------------------------------------
// JSON mode: scalar vs SIMD delta-update kernels.
// ---------------------------------------------------------------

/** One timed comparison of the FC delta-update kernels. */
struct KernelRecord {
    std::string kernel;
    int64_t n = 0;
    int64_t m = 0;
    double change_fraction = 0.0;
    int64_t changed = 0;
    double scalar_ns = 0.0;
    double simd_ns = 0.0;
    /** scalar / simd: what blocking + the wide kernels buy. */
    double speedup = 0.0;
    double ns_per_delta_update = 0.0;
    double gbps = 0.0;
    /** Effective GB/s as a percentage of the probed memory peak. */
    double roofline_pct = 0.0;
    /**
     * fc_delta only: the changed weight rows fit in the per-core L2,
     * so both kernels run from cache and `speedup` measures the ISA
     * width.  Beyond the L2 the SIMD apply runs at the memory roof,
     * where scalar/SIMD depends on the host's per-core bandwidth; the
     * gate reads `roofline_pct` there instead.
     */
    bool l2_resident = false;
    /**
     * fc_gemv only: dispatched gemv time over the dispatched apply of
     * the same rows at 100% change, timed alternately on the same
     * weights (the perf-smoke gate; 0 on other records).
     */
    double gemv_vs_delta = 0.0;
    bool bit_exact = false;
};

/**
 * Times `fn` as the minimum over `reps` measurements of `iters`
 * invocations each, returning ns per invocation.
 */
template <typename Fn>
double
timeNs(int reps, int iters, Fn &&fn)
{
    using Clock = std::chrono::steady_clock;
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const Clock::time_point t0 = Clock::now();
        for (int it = 0; it < iters; ++it)
            fn();
        const Clock::time_point t1 = Clock::now();
        const double ns =
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1 - t0)
                    .count()) /
            iters;
        if (r == 0 || ns < best)
            best = ns;
    }
    return best;
}

/**
 * Times N forms of one operation alternately: `rounds` rounds, each
 * timing every form in turn over `iters` invocations, and returns
 * each form's best ns per invocation.  Host drift between rounds
 * then hits every form alike, so their ratios are same-run
 * comparisons rather than two separately drifting minima.
 */
template <size_t N>
std::array<double, N>
timeAlternating(int rounds, int iters,
                const std::array<std::function<void()>, N> &forms)
{
    std::array<double, N> best{};
    for (int r = 0; r < rounds; ++r) {
        for (size_t f = 0; f < N; ++f) {
            const double ns = timeNs(1, iters, forms[f]);
            best[f] = r == 0 ? ns : std::min(best[f], ns);
        }
    }
    return best;
}

/**
 * STREAM-style triad probe of the attainable memory bandwidth: the
 * roofline ceiling the delta kernels are measured against.  Three
 * arrays well past L2 (48 MB total), a[i] = b[i] + s * c[i], best of
 * several passes; 12 bytes of traffic per element (two reads, one
 * write, STREAM counting).
 */
double
probeMemoryPeakGbps()
{
    const int64_t n = 4 << 20;
    AlignedVector<float> a(n, 1.0f), b(n, 2.0f), c(n, 3.0f);
    const double ns = timeNs(5, 1, [&] {
        float *pa = a.data();
        const float *pb = b.data();
        const float *pc = c.data();
        for (int64_t i = 0; i < n; ++i)
            pa[i] = pb[i] + 0.42f * pc[i];
        benchmark::DoNotOptimize(pa[n - 1]);
    });
    return ns > 0.0 ? static_cast<double>(n) * 12.0 / ns : 0.0;
}

/**
 * Roofline floor of the `--min-speedup` gate on the FC shapes whose
 * changed weight rows exceed the L2: there the SIMD apply streams at
 * the memory roof, and scalar/SIMD follows the host's per-core
 * bandwidth instead of the ISA width.  Over 13 runs on a 4-vCPU
 * AVX-512 host (AVX2 and AVX-512 kernels) the SIMD apply read
 * 103-158% of the probed peak on those shapes, the scalar reference
 * 35-38%.
 */
constexpr double kMinPastL2RooflinePct = 75.0;

/** Per-core L2 size in bytes; 1 MiB when the host does not say. */
int64_t
l2Bytes()
{
#ifdef _SC_LEVEL2_CACHE_SIZE
    const long bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (bytes > 0)
        return bytes;
#endif
    return int64_t{1} << 20;
}

/** Single-threaded dispatch pinned to the process-wide arch choice. */
kernels::DeltaDispatch
simdDispatch()
{
    kernels::DeltaDispatch d = kernels::defaultDispatch();
    // Single-threaded so GB/s and roofline share are per-core
    // numbers, comparable with the scalar column.
    d.parallel_mac_threshold = -1;
    return d;
}

/** Picks an iteration count so one measurement is ~milliseconds. */
int
itersFor(int64_t macs)
{
    const int64_t target_macs = 16'000'000;
    const int64_t iters = target_macs / (macs > 0 ? macs : 1);
    return static_cast<int>(iters < 1 ? 1 : (iters > 2000 ? 2000 : iters));
}

/** Builds a change list of exactly `changed` distinct positions. */
kernels::ChangeList
exactChanges(int64_t n, int64_t changed, Rng &rng)
{
    kernels::ChangeList changes;
    // Evenly spread positions: representative of the paper's
    // uncorrelated per-element changes, deterministic run-to-run.
    for (int64_t c = 0; c < changed; ++c) {
        const int64_t pos = (c * n) / (changed > 0 ? changed : 1);
        changes.push(static_cast<int32_t>(pos),
                     rng.gaussian(0.0f, 0.5f));
    }
    return changes;
}

KernelRecord
benchFcDelta(int64_t n, int64_t m, double fraction, Rng &rng,
             double peak_gbps)
{
    KernelRecord rec;
    rec.kernel = "fc_delta";
    rec.n = n;
    rec.m = m;
    rec.change_fraction = fraction;
    rec.changed = static_cast<int64_t>(fraction * n);
    rec.l2_resident = rec.changed * m * 4 <= l2Bytes();

    AlignedVector<float> weights(static_cast<size_t>(n * m));
    rng.fillGaussian(weights, 0.0f, 0.1f);
    AlignedVector<float> base(static_cast<size_t>(m));
    rng.fillGaussian(base, 0.0f, 1.0f);
    const kernels::ChangeList changes = exactChanges(n, rec.changed, rng);
    const kernels::DeltaDispatch simd = simdDispatch();

    // Bit-exactness is part of the benchmark contract: a fast wrong
    // kernel must fail the gate.
    AlignedVector<float> scalar_out = base;
    AlignedVector<float> simd_out = base;
    kernels::applyDeltasScalar(changes, weights.data(), m,
                               scalar_out.data());
    kernels::applyDeltas(changes, weights.data(), m, simd_out.data(),
                         simd);
    rec.bit_exact =
        std::memcmp(scalar_out.data(), simd_out.data(),
                    scalar_out.size() * sizeof(float)) == 0;

    const int64_t macs = rec.changed * m;
    const int iters = itersFor(macs);
    AlignedVector<float> out = base;
    // Alternating, so the speedup gate compares two timings of the
    // same rounds on this memory-bound kernel.
    const std::array<double, 2> ns = timeAlternating<2>(
        9, iters,
        {[&] {
             kernels::applyDeltasScalar(changes, weights.data(), m,
                                        out.data());
         },
         [&] {
             kernels::applyDeltas(changes, weights.data(), m,
                                  out.data(), simd);
         }});
    rec.scalar_ns = ns[0];
    rec.simd_ns = ns[1];
    rec.speedup = rec.simd_ns > 0.0 ? rec.scalar_ns / rec.simd_ns : 0.0;
    rec.ns_per_delta_update = rec.simd_ns;
    // Bytes streamed by the apply kernels: one weight row per change
    // plus one read+write of the output vector.
    const double bytes = static_cast<double>(rec.changed * m) * 4.0 +
                         static_cast<double>(m) * 8.0;
    rec.gbps = rec.simd_ns > 0.0 ? bytes / rec.simd_ns : 0.0;
    rec.roofline_pct =
        peak_gbps > 0.0 ? 100.0 * rec.gbps / peak_gbps : 0.0;
    return rec;
}

KernelRecord
benchFcGemv(int64_t n, int64_t m, Rng &rng, double peak_gbps)
{
    KernelRecord rec;
    rec.kernel = "fc_gemv";
    rec.n = n;
    rec.m = m;
    rec.change_fraction = 1.0;
    rec.changed = n;

    AlignedVector<float> weights(static_cast<size_t>(n * m));
    rng.fillGaussian(weights, 0.0f, 0.1f);
    AlignedVector<float> biases(static_cast<size_t>(m));
    rng.fillGaussian(biases, 0.0f, 1.0f);
    AlignedVector<float> input(static_cast<size_t>(n));
    rng.fillGaussian(input, 0.0f, 1.0f);
    const kernels::DeltaDispatch simd = simdDispatch();

    AlignedVector<float> scalar_out(static_cast<size_t>(m));
    AlignedVector<float> simd_out(static_cast<size_t>(m));
    kernels::gemvScalar(input.data(), n, weights.data(), biases.data(),
                        m, scalar_out.data());
    kernels::gemv(input.data(), n, weights.data(), biases.data(), m,
                  simd_out.data(), simd);
    rec.bit_exact =
        std::memcmp(scalar_out.data(), simd_out.data(),
                    scalar_out.size() * sizeof(float)) == 0;

    const int iters = itersFor(n * m);
    AlignedVector<float> out(static_cast<size_t>(m));
    rec.scalar_ns = timeNs(5, iters, [&] {
        kernels::gemvScalar(input.data(), n, weights.data(),
                            biases.data(), m, out.data());
    });
    rec.simd_ns = timeNs(5, iters, [&] {
        kernels::gemv(input.data(), n, weights.data(), biases.data(),
                      m, out.data(), simd);
    });
    // gemv is the 100% apply of its nonzero rows plus a bias copy:
    // time the two alternately so host drift hits both alike.
    kernels::ChangeList rows;
    kernels::collectRows(input.data(), n, rows);
    const std::array<double, 2> gd = timeAlternating<2>(
        11, iters,
        {[&] {
             kernels::gemv(input.data(), n, weights.data(),
                           biases.data(), m, out.data(), simd);
         },
         [&] {
             kernels::applyDeltas(rows, weights.data(), m, out.data(),
                                  simd);
         }});
    rec.gemv_vs_delta = gd[1] > 0.0 ? gd[0] / gd[1] : 0.0;
    rec.speedup = rec.simd_ns > 0.0 ? rec.scalar_ns / rec.simd_ns : 0.0;
    rec.ns_per_delta_update = rec.simd_ns;
    const double bytes = static_cast<double>(n * m) * 4.0 +
                         static_cast<double>(m) * 8.0;
    rec.gbps = rec.simd_ns > 0.0 ? bytes / rec.simd_ns : 0.0;
    rec.roofline_pct =
        peak_gbps > 0.0 ? 100.0 * rec.gbps / peak_gbps : 0.0;
    return rec;
}

/**
 * The dispatched FC/LSTM apply of one layer shape split over the
 * kernel pool against the same apply on the caller.
 */
struct PoolRecord {
    std::string layer;  ///< "<model>.<layer>" the shape belongs to
    int64_t n = 0;
    int64_t m = 0;
    double change_fraction = 0.0;
    int64_t changed = 0;
    int64_t macs = 0;
    /** Pool slices the split apply runs (deltaSliceFloats). */
    int64_t slices = 0;
    double caller_ns = 0.0;
    double pool_ns = 0.0;
    /** pool / caller: below 1 the pool pays (CI bounds it at 1.05). */
    double pool_vs_caller = 0.0;
    bool bit_exact = false;
};

/**
 * Times the dispatched apply of `changed` = fraction × n rows with
 * threshold -1 (caller) and 0 (split over the global pool)
 * alternately on the same weights.  Each call applies the next of
 * several copies of the weights, together past the per-core L2, so
 * the rows stream from the shared cache as in a network's frame,
 * where the other layers' weights evict them between two applies.
 */
PoolRecord
benchPool(const std::string &layer, int64_t n, int64_t m,
          double fraction, Rng &rng)
{
    // A Kaldi frame's FC weights total about 18 MB.
    constexpr int64_t kWeightSetBytes = 16 << 20;
    PoolRecord rec;
    rec.layer = layer;
    rec.n = n;
    rec.m = m;
    rec.change_fraction = fraction;
    rec.changed = static_cast<int64_t>(fraction * static_cast<double>(n));
    rec.macs = rec.changed * m;
    kernels::KernelThreadPool &pool = kernels::KernelThreadPool::global();
    rec.slices =
        ceilDiv(m, kernels::deltaSliceFloats(m, pool.workerCount()));

    const int64_t copies =
        std::max<int64_t>(1, ceilDiv(kWeightSetBytes, n * m * 4));
    AlignedVector<float> weights(static_cast<size_t>(copies * n * m));
    rng.fillGaussian(weights, 0.0f, 0.1f);
    AlignedVector<float> base(static_cast<size_t>(m));
    rng.fillGaussian(base, 0.0f, 1.0f);
    const kernels::ChangeList changes = exactChanges(n, rec.changed, rng);
    const kernels::DeltaDispatch caller = simdDispatch();
    kernels::DeltaDispatch pooled = caller;
    pooled.parallel_mac_threshold = 0;

    AlignedVector<float> caller_out = base;
    AlignedVector<float> pool_out = base;
    kernels::applyDeltas(changes, weights.data(), m, caller_out.data(),
                         caller);
    kernels::applyDeltas(changes, weights.data(), m, pool_out.data(),
                         pooled);
    rec.bit_exact = std::memcmp(caller_out.data(), pool_out.data(),
                                base.size() * sizeof(float)) == 0;

    AlignedVector<float> out = base;
    int64_t next = 0;
    const auto nextWeights = [&] {
        next = next + 1 < copies ? next + 1 : 0;
        return weights.data() + next * n * m;
    };
    const std::array<double, 2> ns = timeAlternating<2>(
        11, itersFor(rec.macs),
        {[&] {
             kernels::applyDeltas(changes, nextWeights(), m, out.data(),
                                  caller);
         },
         [&] {
             kernels::applyDeltas(changes, nextWeights(), m, out.data(),
                                  pooled);
         }});
    rec.caller_ns = ns[0];
    rec.pool_ns = ns[1];
    rec.pool_vs_caller = ns[0] > 0.0 ? ns[1] / ns[0] : 0.0;
    return rec;
}

/** Plain forward and delta apply timings of one conv layer shape. */
struct ConvRecord {
    std::string layer;  ///< "<model>.<layer name>"
    std::string in_shape;
    std::string out_shape;
    int64_t macs = 0;
    double forward_ns = 0.0;
    double gmacs = 0.0;
    double change_fraction = 0.0;
    int64_t changed = 0;
    double scalar_ns = 0.0;
    double simd_ns = 0.0;
    /** Dispatched apply time per changed input. */
    double ns_per_change = 0.0;
    /** scalar / dispatched: the CI ratio gate. */
    double simd_vs_scalar = 0.0;
    bool bit_exact = false;
};

/** Conv delta apply of one layer, channels-last output. */
template <typename Geometry, typename ScalarFn, typename DispatchFn>
void
timeConvDelta(ConvRecord &rec, int64_t in_numel, int64_t out_numel,
              const Geometry &g, const float *weights,
              int64_t macs_per_change, Rng &rng, ScalarFn scalar,
              DispatchFn dispatched)
{
    rec.change_fraction = 0.1;
    rec.changed = static_cast<int64_t>(rec.change_fraction *
                                       static_cast<double>(in_numel));
    const kernels::ChangeList changes =
        exactChanges(in_numel, rec.changed, rng);
    AlignedVector<float> base(static_cast<size_t>(out_numel));
    rng.fillGaussian(base, 0.0f, 1.0f);
    AlignedVector<float> scalar_out = base;
    AlignedVector<float> simd_out = base;
    scalar(changes, g, weights, scalar_out.data());
    dispatched(changes, g, weights, simd_out.data());
    rec.bit_exact = std::memcmp(scalar_out.data(), simd_out.data(),
                                base.size() * sizeof(float)) == 0;
    const int iters = itersFor(rec.changed * macs_per_change);
    AlignedVector<float> out = base;
    rec.scalar_ns = timeNs(5, iters, [&] {
        scalar(changes, g, weights, out.data());
    });
    rec.simd_ns = timeNs(5, iters, [&] {
        dispatched(changes, g, weights, out.data());
    });
    rec.ns_per_change =
        rec.changed > 0 ? rec.simd_ns / static_cast<double>(rec.changed)
                        : 0.0;
    rec.simd_vs_scalar =
        rec.simd_ns > 0.0 ? rec.scalar_ns / rec.simd_ns : 0.0;
}

/**
 * Times every conv layer of `model` on its own input shape: the
 * plain forward (GMAC/s) and the delta apply at 10% changed inputs.
 * Weights are the model zoo's; inputs are random, a quarter zero.
 */
void
benchConvLayers(const std::string &model, const Network &net,
                Shape in_shape, Rng &rng,
                std::vector<ConvRecord> &records)
{
    const kernels::DeltaDispatch simd = simdDispatch();
    for (size_t l = 0; l < net.layerCount(); ++l) {
        const Layer &layer = net.layer(l);
        const Shape out_shape = layer.outputShape(in_shape);
        const LayerKind kind = layer.kind();
        if (kind == LayerKind::Conv2D || kind == LayerKind::Conv3D) {
            ConvRecord rec;
            rec.layer = model + "." + layer.name();
            rec.in_shape = in_shape.str();
            rec.out_shape = out_shape.str();
            rec.macs = layer.macCount(in_shape);
            Tensor in(in_shape);
            for (int64_t i = 0; i < in.numel(); ++i)
                in[i] = rng.bernoulli(0.25) ? 0.0f
                                            : rng.gaussian(0.0f, 1.0f);
            rec.forward_ns = timeNs(3, itersFor(rec.macs), [&] {
                benchmark::DoNotOptimize(layer.forward(in));
            });
            rec.gmacs = rec.forward_ns > 0.0
                            ? static_cast<double>(rec.macs) /
                                  rec.forward_ns
                            : 0.0;
            if (kind == LayerKind::Conv2D) {
                const auto &conv = static_cast<const Conv2DLayer &>(layer);
                kernels::Conv2dGeometry g;
                g.in_h = in_shape.dim(1);
                g.in_w = in_shape.dim(2);
                g.out_channels = conv.outChannels();
                g.out_h = out_shape.dim(1);
                g.out_w = out_shape.dim(2);
                g.kernel = conv.kernel();
                g.stride = conv.stride();
                const int64_t reach =
                    (g.kernel + g.stride - 1) / g.stride;
                timeConvDelta(
                    rec, in_shape.numel(), out_shape.numel(), g,
                    conv.weights().data(),
                    reach * reach * g.out_channels, rng,
                    kernels::applyConvDeltas2dScalar,
                    [&](const kernels::ChangeList &c,
                        const kernels::Conv2dGeometry &gg,
                        const float *w, float *o) {
                        kernels::applyConvDeltas2d(c, gg, w, o, simd);
                    });
            } else {
                const auto &conv = static_cast<const Conv3DLayer &>(layer);
                kernels::Conv3dGeometry g;
                g.in_d = in_shape.dim(1);
                g.in_h = in_shape.dim(2);
                g.in_w = in_shape.dim(3);
                g.out_channels = conv.outChannels();
                g.out_d = out_shape.dim(1);
                g.out_h = out_shape.dim(2);
                g.out_w = out_shape.dim(3);
                g.kernel = conv.kernel();
                g.pad = conv.pad();
                timeConvDelta(
                    rec, in_shape.numel(), out_shape.numel(), g,
                    conv.weights().data(),
                    g.kernel * g.kernel * g.kernel * g.out_channels, rng,
                    kernels::applyConvDeltas3dScalar,
                    [&](const kernels::ChangeList &c,
                        const kernels::Conv3dGeometry &gg,
                        const float *w, float *o) {
                        kernels::applyConvDeltas3d(c, gg, w, o, simd);
                    });
            }
            records.push_back(rec);
        }
        in_shape = out_shape;
    }
}

/** CPU model name from /proc/cpuinfo ("unknown" elsewhere). */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        const size_t first = line.find_first_not_of(' ', colon + 1);
        std::string model =
            first == std::string::npos ? "" : line.substr(first);
        for (char &ch : model)
            if (ch == '"' || ch == '\\')
                ch = ' ';
        return model.empty() ? "unknown" : model;
    }
    return "unknown";
}

void
writeJson(const std::string &path,
          const std::vector<KernelRecord> &records,
          const std::vector<PoolRecord> &pool_records,
          const std::vector<ConvRecord> &conv_records, double peak_gbps)
{
    std::ofstream out(path);
    out << "{\n  \"bench\": \"micro_kernels\",\n  \"arch\": \""
        << kernels::archName(kernels::defaultDispatch().arch)
        << "\",\n  \"host\": {\"cpu\": \"" << cpuModel()
        << "\", \"nproc\": "
        << std::max(1u, std::thread::hardware_concurrency())
        << ", \"arch\": \""
        << kernels::archName(kernels::defaultDispatch().arch)
        << "\", \"l2_bytes\": " << l2Bytes() << "},\n";
    char peak[160];
    std::snprintf(
        peak, sizeof(peak),
        "  \"memory_peak_gbps\": %.3f,\n  \"pool_workers\": %zu,\n"
        "  \"parallel_mac_threshold\": %lld,\n",
        peak_gbps, kernels::KernelThreadPool::global().workerCount(),
        static_cast<long long>(
            kernels::defaultDispatch().parallel_mac_threshold));
    out << peak << "  \"records\": [\n";
    for (size_t i = 0; i < records.size(); ++i) {
        const KernelRecord &r = records[i];
        char buf[768];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"kernel\": \"%s\", \"n\": %lld, \"m\": %lld, "
            "\"change_fraction\": %.2f, \"changed\": %lld, "
            "\"scalar_ns\": %.1f, \"simd_ns\": %.1f, "
            "\"ns_per_delta_update\": %.1f, \"speedup\": %.3f, "
            "\"effective_gbps\": %.3f, \"roofline_pct\": %.1f, "
            "\"l2_resident\": %s, "
            "\"gemv_vs_delta\": %.3f, \"bit_exact\": %s}%s\n",
            r.kernel.c_str(), static_cast<long long>(r.n),
            static_cast<long long>(r.m), r.change_fraction,
            static_cast<long long>(r.changed), r.scalar_ns, r.simd_ns,
            r.ns_per_delta_update, r.speedup, r.gbps, r.roofline_pct,
            r.l2_resident ? "true" : "false", r.gemv_vs_delta,
            r.bit_exact ? "true" : "false",
            i + 1 < records.size() ? "," : "");
        out << buf;
    }
    out << "  ],\n  \"pool_records\": [\n";
    for (size_t i = 0; i < pool_records.size(); ++i) {
        const PoolRecord &r = pool_records[i];
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"layer\": \"%s\", \"n\": %lld, \"m\": %lld, "
            "\"change_fraction\": %.2f, \"changed\": %lld, "
            "\"macs\": %lld, \"slices\": %lld, \"caller_ns\": %.1f, "
            "\"pool_ns\": %.1f, \"pool_vs_caller\": %.3f, "
            "\"bit_exact\": %s}%s\n",
            r.layer.c_str(), static_cast<long long>(r.n),
            static_cast<long long>(r.m), r.change_fraction,
            static_cast<long long>(r.changed),
            static_cast<long long>(r.macs),
            static_cast<long long>(r.slices), r.caller_ns, r.pool_ns,
            r.pool_vs_caller, r.bit_exact ? "true" : "false",
            i + 1 < pool_records.size() ? "," : "");
        out << buf;
    }
    out << "  ],\n  \"conv_records\": [\n";
    for (size_t i = 0; i < conv_records.size(); ++i) {
        const ConvRecord &r = conv_records[i];
        char buf[768];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"layer\": \"%s\", \"in_shape\": \"%s\", "
            "\"out_shape\": \"%s\", \"macs\": %lld, "
            "\"forward_ns\": %.1f, \"gmacs\": %.3f, "
            "\"change_fraction\": %.2f, \"changed\": %lld, "
            "\"scalar_ns\": %.1f, \"simd_ns\": %.1f, "
            "\"ns_per_change\": %.2f, "
            "\"simd_vs_scalar\": %.3f, \"bit_exact\": %s}%s\n",
            r.layer.c_str(), r.in_shape.c_str(), r.out_shape.c_str(),
            static_cast<long long>(r.macs), r.forward_ns, r.gmacs,
            r.change_fraction, static_cast<long long>(r.changed),
            r.scalar_ns, r.simd_ns, r.ns_per_change,
            r.simd_vs_scalar, r.bit_exact ? "true" : "false",
            i + 1 < conv_records.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n}\n";
}

/**
 * Runs the scalar vs SIMD comparison, writes `json_path`, and
 * returns the process exit code (non-zero when bit-exactness fails
 * or a gated shape misses `min_speedup` / `min_conv_simd_vs_scalar`).
 */
int
runJsonBench(const std::string &json_path, double min_speedup,
             double min_conv_simd_vs_scalar)
{
    const double peak_gbps = probeMemoryPeakGbps();
    std::printf("arch %s, memory peak %.2f GB/s\n",
                kernels::archName(kernels::defaultDispatch().arch),
                peak_gbps);
    Rng rng(7);
    std::vector<KernelRecord> records;
    const struct {
        int64_t n, m;
    } shapes[] = {{400, 2000}, {1152, 1164}, {1024, 1024}, {512, 4096}};
    for (const auto &s : shapes) {
        for (const double fraction : {0.1, 0.2, 0.4, 1.0})
            records.push_back(
                benchFcDelta(s.n, s.m, fraction, rng, peak_gbps));
        records.push_back(benchFcGemv(s.n, s.m, rng, peak_gbps));
    }

    // The FC layers and LSTM gate matrices (input-major n x m) of the
    // paper's workloads, at change fractions around their measured
    // reuse; 100% is the from-scratch gemv's apply.
    std::vector<PoolRecord> pool_records;
    const struct {
        const char *layer;
        int64_t n, m;
    } pool_shapes[] = {{"kaldi.FC1", 360, 360},
                       {"kaldi.FC2", 360, 2000},
                       {"kaldi.FC3-5", 400, 2000},
                       {"kaldi.FC6", 400, 3482},
                       {"autopilot.FC1", 1152, 1164},
                       {"eesen.BiLSTM1.Wx", 120, 320},
                       {"eesen.BiLSTM2-5.Wx", 640, 320},
                       {"eesen.Wh", 320, 320}};
    for (const auto &s : pool_shapes) {
        for (const double fraction : {0.05, 0.1, 0.2, 0.4, 1.0})
            pool_records.push_back(
                benchPool(s.layer, s.n, s.m, fraction, rng));
    }

    std::vector<ConvRecord> conv_records;
    {
        Rng model_rng(42);
        const ModelBundle autopilot = buildAutopilot(model_rng);
        benchConvLayers("autopilot", *autopilot.network,
                        Shape({3, 66, 200}), rng, conv_records);
        // The functional C3D the workloads run (28x28 frames).
        const ModelBundle c3d = buildC3D(model_rng, 4);
        benchConvLayers("c3d", *c3d.network, Shape({3, 16, 28, 28}), rng,
                        conv_records);
    }

    writeJson(json_path, records, pool_records, conv_records, peak_gbps);

    int rc = 0;
    for (const KernelRecord &r : records) {
        std::printf(
            "%-8s n=%5lld m=%5lld changed=%5lld (%3.0f%%)  "
            "scalar %9.1f ns  simd %9.1f ns  speedup %5.2fx  "
            "%6.2f GB/s  %5.1f%%peak  %s\n",
            r.kernel.c_str(), static_cast<long long>(r.n),
            static_cast<long long>(r.m),
            static_cast<long long>(r.changed),
            100.0 * r.change_fraction, r.scalar_ns, r.simd_ns,
            r.speedup, r.gbps, r.roofline_pct,
            r.bit_exact ? "bit-exact" : "MISMATCH");
        if (!r.bit_exact) {
            std::printf("FAIL: %s n=%lld m=%lld not bit-exact\n",
                        r.kernel.c_str(), static_cast<long long>(r.n),
                        static_cast<long long>(r.m));
            rc = 1;
        }
        // The perf gate covers the acceptance shape class: FC delta
        // updates with >= 1024 outputs at 10-40% changed inputs.
        const bool gated = r.kernel == "fc_delta" && r.m >= 1024 &&
                           r.change_fraction >= 0.1 - 1e-9 &&
                           r.change_fraction <= 0.4 + 1e-9;
        if (gated && r.l2_resident && r.speedup < min_speedup) {
            std::printf("FAIL: fc_delta n=%lld m=%lld at %.0f%% "
                        "changed: speedup %.2fx < required %.2fx\n",
                        static_cast<long long>(r.n),
                        static_cast<long long>(r.m),
                        100.0 * r.change_fraction, r.speedup,
                        min_speedup);
            rc = 1;
        }
        if (gated && !r.l2_resident && min_speedup > 0.0 &&
            r.roofline_pct < kMinPastL2RooflinePct) {
            std::printf("FAIL: fc_delta n=%lld m=%lld at %.0f%% "
                        "changed (past L2): %.1f%% of the memory peak "
                        "< required %.1f%%\n",
                        static_cast<long long>(r.n),
                        static_cast<long long>(r.m),
                        100.0 * r.change_fraction, r.roofline_pct,
                        kMinPastL2RooflinePct);
            rc = 1;
        }
    }
    const int64_t threshold =
        kernels::defaultDispatch().parallel_mac_threshold;
    for (const PoolRecord &r : pool_records) {
        std::printf("pool %-19s n=%5lld m=%5lld changed=%5lld (%3.0f%%) "
                    "macs %8lld  %lld slices  caller %9.1f ns  pool "
                    "%9.1f ns  pool/caller %5.2fx%s  %s\n",
                    r.layer.c_str(), static_cast<long long>(r.n),
                    static_cast<long long>(r.m),
                    static_cast<long long>(r.changed),
                    100.0 * r.change_fraction,
                    static_cast<long long>(r.macs),
                    static_cast<long long>(r.slices), r.caller_ns,
                    r.pool_ns, r.pool_vs_caller,
                    threshold >= 0 && r.macs >= threshold ? " (split)"
                                                          : "",
                    r.bit_exact ? "bit-exact" : "MISMATCH");
        if (!r.bit_exact) {
            std::printf("FAIL: pool apply %s not bit-exact\n",
                        r.layer.c_str());
            rc = 1;
        }
    }
    for (const ConvRecord &r : conv_records) {
        std::printf("conv %-16s %-16s forward %6.2f GMAC/s  delta@%2.0f%% "
                    "scalar %6.1f  simd %6.1f ns/change  "
                    "simd/scalar %5.2fx  %s\n",
                    r.layer.c_str(), r.in_shape.c_str(), r.gmacs,
                    100.0 * r.change_fraction,
                    r.scalar_ns / static_cast<double>(r.changed),
                    r.ns_per_change, r.simd_vs_scalar,
                    r.bit_exact ? "bit-exact" : "MISMATCH");
        if (!r.bit_exact) {
            std::printf("FAIL: conv delta %s not bit-exact\n",
                        r.layer.c_str());
            rc = 1;
        }
        if (r.simd_vs_scalar < min_conv_simd_vs_scalar) {
            std::printf("FAIL: conv delta %s: dispatched/scalar %.2fx < "
                        "required %.2fx\n",
                        r.layer.c_str(), r.simd_vs_scalar,
                        min_conv_simd_vs_scalar);
            rc = 1;
        }
    }
    std::printf("wrote %s (%zu records, %zu pool records, %zu conv "
                "records)\n",
                json_path.c_str(), records.size(), pool_records.size(),
                conv_records.size());
    return rc;
}

/** Prints the kernel dispatch decision (`--arch`). */
int
printArch()
{
    using kernels::KernelArch;
    const kernels::DeltaDispatch &d = kernels::defaultDispatch();
    std::printf("arch: %s\n", kernels::archName(d.arch));
    std::printf("compiled:");
    for (const KernelArch a :
         {KernelArch::Scalar, KernelArch::Neon, KernelArch::Avx2,
          KernelArch::Avx512}) {
        if (kernels::archCompiled(a))
            std::printf(" %s", kernels::archName(a));
    }
    std::printf("\nrunnable:");
    for (const KernelArch a :
         {KernelArch::Scalar, KernelArch::Neon, KernelArch::Avx2,
          KernelArch::Avx512}) {
        if (kernels::archCompiled(a) && kernels::archRunnable(a))
            std::printf(" %s", kernels::archName(a));
    }
    const char *env = std::getenv("REUSE_KERNELS");
    std::printf("\nREUSE_KERNELS: %s\n", env ? env : "(unset)");
    std::printf("parallel_mac_threshold: %lld\n",
                static_cast<long long>(d.parallel_mac_threshold));
    std::printf("pool workers: %zu\n",
                kernels::KernelThreadPool::global().workerCount());
    std::printf("memory peak: %.2f GB/s\n", probeMemoryPeakGbps());
    return 0;
}

} // namespace
} // namespace reuse

int
main(int argc, char **argv)
{
    std::string json_path;
    double min_speedup = 0.0;
    double min_conv_simd_vs_scalar = 0.0;
    bool print_arch = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
        else if (arg.rfind("--min-speedup=", 0) == 0)
            min_speedup = std::stod(arg.substr(14));
        else if (arg.rfind("--min-conv-simd-vs-scalar=", 0) == 0)
            min_conv_simd_vs_scalar = std::stod(arg.substr(26));
        else if (arg == "--arch")
            print_arch = true;
    }
    if (print_arch)
        return reuse::printArch();
    if (!json_path.empty())
        return reuse::runJsonBench(json_path, min_speedup,
                                   min_conv_simd_vs_scalar);

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
