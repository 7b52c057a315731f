/**
 * @file
 * Delta-update kernels for the reuse hot path (Eq. 10:
 * z'_o = z_o + (c'_i - c_i) * W_io), behind runtime CPUID dispatch.
 *
 * Every kernel exists in several forms:
 *
 *  - a *scalar reference* (…Scalar), compiled with vectorization
 *    disabled, that performs the operations in the same per-output
 *    order the original interleaved code used;
 *  - a *blocked* form that applies the whole change list one output
 *    block (kDeltaBlockFloats floats, 4 KB) at a time with
 *    restrict-qualified unit-stride loops the compiler
 *    auto-vectorizes to its baseline ISA;
 *  - hand-written *intrinsic* forms (AVX2 / AVX-512 / NEON, see
 *    simd_kernels.h) selected at runtime by CPUID, which use the
 *    full vector width of the machine instead of the x86-64
 *    baseline the blocked form compiles to.
 *
 * All forms perform the identical floating-point operations in the
 * identical per-output-element order (separate mul + add, ascending
 * change order), so their results are bit-identical (fuzz-tested).
 * The dispatching entry points pick the implementation at runtime
 * (REUSE_KERNELS forces a family; see dispatch.h).  The FC/LSTM
 * apply (and the GEMV, which runs through it) also splits the output
 * range over the kernel thread pool when the update is large enough
 * (changed × outputs ≥ the dispatch's threshold): one slice per
 * thread, the caller plus the workers, each a whole number of
 * 64-byte cache lines (deltaSliceFloats).  That keeps the result
 * bit-identical for any slicing and any pool size: every output
 * element is written by exactly one slice, and its accumulation
 * chain (ascending change order, separate mul and add) is the same
 * wherever a slice is cut.
 *
 * All kernels operate on raw pointers: weights are input-major
 * (weight(i, o) at w[i * m + o], the paper's interleaved Weights
 * Buffer layout), and the weight and output buffers must not alias.
 * Conv outputs are channels-last (HWC / DHWC, channel fastest), so
 * a conv window's output channels are contiguous like its weights.
 */

#ifndef REUSE_DNN_KERNELS_DELTA_KERNELS_H
#define REUSE_DNN_KERNELS_DELTA_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <functional>

#include "kernels/change_list.h"
#include "kernels/dispatch.h"
#include "kernels/thread_pool.h"

namespace reuse {
namespace kernels {

/** Output-block size of the blocked kernels: 4 KB of float32. */
constexpr int64_t kDeltaBlockFloats = 1024;

/** Floats per 64-byte cache line: the unit a pool slice is cut in. */
constexpr int64_t kCacheLineFloats = 16;

/**
 * Floats per pool slice of an m-output apply on a pool with
 * `workers` workers: m spread evenly over the workers + 1 threads
 * (the caller takes a slice too), rounded up to whole cache lines so
 * no two slices write the same line.  Kaldi FC6 (m = 3482) on 3
 * workers gets four slices of 880, 880, 880 and 842 floats.
 */
int64_t deltaSliceFloats(int64_t m, size_t workers);

// ---------------------------------------------------------------
// Fully-connected / LSTM-gate delta update:
//   out[o] += delta_c * w[pos_c * m + o]  for every change c.
// ---------------------------------------------------------------

/** Scalar reference: per change, one full sweep of the outputs. */
void applyDeltasScalar(const ChangeList &changes, const float *weights,
                       int64_t m, float *out);

/** Blocked + auto-vectorized form over outputs [begin, end). */
void applyDeltasBlockedRange(const ChangeList &changes,
                             const float *weights, int64_t m,
                             int64_t begin, int64_t end, float *out);

/** Blocked + auto-vectorized form over the whole output vector. */
void applyDeltasBlocked(const ChangeList &changes, const float *weights,
                        int64_t m, float *out);

/**
 * Dispatched form: the CPUID arch choice, split over the dispatch's
 * pool in deltaSliceFloats slices when changed × m reaches
 * dispatch.parallel_mac_threshold and the pool has workers, else on
 * the caller.
 */
void applyDeltas(const ChangeList &changes, const float *weights,
                 int64_t m, float *out,
                 const DeltaDispatch &dispatch = defaultDispatch());

// ---------------------------------------------------------------
// From-scratch GEMV for the first execution of an FC layer:
//   out[o] = biases[o] + sum_i input[i] * w[i * m + o].
// The dispatched form is the delta apply above with the nonzero
// inputs, in ascending order, as the change list (collectRows) and
// the bias as the starting output: per output element that is the
// reference's operation sequence, so it is bit-identical to it, and
// it runs on the same hand-written row sweep and threading.
// ---------------------------------------------------------------

/** Scalar reference: bias fill, then one row sweep per input. */
void gemvScalar(const float *input, int64_t n, const float *weights,
                const float *biases, int64_t m, float *out);

/** Dispatched form of the from-scratch GEMV. */
void gemv(const float *input, int64_t n, const float *weights,
          const float *biases, int64_t m, float *out,
          const DeltaDispatch &dispatch = defaultDispatch());

/**
 * Runs two independent tasks of `macs` MACs each: at once on the
 * dispatch's pool (KernelThreadPool::runPair) when `macs` reaches the
 * threading threshold and the pool has workers, else `first` then
 * `second` on the caller.
 */
void runPair(int64_t macs, const std::function<void()> &first,
             const std::function<void()> &second,
             const DeltaDispatch &dispatch = defaultDispatch());

// ---------------------------------------------------------------
// LSTM elementwise tail (Eqs. 7-8), in place over n cells:
//   c[j] = sigmoid(zf[j]) * c[j] + sigmoid(zi[j]) * tanh(zg[j])
//   h[j] = sigmoid(zo[j]) * tanh(c[j])
// with the polynomial sigmoid/tanh of poly_math.h.  The scalar
// reference runs them one element at a time; every other arch runs
// the same code auto-vectorized, with identical bits.
// ---------------------------------------------------------------

/** Pre-activation rows of an LSTM step's four gates (n floats each). */
struct LstmGateRows {
    const float *i = nullptr;  ///< Input gate.
    const float *f = nullptr;  ///< Forget gate.
    const float *g = nullptr;  ///< Cell updater.
    const float *o = nullptr;  ///< Output gate.
};

/** Scalar reference of the tail. */
void lstmTailScalar(const LstmGateRows &z, int64_t n, float *c,
                    float *h);

/** Dispatched (vectorized unless the arch is Scalar) tail. */
void lstmTail(const LstmGateRows &z, int64_t n, float *c, float *h,
              KernelArch arch = defaultDispatch().arch);

/** The tail's sigmoid on one value (accuracy tests). */
float tailSigmoid(float x);

/** The tail's tanh on one value (accuracy tests). */
float tailTanh(float x);

// ---------------------------------------------------------------
// Softmax over n values, in place (the Kaldi and EESEN output
// layers):  x[j] = e^(x[j] - max) / sum_k e^(x[k] - max),
// with poly_math.h's exp.  The max and the sum run in
// kSoftmaxLanes partials (element j in lane j mod kSoftmaxLanes;
// the sum in double), combined in lane order, so the scalar
// reference and the vectorized form perform the same operations in
// the same order and every arch computes the same bits.
// ---------------------------------------------------------------

/** Partial maxima / sums of the softmax. */
constexpr int64_t kSoftmaxLanes = 16;

/** Scalar reference of the softmax. */
void softmaxScalar(float *x, int64_t n);

/** Dispatched (vectorized unless the arch is Scalar) softmax. */
void softmax(float *x, int64_t n,
             KernelArch arch = defaultDispatch().arch);

/** The softmax's exp on one value (accuracy tests). */
float softmaxExp(float x);

// ---------------------------------------------------------------
// Convolution delta update: every output neuron whose receptive
// field covers a changed input is corrected by delta * weight.
// Change positions are flat input indices (ci, y, x) / (ci, d, y, x)
// in row-major order, as produced by scanChanges() over the input
// volume.  The output buffer is channels-last: HWC for 2D,
// out[(oy * out_w + ox) * C_out + co], and DHWC for 3D,
// out[((oz * out_h + oy) * out_w + ox) * C_out + co].  One covered
// window is then one contiguous row update
// dst[0..C_out) += delta * w_row[0..C_out) against the input-major
// weight row of the change's (ci, k...) offset.  The windows come
// from a closed form (conv_windows.h).  AVX-512 runs a masked
// unit-stride row; every other non-scalar arch runs the blocked
// (auto-vectorized) row.  The conv kernels always run on the
// caller: a prototype that split the AVX-512 conv2d apply into four
// output-row bands on the pool moved autopilot-stream's
// frame_us_p50 by -1 to -6% but its frame_us_p99 by +38 to +52% over
// 3 A/B pairs on a 4-vCPU AVX-512 host (see DESIGN.md §9).
// ---------------------------------------------------------------

/** Geometry of a 2D conv delta update (valid padding + stride). */
struct Conv2dGeometry {
    int64_t in_h = 0;          ///< Input height H.
    int64_t in_w = 0;          ///< Input width W.
    int64_t out_channels = 0;  ///< Output feature maps C_out.
    int64_t out_h = 0;         ///< Output height.
    int64_t out_w = 0;         ///< Output width.
    int64_t kernel = 0;        ///< Square kernel size K.
    int64_t stride = 0;        ///< Spatial stride.
};

/** Geometry of a 3D conv delta update (stride 1 + zero padding). */
struct Conv3dGeometry {
    int64_t in_d = 0;          ///< Input depth D.
    int64_t in_h = 0;          ///< Input height H.
    int64_t in_w = 0;          ///< Input width W.
    int64_t out_channels = 0;  ///< Output feature maps C_out.
    int64_t out_d = 0;         ///< Output depth.
    int64_t out_h = 0;         ///< Output height.
    int64_t out_w = 0;         ///< Output width.
    int64_t kernel = 0;        ///< Cubic kernel size K.
    int64_t pad = 0;           ///< Symmetric zero padding.
};

/** Scalar reference: change-major row updates into the HWC output. */
void applyConvDeltas2dScalar(const ChangeList &changes,
                             const Conv2dGeometry &g,
                             const float *weights, float *out);

/** Blocked form: the same row updates, auto-vectorized. */
void applyConvDeltas2dBlocked(const ChangeList &changes,
                              const Conv2dGeometry &g,
                              const float *weights, float *out);

/** Dispatched form (implementation choice; runs on the caller). */
void applyConvDeltas2d(const ChangeList &changes,
                       const Conv2dGeometry &g, const float *weights,
                       float *out,
                       const DeltaDispatch &dispatch = defaultDispatch());

/** Scalar reference: change-major row updates into the DHWC output. */
void applyConvDeltas3dScalar(const ChangeList &changes,
                             const Conv3dGeometry &g,
                             const float *weights, float *out);

/** Blocked form (3D). */
void applyConvDeltas3dBlocked(const ChangeList &changes,
                              const Conv3dGeometry &g,
                              const float *weights, float *out);

/** Dispatched form (3D). */
void applyConvDeltas3d(const ChangeList &changes,
                       const Conv3dGeometry &g, const float *weights,
                       float *out,
                       const DeltaDispatch &dispatch = defaultDispatch());

/**
 * MACs the 2D delta update of `changes` performs: per change, the
 * number of covered windows (valid oy times valid ox, in closed
 * form) times C_out.  O(1) per change.
 */
int64_t convDeltaMacs2d(const ChangeList &changes,
                        const Conv2dGeometry &g);

/** MACs of the 3D delta update (valid oz * oy * ox * C_out). */
int64_t convDeltaMacs3d(const ChangeList &changes,
                        const Conv3dGeometry &g);

/**
 * Transposes a channels-last buffer `src` ([spatial][channels]) into
 * the channels-first `dst` ([channels][spatial]).
 */
void channelsLastToFirst(const float *src, int64_t spatial,
                         int64_t channels, float *dst);

} // namespace kernels
} // namespace reuse

#endif // REUSE_DNN_KERNELS_DELTA_KERNELS_H
