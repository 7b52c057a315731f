/**
 * @file
 * Change-list batching for the reuse hot path.
 *
 * The paper's incremental update (Eq. 10) touches only the inputs
 * whose quantization index changed since the previous execution.  The
 * original software path interleaved the index comparison with the
 * delta application, so every changed input re-streamed the full
 * output vector.  The kernel layer splits the work in two phases:
 *
 *   1. scanChanges() walks the inputs once with a fused
 *      quantize-compare-compact loop: each element is quantized with
 *      hoisted quantizer parameters, compared against the buffered
 *      int32 index, and — when it changed by more than the
 *      near-match radius — compact-stored into the SoA change list,
 *      all in a single pass (SIMD variants use movemask compaction /
 *      compress-store; see simd_kernels.h);
 *   2. the apply kernels (delta_kernels.h) sweep the whole change
 *      list one output block at a time, so the output stays resident
 *      in L1 across all changed inputs.
 */

#ifndef REUSE_DNN_KERNELS_CHANGE_LIST_H
#define REUSE_DNN_KERNELS_CHANGE_LIST_H

#include <cstdint>

#include "common/aligned.h"
#include "kernels/dispatch.h"
#include "kernels/quant_scan.h"

namespace reuse {
namespace kernels {

/**
 * Store slack kept past the logical end of the change list: the
 * AVX2 compaction stores a full 8-lane vector at the write cursor
 * and advances it by the lane popcount, so up to 15 elements past
 * the final count are scribbled and must be backed by storage.
 */
constexpr int64_t kScanStoreSlack = 16;

/**
 * Compact list of changed inputs: parallel arrays of input positions
 * and centroid deltas (c'_i - c_i).  Structure-of-arrays so the apply
 * kernels read each with unit stride; storage is cache-line aligned
 * (common/aligned.h) and retained across frames.
 *
 * The logical element count is tracked separately from the storage
 * size so the compact-storing scan kernels can write through raw
 * pointers into pre-sized storage (beginScan()/endScan()) without a
 * per-frame zero-fill of the backing vectors.
 */
class ChangeList
{
  public:
    /** Number of changed inputs. */
    size_t size() const { return count_; }

    /** True when no input changed. */
    bool empty() const { return count_ == 0; }

    /** Changed input positions, ascending; `size()` valid entries. */
    const int32_t *positions() const { return positions_.data(); }

    /** Centroid delta per change; `size()` valid entries. */
    const float *deltas() const { return deltas_.data(); }

    /** Position of change `c`. */
    int32_t position(size_t c) const { return positions_[c]; }

    /** Delta of change `c`. */
    float delta(size_t c) const { return deltas_[c]; }

    /** Clears the list, keeping storage for the next frame. */
    void clear() { count_ = 0; }

    /** Appends one change, growing storage as needed. */
    void
    push(int32_t position, float delta)
    {
        if (count_ + kScanStoreSlack >= positions_.size())
            grow(count_ + kScanStoreSlack + 1);
        positions_[count_] = position;
        deltas_[count_] = delta;
        ++count_;
    }

    /** Drops all but the first `keep` changes (fault injection). */
    void
    truncate(size_t keep)
    {
        if (keep < count_)
            count_ = keep;
    }

    /**
     * Prepares the list for a scan over `n` inputs: clears it and
     * sizes the backing storage to `n` + kScanStoreSlack elements
     * (every input changed, plus compaction slack).  Returns the
     * write cursors for the scan kernels.
     */
    void
    beginScan(int64_t n, int32_t *&positions_out, float *&deltas_out)
    {
        count_ = 0;
        const size_t need =
            static_cast<size_t>(n) + kScanStoreSlack;
        if (positions_.size() < need)
            grow(need);
        positions_out = positions_.data();
        deltas_out = deltas_.data();
    }

    /** Commits the element count a scan produced. */
    void endScan(size_t count) { count_ = count; }

    /** Bytes currently held by the list's storage. */
    int64_t memoryBytes() const;

    /** Frees all storage (session eviction). */
    void releaseStorage();

  private:
    void grow(size_t need);

    AlignedVector<int32_t> positions_;
    AlignedVector<float> deltas_;
    size_t count_ = 0;
};

/** Outcome of one scanChanges() pass. */
struct ScanResult {
    /** Inputs whose index moved past the radius (== out.size()). */
    int64_t changed = 0;
    /**
     * Inputs whose index moved but stayed within the near-match
     * radius: they reuse the buffered representative, contributing
     * bounded error instead of a delta update.  Always 0 when
     * q.radius == 0.
     */
    int64_t near_matched = 0;
};

/**
 * Fills `rows` with (i, input[i]) for every nonzero input, in
 * ascending i: a dense product sum_i input[i] * W[i] as a change list
 * for the apply kernels (zero inputs contribute nothing).
 */
void collectRows(const float *input, int64_t n, ChangeList &rows);

/**
 * Quantizes `input[0..n)`, writing every element's index to
 * `indices`, and fills `rows` with (i, centroid) for every nonzero
 * centroid: the first-execution quantize and collectRows() in one
 * pass.
 */
void quantizeRows(const float *input, int64_t n,
                  const QuantScanParams &q, int32_t *indices,
                  ChangeList &rows);

/**
 * Quantizes `input[0..n)`, writing the index of every element to
 * `indices` and its centroid value to `centroids`.  Used by the
 * first-execution (from-scratch) path.  Either output may be null to
 * skip it.
 */
void quantizeWithIndices(const float *input, int64_t n,
                         const QuantScanParams &q, int32_t *indices,
                         float *centroids);

/**
 * Scans one input vector against the buffered indices of the
 * previous execution in a single fused pass: quantize, compare,
 * compact.  For every element whose index moved by more than
 * `q.radius`, a (position, delta) entry is appended to `out` (delta
 * = centroid(new) - centroid(old)) and `prev_indices` is updated in
 * place; moves within the radius keep the buffered index as the
 * near-match representative and are only counted.  `out` is cleared
 * first; storage is retained across frames.
 *
 * The implementation family comes from `arch` (default: the
 * process-wide dispatch); every family produces bit-identical
 * outputs (fuzz-tested against the scalar reference).
 */
ScanResult scanChanges(const float *input, int64_t n,
                       const QuantScanParams &q,
                       int32_t *prev_indices, ChangeList &out,
                       KernelArch arch = defaultDispatch().arch);

} // namespace kernels
} // namespace reuse

#endif // REUSE_DNN_KERNELS_CHANGE_LIST_H
