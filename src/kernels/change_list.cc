#include "change_list.h"

#include <algorithm>

#include "kernels/simd_kernels.h"

namespace reuse {
namespace kernels {

void
ChangeList::grow(size_t need)
{
    const size_t size = std::max(
        {need, positions_.size() * 2, static_cast<size_t>(64)});
    positions_.resize(size);
    deltas_.resize(size);
}

int64_t
ChangeList::memoryBytes() const
{
    return static_cast<int64_t>(
        positions_.capacity() * sizeof(int32_t) +
        deltas_.capacity() * sizeof(float));
}

void
ChangeList::releaseStorage()
{
    AlignedVector<int32_t>().swap(positions_);
    AlignedVector<float>().swap(deltas_);
    count_ = 0;
}

namespace {

/** Fills `rows` with (i, v) for every nonzero v = value_at(i). */
template <typename ValueAt>
void
fillRows(int64_t n, ChangeList &rows, ValueAt value_at)
{
    int32_t *pos = nullptr;
    float *val = nullptr;
    rows.beginScan(n, pos, val);
    size_t count = 0;
    for (int64_t i = 0; i < n; ++i) {
        const float v = value_at(i);
        if (v == 0.0f)
            continue;
        pos[count] = static_cast<int32_t>(i);
        val[count] = v;
        ++count;
    }
    rows.endScan(count);
}

} // namespace

void
collectRows(const float *input, int64_t n, ChangeList &rows)
{
    fillRows(n, rows, [input](int64_t i) { return input[i]; });
}

void
quantizeRows(const float *input, int64_t n, const QuantScanParams &q,
             int32_t *indices, ChangeList &rows)
{
    fillRows(n, rows, [&](int64_t i) {
        indices[i] = quantIndex(q, input[i]);
        return quantCentroid(q, indices[i]);
    });
}

void
quantizeWithIndices(const float *input, int64_t n,
                    const QuantScanParams &q, int32_t *indices,
                    float *centroids)
{
    if (indices != nullptr && centroids != nullptr) {
        for (int64_t i = 0; i < n; ++i) {
            const int32_t idx = quantIndex(q, input[i]);
            indices[i] = idx;
            centroids[i] = quantCentroid(q, idx);
        }
    } else if (indices != nullptr) {
        for (int64_t i = 0; i < n; ++i)
            indices[i] = quantIndex(q, input[i]);
    } else if (centroids != nullptr) {
        for (int64_t i = 0; i < n; ++i)
            centroids[i] = quantCentroid(q, quantIndex(q, input[i]));
    }
}

namespace {

/**
 * Fused scalar scan: quantize, compare, near-match filter and
 * compact emit in one pass over the inputs.  This is the reference
 * the SIMD variants are fuzz-tested against; the delta is computed
 * as centroid(new) - centroid(old) — not (new - old) * step — to
 * stay bit-identical with the original interleaved path.
 */
ScanResult
scanChangesScalar(const float *input, int64_t n,
                  const QuantScanParams &q, int32_t *prev_indices,
                  int32_t *positions, float *deltas)
{
    ScanResult r;
    for (int64_t i = 0; i < n; ++i) {
        const int32_t idx = quantIndex(q, input[i]);
        const int32_t prev = prev_indices[i];
        if (idx == prev)
            continue;
        const int32_t dist = idx > prev ? idx - prev : prev - idx;
        if (dist <= q.radius) {
            ++r.near_matched;
            continue;
        }
        positions[r.changed] = static_cast<int32_t>(i);
        deltas[r.changed] =
            quantCentroid(q, idx) - quantCentroid(q, prev);
        prev_indices[i] = idx;
        ++r.changed;
    }
    return r;
}

} // namespace

ScanResult
scanChanges(const float *input, int64_t n, const QuantScanParams &q,
            int32_t *prev_indices, ChangeList &out, KernelArch arch)
{
    int32_t *positions = nullptr;
    float *deltas = nullptr;
    out.beginScan(n, positions, deltas);

    const ArchKernels *isa = archKernels(arch);
    const ScanResult r =
        isa != nullptr
            ? isa->scan(input, n, q, prev_indices, positions, deltas)
            : scanChangesScalar(input, n, q, prev_indices, positions,
                                deltas);
    out.endScan(static_cast<size_t>(r.changed));
    return r;
}

} // namespace kernels
} // namespace reuse
