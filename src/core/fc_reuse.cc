#include "fc_reuse.h"

#include "common/checksum.h"
#include "common/logging.h"
#include "fault/fault_injector.h"
#include "kernels/delta_kernels.h"
#include "obs/trace_recorder.h"

namespace reuse {

FcReuseState::FcReuseState(const FullyConnectedLayer &layer,
                           LinearQuantizer quantizer,
                           int32_t cluster_radius)
    : layer_(layer),
      quantizer_(std::move(quantizer)),
      cluster_radius_(cluster_radius)
{
    // Buffers are allocated lazily by the first execute(): a state
    // that never runs (or was evicted) holds no memory.
}

void
FcReuseState::releaseBuffers()
{
    has_prev_ = false;
    AlignedVector<int32_t>().swap(prev_indices_);
    AlignedVector<float>().swap(prev_outputs_);
    changes_.releaseStorage();
}

void
FcReuseState::hashInto(uint64_t &h) const
{
    checksumValue(h, has_prev_);
    if (!has_prev_)
        return;
    checksumVector(h, prev_indices_);
    checksumVector(h, prev_outputs_);
}

bool
FcReuseState::debugCorruptBuffer(uint64_t seed)
{
    return has_prev_ && flipMantissaBit(prev_outputs_, seed);
}

int64_t
FcReuseState::memoryBytes() const
{
    // The change-list scratch is deliberately excluded: it is
    // transient per-frame storage (bounded by ~3 ints per input),
    // and the static footprint estimator (analysis/) mirrors this
    // accounting exactly.
    return static_cast<int64_t>(
        prev_indices_.capacity() * sizeof(int32_t) +
        prev_outputs_.capacity() * sizeof(float));
}

Tensor
FcReuseState::execute(const Tensor &input, LayerExecRecord &rec)
{
    REUSE_ASSERT(input.numel() == layer_.inputs(),
                 layer_.name() << ": reuse input size mismatch");
    const int64_t n = layer_.inputs();
    const int64_t m = layer_.outputs();
    kernels::QuantScanParams q = quantizer_.scanParams();
    q.radius = cluster_radius_;

    rec.kind = LayerKind::FullyConnected;
    rec.reuseEnabled = true;
    rec.inputsTotal = n;
    rec.outputsTotal = m;
    rec.macsFull = n * m;
    rec.steps = 1;

    if (!has_prev_) {
        // First execution: quantize every input, store the indices,
        // and compute from scratch on the centroids (Fig. 7, top
        // path).  Buffers may have been released by an eviction.
        obs::TraceSpan span(obs::SpanKind::FirstExec);
        span.args(0, 0, rec.macsFull, rec.macsFull,
                  obs::kFlagFirstExecution | obs::kFlagReuseEnabled);
        prev_indices_.resize(static_cast<size_t>(n));
        prev_outputs_.resize(static_cast<size_t>(m));
        Tensor quantized(input.shape());
        kernels::quantizeWithIndices(input.data().data(), n, q,
                                     prev_indices_.data(),
                                     quantized.data().data());
        const Tensor out = layer_.forward(quantized);
        for (int64_t o = 0; o < m; ++o)
            prev_outputs_[static_cast<size_t>(o)] = out[o];
        has_prev_ = true;

        rec.firstExecution = true;
        rec.inputsChecked = 0;
        rec.inputsChanged = 0;
        rec.macsPerformed = rec.macsFull;
        return out;
    }

    // Subsequent executions: scan changed indices into a compact
    // change list, then apply the whole list one output block at a
    // time (blocked Eq. 10).
    rec.firstExecution = false;
    rec.inputsChecked = n;
    kernels::QuantScanParams scan = q;
    fault::perturbScanParams(LayerKind::FullyConnected, scan);
    fault::corruptIndices(LayerKind::FullyConnected,
                          prev_indices_.data(), n);
    fault::corruptFloats(LayerKind::FullyConnected,
                         prev_outputs_.data(), m);
    kernels::ScanResult scanned;
    {
        obs::TraceSpan span(obs::SpanKind::LayerScan);
        scanned = kernels::scanChanges(input.data().data(), n, scan,
                                       prev_indices_.data(), changes_);
        span.args(n, scanned.changed);
    }
    fault::truncateChanges(LayerKind::FullyConnected, changes_);
    if (!changes_.empty()) {
        obs::TraceSpan span(obs::SpanKind::LayerApply);
        span.args(static_cast<int64_t>(changes_.size()), m);
        kernels::applyDeltas(changes_, layer_.weights().data(), m,
                             prev_outputs_.data());
    }
    rec.inputsChanged = scanned.changed;
    rec.inputsNearMatched = scanned.near_matched;
    rec.nearMatchDrift =
        kernels::nearMatchDriftShare(scan, scanned.near_matched);
    rec.macsPerformed = scanned.changed * m;

    return Tensor(Shape({m}), prev_outputs_);
}

} // namespace reuse
