#include "lstm_reuse.h"

#include "common/checksum.h"
#include "common/logging.h"
#include "fault/fault_injector.h"
#include "kernels/delta_kernels.h"
#include "obs/trace_recorder.h"

namespace reuse {

LstmCellReuseState::LstmCellReuseState(const LstmCell &cell,
                                       LinearQuantizer x_quantizer,
                                       LinearQuantizer h_quantizer,
                                       LayerKind owner_kind,
                                       int32_t cluster_radius)
    : cell_(cell),
      x_quant_(std::move(x_quantizer)),
      h_quant_(std::move(h_quantizer)),
      owner_kind_(owner_kind),
      cluster_radius_(cluster_radius)
{
    // All buffers are allocated lazily by the first step(): a state
    // that never runs (or was evicted) holds no memory.
}

void
LstmCellReuseState::releaseBuffers()
{
    AlignedVector<int32_t>().swap(prev_x_indices_);
    AlignedVector<int32_t>().swap(prev_h_indices_);
    for (auto &gate : preacts_)
        AlignedVector<float>().swap(gate);
    AlignedVector<float>().swap(h_);
    AlignedVector<float>().swap(c_);
    x_changes_.releaseStorage();
    h_changes_.releaseStorage();
    reset();
}

void
LstmCellReuseState::hashInto(uint64_t &h) const
{
    checksumValue(h, has_prev_);
    if (!has_prev_)
        return;
    checksumVector(h, prev_x_indices_);
    checksumVector(h, prev_h_indices_);
    for (const auto &gate : preacts_)
        checksumVector(h, gate);
    checksumVector(h, h_);
    checksumVector(h, c_);
}

bool
LstmCellReuseState::debugCorruptBuffer(uint64_t seed)
{
    return has_prev_ && flipMantissaBit(preacts_[0], seed);
}

int64_t
LstmCellReuseState::memoryBytes() const
{
    int64_t bytes = static_cast<int64_t>(
        prev_x_indices_.capacity() * sizeof(int32_t) +
        prev_h_indices_.capacity() * sizeof(int32_t) +
        (h_.capacity() + c_.capacity()) * sizeof(float));
    for (const auto &gate : preacts_)
        bytes += static_cast<int64_t>(gate.capacity() * sizeof(float));
    return bytes;
}

AlignedVector<float>
LstmCellReuseState::step(const AlignedVector<float> &x,
                         LayerExecRecord &rec)
{
    REUSE_ASSERT(static_cast<int64_t>(x.size()) == cell_.inputDim(),
                 "LSTM reuse x size mismatch");
    const int64_t in_dim = cell_.inputDim();
    const int64_t cell_dim = cell_.cellDim();
    const int64_t full_macs = cell_.macCountPerStep();

    rec.macsFull += full_macs;
    rec.inputsTotal += in_dim + cell_dim;
    rec.outputsTotal += NumLstmGates * cell_dim;

    if (!has_prev_) {
        // Sequence start: quantize x and the (zero) initial h, and
        // compute the gate pre-activations from scratch on centroids.
        // Buffers may have been released by an eviction.
        h_.assign(static_cast<size_t>(cell_dim), 0.0f);
        c_.assign(static_cast<size_t>(cell_dim), 0.0f);
        prev_x_indices_.resize(static_cast<size_t>(in_dim));
        prev_h_indices_.resize(static_cast<size_t>(cell_dim));
        AlignedVector<float> qx(static_cast<size_t>(in_dim));
        kernels::quantizeWithIndices(x.data(), in_dim,
                                     x_quant_.scanParams(),
                                     prev_x_indices_.data(), qx.data());
        AlignedVector<float> qh(static_cast<size_t>(cell_dim));
        kernels::quantizeWithIndices(h_.data(), cell_dim,
                                     h_quant_.scanParams(),
                                     prev_h_indices_.data(), qh.data());
        preacts_ = cell_.computePreacts(qx, qh);
        has_prev_ = true;
        rec.macsPerformed += full_macs;
    } else {
        // Steady state: one comparison per input.  Each change list
        // is scanned once and then applied to all four gates (the
        // gates share their inputs; Sec. IV-D), one gate matrix at a
        // time so each blocked sweep streams a single weight matrix.
        rec.inputsChecked += in_dim + cell_dim;
        kernels::QuantScanParams x_scan = x_quant_.scanParams();
        x_scan.radius = cluster_radius_;
        fault::perturbScanParams(owner_kind_, x_scan);
        fault::corruptIndices(owner_kind_, prev_x_indices_.data(),
                              in_dim);
        if (!preacts_[0].empty()) {
            fault::corruptFloats(
                owner_kind_, preacts_[0].data(),
                static_cast<int64_t>(preacts_[0].size()));
        }
        kernels::ScanResult scanned_x;
        {
            obs::TraceSpan span(obs::SpanKind::LayerScan);
            scanned_x = kernels::scanChanges(x.data(), in_dim, x_scan,
                                             prev_x_indices_.data(),
                                             x_changes_);
            span.args(in_dim, scanned_x.changed);
        }
        fault::truncateChanges(owner_kind_, x_changes_);
        if (!x_changes_.empty()) {
            obs::TraceSpan span(obs::SpanKind::LayerApply);
            span.args(static_cast<int64_t>(x_changes_.size()),
                      NumLstmGates * cell_dim);
            for (int g = 0; g < NumLstmGates; ++g) {
                kernels::applyDeltas(
                    x_changes_,
                    cell_.feedForward(g).weights().data(), cell_dim,
                    preacts_[static_cast<size_t>(g)].data());
            }
        }
        kernels::QuantScanParams h_scan = h_quant_.scanParams();
        h_scan.radius = cluster_radius_;
        kernels::ScanResult scanned_h;
        {
            obs::TraceSpan span(obs::SpanKind::LayerScan);
            scanned_h = kernels::scanChanges(h_.data(), cell_dim,
                                             h_scan,
                                             prev_h_indices_.data(),
                                             h_changes_);
            span.args(cell_dim, scanned_h.changed);
        }
        if (scanned_h.changed > 0) {
            obs::TraceSpan span(obs::SpanKind::LayerApply);
            span.args(static_cast<int64_t>(h_changes_.size()),
                      NumLstmGates * cell_dim);
            for (int g = 0; g < NumLstmGates; ++g) {
                kernels::applyDeltas(
                    h_changes_, cell_.recurrent(g).weights().data(),
                    cell_dim,
                    preacts_[static_cast<size_t>(g)].data());
            }
        }
        rec.inputsChanged += scanned_x.changed + scanned_h.changed;
        rec.inputsNearMatched +=
            scanned_x.near_matched + scanned_h.near_matched;
        rec.nearMatchDrift +=
            kernels::nearMatchDriftShare(x_scan,
                                         scanned_x.near_matched) +
            kernels::nearMatchDriftShare(h_scan,
                                         scanned_h.near_matched);
        rec.macsPerformed += (scanned_x.changed + scanned_h.changed) *
                             NumLstmGates * cell_dim;
    }

    // Elementwise tail (Eqs. 7-8) is always computed.
    LstmCell::State next = cell_.finishStep(preacts_, c_);
    h_ = next.h;
    c_ = std::move(next.c);
    return h_;
}

LstmLayerReuseState::LstmLayerReuseState(const LstmLayer &layer,
                                         LinearQuantizer x_quantizer,
                                         LinearQuantizer h_quantizer,
                                         int32_t cluster_radius)
    : layer_(layer),
      cell_(layer.cell(), std::move(x_quantizer),
            std::move(h_quantizer), LayerKind::Lstm, cluster_radius)
{
}

std::vector<Tensor>
LstmLayerReuseState::executeSequence(const std::vector<Tensor> &inputs,
                                     LayerExecRecord &rec)
{
    const int64_t cell_dim = layer_.cellDim();
    std::vector<Tensor> outputs;
    outputs.reserve(inputs.size());

    rec.kind = LayerKind::Lstm;
    rec.reuseEnabled = true;
    rec.steps = static_cast<int64_t>(inputs.size());
    rec.firstExecution = (inputs.size() <= 1);

    for (const Tensor &in : inputs) {
        const AlignedVector<float> h = cell_.step(in.data(), rec);
        Tensor out(Shape({cell_dim}));
        for (int64_t j = 0; j < cell_dim; ++j)
            out[j] = h[static_cast<size_t>(j)];
        outputs.push_back(std::move(out));
    }
    return outputs;
}

BiLstmReuseState::BiLstmReuseState(const BiLstmLayer &layer,
                                   LinearQuantizer x_quantizer,
                                   LinearQuantizer h_quantizer,
                                   int32_t cluster_radius)
    : layer_(layer),
      forward_(layer.forwardCell(), x_quantizer, h_quantizer,
               LayerKind::BiLstm, cluster_radius),
      backward_(layer.backwardCell(), x_quantizer, h_quantizer,
                LayerKind::BiLstm, cluster_radius)
{
}

std::vector<Tensor>
BiLstmReuseState::executeSequence(const std::vector<Tensor> &inputs,
                                  LayerExecRecord &rec)
{
    const size_t t_len = inputs.size();
    const int64_t cell_dim = layer_.cellDim();
    std::vector<Tensor> outputs(t_len,
                                Tensor(Shape({layer_.outputDim()})));

    rec.kind = LayerKind::BiLstm;
    rec.reuseEnabled = true;
    rec.steps = static_cast<int64_t>(t_len);
    // The first timestep of each direction is a from-scratch
    // execution; per-record bookkeeping marks the record as a
    // steady-state one because subsequent steps dominate, and the
    // from-scratch share is visible via macsPerformed.
    rec.firstExecution = (t_len <= 1);

    for (size_t t = 0; t < t_len; ++t) {
        const AlignedVector<float> h =
            forward_.step(inputs[t].data(), rec);
        for (int64_t j = 0; j < cell_dim; ++j)
            outputs[t][j] = h[static_cast<size_t>(j)];
    }
    for (size_t t = t_len; t-- > 0;) {
        const AlignedVector<float> h =
            backward_.step(inputs[t].data(), rec);
        for (int64_t j = 0; j < cell_dim; ++j)
            outputs[t][cell_dim + j] = h[static_cast<size_t>(j)];
    }
    return outputs;
}

} // namespace reuse
