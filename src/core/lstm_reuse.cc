#include "lstm_reuse.h"

#include <algorithm>

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
    AlignedVector<float>().swap(state_.h);
    AlignedVector<float>().swap(state_.c);
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
    checksumVector(h, state_.h);
    checksumVector(h, state_.c);
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
        (state_.h.capacity() + state_.c.capacity()) * sizeof(float));
    for (const auto &gate : preacts_)
        bytes += static_cast<int64_t>(gate.capacity() * sizeof(float));
    return bytes;
}

const AlignedVector<float> &
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
        state_.h.assign(static_cast<size_t>(cell_dim), 0.0f);
        state_.c.assign(static_cast<size_t>(cell_dim), 0.0f);
        prev_x_indices_.resize(static_cast<size_t>(in_dim));
        prev_h_indices_.resize(static_cast<size_t>(cell_dim));
        kernels::quantizeRows(x.data(), in_dim, x_quant_.scanParams(),
                              prev_x_indices_.data(), x_changes_);
        kernels::quantizeRows(state_.h.data(), cell_dim,
                              h_quant_.scanParams(),
                              prev_h_indices_.data(), h_changes_);
        cell_.computePreacts(x_changes_, h_changes_, preacts_);
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
            scanned_h = kernels::scanChanges(state_.h.data(), cell_dim,
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
    cell_.finishStep(preacts_, state_);
    return state_.h;
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

    for (const Tensor &in : inputs)
        outputs.emplace_back(Shape({cell_dim}), cell_.step(in.data(), rec));
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
    return executeSequence(inputs, rec, kernels::defaultDispatch());
}

std::vector<Tensor>
BiLstmReuseState::executeSequence(const std::vector<Tensor> &inputs,
                                  LayerExecRecord &rec,
                                  const kernels::DeltaDispatch &dispatch)
{
    const size_t t_len = inputs.size();
    const int64_t cell_dim = layer_.cellDim();
    std::vector<Tensor> outputs(t_len,
                                Tensor(Shape({layer_.outputDim()})));

    // Each direction fills its half of the outputs and its own
    // record; the records merge forward-then-backward after the
    // join, so outputs and record do not depend on which thread ran
    // which direction.
    LayerExecRecord dir_rec[2];
    const auto run = [&](LstmCellReuseState &cell, int d) {
        const int64_t offset = d == 0 ? 0 : cell_dim;
        for (size_t k = 0; k < t_len; ++k) {
            const size_t t = d == 0 ? k : t_len - 1 - k;
            const AlignedVector<float> &h =
                cell.step(inputs[t].data(), dir_rec[d]);
            std::copy(h.begin(), h.end(),
                      outputs[t].data().begin() + offset);
        }
    };
    kernels::runPair(layer_.forwardCell().macCountPerStep() *
                         static_cast<int64_t>(t_len),
                     [&] { run(forward_, 0); },
                     [&] { run(backward_, 1); }, dispatch);
    rec.accumulate(dir_rec[0]);
    rec.accumulate(dir_rec[1]);

    rec.kind = LayerKind::BiLstm;
    rec.reuseEnabled = true;
    rec.steps = static_cast<int64_t>(t_len);
    // The first timestep of each direction is a from-scratch
    // execution; per-record bookkeeping marks the record as a
    // steady-state one because subsequent steps dominate, and the
    // from-scratch share is visible via macsPerformed.
    rec.firstExecution = (t_len <= 1);
    return outputs;
}

} // namespace reuse
