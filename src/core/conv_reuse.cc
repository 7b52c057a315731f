#include "conv_reuse.h"

#include <cstring>

#include "common/checksum.h"
#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/trace_recorder.h"

namespace reuse {

ConvReuseState::ConvReuseState(const Conv2DLayer &layer,
                               Shape input_shape,
                               LinearQuantizer quantizer,
                               int32_t cluster_radius)
    : ConvReuseState(&layer, nullptr, layer, std::move(input_shape),
                     std::move(quantizer), cluster_radius)
{
}

ConvReuseState::ConvReuseState(const Conv3DLayer &layer,
                               Shape input_shape,
                               LinearQuantizer quantizer,
                               int32_t cluster_radius)
    : ConvReuseState(nullptr, &layer, layer, std::move(input_shape),
                     std::move(quantizer), cluster_radius)
{
}

ConvReuseState::ConvReuseState(const Conv2DLayer *conv2d,
                               const Conv3DLayer *conv3d,
                               const Layer &layer, Shape input_shape,
                               LinearQuantizer quantizer,
                               int32_t cluster_radius)
    : conv2d_(conv2d),
      conv3d_(conv3d),
      kind_(layer.kind()),
      input_shape_(std::move(input_shape)),
      out_shape_(layer.outputShape(input_shape_)),
      macs_full_(layer.macCount(input_shape_)),
      quantizer_(std::move(quantizer)),
      cluster_radius_(cluster_radius)
{
    // Buffers are allocated lazily by the first execute(): a state
    // that never runs (or was evicted) holds no memory.
    if (conv2d_ != nullptr) {
        kernel_ = conv2d_->kernel();
        geom2d_.in_h = input_shape_.dim(1);
        geom2d_.in_w = input_shape_.dim(2);
        geom2d_.out_channels = conv2d_->outChannels();
        geom2d_.out_h = out_shape_.dim(1);
        geom2d_.out_w = out_shape_.dim(2);
        geom2d_.kernel = kernel_;
        geom2d_.stride = conv2d_->stride();
    } else {
        kernel_ = conv3d_->kernel();
        geom3d_.in_d = input_shape_.dim(1);
        geom3d_.in_h = input_shape_.dim(2);
        geom3d_.in_w = input_shape_.dim(3);
        geom3d_.out_channels = conv3d_->outChannels();
        geom3d_.out_d = out_shape_.dim(1);
        geom3d_.out_h = out_shape_.dim(2);
        geom3d_.out_w = out_shape_.dim(3);
        geom3d_.kernel = kernel_;
        geom3d_.pad = conv3d_->pad();
    }
}

void
ConvReuseState::releaseBuffers()
{
    has_prev_ = false;
    AlignedVector<int32_t>().swap(prev_indices_);
    AlignedVector<float>().swap(prev_output_);
    changes_.releaseStorage();
}

void
ConvReuseState::hashInto(uint64_t &h) const
{
    checksumValue(h, has_prev_);
    if (!has_prev_)
        return;
    checksumVector(h, prev_indices_);
    checksumVector(h, prev_output_);
}

bool
ConvReuseState::debugCorruptBuffer(uint64_t seed)
{
    if (!has_prev_ || prev_output_.empty())
        return false;
    float *data = prev_output_.data();
    const size_t victim = seed % prev_output_.size();
    const uint32_t bit = static_cast<uint32_t>((seed >> 16) % 23);
    uint32_t raw = 0;
    std::memcpy(&raw, &data[victim], sizeof(raw));
    raw ^= (1u << bit);
    std::memcpy(&data[victim], &raw, sizeof(raw));
    return true;
}

int64_t
ConvReuseState::memoryBytes() const
{
    // Change-list scratch excluded: transient per-frame storage the
    // static footprint estimator (analysis/) mirrors exactly.
    return static_cast<int64_t>(prev_indices_.capacity() *
                                    sizeof(int32_t) +
                                prev_output_.capacity() * sizeof(float));
}

Tensor
ConvReuseState::bufferedOutput() const
{
    const int64_t channels = out_shape_.dim(0);
    Tensor out(out_shape_);
    kernels::channelsLastToFirst(prev_output_.data(),
                                 out_shape_.numel() / channels, channels,
                                 out.data().data());
    return out;
}

void
ConvReuseState::firstExecution(const Tensor &input, LayerExecRecord &rec)
{
    obs::TraceSpan span(obs::SpanKind::FirstExec);
    span.args(0, 0, rec.macsFull, rec.macsFull,
              obs::kFlagFirstExecution | obs::kFlagReuseEnabled);
    const int64_t n = input.numel();
    prev_indices_.resize(static_cast<size_t>(n));
    Tensor quantized(input.shape());
    kernels::quantizeWithIndices(input.data().data(), n,
                                 quantizer_.scanParams(),
                                 prev_indices_.data(),
                                 quantized.data().data());
    prev_output_.resize(static_cast<size_t>(out_shape_.numel()));
    if (conv2d_ != nullptr)
        conv2d_->forwardChannelsLast(quantized, prev_output_.data());
    else
        conv3d_->forwardChannelsLast(quantized, prev_output_.data());
    has_prev_ = true;
    rec.firstExecution = true;
    rec.macsPerformed = rec.macsFull;
}

Tensor
ConvReuseState::execute(const Tensor &input, LayerExecRecord &rec)
{
    REUSE_ASSERT(input.shape() == input_shape_,
                 "conv reuse input shape mismatch: " << input.shape().str()
                     << " vs " << input_shape_.str());
    const int64_t n = input.numel();
    rec.kind = kind_;
    rec.kernelExtent = kernel_;
    rec.reuseEnabled = true;
    rec.inputsTotal = n;
    rec.outputsTotal = out_shape_.numel();
    rec.macsFull = macs_full_;
    rec.steps = 1;

    if (!has_prev_) {
        firstExecution(input, rec);
        return bufferedOutput();
    }

    rec.firstExecution = false;
    rec.inputsChecked = n;
    kernels::QuantScanParams scan = quantizer_.scanParams();
    scan.radius = cluster_radius_;
    fault::perturbScanParams(kind_, scan);
    fault::corruptIndices(kind_, prev_indices_.data(), n);
    fault::corruptFloats(kind_, prev_output_.data(),
                         static_cast<int64_t>(prev_output_.size()));
    kernels::ScanResult scanned;
    {
        obs::TraceSpan span(obs::SpanKind::LayerScan);
        scanned = kernels::scanChanges(input.data().data(), n, scan,
                                       prev_indices_.data(), changes_);
        span.args(n, scanned.changed);
    }
    fault::truncateChanges(kind_, changes_);
    int64_t macs = 0;
    if (!changes_.empty()) {
        obs::TraceSpan span(obs::SpanKind::LayerApply);
        span.args(static_cast<int64_t>(changes_.size()),
                  rec.outputsTotal);
        if (conv2d_ != nullptr) {
            kernels::applyConvDeltas2d(changes_, geom2d_,
                                       conv2d_->weights().data(),
                                       prev_output_.data());
            macs = kernels::convDeltaMacs2d(changes_, geom2d_);
        } else {
            kernels::applyConvDeltas3d(changes_, geom3d_,
                                       conv3d_->weights().data(),
                                       prev_output_.data());
            macs = kernels::convDeltaMacs3d(changes_, geom3d_);
        }
    }
    rec.inputsChanged = scanned.changed;
    rec.inputsNearMatched = scanned.near_matched;
    rec.nearMatchDrift =
        kernels::nearMatchDriftShare(scan, scanned.near_matched);
    rec.macsPerformed = macs;
    return bufferedOutput();
}

} // namespace reuse
