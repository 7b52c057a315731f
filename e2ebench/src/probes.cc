#include <algorithm>
#include <cmath>

#include "bench.h"
#include "core/conv_reuse.h"
#include "core/fc_reuse.h"
#include "core/lstm_reuse.h"
#include "core/reuse_engine.h"
#include "harness/experiment.h"
#include "ir/compiled_plan.h"
#include "kernels/change_list.h"
#include "kernels/delta_kernels.h"
#include "nn/conv2d.h"
#include "nn/fully_connected.h"
#include "nn/lstm.h"

namespace e2e {

namespace k = reuse::kernels;
using reuse::ir::ExecMode;
using reuse::ir::PlanStep;

namespace {

/** Kernel replay accumulators of one layer. */
struct KernelTimes {
    std::vector<double> scanNs;
    double applyNs = 0.0;
    double applyBytes = 0.0;
    int64_t changes = 0;
    std::vector<double> gemvUs;
};

/** Totals over every layer, for kernels.apply_peak_frac. */
struct ApplyTotals {
    double ns = 0.0;
    double bytes = 0.0;
};

k::QuantScanParams
scanParams(const PlanStep &step)
{
    k::QuantScanParams q = step.quant.input->scanParams();
    q.radius = step.clusterRadius;
    return q;
}

/**
 * Replays scanChanges + `apply` over each captured stream: the first
 * element of a stream seeds the buffered indices, every later one is
 * scanned against them and its change list applied.
 */
template <typename Apply>
void
replayScanApply(const std::vector<std::vector<Tensor>> &streams,
                const k::QuantScanParams &q, double bytes_per_change,
                double bytes_per_apply, Apply apply, KernelTimes &kt)
{
    const int64_t n = streams.front().front().numel();
    reuse::AlignedVector<int32_t> prev(static_cast<size_t>(n));
    k::ChangeList changes;
    for (const auto &stream : streams) {
        k::quantizeWithIndices(stream.front().data().data(), n, q,
                               prev.data(), nullptr);
        for (size_t f = 1; f < stream.size(); ++f) {
            const double t0 = nowUs();
            k::scanChanges(stream[f].data().data(), n, q, prev.data(),
                           changes);
            const double t1 = nowUs();
            kt.scanNs.push_back((t1 - t0) * 1e3 / double(n));
            if (changes.empty())
                continue;
            apply(changes);
            kt.applyNs += (nowUs() - t1) * 1e3;
            kt.changes += static_cast<int64_t>(changes.size());
            kt.applyBytes += bytes_per_change * double(changes.size()) +
                             bytes_per_apply;
        }
    }
}

void
addKernelMetrics(const std::string &suffix, const KernelTimes &kt,
                 ApplyTotals &totals, RunResult &out)
{
    out.add("kernels.scan_ns_per_input." + suffix, median(kt.scanNs),
            "ns");
    const double per_change =
        kt.changes > 0 ? kt.applyNs / double(kt.changes) : 0.0;
    out.add("kernels.apply_ns_per_change." + suffix, per_change, "ns");
    out.add("kernels.apply_gbps." + suffix,
            kt.applyNs > 0.0 ? kt.applyBytes / kt.applyNs : 0.0, "GB/s");
    totals.ns += kt.applyNs;
    totals.bytes += kt.applyBytes;
    if (!kt.gemvUs.empty())
        out.add("kernels.gemv_us." + suffix, median(kt.gemvUs), "us");
}

/** Feed-forward reuse layer probe: per-frame reuse time + MAC reuse. */
struct ReuseTimes {
    std::vector<double> steadyUs;
    int64_t macsFull = 0;
    int64_t macsPerformed = 0;
};

template <typename State>
ReuseTimes
timeReuseState(State &state, const std::vector<std::vector<Tensor>> &streams)
{
    ReuseTimes rt;
    for (const auto &stream : streams) {
        state.reset();
        for (const Tensor &x : stream) {
            reuse::LayerExecRecord rec;
            const double t0 = nowUs();
            const Tensor y = state.execute(x, rec);
            const double us = nowUs() - t0;
            if (rec.firstExecution)
                continue;
            rt.steadyUs.push_back(us);
            rt.macsFull += rec.macsFull;
            rt.macsPerformed += rec.macsPerformed;
        }
    }
    return rt;
}

/** Measured time saved over the MAC-proportional ideal saving. */
double
reuseEfficiency(double plain_us, double reuse_us, double reuse_frac)
{
    if (plain_us <= 0.0 || reuse_frac <= 0.0)
        return 0.0;
    return (plain_us - reuse_us) / (plain_us * reuse_frac);
}

} // namespace

void
probeLayers(const reuse::Workload &w, const reuse::ReuseEngine &engine,
            const std::vector<std::vector<Tensor>> &utterances,
            const std::string &tag, double triad_gbps, RunResult &out)
{
    const reuse::Network &net = *w.bundle.network;
    const size_t layers = net.layerCount();
    const bool recurrent = net.isRecurrent();

    // Capture every layer's input along the plain path and time
    // Layer::forward (per frame; per step for recurrent layers).
    std::vector<std::vector<std::vector<Tensor>>> captured(layers);
    std::vector<std::vector<double>> forward_us(layers);
    for (const auto &utt : utterances) {
        if (recurrent) {
            std::vector<Tensor> seq = utt;
            for (size_t l = 0; l < layers; ++l) {
                captured[l].push_back(seq);
                const double t0 = nowUs();
                seq = net.layer(l).forwardSequence(seq);
                forward_us[l].push_back((nowUs() - t0) /
                                        double(utt.size()));
            }
        } else {
            for (size_t l = 0; l < layers; ++l)
                captured[l].emplace_back();
            for (const Tensor &frame : utt) {
                Tensor x = frame;
                for (size_t l = 0; l < layers; ++l) {
                    captured[l].back().push_back(x);
                    const double t0 = nowUs();
                    x = net.layer(l).forward(x);
                    forward_us[l].push_back(nowUs() - t0);
                }
            }
        }
    }
    const std::vector<reuse::Shape> in_shapes = net.layerInputShapes();
    std::vector<double> plain_us(layers, 0.0);
    for (size_t l = 0; l < layers; ++l) {
        const reuse::Layer &layer = net.layer(l);
        const int64_t macs = layer.macCount(in_shapes[l]);
        plain_us[l] = mean(forward_us[l]);
        if (macs == 0 || recurrent)
            continue;
        const std::string suffix = tag + "." + layer.name();
        out.add("nn.forward_us." + suffix, plain_us[l], "us");
        out.add("nn.gmacs." + suffix,
                plain_us[l] > 0.0 ? double(macs) / (plain_us[l] * 1e3) : 0.0,
                "GMAC/s");
    }

    ApplyTotals totals;
    for (const PlanStep &step : engine.compiledPlan().steps()) {
        const size_t l = step.layerIndex;
        const auto &streams = captured[l];
        const std::string suffix = tag + "." + step.layer->name();
        ReuseTimes rt;
        double layer_us = 0.0;
        KernelTimes kt;
        if (step.mode == ExecMode::FcReuse) {
            const auto &fc =
                static_cast<const reuse::FullyConnectedLayer &>(*step.layer);
            reuse::FcReuseState state(fc, *step.quant.input,
                                      step.clusterRadius);
            rt = timeReuseState(state, streams);
            layer_us = mean(rt.steadyUs);
            const int64_t m = fc.outputs();
            reuse::AlignedVector<float> acc(static_cast<size_t>(m));
            replayScanApply(
                streams, scanParams(step), 4.0 * double(m) + 8.0,
                8.0 * double(m),
                [&](const k::ChangeList &c) {
                    k::applyDeltas(c, fc.weights().data(), m, acc.data());
                },
                kt);
            for (const auto &stream : streams) {
                for (const Tensor &x : stream) {
                    const double t0 = nowUs();
                    k::gemv(x.data().data(), fc.inputs(),
                            fc.weights().data(), fc.biases().data(), m,
                            acc.data());
                    kt.gemvUs.push_back(nowUs() - t0);
                }
            }
        } else if (step.mode == ExecMode::ConvReuse &&
                   step.layer->kind() == reuse::LayerKind::Conv2D) {
            const auto &conv =
                static_cast<const reuse::Conv2DLayer &>(*step.layer);
            reuse::ConvReuseState state(conv, step.inShape,
                                        *step.quant.input,
                                        step.clusterRadius);
            rt = timeReuseState(state, streams);
            layer_us = mean(rt.steadyUs);
            k::Conv2dGeometry g;
            g.in_h = step.inShape.dim(1);
            g.in_w = step.inShape.dim(2);
            g.out_channels = conv.outChannels();
            g.out_h = step.outShape.dim(1);
            g.out_w = step.outShape.dim(2);
            g.kernel = conv.kernel();
            g.stride = conv.stride();
            reuse::AlignedVector<float> acc(
                static_cast<size_t>(step.outShape.numel()));
            // Computed bytes per change: the output window it covers
            // (read + write) and the weights it multiplies, an upper
            // bound at the feature-map borders.
            const double reach =
                std::ceil(double(g.kernel) / double(g.stride));
            const double window =
                double(g.out_channels) * reach * reach;
            replayScanApply(
                streams, scanParams(step), 12.0 * window + 8.0, 0.0,
                [&](const k::ChangeList &c) {
                    k::applyConvDeltas2d(c, g, conv.weights().data(),
                                         acc.data());
                },
                kt);
        } else if (step.mode == ExecMode::BiLstmReuse) {
            const auto &bi =
                static_cast<const reuse::BiLstmLayer &>(*step.layer);
            reuse::BiLstmReuseState state(bi, *step.quant.input,
                                          *step.quant.recurrent,
                                          step.clusterRadius);
            std::vector<double> per_step;
            for (const auto &seq : streams) {
                state.reset();
                reuse::LayerExecRecord rec;
                const double t0 = nowUs();
                state.executeSequence(seq, rec);
                per_step.push_back((nowUs() - t0) / double(seq.size()));
                rt.macsFull += rec.macsFull;
                rt.macsPerformed += rec.macsPerformed;
            }
            layer_us = mean(per_step);
            // Kernel replay of the forward cell's feed-forward path:
            // one scan of x_t, its change list applied to all 4 gates.
            const reuse::LstmCell &cell = bi.forwardCell();
            const int64_t m = cell.cellDim();
            std::vector<reuse::AlignedVector<float>> gates(
                4, reuse::AlignedVector<float>(static_cast<size_t>(m)));
            replayScanApply(
                streams, scanParams(step), 16.0 * double(m) + 8.0,
                32.0 * double(m),
                [&](const k::ChangeList &c) {
                    for (int gi = 0; gi < 4; ++gi)
                        k::applyDeltas(c,
                                       cell.feedForward(gi).weights().data(),
                                       m, gates[size_t(gi)].data());
                },
                kt);
        } else {
            continue;
        }
        const double reuse_frac =
            rt.macsFull > 0
                ? 1.0 - double(rt.macsPerformed) / double(rt.macsFull)
                : 0.0;
        out.add("core.layer_us." + suffix, layer_us, "us");
        out.add("core.reuse_efficiency." + suffix,
                reuseEfficiency(plain_us[l], layer_us, reuse_frac),
                "ratio");
        addKernelMetrics(suffix, kt, totals, out);
    }
    const double gbps = totals.ns > 0.0 ? totals.bytes / totals.ns : 0.0;
    out.add("kernels.apply_peak_frac",
            triad_gbps > 0.0 ? gbps / triad_gbps : 0.0, "ratio");
}

void
probeSetupLayers(const std::string &model, RunResult &out)
{
    reuse::Workload w = buildWorkload(model);
    const reuse::Network &net = *w.bundle.network;
    // Same calibration-set sizes as the workload setup uses.
    const size_t frames = model == "AutoPilot" ? 12 : 48;
    auto gen = w.makeGenerator(kModelSeed + 1);
    const std::vector<Tensor> calib = gen->take(frames);
    std::vector<double> cal_s, compile_ms;
    for (int i = 0; i < 3; ++i) {
        const double t0 = nowUs();
        const reuse::QuantizationPlan plan = reuse::calibratePlan(
            net, calib, w.bundle.clusters, w.bundle.quantizedLayers);
        cal_s.push_back((nowUs() - t0) / 1e6);
    }
    for (int i = 0; i < 5; ++i) {
        const double t0 = nowUs();
        const auto plan = reuse::ir::CompiledPlan::compile(net, w.plan, {});
        compile_ms.push_back((nowUs() - t0) / 1e3);
    }
    out.add("quant.calibrate_s", median(cal_s), "s");
    out.add("ir.compile_ms", median(compile_ms), "ms");
}

} // namespace e2e
