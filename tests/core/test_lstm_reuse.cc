/** @file Unit tests for incremental BiLSTM execution (Sec. IV-D). */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/checksum.h"
#include "common/random.h"
#include "core/lstm_reuse.h"
#include "kernels/dispatch.h"
#include "nn/initializers.h"
#include "obs/trace_recorder.h"

namespace reuse {
namespace {

/** Fine quantizer so quantization error is negligible. */
LinearQuantizer
fineQuant()
{
    return LinearQuantizer(4096, -4.0f, 4.0f);
}

/** Paper-style 16-cluster quantizer. */
LinearQuantizer
coarseQuant(float lo = -4.0f, float hi = 4.0f)
{
    return LinearQuantizer(16, lo, hi);
}

std::vector<Tensor>
randomSequence(Rng &rng, int64_t dim, size_t len, float step_sigma)
{
    std::vector<Tensor> seq;
    Tensor x(Shape({dim}));
    rng.fillGaussian(x.data(), 0.0f, 1.0f);
    for (size_t t = 0; t < len; ++t) {
        for (int64_t i = 0; i < dim; ++i)
            x[i] += rng.gaussian(0.0f, step_sigma);
        seq.push_back(x);
    }
    return seq;
}

TEST(LstmCellReuse, FineQuantizationTracksReference)
{
    Rng rng(51);
    LstmCell cell(6, 5);
    initLstm(cell, rng);
    LstmCellReuseState state(cell, fineQuant(), fineQuant());

    LstmCell::State ref = cell.initialState();
    LstmCell::Workspace ws;
    LayerExecRecord rec;
    const auto seq = randomSequence(rng, 6, 12, 0.3f);
    for (const Tensor &x : seq) {
        const auto &h = state.step(x.data(), rec);
        cell.step(x.data().data(), ref, ws);
        for (size_t j = 0; j < h.size(); ++j)
            EXPECT_NEAR(h[j], ref.h[j], 2e-2f);
    }
}

TEST(LstmCellReuse, ConstantInputReusesEverythingEventually)
{
    Rng rng(52);
    LstmCell cell(4, 4);
    initLstm(cell, rng);
    LstmCellReuseState state(cell, coarseQuant(), coarseQuant(-1, 1));

    AlignedVector<float> x(4, 0.5f);
    LayerExecRecord rec{};
    // After the hidden state settles, both x and h comparisons hit.
    AlignedVector<float> h_prev;
    for (int t = 0; t < 60; ++t) {
        rec = LayerExecRecord{};
        h_prev = state.step(x, rec);
    }
    EXPECT_EQ(rec.inputsChanged, 0);
    EXPECT_EQ(rec.macsPerformed, 0);
}

TEST(LstmCellReuse, CountsXAndHChecks)
{
    Rng rng(53);
    LstmCell cell(7, 5);
    initLstm(cell, rng);
    LstmCellReuseState state(cell, coarseQuant(), coarseQuant(-1, 1));
    AlignedVector<float> x(7, 0.1f);
    LayerExecRecord rec{};
    state.step(x, rec);                   // first step: from scratch
    EXPECT_EQ(rec.inputsChecked, 0);
    rec = LayerExecRecord{};
    state.step(x, rec);                   // second step: checks x and h
    EXPECT_EQ(rec.inputsChecked, 7 + 5);
    EXPECT_EQ(rec.macsFull, cell.macCountPerStep());
}

TEST(LstmCellReuse, ResetRestartsFromScratch)
{
    Rng rng(54);
    LstmCell cell(3, 3);
    initLstm(cell, rng);
    LstmCellReuseState state(cell, coarseQuant(), coarseQuant(-1, 1));
    AlignedVector<float> x(3, 0.2f);
    LayerExecRecord rec{};
    state.step(x, rec);
    state.step(x, rec);
    state.reset();
    rec = LayerExecRecord{};
    state.step(x, rec);
    // From-scratch step performs every MAC and checks nothing.
    EXPECT_EQ(rec.inputsChecked, 0);
    EXPECT_EQ(rec.macsPerformed, cell.macCountPerStep());
}

TEST(BiLstmReuse, MatchesReferenceWithFineQuantization)
{
    Rng rng(55);
    BiLstmLayer layer("bilstm", 6, 4);
    initLstm(layer, rng);
    BiLstmReuseState state(layer, fineQuant(), fineQuant());

    const auto seq = randomSequence(rng, 6, 10, 0.3f);
    LayerExecRecord rec;
    const auto got = state.executeSequence(seq, rec);
    const auto want = layer.forwardSequence(seq);
    ASSERT_EQ(got.size(), want.size());
    for (size_t t = 0; t < got.size(); ++t)
        for (int64_t j = 0; j < got[t].numel(); ++j)
            EXPECT_NEAR(got[t][j], want[t][j], 3e-2f)
                << "t=" << t << " j=" << j;
}

TEST(BiLstmReuse, SlowSequencesShowHighSimilarity)
{
    Rng rng(56);
    BiLstmLayer layer("bilstm", 8, 6);
    initLstm(layer, rng);
    BiLstmReuseState state(layer, coarseQuant(), coarseQuant(-1, 1));

    // Nearly constant sequence: high similarity expected.
    std::vector<Tensor> seq;
    Tensor x(Shape({8}));
    rng.fillGaussian(x.data(), 0.0f, 1.0f);
    for (int t = 0; t < 20; ++t) {
        Tensor step = x;
        for (int64_t i = 0; i < 8; ++i)
            step[i] += rng.gaussian(0.0f, 0.005f);
        seq.push_back(step);
    }
    LayerExecRecord rec;
    state.executeSequence(seq, rec);
    EXPECT_GT(rec.similarity(), 0.5);
    EXPECT_GT(rec.reuseFraction(), 0.5);
    EXPECT_EQ(rec.steps, 20);
}

TEST(BiLstmReuse, AggregatesBothDirections)
{
    Rng rng(57);
    BiLstmLayer layer("bilstm", 5, 4);
    initLstm(layer, rng);
    BiLstmReuseState state(layer, coarseQuant(), coarseQuant(-1, 1));
    const auto seq = randomSequence(rng, 5, 6, 0.1f);
    LayerExecRecord rec;
    state.executeSequence(seq, rec);
    // 6 steps x 2 directions x (5 x inputs + 4 h inputs).
    EXPECT_EQ(rec.inputsTotal, 6 * 2 * (5 + 4));
    EXPECT_EQ(rec.macsFull,
              6 * 2 * 4 * (5 * 4 + 4 * 4));
    // First step of each direction is from scratch, so checked counts
    // cover the remaining 5 steps per direction.
    EXPECT_EQ(rec.inputsChecked, 5 * 2 * (5 + 4));
}

TEST(BiLstmReuse, ResetBetweenSequences)
{
    Rng rng(58);
    BiLstmLayer layer("bilstm", 4, 3);
    initLstm(layer, rng);
    BiLstmReuseState state(layer, fineQuant(), fineQuant());
    const auto seq = randomSequence(rng, 4, 5, 0.2f);
    LayerExecRecord rec1;
    const auto out1 = state.executeSequence(seq, rec1);
    state.reset();
    LayerExecRecord rec2;
    const auto out2 = state.executeSequence(seq, rec2);
    // Identical sequence after reset gives identical outputs.
    for (size_t t = 0; t < out1.size(); ++t)
        for (int64_t j = 0; j < out1[t].numel(); ++j)
            EXPECT_FLOAT_EQ(out1[t][j], out2[t][j]);
}

/** Digest of a sequence's output bits. */
uint64_t
outputDigest(const std::vector<Tensor> &outputs)
{
    uint64_t h = checksumInit();
    for (const Tensor &t : outputs)
        checksumVector(h, t.data());
    return h;
}

/** Digest of every field of a layer record (doubles by bits). */
uint64_t
recordDigest(const LayerExecRecord &rec)
{
    uint64_t h = checksumInit();
    for (const int64_t v :
         {rec.inputsChecked, rec.inputsChanged, rec.inputsNearMatched,
          rec.inputsTotal, rec.outputsTotal, rec.macsFull,
          rec.macsPerformed, rec.steps, rec.kernelExtent})
        checksumValue(h, v);
    checksumValue(h, rec.nearMatchDrift);
    checksumValue(h, rec.kind);
    checksumValue(h, rec.reuseEnabled);
    checksumValue(h, rec.firstExecution);
    return h;
}

/** EESEN's first BiLSTM (120 -> 2 x 320) and a 16-step sequence. */
struct EesenSizedCase {
    BiLstmLayer layer{"BiLSTM1", 120, 320};
    std::vector<Tensor> seq;

    EesenSizedCase()
    {
        Rng rng(61);
        initLstm(layer, rng);
        seq = randomSequence(rng, 120, 16, 0.2f);
    }
};

TEST(BiLstmThreads, EesenSizedIsBitIdenticalAcrossPoolSizes)
{
    // One direction's MACs over the sequence pass the threading
    // threshold, so pools with workers run the directions at once.
    const EesenSizedCase tc;
    ASSERT_GE(tc.layer.forwardCell().macCountPerStep() * 16,
              kernels::kDefaultParallelMacThreshold);
    uint64_t want[4] = {};
    for (const size_t workers : {size_t{0}, size_t{1}, size_t{3}}) {
        kernels::KernelThreadPool pool(workers);
        kernels::DeltaDispatch dispatch;
        dispatch.pool = &pool;
        uint64_t got[4] = {};
        got[0] = outputDigest(tc.layer.forwardSequence(tc.seq, dispatch));
        // Near-match radius 1 so the records carry drift as well.
        BiLstmReuseState state(tc.layer, coarseQuant(),
                               coarseQuant(-1, 1), 1);
        for (int pass = 0; pass < 2; ++pass) {
            LayerExecRecord rec;
            const auto out = state.executeSequence(tc.seq, rec, dispatch);
            got[1] ^= outputDigest(out) + static_cast<uint64_t>(pass);
            got[2] ^= recordDigest(rec) + static_cast<uint64_t>(pass);
            ASSERT_GT(rec.inputsNearMatched, 0);
            if (pass == 0)
                state.reset();
        }
        state.hashInto(got[3]);
        if (workers == 0) {
            std::memcpy(want, got, sizeof(want));
            continue;
        }
        EXPECT_EQ(got[0], want[0]) << workers << " workers: plain outputs";
        EXPECT_EQ(got[1], want[1]) << workers << " workers: reuse outputs";
        EXPECT_EQ(got[2], want[2]) << workers << " workers: records";
        EXPECT_EQ(got[3], want[3]) << workers << " workers: state";
    }
}

TEST(BiLstmThreads, TracedSequenceShowsBothDirectionsUnderOneFrame)
{
    const EesenSizedCase tc;
    kernels::KernelThreadPool pool(1);
    kernels::DeltaDispatch dispatch;
    dispatch.pool = &pool;
    BiLstmReuseState state(tc.layer, coarseQuant(), coarseQuant(-1, 1));
    obs::TraceRecorder &recorder = obs::TraceRecorder::instance();
    recorder.clear();
    recorder.setSampleEvery(1);
    {
        obs::FrameTraceScope frame(5, 77);
        LayerExecRecord rec;
        state.executeSequence(tc.seq, rec, dispatch);
    }
    recorder.setSampleEvery(0);
    const std::vector<obs::TraceEvent> events = recorder.snapshot();
    recorder.clear();
    // Every steady step scans x and h in each direction.
    int64_t scans = 0;
    for (const obs::TraceEvent &ev : events) {
        if (ev.kind != obs::SpanKind::LayerScan)
            continue;
        ++scans;
        EXPECT_EQ(ev.session, 5u);
        EXPECT_EQ(ev.frame, 77u);
    }
    EXPECT_EQ(scans, 2 * 2 * (16 - 1));
}

} // namespace
} // namespace reuse
