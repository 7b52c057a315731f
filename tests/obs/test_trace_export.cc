/**
 * @file
 * End-to-end trace tests: engine executions recorded by the tracer,
 * exported to Chrome trace-event JSON, parsed back with the repo's
 * JSON parser, validated against the checked-in schema, and reduced
 * to per-layer reuse numbers that must agree with the engine's own
 * ReuseStatsCollector — exactly at 1/1 sampling, within 1% sampled.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "core/reuse_engine.h"
#include "nn/activations.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"
#include "obs/trace_aggregate.h"
#include "obs/trace_exporter.h"
#include "obs/trace_recorder.h"
#include "quant/range_profiler.h"

namespace reuse {
namespace obs {
namespace {

/** MLP wide enough that per-frame similarity is statistically stable. */
struct TracedMlpFixture {
    Rng rng{71};
    Network net{"traced_mlp", Shape({32})};
    std::vector<Tensor> calib;
    NetworkRanges ranges;

    TracedMlpFixture()
    {
        net.addLayer(
            std::make_unique<FullyConnectedLayer>("FC1", 32, 48));
        net.addLayer(std::make_unique<ActivationLayer>(
            "RELU", ActivationKind::ReLU));
        net.addLayer(
            std::make_unique<FullyConnectedLayer>("FC2", 48, 16));
        initNetwork(net, rng);
        for (int i = 0; i < 10; ++i) {
            Tensor t(Shape({32}));
            rng.fillGaussian(t.data(), 0.0f, 1.0f);
            calib.push_back(t);
        }
        ranges = profileNetworkRanges(net, calib);
    }

    QuantizationPlan plan(int clusters = 128)
    {
        return makePlan(net, ranges, clusters, {0, 2});
    }

    std::vector<Tensor> stream(size_t frames, float sigma)
    {
        std::vector<Tensor> s;
        Tensor x(Shape({32}));
        rng.fillGaussian(x.data(), 0.0f, 1.0f);
        for (size_t i = 0; i < frames; ++i) {
            for (int64_t j = 0; j < 32; ++j)
                x[j] += rng.gaussian(0.0f, sigma);
            s.push_back(x);
        }
        return s;
    }
};

/** Runs `frames` as one stream through `engine`; returns its stats. */
ReuseStatsCollector
runStream(const ReuseEngine &engine, const std::vector<Tensor> &frames)
{
    ReuseState state = engine.makeState();
    ReuseStatsCollector stats = engine.makeStatsCollector();
    ExecutionTrace trace;
    for (const Tensor &in : frames) {
        engine.execute(state, in, trace);
        stats.addTrace(trace);
    }
    return stats;
}

class TraceExportTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        TraceRecorder::instance().clear();
        TraceRecorder::instance().setSampleEvery(1);
    }

    void TearDown() override
    {
        TraceRecorder::instance().setSampleEvery(0);
        TraceRecorder::instance().clear();
    }

    static JsonValue exportAndParse()
    {
        const JsonParseResult r =
            parseJson(TraceExporter::exportString());
        EXPECT_TRUE(r.ok) << r.error;
        return r.value;
    }
};

TEST_F(TraceExportTest, ExportedTraceValidatesAgainstCheckedInSchema)
{
    TracedMlpFixture f;
    ReuseEngine engine(f.net, f.plan());
    runStream(engine, f.stream(8, 0.05f));
    recordInstant(SpanKind::Eviction, -1, 1024, 2048, 0, 0, 3, 7);

    const JsonValue trace = exportAndParse();
    const JsonParseResult schema =
        parseJsonFile(REUSE_SOURCE_DIR "/tools/trace_schema.json");
    ASSERT_TRUE(schema.ok) << schema.error;

    std::string error;
    EXPECT_TRUE(validateTrace(trace, schema.value, &error)) << error;
    EXPECT_EQ(trace.at("otherData").at("sampleEvery").asInt(), 1);
    EXPECT_EQ(trace.at("otherData").at("droppedEvents").asInt(), 0);
}

TEST_F(TraceExportTest, LayerExecEventsCarryReuseArgs)
{
    TracedMlpFixture f;
    ReuseEngine engine(f.net, f.plan());
    runStream(engine, {f.calib[0], f.calib[0]});  // identical: full reuse

    const JsonValue trace = exportAndParse();
    const JsonValue::Array &events = trace.at("traceEvents").asArray();

    int steady_layer0 = 0;
    bool saw_frame_exec = false;
    for (const JsonValue &ev : events) {
        const std::string name = ev.at("name").asString();
        if (name == "frame_exec") {
            saw_frame_exec = true;
            EXPECT_EQ(ev.at("ph").asString(), "X");
            EXPECT_TRUE(ev.has("dur"));
        }
        if (name != "layer_exec")
            continue;
        const JsonValue &args = ev.at("args");
        if (args.at("layer").asInt() != 0 ||
            args.at("first").asInt() != 0)
            continue;
        ++steady_layer0;
        // Second identical frame: every input unchanged, no MACs.
        EXPECT_EQ(args.at("checked").asInt(), 32);
        EXPECT_EQ(args.at("changed").asInt(), 0);
        EXPECT_GT(args.at("macs_full").asInt(), 0);
        EXPECT_EQ(args.at("macs_performed").asInt(), 0);
        EXPECT_EQ(args.at("reuse").asInt(), 1);
    }
    EXPECT_EQ(steady_layer0, 1);
    EXPECT_TRUE(saw_frame_exec);
}

TEST_F(TraceExportTest, InstantEventsUseInstantPhase)
{
    recordInstant(SpanKind::Eviction, -1, 512, 4096, 0, 0, 9, 0);
    const JsonValue trace = exportAndParse();
    const JsonValue::Array &events = trace.at("traceEvents").asArray();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].at("name").asString(), "eviction");
    EXPECT_EQ(events[0].at("ph").asString(), "i");
    EXPECT_EQ(events[0].at("args").at("bytes").asInt(), 512);
    EXPECT_EQ(events[0].at("args").at("session").asInt(), 9);
}

TEST_F(TraceExportTest, FullSamplingMatchesEngineStatsExactly)
{
    TracedMlpFixture f;
    ReuseEngine engine(f.net, f.plan());
    const ReuseStatsCollector stats =
        runStream(engine, f.stream(48, 0.05f));

    TraceAggregate agg;
    std::string error;
    ASSERT_TRUE(aggregateTrace(exportAndParse(), &agg, &error))
        << error;
    EXPECT_EQ(agg.sampleEvery, 1u);

    const std::vector<LayerReuseStats> &layers = stats.layers();
    for (const int li : {0, 2}) {
        ASSERT_TRUE(agg.layers.count(li)) << "layer " << li;
        const LayerTraceAgg &a = agg.layers.at(li);
        const LayerReuseStats &s = layers[size_t(li)];
        // At 1/1 sampling the trace carries every steady-state span:
        // the integer sums — and hence the ratios — match exactly.
        EXPECT_EQ(a.spans, s.executions);
        EXPECT_EQ(a.inputsChecked, s.inputsChecked);
        EXPECT_EQ(a.inputsChanged, s.inputsChanged);
        EXPECT_EQ(a.macsFull, s.macsFull);
        EXPECT_EQ(a.macsPerformed, s.macsPerformed);
        EXPECT_DOUBLE_EQ(a.similarity(), s.similarity());
        EXPECT_DOUBLE_EQ(a.computationReuse(), s.computationReuse());
    }
}

TEST_F(TraceExportTest, SampledTraceAgreesWithinOnePercent)
{
    TraceRecorder::instance().setSampleEvery(4);
    TracedMlpFixture f;
    ReuseEngine engine(f.net, f.plan());
    const ReuseStatsCollector stats =
        runStream(engine, f.stream(512, 0.05f));

    TraceAggregate agg;
    std::string error;
    ASSERT_TRUE(aggregateTrace(exportAndParse(), &agg, &error))
        << error;
    EXPECT_EQ(agg.sampleEvery, 4u);

    const std::vector<LayerReuseStats> &layers = stats.layers();
    for (const int li : {0, 2}) {
        ASSERT_TRUE(agg.layers.count(li)) << "layer " << li;
        const LayerTraceAgg &a = agg.layers.at(li);
        const LayerReuseStats &s = layers[size_t(li)];
        // 128 of 512 steady frames sampled: the subset estimate must
        // sit within one point of the full-population metric.
        EXPECT_NEAR(a.similarity(), s.similarity(), 0.01);
        EXPECT_NEAR(a.computationReuse(), s.computationReuse(), 0.01);
    }
}

TEST_F(TraceExportTest, ExportFileWritesParseableJson)
{
    TracedMlpFixture f;
    ReuseEngine engine(f.net, f.plan());
    runStream(engine, {f.calib[0]});

    const std::string path = testing::TempDir() + "trace_export.json";
    ASSERT_TRUE(TraceExporter::exportFile(path));
    const JsonParseResult r = parseJsonFile(path);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.value.at("traceEvents").asArray().size(), 0u);
    std::remove(path.c_str());

    EXPECT_FALSE(TraceExporter::exportFile("/nonexistent/dir/t.json"));
}

} // namespace
} // namespace obs
} // namespace reuse
