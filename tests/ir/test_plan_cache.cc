/** @file Unit and concurrency tests for the process-wide plan cache.
 *
 *  The racing tests run under TSan in CI (ctest labels them tier1;
 *  the tsan job builds and runs this binary explicitly), so they
 *  double as data-race checks on PlanCache and on concurrent
 *  multi-model engine construction.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/reuse_engine.h"
#include "ir/plan_cache.h"
#include "nn/activations.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"
#include "quant/range_profiler.h"
#include "serve/streaming_server.h"

namespace reuse {
namespace ir {
namespace {

/** Small random MLP + plan, distinct per (name, seed). */
struct Model {
    std::unique_ptr<Network> net;
    QuantizationPlan plan;
    Tensor frame{Shape({6})};

    Model(const std::string &name, uint64_t seed, int64_t hidden = 10)
    {
        Rng rng(seed);
        net = std::make_unique<Network>(name, Shape({6}));
        net->addLayer(std::make_unique<FullyConnectedLayer>(
            "FC1", 6, hidden));
        net->addLayer(std::make_unique<ActivationLayer>(
            "RELU", ActivationKind::ReLU));
        net->addLayer(std::make_unique<FullyConnectedLayer>(
            "FC2", hidden, 4));
        initNetwork(*net, rng);
        std::vector<Tensor> calib;
        for (int i = 0; i < 8; ++i) {
            Tensor t(Shape({6}));
            rng.fillGaussian(t.data(), 0.0f, 1.0f);
            calib.push_back(t);
        }
        plan = makePlan(*net, profileNetworkRanges(*net, calib), 128,
                        {0, 2});
        frame = calib[0];
    }
};

TEST(PlanCacheTest, SameModelSharesOnePlan)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();
    Model m("cache-same", 11);
    const PlanCache::Stats before = cache.stats();
    const auto a = cache.getOrCompile(*m.net, m.plan);
    const auto b = cache.getOrCompile(*m.net, m.plan);
    EXPECT_EQ(a.get(), b.get());
    const PlanCache::Stats after = cache.stats();
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_GE(after.size, 1u);
}

TEST(PlanCacheTest, OptionsAreCacheKey)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();
    Model m("cache-options", 13);
    CompileOptions unfused;
    unfused.fuseActivations = false;
    const auto a = cache.getOrCompile(*m.net, m.plan);
    const auto b = cache.getOrCompile(*m.net, m.plan, unfused);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->fusedCount(), 1u);
    EXPECT_EQ(b->fusedCount(), 0u);
}

TEST(PlanCacheTest, EnginesShareTheCachedPlan)
{
    PlanCache::instance().clear();
    Model m("cache-engines", 17);
    ReuseEngine a(*m.net, m.plan);
    ReuseEngine b(*m.net, m.plan);
    EXPECT_EQ(a.compiledPlanPtr().get(), b.compiledPlanPtr().get());
}

TEST(PlanCacheTest, LruEvictionRespectsCapacity)
{
    PlanCache &cache = PlanCache::instance();
    cache.clear();
    const size_t saved = cache.capacity();
    cache.setCapacity(2);
    Model m1("evict-1", 19), m2("evict-2", 23), m3("evict-3", 29);
    const auto p1 = cache.getOrCompile(*m1.net, m1.plan);
    cache.getOrCompile(*m2.net, m2.plan);
    cache.getOrCompile(*m3.net, m3.plan);
    EXPECT_LE(cache.stats().size, 2u);
    // Evicted plans stay alive for holders of the shared_ptr.
    EXPECT_TRUE(p1->valid());
    cache.setCapacity(saved);
    cache.clear();
}

TEST(PlanCacheTest, RacingTwoModelEngineConstruction)
{
    // Two distinct models, many threads racing session (engine)
    // creation through the shared cache — the multi-model serving
    // pattern.  Each model must compile exactly once.
    PlanCache &cache = PlanCache::instance();
    cache.clear();
    Model ma("race-a", 31, 10), mb("race-b", 37, 14);
    const PlanCache::Stats before = cache.stats();

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const CompiledPlan>> plans(kThreads);
    std::vector<Tensor> outputs(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Model &m = (t % 2 == 0) ? ma : mb;
            ReuseEngine engine(*m.net, m.plan);
            plans[t] = engine.compiledPlanPtr();
            ReuseState state = engine.makeState();
            ExecutionTrace trace;
            outputs[t] = engine.execute(state, m.frame, trace);
        });
    }
    for (std::thread &t : threads)
        t.join();

    const PlanCache::Stats after = cache.stats();
    EXPECT_EQ(after.misses, before.misses + 2);
    EXPECT_EQ(after.hits, before.hits + kThreads - 2);
    for (int t = 2; t < kThreads; ++t) {
        EXPECT_EQ(plans[t].get(), plans[t - 2].get())
            << "thread " << t;
        for (int64_t j = 0; j < outputs[t].numel(); ++j)
            EXPECT_EQ(outputs[t][j], outputs[t - 2][j]);
    }
}

TEST(PlanCacheTest, RacingTwoModelSessionCreation)
{
    // Full serving path: engines for two models built on racing
    // threads (the cache-miss race), then one zoo server with
    // sessions opened and driven from racing threads.
    PlanCache::instance().clear();
    Model ma("serve-a", 41, 10), mb("serve-b", 43, 12);

    std::vector<std::unique_ptr<ReuseEngine>> engines(4);
    std::vector<std::thread> builders;
    for (size_t t = 0; t < engines.size(); ++t) {
        builders.emplace_back([&, t] {
            Model &m = (t % 2 == 0) ? ma : mb;
            engines[t] = std::make_unique<ReuseEngine>(*m.net, m.plan);
        });
    }
    for (std::thread &t : builders)
        t.join();
    EXPECT_EQ(PlanCache::instance().stats().size, 2u);

    StreamingServer::Config cfg;
    cfg.workerThreads = 2;
    StreamingServer server({{"a", engines[0].get()},
                            {"b", engines[1].get()}},
                           cfg);
    constexpr int kSessions = 8;
    std::vector<std::thread> threads;
    for (int t = 0; t < kSessions; ++t) {
        threads.emplace_back([&, t] {
            Model &m = (t % 2 == 0) ? ma : mb;
            const SessionId id =
                server.openSession(t % 2 == 0 ? "a" : "b",
                                   static_cast<uint64_t>(t));
            server.submitFrame(id, m.frame).wait();
        });
    }
    for (std::thread &t : threads)
        t.join();
    server.drain();
}

} // namespace
} // namespace ir
} // namespace reuse
