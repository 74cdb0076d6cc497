/**
 * @file
 * Parallel harness tests: envJobs parsing, parallelFor coverage,
 * nesting and serial ordering, parallel-vs-serial
 * determinism of runMany/ratioSweep/seedSweep, and the thread safety
 * of the Runner's shared baseline cache. The determinism tests pass
 * explicit job counts so they exercise real concurrency even on a
 * single-core host (where envJobs() would pick 1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "harness/pool.hh"
#include "harness/sweep.hh"
#include "workloads/masim.hh"

using namespace pact;

namespace
{

WorkloadBundle
tinyBundle(MasimPattern pat = MasimPattern::PointerChase)
{
    WorkloadBundle b;
    b.name = pat == MasimPattern::PointerChase ? "tiny-chase"
                                               : "tiny-rand";
    Rng rng(31);
    MasimParams p;
    MasimRegion r;
    r.name = "r";
    r.bytes = 8ull << 20;
    r.pattern = pat;
    p.regions = {r};
    p.ops = 200000;
    b.traces.push_back(buildMasim(b.as, 0, p, rng));
    return b;
}

/** Every observable field of two RunResults must match exactly. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.slowdownPct, b.slowdownPct); // bitwise, not NEAR
    EXPECT_EQ(a.procSlowdownPct, b.procSlowdownPct);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.stats.wallCycles, b.stats.wallCycles);
    EXPECT_EQ(a.stats.procCycles, b.stats.procCycles);
    EXPECT_EQ(a.stats.procRetired, b.stats.procRetired);
    EXPECT_EQ(a.stats.pmu.instructions, b.stats.pmu.instructions);
    EXPECT_EQ(a.stats.pmu.llcMisses, b.stats.pmu.llcMisses);
    EXPECT_EQ(a.stats.pmu.llcLoadMisses, b.stats.pmu.llcLoadMisses);
    EXPECT_EQ(a.stats.pmu.llcHits, b.stats.pmu.llcHits);
    EXPECT_EQ(a.stats.pmu.torOccupancy, b.stats.pmu.torOccupancy);
    EXPECT_EQ(a.stats.pmu.torBusy, b.stats.pmu.torBusy);
    EXPECT_EQ(a.stats.pmu.stallCycles, b.stats.pmu.stallCycles);
    EXPECT_EQ(a.stats.pmu.hintFaults, b.stats.pmu.hintFaults);
    EXPECT_EQ(a.stats.migration.promotedOps,
              b.stats.migration.promotedOps);
    EXPECT_EQ(a.stats.migration.promotedPages,
              b.stats.migration.promotedPages);
    EXPECT_EQ(a.stats.migration.demotedOps,
              b.stats.migration.demotedOps);
    EXPECT_EQ(a.stats.migration.demotedPages,
              b.stats.migration.demotedPages);
    EXPECT_EQ(a.stats.migration.failed, b.stats.migration.failed);
    EXPECT_EQ(a.stats.migration.copyCycles,
              b.stats.migration.copyCycles);
    EXPECT_EQ(a.stats.pebsEvents, b.stats.pebsEvents);
    EXPECT_EQ(a.stats.pebsDropped, b.stats.pebsDropped);
    EXPECT_EQ(a.stats.daemonTicks, b.stats.daemonTicks);
    EXPECT_EQ(a.stats.spans, b.stats.spans);
}

} // namespace

TEST(EnvJobs, DefaultsAndOverrides)
{
    unsetenv("PACT_JOBS");
    EXPECT_EQ(envJobs(3), 3u);
    EXPECT_GE(envJobs(0), 1u); // hardware_concurrency, min 1

    setenv("PACT_JOBS", "5", 1);
    EXPECT_EQ(envJobs(3), 5u);
    EXPECT_EQ(envJobs(0), 5u);

    // Non-positive or garbage values fall back to the default.
    setenv("PACT_JOBS", "0", 1);
    EXPECT_EQ(envJobs(3), 3u);
    setenv("PACT_JOBS", "squid", 1);
    EXPECT_EQ(envJobs(3), 3u);
    unsetenv("PACT_JOBS");
}

/**
 * Nested parallelFor (a parallelFor reached from a PACT_JOBS worker,
 * e.g. per-seed trace generation inside a seed sweep): every outer
 * iteration drives its own inner call. Must complete without deadlock
 * — inner workers are fresh OS threads, never the blocked outer
 * worker — with every inner index running exactly once.
 */
TEST(ParallelFor, NestedCallsDrainWithoutDeadlock)
{
    constexpr unsigned kOuter = 4;
    constexpr unsigned kInner = 3;
    constexpr std::size_t kOuterIters = kOuter * 2;
    constexpr std::size_t kInnerIters = 50;

    std::vector<std::atomic<int>> hits(kOuterIters * kInnerIters);
    std::atomic<int> onOuter{0};
    parallelFor(
        kOuterIters,
        [&](std::size_t o) {
            // The outer worker blocks joining the inner call; liveness
            // must not depend on it ever running inner work.
            const std::thread::id outerId = std::this_thread::get_id();
            parallelFor(
                kInnerIters,
                [&, o, outerId](std::size_t i) {
                    if (std::this_thread::get_id() == outerId)
                        onOuter.fetch_add(1);
                    hits[o * kInnerIters + i].fetch_add(1);
                },
                kInner);
        },
        kOuter);

    EXPECT_EQ(onOuter.load(), 0)
        << "inner iterations ran on the blocked outer worker";
    for (std::size_t k = 0; k < hits.size(); k++)
        EXPECT_EQ(hits[k].load(), 1) << "inner index " << k;
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    std::vector<int> hits(1000, 0);
    parallelFor(hits.size(), [&](std::size_t i) { hits[i]++; }, 4);
    for (std::size_t i = 0; i < hits.size(); i++)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, OneJobRunsInlineInOrder)
{
    std::vector<std::size_t> order; // safe: serial path, no threads
    parallelFor(64, [&](std::size_t i) { order.push_back(i); }, 1);
    ASSERT_EQ(order.size(), 64u);
    for (std::size_t i = 0; i < order.size(); i++)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ZeroIterationsIsANoOp)
{
    parallelFor(0, [](std::size_t) { FAIL() << "must not run"; }, 4);
}

TEST(PoolTest, BaselineCacheSafeUnderConcurrentHammer)
{
    const WorkloadBundle b = tinyBundle();
    Runner serial;
    const std::vector<Cycles> expect = serial.baseline(b);

    // Many threads race the same Runner for the same bundle: exactly
    // one computation, every caller sees the same cached vector.
    Runner shared;
    constexpr unsigned kThreads = 8;
    std::vector<const std::vector<Cycles> *> seen(kThreads * 4,
                                                  nullptr);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            for (unsigned k = 0; k < 4; k++)
                seen[t * 4 + k] = &shared.baseline(b);
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (const auto *p : seen) {
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p, seen[0]); // one cached vector, stable address
    }
    EXPECT_EQ(*seen[0], expect); // and the same runtimes as serial
}

TEST(PoolTest, RunManyMatchesSerialBitForBit)
{
    const WorkloadBundle chase = tinyBundle();
    const WorkloadBundle rnd = tinyBundle(MasimPattern::Random);

    std::vector<RunSpec> specs;
    for (const WorkloadBundle *b : {&chase, &rnd}) {
        for (const char *p : {"PACT", "Colloid"}) {
            specs.push_back({b, p, 0.3});
            specs.push_back({b, p, 0.6});
        }
    }

    Runner serialRunner, parallelRunner;
    const auto serial = runMany(serialRunner, specs, 1);
    const auto parallel = runMany(parallelRunner, specs, 4);
    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); i++)
        expectIdentical(serial[i], parallel[i]);
}

TEST(PoolTest, RatioSweepDeterministicAcrossJobCounts)
{
    const WorkloadBundle b = tinyBundle();
    const std::vector<std::string> policies = {"NoTier", "PACT"};

    Runner serialRunner, parallelRunner;
    const auto serial =
        ratioSweep(serialRunner, b, policies, paperRatios(), 1);
    const auto parallel =
        ratioSweep(parallelRunner, b, policies, paperRatios(), 4);
    ASSERT_EQ(serial.size(), policies.size());
    ASSERT_EQ(parallel.size(), policies.size());
    for (std::size_t pi = 0; pi < serial.size(); pi++) {
        ASSERT_EQ(serial[pi].size(), paperRatios().size());
        ASSERT_EQ(parallel[pi].size(), paperRatios().size());
        for (std::size_t ri = 0; ri < serial[pi].size(); ri++)
            expectIdentical(serial[pi][ri], parallel[pi][ri]);
    }
}

TEST(PoolTest, SeedSweepDeterministicAcrossJobCounts)
{
    static_assert(
        std::is_same_v<decltype(SeedStats::meanPromotions), double>,
        "meanPromotions must be fractional (no integer truncation)");

    SimConfig cfg;
    WorkloadOptions opt;
    opt.scale = 0.1;
    const SeedStats serial =
        seedSweep(cfg, "silo", opt, "PACT", 0.5, 3, 1);
    const SeedStats parallel =
        seedSweep(cfg, "silo", opt, "PACT", 0.5, 3, 4);
    EXPECT_EQ(serial.seeds, parallel.seeds);
    EXPECT_EQ(serial.meanSlowdownPct, parallel.meanSlowdownPct);
    EXPECT_EQ(serial.stddevPct, parallel.stddevPct);
    EXPECT_EQ(serial.meanPromotions, parallel.meanPromotions);
}

TEST(PoolTest, TruncatedRunsWriteFailedManifestRows)
{
    const WorkloadBundle b = tinyBundle();
    const std::vector<RunSpec> specs = {{&b, "PACT", 0.5},
                                        {&b, "NoTier", 0.5}};

    Runner healthy;
    for (const RunOutcome &o : runManyOutcomes(healthy, specs, 2)) {
        ASSERT_TRUE(o.ok);
        EXPECT_TRUE(o.result.stats.completed);
        const obs::ManifestResult m = manifestOutcome(o);
        EXPECT_TRUE(m.ok);
        EXPECT_TRUE(m.errorKind.empty());
    }

    SimConfig cfg;
    cfg.maxWallCycles = 1000000;
    Runner capped(cfg);
    for (const RunOutcome &o : runManyOutcomes(capped, specs, 2)) {
        // The run did not throw; it was cut short.
        ASSERT_TRUE(o.ok);
        const RunStats &st = o.result.stats;
        EXPECT_FALSE(st.completed);
        EXPECT_EQ(st.primaryOps, b.traces[0].size());
        EXPECT_LT(st.primaryRetired, st.primaryOps);
        EXPECT_FALSE(manifestResult(o.result).ok);

        const obs::ManifestResult m = manifestOutcome(o);
        EXPECT_FALSE(m.ok);
        EXPECT_EQ(m.errorKind, "TruncatedRun");
        EXPECT_EQ(m.fastShare, 0.5);
        for (const std::string &part :
             {std::string("maxWallCycles cap of 1000000 cycles"),
              "retiring " + std::to_string(st.primaryRetired) + " of " +
                  std::to_string(st.primaryOps) + " ops"}) {
            EXPECT_NE(m.errorMessage.find(part), std::string::npos)
                << m.errorMessage;
        }
    }
}

TEST(PoolTest, TruncatedRunWarnsOnceWithCapAndProgress)
{
    const WorkloadBundle b = tinyBundle();
    SimConfig cfg;
    cfg.maxWallCycles = 1000000;
    Runner capped(cfg);
    // The one stderr line names the cap and the run's progress, and
    // starts with the run's [bundle/policy] tag on either path.
    auto expectOneWarning = [](const std::string &err, const RunStats &st,
                               const std::string &start) {
        EXPECT_FALSE(st.completed);
        EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
        EXPECT_EQ(err.rfind("warn: " + start, 0), 0u) << err;
        for (const std::string &part :
             {std::string("maxWallCycles cap of 1000000 cycles"),
              "retiring " + std::to_string(st.primaryRetired) + " of " +
                  std::to_string(st.primaryOps) + " ops"})
            EXPECT_NE(err.find(part), std::string::npos) << err;
    };

    testing::internal::CaptureStderr();
    const RunResult direct = capped.run(b, "PACT", 0.5);
    expectOneWarning(testing::internal::GetCapturedStderr(), direct.stats,
                     "[tiny-chase/PACT] ");

    testing::internal::CaptureStderr();
    const std::vector<RunOutcome> pooled =
        runManyOutcomes(capped, {{&b, "NoTier", 0.5}}, 2);
    const std::string err = testing::internal::GetCapturedStderr();
    ASSERT_EQ(pooled.size(), 1u);
    ASSERT_TRUE(pooled[0].ok);
    expectOneWarning(err, pooled[0].result.stats, "[tiny-chase/NoTier] ");
}

TEST(PoolTest, RunCompletingExactlyAtTheCapPrintsNothing)
{
    const WorkloadBundle b = tinyBundle();
    Runner uncapped;
    const RunResult full = uncapped.run(b, "PACT", 0.5);
    ASSERT_TRUE(full.stats.completed);

    SimConfig cfg;
    cfg.maxWallCycles = full.stats.wallCycles;
    Runner capped(cfg);
    testing::internal::CaptureStderr();
    const RunResult r = capped.run(b, "PACT", 0.5);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_TRUE(r.stats.completed);
    EXPECT_EQ(r.stats.primaryRetired, r.stats.primaryOps);
    EXPECT_EQ(r.stats.wallCycles, full.stats.wallCycles);
}
