/**
 * @file
 * Engine tests: run lifecycle, daemon cadence, colocation, penalty
 * delivery, wall-clock cap, determinism.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "mem/addr_space.hh"
#include "sim/engine.hh"

using namespace pact;

namespace
{

/** A trivial bundle: one process streaming over a buffer. */
struct Env
{
    explicit Env(std::uint64_t ops = 50000, bool dep = false)
    {
        const Addr base = as.alloc(0, "buf", 16 << 20);
        Trace t;
        t.name = "unit";
        t.proc = 0;
        for (std::uint64_t i = 0; i < ops; i++)
            t.load(base + (i * 8 % (16 << 14)) * LineBytes, dep);
        traces.push_back(std::move(t));
        cfg.fastCapacityPages = 1u << 30;
    }

    SimConfig cfg;
    AddrSpace as;
    std::vector<Trace> traces;
};

/** Counts daemon ticks. */
class TickCounter : public TieringPolicy
{
  public:
    const char *name() const override { return "ticks"; }
    void tick(SimContext &ctx) override
    {
        ticks++;
        lastNow = ctx.now;
    }
    int ticks = 0;
    Cycles lastNow = 0;
};

} // namespace

TEST(Engine, RunsToCompletion)
{
    Env env;
    Engine e(env.cfg, env.as, &env.traces, nullptr);
    const RunStats rs = e.run();
    EXPECT_EQ(rs.procRetired[0], env.traces[0].size());
    EXPECT_GT(rs.procCycles[0], 0u);
    EXPECT_GE(rs.wallCycles, 0u);
    EXPECT_TRUE(rs.completed);
}

TEST(Engine, DaemonTicksAtPeriod)
{
    Env env(200000, true); // dependent loads -> long runtime
    env.cfg.daemonPeriod = 500000;
    TickCounter counter;
    Engine e(env.cfg, env.as, &env.traces, &counter);
    const RunStats rs = e.run();
    EXPECT_EQ(static_cast<std::uint64_t>(counter.ticks), rs.daemonTicks);
    EXPECT_GT(counter.ticks, 3);
    // Ticks are spaced one period apart.
    EXPECT_NEAR(static_cast<double>(rs.wallCycles) /
                    static_cast<double>(env.cfg.daemonPeriod),
                static_cast<double>(counter.ticks), 2.0);
}

TEST(Engine, NoPolicyMeansNoTicks)
{
    Env env;
    Engine e(env.cfg, env.as, &env.traces, nullptr);
    EXPECT_EQ(e.run().daemonTicks, 0u);
}

TEST(Engine, ColocatedProcessesShareTiers)
{
    AddrSpace as;
    SimConfig cfg;
    cfg.fastCapacityPages = 1u << 30;
    const Addr a = as.alloc(0, "a", 4 << 20);
    const Addr b = as.alloc(1, "b", 4 << 20);
    std::vector<Trace> traces(2);
    traces[0].proc = 0;
    traces[1].proc = 1;
    for (int i = 0; i < 50000; i++) {
        traces[0].load(a + (i % 65536) * LineBytes);
        traces[1].load(b + (i % 65536) * LineBytes);
    }
    Engine e(cfg, as, &traces, nullptr);
    const RunStats rs = e.run();
    ASSERT_EQ(rs.procCycles.size(), 2u);
    EXPECT_GT(rs.procCycles[0], 0u);
    EXPECT_GT(rs.procCycles[1], 0u);

    // Solo run of the same trace is faster than the contended run.
    std::vector<Trace> solo = {traces[0]};
    Engine e2(cfg, as, &solo, nullptr);
    EXPECT_LT(e2.run().procCycles[0], rs.procCycles[0]);
}

TEST(Engine, LoopingCorunnerDoesNotBlockCompletion)
{
    AddrSpace as;
    SimConfig cfg;
    const Addr a = as.alloc(0, "a", 1 << 20);
    std::vector<Trace> traces(2);
    traces[0].proc = 0;
    for (int i = 0; i < 20000; i++)
        traces[0].load(a + (i % 1024) * LineBytes);
    traces[1].proc = 1;
    traces[1].loop = true;
    traces[1].load(a);
    Engine e(cfg, as, &traces, nullptr);
    const RunStats rs = e.run();
    EXPECT_EQ(rs.procRetired[0], 20000u);
    EXPECT_GT(rs.procRetired[1], 0u);
}

TEST(EngineDeath, AllLoopingIsFatal)
{
    AddrSpace as;
    SimConfig cfg;
    as.alloc(0, "a", 1 << 20);
    std::vector<Trace> traces(1);
    traces[0].loop = true;
    try {
        Engine e(cfg, as, &traces, nullptr);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("loop"),
                  std::string::npos);
    }
}

TEST(Engine, MaxWallCyclesCutsRunShort)
{
    Env env(2000000, true);
    env.cfg.maxWallCycles = 2000000;
    Engine e(env.cfg, env.as, &env.traces, nullptr);
    const RunStats rs = e.run();
    EXPECT_LE(rs.wallCycles, env.cfg.maxWallCycles + env.cfg.slice);
    EXPECT_LT(rs.procRetired[0], env.traces[0].size());
    EXPECT_FALSE(rs.completed);
}

TEST(Engine, DeterministicAcrossRuns)
{
    auto once = [] {
        Env env(100000, false);
        Engine e(env.cfg, env.as, &env.traces, nullptr);
        const RunStats rs = e.run();
        return std::tuple(rs.procCycles[0], rs.pmu.llcMisses[0],
                          rs.pmu.torOccupancy[0]);
    };
    EXPECT_EQ(once(), once());
}

TEST(Engine, SnapshotMatchesFinalRun)
{
    Env env;
    Engine e(env.cfg, env.as, &env.traces, nullptr);
    const RunStats rs = e.run();
    const RunStats snap = e.snapshot();
    EXPECT_EQ(rs.procCycles[0], snap.procCycles[0]);
    EXPECT_EQ(rs.pmu.instructions, snap.pmu.instructions);
}

TEST(Engine, RunUntilIsIncremental)
{
    Env env(500000, true);
    Engine e(env.cfg, env.as, &env.traces, nullptr);
    EXPECT_TRUE(e.runUntil(1000000));
    const Cycles mid = e.now();
    EXPECT_GE(mid, 1000000u);
    while (e.runUntil(e.now() + 50000000)) {
    }
    EXPECT_GT(e.now(), mid);
    EXPECT_EQ(e.snapshot().procRetired[0], env.traces[0].size());
}

TEST(Engine, ChargeCopyAdvancesBothTiers)
{
    Env env;
    Engine e(env.cfg, env.as, &env.traces, nullptr);
    const Cycles cost =
        e.chargeCopy(TierId::Slow, TierId::Fast, PageBytes);
    // 64 lines at the slower tier's service rate plus its latency.
    EXPECT_GT(cost, nsToCycles(190));
    EXPECT_GT(e.context().tiers[0]->cursor(), 0.0);
    EXPECT_GT(e.context().tiers[1]->cursor(), 0.0);
}
