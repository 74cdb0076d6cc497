/**
 * @file
 * Baseline-policy tests: registry coverage, characteristic behaviours
 * (TPP's migration volume, Nomad's aborts, Memtis's threshold and
 * cooling, Colloid's budget response, Soar's static placement), and a
 * parameterized capacity/consistency sweep over every policy.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "harness/runner.hh"
#include "policies/colloid.hh"
#include "policies/memtis.hh"
#include "policies/nomad.hh"
#include "policies/registry.hh"
#include "policies/soar.hh"
#include "policies/tpp.hh"
#include "workloads/masim.hh"
#include "workloads/registry.hh"

using namespace pact;

namespace
{

WorkloadBundle
smallChase()
{
    WorkloadBundle b;
    b.name = "chase-unit";
    Rng rng(23);
    MasimParams p;
    MasimRegion r;
    r.name = "chase";
    r.bytes = 16ull << 20;
    r.pattern = MasimPattern::PointerChase;
    p.regions = {r};
    p.ops = 400000;
    b.traces.push_back(buildMasim(b.as, 0, p, rng));
    return b;
}

} // namespace

TEST(PolicyRegistry, MakesEveryKnownPolicy)
{
    for (const std::string &name : allPolicyNames()) {
        auto p = makePolicy(name);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_STREQ(p->name(), name.c_str());
    }
    // Variants resolve too.
    EXPECT_NE(makePolicy("PACT-freq"), nullptr);
    EXPECT_NE(makePolicy("PACT-static"), nullptr);
    EXPECT_NE(makePolicy("PACT-adaptive"), nullptr);
    EXPECT_NE(makePolicy("PACT-cool-halve"), nullptr);
    EXPECT_NE(makePolicy("PACT-cool-reset"), nullptr);
}

TEST(PolicyRegistryDeath, UnknownPolicyThrows)
{
    try {
        makePolicy("nonsense");
        FAIL() << "expected PolicyError";
    } catch (const PolicyError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown policy"),
                  std::string::npos);
    }
}

TEST(PolicyBehaviour, TppMigratesMoreThanPact)
{
    const WorkloadBundle b = smallChase();
    Runner run;
    const RunResult tpp = run.run(b, "TPP", 0.5);
    const RunResult pact = run.run(b, "PACT", 0.5);
    EXPECT_GT(tpp.stats.promotions() + tpp.stats.demotions(),
              pact.stats.promotions() + pact.stats.demotions());
    EXPECT_GT(tpp.stats.pmu.hintFaults, 0u);
    EXPECT_EQ(pact.stats.pmu.hintFaults, 0u); // PACT uses PEBS only
}

TEST(PolicyBehaviour, NomadChargesAbortsAndShadows)
{
    const WorkloadBundle b = smallChase();
    Runner run;
    NomadConfig cfg;
    cfg.abortProbability = 0.9; // force visible aborts
    NomadPolicy pol(cfg);
    const RunResult r = run.runWith(b, pol, 0.5, "Nomad");
    EXPECT_GT(r.stats.migration.failed, 0u);
    EXPECT_GT(r.stats.pmu.hintFaults, 0u);
}

TEST(PolicyBehaviour, NomadRateLimitHolds)
{
    const WorkloadBundle b = smallChase();
    Runner run;
    NomadConfig cfg;
    cfg.commitBudget = 4;
    NomadPolicy pol(cfg);
    const RunResult r = run.runWith(b, pol, 0.5, "Nomad");
    EXPECT_LE(r.stats.promotions(), 4 * r.stats.daemonTicks + 4);
}

TEST(PolicyBehaviour, MemtisCoolingHalvesCounts)
{
    const WorkloadBundle b = smallChase();
    Runner run;
    MemtisConfig fast;
    fast.coolingPeriod = 2;
    MemtisPolicy polFast(fast);
    const RunResult rf = run.runWith(b, polFast, 0.5, "memtis-cool");
    // With aggressive cooling counts stay low -> threshold stays low,
    // but the run must still complete and migrate something.
    EXPECT_GT(rf.stats.promotions(), 0u);
    EXPECT_GE(polFast.hotThreshold(), 1u);
}

TEST(PolicyBehaviour, ColloidBudgetRespondsToImbalance)
{
    const WorkloadBundle b = smallChase();
    Runner run;
    // Small fast tier: the slow tier dominates latency, so Colloid
    // promotes aggressively.
    const RunResult tight = run.run(b, "Colloid", 0.2);
    // All-fast: nothing to promote.
    const RunResult loose = run.run(b, "Colloid", 1.0);
    EXPECT_GT(tight.stats.promotions(), loose.stats.promotions());
}

TEST(PolicyBehaviour, AltoPromotesNoMoreThanColloid)
{
    // Alto gates Colloid's budget by MLP, so on a high-MLP random
    // workload it must not exceed Colloid's migration volume.
    WorkloadBundle b;
    b.name = "rand-unit";
    Rng rng(29);
    MasimParams p;
    MasimRegion r;
    r.name = "rand";
    r.bytes = 16ull << 20;
    r.pattern = MasimPattern::Random;
    p.regions = {r};
    p.ops = 400000;
    b.traces.push_back(buildMasim(b.as, 0, p, rng));

    Runner run;
    const RunResult colloid = run.run(b, "Colloid", 0.3);
    const RunResult alto = run.run(b, "Alto", 0.3);
    EXPECT_LE(alto.stats.promotions(),
              colloid.stats.promotions() + 64);
}

TEST(PolicyBehaviour, SoarPlacesCriticalObjectsStatically)
{
    const WorkloadBundle b =
        makeWorkload("pac-inversion", {0.25, false, 7});
    SimConfig cfg;
    const auto prof = soarProfile(cfg, b.as, b.traces);
    ASSERT_EQ(prof.size(), b.as.objects().size());

    // The chase region must profile as more critical per byte.
    double chaseDensity = 0.0, hotDensity = 0.0;
    for (const auto &p : prof) {
        if (p.name == "inv.cold-chase")
            chaseDensity = p.density();
        if (p.name == "inv.hot-random")
            hotDensity = p.density();
    }
    EXPECT_GT(chaseDensity, 0.0);
    EXPECT_GT(chaseDensity, hotDensity);

    // Plan with room for only the smaller region.
    const auto plan = soarPlan(
        prof, b.as.objects()[0].pages() + 8); // hot-random fits
    EXPECT_FALSE(plan.empty());

    // Static execution performs zero migrations.
    Runner run;
    SoarPolicy pol(plan);
    const RunResult r = run.runWith(b, pol, 0.4, "Soar");
    EXPECT_EQ(r.stats.promotions(), 0u);
    EXPECT_EQ(r.stats.demotions(), 0u);
}

TEST(PolicyBehaviour, SoarSkipsObjectsTooBigToFit)
{
    std::vector<SoarObjectProfile> prof(2);
    prof[0].object = 0;
    prof[0].bytes = 100 * PageBytes;
    prof[0].samples = 1000;
    prof[0].aol = 1e6; // extremely critical but too big
    prof[1].object = 1;
    prof[1].bytes = 10 * PageBytes;
    prof[1].samples = 100;
    prof[1].aol = 1e3;
    const auto plan = soarPlan(prof, 20);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0], 1u);
}

TEST(PolicyBehaviour, NoTierNeverMigrates)
{
    const WorkloadBundle b = smallChase();
    Runner run;
    const RunResult r = run.run(b, "NoTier", 0.5);
    EXPECT_EQ(r.stats.promotions(), 0u);
    EXPECT_EQ(r.stats.demotions(), 0u);
    EXPECT_EQ(r.stats.pmu.hintFaults, 0u);
}

// ---------------------------------------------------------------
// Parameterized consistency sweep: every policy, two ratios.
// ---------------------------------------------------------------

using AllPolicies = ::testing::TestWithParam<std::tuple<std::string, double>>;

TEST_P(AllPolicies, CompletesWithConsistentAccounting)
{
    const auto &[name, share] = GetParam();
    const WorkloadBundle b = smallChase();
    Runner run;
    const RunResult r = run.run(b, name, share);

    // The workload retired fully.
    EXPECT_EQ(r.stats.procRetired[0], b.traces[0].size());
    // Migration accounting is self-consistent.
    EXPECT_GE(r.stats.migration.promotedPages,
              r.stats.migration.promotedOps);
    EXPECT_GE(r.stats.migration.demotedPages,
              r.stats.migration.demotedOps);
    // Slowdown is sane (not NaN / wildly negative).
    EXPECT_GT(r.slowdownPct, -5.0);
    EXPECT_LT(r.slowdownPct, 5000.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllPolicies,
    ::testing::Combine(::testing::Values("NoTier", "TPP", "NBT",
                                         "Memtis", "Colloid", "Nomad",
                                         "Alto", "Soar", "PACT",
                                         "PACT-freq"),
                       ::testing::Values(0.3, 0.7)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           (std::get<1>(info.param) < 0.5 ? "tight"
                                                          : "roomy");
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(PolicyBehaviour, MemtisBudgetBoundsMigrationVolume)
{
    const WorkloadBundle b = smallChase();
    Runner run;
    MemtisConfig tight;
    tight.migrateBudgetFraction = 1.0 / 64.0;
    MemtisPolicy polTight(tight);
    const RunResult rt = run.runWith(b, polTight, 0.3, "memtis-tight");

    MemtisConfig loose;
    loose.migrateBudgetFraction = 4.0;
    MemtisPolicy polLoose(loose);
    const RunResult rl = run.runWith(b, polLoose, 0.3, "memtis-loose");
    EXPECT_LE(rt.stats.migration.promotedPages,
              rl.stats.migration.promotedPages + 64);
}

TEST(PolicyBehaviour, ColloidBacksOffOnUnbalanceableWorkloads)
{
    // Uniform-random access cannot be balanced by migration; the
    // control loop must decay the budget instead of churning forever.
    WorkloadBundle b;
    b.name = "uniform-unit";
    Rng rng(37);
    MasimParams p;
    MasimRegion r;
    r.name = "u";
    r.bytes = 24ull << 20;
    r.pattern = MasimPattern::Random;
    p.regions = {r};
    p.ops = 600000;
    b.traces.push_back(buildMasim(b.as, 0, p, rng));

    Runner run;
    const RunResult res = run.run(b, "Colloid", 0.5);
    // Bounded churn: promotions stay well below one-per-page-per-tick.
    EXPECT_LT(res.stats.promotions(),
              res.stats.daemonTicks * 512 + 4096);
}

TEST(PolicyBehaviour, RegistryMakesLittlesLawVariant)
{
    EXPECT_NE(makePolicy("PACT-littleslaw"), nullptr);
}

// ---------------------------------------------------------------------
// Long-run tracking bounds: policy-side page maps must not grow with
// every page ever faulted/sampled over the run, only with the live
// working set (the unbounded-growth bugfix regression tests).
// ---------------------------------------------------------------------

TEST(LongRunBounds, TwoTouchFilterPruneBoundsTracking)
{
    TwoTouchFilter filter(4);
    // A phase-shifting workload: every tick faults 16 pages nobody
    // faults again. Without pruning the map retains all of them.
    PageId next = 0;
    for (std::uint64_t tick = 1; tick <= 5000; tick++) {
        for (int i = 0; i < 16; i++)
            filter.touch(next++, tick);
        filter.prune(tick);
        // At most the pages faulted within the hot window survive.
        ASSERT_LE(filter.tracked(), 16u * 5u) << "tick " << tick;
    }
    EXPECT_EQ(next, 5000u * 16u); // 80k distinct pages seen, ~80 kept

    // Prune invisibility: a stale entry and an absent one answer the
    // next touch identically.
    TwoTouchFilter pruned(4);
    TwoTouchFilter kept(4);
    pruned.touch(7, 10);
    kept.touch(7, 10);
    pruned.prune(100); // stale (100 - 10 > 4) -> erased
    EXPECT_FALSE(pruned.touch(7, 100));
    EXPECT_FALSE(kept.touch(7, 100));
    EXPECT_TRUE(pruned.touch(7, 101));
    EXPECT_TRUE(kept.touch(7, 101));
}

namespace
{

/** Fixed-cost copy backend for driving MigrationEngine directly. */
class FlatTestBackend final : public MigrationBackend
{
  public:
    Cycles
    chargeCopy(TierId, TierId, std::uint64_t bytes) override
    {
        return 100 + bytes / 64;
    }
};

} // namespace

TEST(LongRunBounds, MemtisCoolingPrunesAbandonedUnits)
{
    // Drive the Memtis daemon directly with a working set that shifts
    // every phase: units from abandoned phases must cool away instead
    // of accumulating forever.
    SimConfig cfg;
    const std::uint64_t pages = 1 << 16;
    cfg.fastCapacityPages = pages / 2;
    AddrSpace as;
    const Addr base = as.alloc(0, "buf", pages << PageShift);
    const PageId first = pageOf(base);
    TierManager tm(as.totalPages(), cfg.fastCapacityPages);
    LruLists lru(as.totalPages());
    for (PageId p = first; p < first + pages; p++)
        lru.insert(p, tm.touch(p, 0, false), tm);
    Pmu pmu;
    PebsSampler pebs(cfg.pebs);
    pebs.setRate(1);
    FlatTestBackend backend;
    MigrationEngine mig(tm, lru, backend, cfg.migration, 1);
    Tier fast(TierId::Fast, cfg.fast);
    Tier slow(TierId::Slow, cfg.slow);
    Rng rng(41);
    SimContext ctx{cfg,           0, pmu, pebs, tm, lru, mig, as,
                   {&fast, &slow},   rng};

    MemtisConfig mcfg;
    mcfg.coolingPeriod = 8;
    MemtisPolicy pol(mcfg);

    const std::uint64_t phaseLen = 64;   // ticks per working set
    const std::uint64_t setPages = 512;  // live working set
    std::size_t maxTracked = 0;
    std::uint64_t distinct = 0;
    for (std::uint64_t tick = 0; tick < 40 * phaseLen; tick++) {
        const std::uint64_t phase = tick / phaseLen;
        const PageId lo =
            first + (phase * setPages) % (pages - setPages);
        if (tick % phaseLen == 0)
            distinct += setPages;
        for (int i = 0; i < 256; i++) {
            const PageId p = lo + rng.below(setPages);
            pebs.onLoadMiss(static_cast<Addr>(p) << PageShift,
                            TierId::Slow, 300, 0);
        }
        ctx.now += cfg.daemonPeriod;
        pol.tick(ctx);
        maxTracked = std::max(maxTracked, pol.tracked());
    }
    // Cumulative distinct units: ~20k. The map must stay bounded by
    // the live set plus cooling lag, far below the cumulative count.
    EXPECT_GT(distinct, 16000u);
    EXPECT_LE(maxTracked, 4u * setPages)
        << "units_ grew with history, not the working set";
    EXPECT_LE(pol.tracked(), 4u * setPages);
}
