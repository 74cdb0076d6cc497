/**
 * @file
 * End-to-end integration and property tests reproducing the paper's
 * core claims at unit scale: the stall model (Eq. 1), MLP semantics,
 * criticality-vs-frequency placement, THP migration, colocation, and
 * cross-policy ordering.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hh"
#include "harness/runner.hh"
#include "pact/pact_policy.hh"
#include "workloads/masim.hh"
#include "workloads/mlc.hh"
#include "workloads/registry.hh"

using namespace pact;

namespace
{

WorkloadBundle
patternBundle(MasimPattern pat, std::uint64_t ops = 250000,
              std::uint16_t gap = 0)
{
    WorkloadBundle b;
    b.name = "pattern";
    Rng rng(41);
    MasimParams p;
    MasimRegion r;
    r.name = "r";
    r.bytes = 16ull << 20;
    r.pattern = pat;
    r.gap = gap;
    p.regions = {r};
    p.ops = ops;
    b.traces.push_back(buildMasim(b.as, 0, p, rng));
    return b;
}

} // namespace

TEST(Integration, StallModelBeatsRawMissCount)
{
    // Mini Figure 2: across pattern/gap configs, k*misses/MLP
    // correlates with measured slow-tier stalls better than misses.
    std::vector<double> misses, model, stalls;
    Runner run;
    int cfgId = 0;
    for (MasimPattern pat :
         {MasimPattern::Sequential, MasimPattern::Random,
          MasimPattern::PointerChase}) {
        for (std::uint16_t gap : {0, 8, 32}) {
            WorkloadBundle b = patternBundle(pat, 150000, gap);
            b.name = "sm-" + std::to_string(cfgId++);
            const RunResult r = run.run(b, "NoTier", 0.0);
            const auto &p = r.stats.pmu;
            const double m =
                static_cast<double>(p.llcLoadMisses[1]);
            const double mlp = std::max(
                1.0, Pmu::mlp(p.torOccupancy[1], p.torBusy[1]));
            misses.push_back(m);
            model.push_back(m / mlp);
            stalls.push_back(static_cast<double>(p.stallCycles[1]));
        }
    }
    const double rModel = stats::pearson(model, stalls);
    const double rMisses = stats::pearson(misses, stalls);
    EXPECT_GT(rModel, 0.97);
    EXPECT_GT(rModel, rMisses);
}

TEST(Integration, MlpSeparatesPatterns)
{
    Runner run;
    auto mlpOf = [&](MasimPattern pat) {
        WorkloadBundle b = patternBundle(pat);
        b.name = pat == MasimPattern::PointerChase ? "mc" : "mr";
        const RunResult r = run.run(b, "NoTier", 0.0);
        return Pmu::mlp(r.stats.pmu.torOccupancy[1],
                        r.stats.pmu.torBusy[1]);
    };
    const double chase = mlpOf(MasimPattern::PointerChase);
    const double random = mlpOf(MasimPattern::Random);
    EXPECT_NEAR(chase, 1.0, 0.1);
    EXPECT_GT(random, 8.0);
}

TEST(Integration, PactBeatsNoTierOnGraphWorkload)
{
    const WorkloadBundle b =
        makeWorkload("bc-kron", {0.25, false, 42});
    Runner run;
    const RunResult pact = run.run(b, "PACT", 0.5);
    const RunResult none = run.run(b, "NoTier", 0.5);
    EXPECT_LT(pact.slowdownPct, none.slowdownPct);
}

TEST(Integration, PactBeatsFrequencyOnInversionWorkload)
{
    // The paper's §5.6 claim: at comparable migration volume,
    // criticality-first placement beats frequency-first when
    // frequency and criticality disagree.
    const WorkloadBundle b =
        makeWorkload("pac-inversion", {0.5, false, 42});
    Runner run;
    const RunResult pact = run.run(b, "PACT", 0.4);
    const RunResult freq = run.run(b, "PACT-freq", 0.4);
    EXPECT_LT(pact.slowdownPct, freq.slowdownPct);
}

TEST(Integration, PactMigratesLessThanKernelPolicies)
{
    const WorkloadBundle b =
        makeWorkload("bc-kron", {0.25, false, 42});
    Runner run;
    const RunResult pact = run.run(b, "PACT", 0.5);
    const RunResult tpp = run.run(b, "TPP", 0.5);
    const RunResult colloid = run.run(b, "Colloid", 0.5);
    EXPECT_LT(pact.stats.promotions(), tpp.stats.promotions());
    EXPECT_LE(pact.stats.promotions(),
              2 * colloid.stats.promotions() + 64);
}

TEST(Integration, ThpMigratesWholeHugeRegions)
{
    const WorkloadBundle b = makeWorkload("gups", {0.25, true, 42});
    Runner run;
    const RunResult r = run.run(b, "PACT", 0.5);
    const auto &mig = r.stats.migration;
    if (mig.promotedOps > 0) {
        // Huge-page ops move 512 subpages each.
        EXPECT_EQ(mig.promotedPages % PagesPerHugePage, 0u);
        EXPECT_EQ(mig.promotedPages,
                  mig.promotedOps * PagesPerHugePage);
    }
    EXPECT_EQ(r.stats.procRetired[0], b.traces[0].size());
}

TEST(Integration, ColocationIsolatesPerProcessSlowdowns)
{
    const WorkloadBundle b =
        makeWorkload("masim-coloc", {0.25, false, 42});
    Runner run;
    const RunResult r = run.run(b, "PACT", 0.5);
    ASSERT_EQ(r.procSlowdownPct.size(), 2u);
    // Both processes completed and have meaningful slowdowns.
    EXPECT_GT(r.stats.procRetired[0], 0u);
    EXPECT_GT(r.stats.procRetired[1], 0u);
}

TEST(Integration, BandwidthContentionInflatesSlowdown)
{
    // An MLC-style co-runner on the fast tier must hurt the primary
    // (Figure 11's mechanism).
    WorkloadBundle alone = makeWorkload("bc-kron", {0.25, false, 42});
    Runner run;
    const RunResult base = run.run(alone, "NoTier", 0.5);

    WorkloadBundle noisy = makeWorkload("bc-kron", {0.25, false, 42});
    noisy.name = "bc-kron+mlc";
    MlcParams mp;
    mp.bufferBytes = 4 << 20;
    mp.ops = 200000;
    mp.threads = 8;
    Trace mlc = buildMlc(noisy.as, 1, mp);
    noisy.traces.push_back(std::move(mlc));
    // Hold the primary's fast capacity constant: the hog's buffer
    // inflates the bundle RSS the share is computed against.
    const double share = 0.5 * static_cast<double>(alone.rssPages()) /
                         static_cast<double>(noisy.rssPages());
    const RunResult loud = run.run(noisy, "NoTier", share);
    EXPECT_GT(loud.runtime, base.runtime);
}

TEST(Integration, DeterministicEndToEnd)
{
    auto once = [] {
        const WorkloadBundle b =
            makeWorkload("silo", {0.15, false, 42});
        Runner run;
        const RunResult r = run.run(b, "PACT", 0.5);
        return std::tuple(r.runtime, r.stats.promotions(),
                          r.stats.pmu.llcMisses[1]);
    };
    EXPECT_EQ(once(), once());
}

TEST(Integration, CxlLineIsWorstCaseForNoTier)
{
    const WorkloadBundle b = patternBundle(MasimPattern::PointerChase);
    Runner run;
    const RunResult allSlow = run.run(b, "NoTier", 0.0);
    const RunResult half = run.run(b, "NoTier", 0.5);
    EXPECT_GT(allSlow.slowdownPct, half.slowdownPct);
}

// Property sweep: PACT's capacity + accounting invariants across
// ratios and workloads.
using PactInvariants = ::testing::TestWithParam<std::tuple<std::string, double>>;

TEST_P(PactInvariants, HoldAcrossRatiosAndWorkloads)
{
    const auto &[workload, share] = GetParam();
    const WorkloadBundle b = makeWorkload(workload, {0.15, false, 42});
    Runner run;
    PactPolicy pol;
    const RunResult r = run.runWith(b, pol, share, "PACT");

    // The run retired everything.
    EXPECT_EQ(r.stats.procRetired[0], b.traces[0].size());
    // PAC values are non-negative and finite.
    pol.table().forEach([](const PacEntry &e) {
        EXPECT_GE(e.pac, 0.0f);
        EXPECT_TRUE(std::isfinite(e.pac));
    });
    // Promotion/demotion ops never exceed page counts.
    EXPECT_LE(r.stats.migration.promotedOps,
              r.stats.migration.promotedPages);
    // TOR busy <= occupancy on both tiers (MLP >= 1).
    for (unsigned t = 0; t < NumTiers; t++) {
        EXPECT_LE(r.stats.pmu.torBusy[t],
                  r.stats.pmu.torOccupancy[t]);
    }
    // PEBS only saw slow-tier loads.
    EXPECT_LE(r.stats.pebsEvents,
              r.stats.pmu.llcLoadMisses[tierIndex(TierId::Slow)]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PactInvariants,
    ::testing::Combine(::testing::Values("gups", "silo", "xz",
                                         "deepsjeng"),
                       ::testing::Values(0.2, 0.5, 0.8)),
    [](const auto &info) {
        const auto share =
            static_cast<int>(std::get<1>(info.param) * 10);
        return std::get<0>(info.param) + "_s" + std::to_string(share);
    });
