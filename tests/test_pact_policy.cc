/**
 * @file
 * PACT policy tests: Algorithm 1 attribution, criticality ordering,
 * eager-demotion balance, quarantine, cooling modes, profile-only
 * mode, and ranking modes — exercised through small end-to-end runs.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hh"
#include "harness/runner.hh"
#include "pact/pact_policy.hh"
#include "workloads/masim.hh"
#include "workloads/registry.hh"

using namespace pact;

namespace
{

/** Streaming region + pointer-chase region (the Figure 1a setup). */
WorkloadBundle
mixedBundle(std::uint64_t ops = 600000)
{
    WorkloadBundle b;
    b.name = "mixed-unit";
    Rng rng(17);
    MasimParams p;
    MasimRegion seq;
    seq.name = "seq";
    seq.bytes = 8ull << 20;
    seq.pattern = MasimPattern::Sequential;
    MasimRegion chase;
    chase.name = "chase";
    chase.bytes = 8ull << 20;
    chase.pattern = MasimPattern::PointerChase;
    p.regions = {seq, chase};
    p.ops = ops;
    b.traces.push_back(buildMasim(b.as, 0, p, rng));
    return b;
}

/** Sum PAC over pages belonging to a named object. */
double
objectPac(const PactPolicy &pol, const WorkloadBundle &b,
          const std::string &name, std::uint64_t *pages = nullptr)
{
    double sum = 0.0;
    std::uint64_t n = 0;
    pol.table().forEach([&](const PacEntry &e) {
        const ObjectInfo *o = b.as.objectAt(e.page << PageShift);
        if (o && o->name == name) {
            sum += e.pac;
            n++;
        }
    });
    if (pages)
        *pages = n;
    return sum;
}

} // namespace

TEST(PactPolicyTest, ChasePagesEarnHigherPacThanStreamPages)
{
    const WorkloadBundle b = mixedBundle();
    Runner run;
    PactConfig cfg;
    cfg.profileOnly = true;
    PactPolicy pol(cfg);
    run.runWith(b, pol, 0.0, "profile"); // everything on the slow tier

    std::uint64_t seqPages = 0, chasePages = 0;
    const double seqPac = objectPac(pol, b, "seq", &seqPages);
    const double chasePac = objectPac(pol, b, "chase", &chasePages);
    ASSERT_GT(chasePages, 0u);
    ASSERT_GT(seqPages, 0u);
    // Per-page criticality of serialized accesses dominates.
    EXPECT_GT(chasePac / static_cast<double>(chasePages),
              2.0 * seqPac / static_cast<double>(seqPages));
}

TEST(PactPolicyTest, ProfileOnlyNeverMigrates)
{
    const WorkloadBundle b = mixedBundle();
    Runner run;
    PactConfig cfg;
    cfg.profileOnly = true;
    PactPolicy pol(cfg);
    const RunResult r = run.runWith(b, pol, 0.5, "profile");
    EXPECT_EQ(r.stats.promotions(), 0u);
    EXPECT_EQ(r.stats.demotions(), 0u);
    EXPECT_GT(pol.table().size(), 0u);
}

TEST(PactPolicyTest, PromotionsBalancedByDemotions)
{
    const WorkloadBundle b = mixedBundle();
    Runner run;
    PactPolicy pol;
    const RunResult r = run.runWith(b, pol, 0.4, "PACT");
    EXPECT_GT(r.stats.promotions(), 0u);
    // m = 0: demotions keep pace with promotions (Algorithm 2).
    EXPECT_GE(r.stats.demotions() + 8, r.stats.promotions());
}

TEST(PactPolicyTest, ProactiveModeDemotesAtLeastAsAggressively)
{
    // With m > 0, PACT demotes ahead of promotions whenever demotable
    // (inactive) pages exist; it can never demote less than the
    // conservative m = 0 configuration does.
    const WorkloadBundle b = mixedBundle();
    Runner run;

    PactConfig conservative;
    conservative.m = 0;
    PactPolicy pol0(conservative);
    const RunResult r0 = run.runWith(b, pol0, 0.4, "PACT-m0");

    PactConfig proactive;
    proactive.m = 64;
    PactPolicy pol64(proactive);
    const RunResult r64 = run.runWith(b, pol64, 0.4, "PACT-m64");

    EXPECT_GE(r64.stats.demotions(), r64.stats.promotions());
    EXPECT_GE(r64.stats.demotions() + 8, r0.stats.demotions());
}

TEST(PactPolicyTest, AttributionConservesEstimatedStalls)
{
    // With alpha = 1 the summed PAC equals the summed per-window S
    // (up to float rounding), since each window distributes exactly S.
    const WorkloadBundle b = mixedBundle(300000);
    Runner run;
    PactConfig cfg;
    cfg.profileOnly = true;
    PactPolicy pol(cfg);
    run.runWith(b, pol, 0.0, "profile");

    double pacSum = 0.0;
    pol.table().forEach([&](const PacEntry &e) { pacSum += e.pac; });
    double estSum = 0.0;
    for (const TimeSeriesPoint &p : pol.stallSeries())
        estSum += p.value;
    ASSERT_GT(estSum, 0.0);
    // Windows whose PEBS buffer was empty attribute nothing; allow
    // slack but require the bulk of S to land on pages.
    EXPECT_GT(pacSum, 0.75 * estSum);
    EXPECT_LT(pacSum, 1.05 * estSum);
}

TEST(PactPolicyTest, FrequencyModeRanksByFreq)
{
    const WorkloadBundle b = mixedBundle();
    Runner run;
    PactConfig cfg;
    cfg.rank = RankMode::Frequency;
    PactPolicy pol(cfg);
    const RunResult r = run.runWith(b, pol, 0.4, "freq");
    EXPECT_STREQ(pol.name(), "PACT-freq");
    EXPECT_GT(r.stats.promotions(), 0u);
}

TEST(PactPolicyTest, CoolingResetShrinksPac)
{
    const WorkloadBundle b = mixedBundle();
    Runner run;

    PactConfig none;
    none.profileOnly = true;
    PactPolicy polNone(none);
    run.runWith(b, polNone, 0.0, "none");

    PactConfig reset;
    reset.profileOnly = true;
    reset.cooling = CoolingMode::Reset;
    reset.coolingDistance = 500;
    PactPolicy polReset(reset);
    run.runWith(b, polReset, 0.0, "reset");

    double sumNone = 0.0, sumReset = 0.0;
    polNone.table().forEach(
        [&](const PacEntry &e) { sumNone += e.pac; });
    polReset.table().forEach(
        [&](const PacEntry &e) { sumReset += e.pac; });
    EXPECT_LT(sumReset, sumNone);
}

TEST(PactPolicyTest, CoolingDecaysFreqAlongsidePac)
{
    // Regression: cooling used to decay e.pac but leave e.freq
    // untouched, so RankMode::Frequency never forgot stale pages.
    const WorkloadBundle b = mixedBundle();
    Runner run;

    const auto sumFreq = [](const PactPolicy &pol) {
        double sum = 0.0;
        pol.table().forEach(
            [&](const PacEntry &e) { sum += e.freq; });
        return sum;
    };

    PactConfig none;
    none.profileOnly = true;
    PactPolicy polNone(none);
    run.runWith(b, polNone, 0.0, "none");

    PactConfig halve = none;
    halve.cooling = CoolingMode::Halve;
    halve.coolingDistance = 500;
    PactPolicy polHalve(halve);
    run.runWith(b, polHalve, 0.0, "halve");

    PactConfig reset = none;
    reset.cooling = CoolingMode::Reset;
    reset.coolingDistance = 500;
    PactPolicy polReset(reset);
    run.runWith(b, polReset, 0.0, "reset");

    ASSERT_GT(sumFreq(polNone), 0.0);
    EXPECT_LT(sumFreq(polHalve), sumFreq(polNone));
    EXPECT_LT(sumFreq(polReset), sumFreq(polNone));
}

TEST(PactPolicyTest, ChmuRejectsLatencyWeightedAttribution)
{
    // The CHMU hot-list carries access counts only — no per-access
    // latency — so latency-weighted attribution is a config error.
    PactConfig ok;
    ok.sampler = SamplerSource::Chmu;
    PactPolicy chmuOnly(ok); // counts-only CHMU remains valid

    PactConfig bad = ok;
    bad.latencyWeighted = true;
    try {
        PactPolicy pol(bad);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("latencyWeighted"),
                  std::string::npos);
    }
}

TEST(PactPolicyTest, QuarantineLimitsChurn)
{
    const WorkloadBundle b = makeWorkload("pac-inversion",
                                          {0.25, false, 3});
    Runner run;

    PactConfig damped;
    damped.quarantineTicks = 100;
    PactPolicy polD(damped);
    const RunResult rd = run.runWith(b, polD, 0.4, "damped");

    PactConfig churny;
    churny.quarantineTicks = 0;
    PactPolicy polC(churny);
    const RunResult rc = run.runWith(b, polC, 0.4, "churny");

    EXPECT_LT(rd.stats.promotions(), rc.stats.promotions());
}

TEST(PactPolicyTest, TimeSeriesRecorded)
{
    const WorkloadBundle b = mixedBundle();
    Runner run;
    PactPolicy pol;
    run.runWith(b, pol, 0.5, "PACT");
    EXPECT_GT(pol.promotionSeries().size(), 0u);
    EXPECT_EQ(pol.promotionSeries().size(), pol.stallSeries().size());
    EXPECT_GT(pol.binWidth(), 0.0);
}

TEST(PactPolicyTest, KDefaultsToSlowLatency)
{
    const WorkloadBundle b = mixedBundle(100000);
    Runner run;
    PactConfig cfg;
    cfg.profileOnly = true;
    PactPolicy pol(cfg);
    run.runWith(b, pol, 0.0, "k");
    // First stall estimate is k*misses/mlp with k = 418 by default;
    // just assert estimates are positive and finite.
    for (const TimeSeriesPoint &p : pol.stallSeries()) {
        EXPECT_GE(p.value, 0.0);
        EXPECT_TRUE(std::isfinite(p.value));
    }
}

TEST(PactPolicyTest, LatencyWeightedModeRuns)
{
    const WorkloadBundle b = mixedBundle();
    Runner run;
    PactConfig cfg;
    cfg.latencyWeighted = true;
    PactPolicy pol(cfg);
    const RunResult r = run.runWith(b, pol, 0.4, "latw");
    EXPECT_GT(r.stats.promotions(), 0u);
}

TEST(PactPolicyTest, CapacityInvariantHolds)
{
    const WorkloadBundle b = mixedBundle();
    Runner run;
    run.config().fastCapacityPages = 0; // overwritten by runner
    PactPolicy pol;
    const RunResult r = run.runWith(b, pol, 0.3, "PACT");
    const std::uint64_t cap = static_cast<std::uint64_t>(
        0.3 * static_cast<double>(b.rssPages()) + 0.5);
    EXPECT_LE(r.stats.pmu.llcMisses[0], r.stats.pmu.instructions);
    // Used fast pages never exceed capacity (checked via free math:
    // promotions only when space was available).
    EXPECT_LE(r.stats.migration.promotedPages,
              r.stats.migration.demotedPages + cap);
}

TEST(PactPolicyTest, LittlesLawMlpSourceWorks)
{
    // The AMD counter path (paper §4.2 portability) must produce the
    // same qualitative outcome as the TOR path: migrations happen and
    // the policy tracks criticality.
    const WorkloadBundle b = mixedBundle();
    Runner run;
    PactConfig cfg;
    cfg.mlpSource = MlpSource::LittlesLaw;
    PactPolicy pol(cfg);
    const RunResult r = run.runWith(b, pol, 0.4, "PACT-ll");
    EXPECT_GT(r.stats.promotions(), 0u);
    EXPECT_GT(pol.table().size(), 0u);
    for (const TimeSeriesPoint &p : pol.stallSeries()) {
        EXPECT_GE(p.value, 0.0);
        EXPECT_TRUE(std::isfinite(p.value));
    }
}

TEST(PactPolicyTest, RegionQuarantineCoversHugePages)
{
    const WorkloadBundle b =
        makeWorkload("pac-inversion", {0.25, true, 5});
    Runner run;
    PactPolicy pol;
    const RunResult r = run.runWith(b, pol, 0.4, "PACT-thp");
    // THP migrations move whole regions and must not ping-pong: the
    // total promoted pages stay a small multiple of the fast tier.
    const std::uint64_t cap = static_cast<std::uint64_t>(
        0.4 * static_cast<double>(b.rssPages()));
    EXPECT_LE(r.stats.migration.promotedPages, 8 * cap);
    if (r.stats.migration.promotedOps > 0) {
        EXPECT_EQ(r.stats.migration.promotedPages %
                      PagesPerHugePage,
                  0u);
    }
}
