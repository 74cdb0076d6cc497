/**
 * @file
 * CHMU (device-side hotness monitoring) tests: counter semantics,
 * hot-list ordering, bounded tracking, and the PACT integration
 * (paper §4.3.5's alternative sampling backend).
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "harness/runner.hh"
#include "pact/pact_policy.hh"
#include "sim/chmu.hh"
#include "workloads/masim.hh"

using namespace pact;

TEST(Chmu, CountsPerPage)
{
    Chmu chmu;
    chmu.record(1);
    chmu.record(1);
    chmu.record(2);
    EXPECT_EQ(chmu.accesses(), 3u);
    EXPECT_EQ(chmu.tracked(), 2u);
}

TEST(Chmu, HotListSortedDescending)
{
    Chmu chmu;
    for (int i = 0; i < 5; i++)
        chmu.record(10);
    for (int i = 0; i < 3; i++)
        chmu.record(20);
    chmu.record(30);
    const auto hot = chmu.readHotList();
    ASSERT_EQ(hot.size(), 3u);
    EXPECT_EQ(hot[0].page, 10u);
    EXPECT_EQ(hot[0].count, 5u);
    EXPECT_EQ(hot[1].page, 20u);
    EXPECT_EQ(hot[2].page, 30u);
}

TEST(Chmu, ReadoutClearsCounters)
{
    Chmu chmu;
    chmu.record(1);
    EXPECT_EQ(chmu.readHotList().size(), 1u);
    EXPECT_EQ(chmu.tracked(), 0u);
    EXPECT_TRUE(chmu.readHotList().empty());
}

TEST(Chmu, HotListLengthBounded)
{
    ChmuParams p;
    p.hotListLen = 4;
    Chmu chmu(p);
    for (PageId pg = 0; pg < 100; pg++) {
        for (PageId k = 0; k <= pg % 7; k++)
            chmu.record(pg);
    }
    EXPECT_EQ(chmu.readHotList().size(), 4u);
}

TEST(Chmu, CounterTableCapacityDropsOverflow)
{
    ChmuParams p;
    p.counterCap = 8;
    Chmu chmu(p);
    for (PageId pg = 0; pg < 20; pg++)
        chmu.record(pg);
    EXPECT_EQ(chmu.tracked(), 8u);
    EXPECT_EQ(chmu.untracked(), 12u);
    // Existing entries still count.
    chmu.record(0);
    EXPECT_EQ(chmu.tracked(), 8u);
}

namespace
{

WorkloadBundle
chaseBundle()
{
    WorkloadBundle b;
    b.name = "chmu-unit";
    Rng rng(51);
    MasimParams p;
    MasimRegion r;
    r.name = "chase";
    r.bytes = 12ull << 20;
    r.pattern = MasimPattern::PointerChase;
    p.regions = {r};
    p.ops = 300000;
    b.traces.push_back(buildMasim(b.as, 0, p, rng));
    return b;
}

} // namespace

TEST(ChmuIntegration, PactRunsOnChmuSamples)
{
    const WorkloadBundle b = chaseBundle();
    Runner run;
    run.config().chmu.enabled = true;
    PactConfig cfg;
    cfg.sampler = SamplerSource::Chmu;
    PactPolicy pol(cfg);
    const RunResult r = run.runWith(b, pol, 0.4, "PACT-chmu");
    EXPECT_GT(r.stats.promotions(), 0u);
    EXPECT_GT(pol.table().size(), 0u);
    // CHMU observes every slow access, so tracked frequency exceeds
    // what 1-in-64 PEBS sampling would deliver.
    std::uint64_t freqSum = 0;
    pol.table().forEach(
        [&](const PacEntry &e) { freqSum += e.freq; });
    EXPECT_GT(freqSum, r.stats.pebsEvents / 64);
}

TEST(ChmuIntegration, ChmuComparableToPebs)
{
    const WorkloadBundle b = chaseBundle();
    Runner run;
    run.config().chmu.enabled = true;

    PactPolicy pebsPol;
    const RunResult rp = run.runWith(b, pebsPol, 0.4, "PACT");
    PactConfig cfg;
    cfg.sampler = SamplerSource::Chmu;
    PactPolicy chmuPol(cfg);
    const RunResult rc = run.runWith(b, chmuPol, 0.4, "PACT-chmu");

    // Same workload, same criticality structure: outcomes within 2x.
    EXPECT_LT(rc.slowdownPct, 2.0 * rp.slowdownPct + 20.0);
}

TEST(ChmuIntegrationDeath, ChmuSamplerWithoutDeviceIsFatal)
{
    const WorkloadBundle b = chaseBundle();
    Runner run; // chmu NOT enabled
    PactConfig cfg;
    cfg.sampler = SamplerSource::Chmu;
    PactPolicy pol(cfg);
    try {
        run.runWith(b, pol, 0.4, "PACT-chmu");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("chmu"),
                  std::string::npos);
    }
}
