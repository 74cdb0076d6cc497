/**
 * @file
 * Runner/sweep harness tests: baseline caching, slowdown math, ratio
 * helpers, environment scaling, and LLC outcome replay (replayed runs
 * equal live ones; ineligible runs stay live; a corrupted stream is
 * caught).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "common/error.hh"
#include "harness/sweep.hh"
#include "policies/registry.hh"
#include "policies/soar.hh"
#include "workloads/masim.hh"
#include "workloads/mlc.hh"
#include "workloads/registry.hh"

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

} // namespace

TEST(Runner, RatioShareMath)
{
    EXPECT_DOUBLE_EQ(Runner::ratioShare(1, 1), 0.5);
    EXPECT_DOUBLE_EQ(Runner::ratioShare(8, 1), 8.0 / 9.0);
    EXPECT_DOUBLE_EQ(Runner::ratioShare(1, 8), 1.0 / 9.0);
}

TEST(Runner, BaselineIsCachedPerBundle)
{
    const WorkloadBundle b = tinyBundle();
    Runner run;
    const auto &b1 = run.baseline(b);
    const auto &b2 = run.baseline(b);
    EXPECT_EQ(&b1, &b2); // same cached vector
    ASSERT_EQ(b1.size(), 1u);
    EXPECT_GT(b1[0], 0u);
}

TEST(Runner, AllFastShareIsNearBaseline)
{
    const WorkloadBundle b = tinyBundle();
    Runner run;
    const RunResult r = run.run(b, "NoTier", 1.0);
    EXPECT_NEAR(r.slowdownPct, 0.0, 2.0);
}

TEST(Runner, AllSlowShareIsSlower)
{
    const WorkloadBundle b = tinyBundle();
    Runner run;
    const RunResult r = run.run(b, "NoTier", 0.0);
    EXPECT_GT(r.slowdownPct, 20.0);
}

TEST(Runner, SlowdownMonotoneInPressure)
{
    const WorkloadBundle b = tinyBundle();
    Runner run;
    const double s1 = run.run(b, "NoTier", 0.8).slowdownPct;
    const double s2 = run.run(b, "NoTier", 0.4).slowdownPct;
    const double s3 = run.run(b, "NoTier", 0.1).slowdownPct;
    EXPECT_LE(s1, s2 + 1.0);
    EXPECT_LE(s2, s3 + 1.0);
}

TEST(Runner, ResultCarriesIdentity)
{
    const WorkloadBundle b = tinyBundle();
    Runner run;
    const RunResult r = run.run(b, "PACT", 0.5);
    EXPECT_EQ(r.workload, "tiny-chase");
    EXPECT_EQ(r.policy, "PACT");
    EXPECT_GT(r.runtime, 0u);
}

TEST(Sweep, PaperRatiosCoverEightToOneEighth)
{
    const auto &ratios = paperRatios();
    ASSERT_EQ(ratios.size(), 7u);
    EXPECT_DOUBLE_EQ(ratios.front().share(), 8.0 / 9.0);
    EXPECT_DOUBLE_EQ(ratios.back().share(), 1.0 / 9.0);
    EXPECT_STREQ(ratios[3].label, "1:1");
}

TEST(Sweep, RatioSweepShapesOutput)
{
    const WorkloadBundle b = tinyBundle();
    Runner run;
    const auto grid =
        ratioSweep(run, b, {"NoTier", "PACT"}, contrastRatios());
    ASSERT_EQ(grid.size(), 2u);
    ASSERT_EQ(grid[0].size(), 2u);
    EXPECT_EQ(grid[1][0].policy, "PACT");
}

TEST(Harness, EnvScaleParsesOverrides)
{
    unsetenv("PACT_SCALE");
    EXPECT_DOUBLE_EQ(envScale(1.0), 1.0);
    setenv("PACT_SCALE", "0.5", 1);
    EXPECT_DOUBLE_EQ(envScale(1.0), 0.5);
    for (const char *bad : {"", "abc", "0.5x", "0", "-1", "nan", "inf"}) {
        setenv("PACT_SCALE", bad, 1);
        EXPECT_THROW(envScale(1.0), ConfigError) << "PACT_SCALE=" << bad;
    }
    unsetenv("PACT_SCALE");
}

TEST(Harness, EnvRunTimeoutParsesOverrides)
{
    unsetenv("PACT_RUN_TIMEOUT_MS");
    EXPECT_EQ(envRunTimeoutMs(), 0u);
    setenv("PACT_RUN_TIMEOUT_MS", "0", 1);
    EXPECT_EQ(envRunTimeoutMs(), 0u); // explicitly disabled
    setenv("PACT_RUN_TIMEOUT_MS", "2500", 1);
    EXPECT_EQ(envRunTimeoutMs(), 2500u);
    // Each of these used to disable the watchdog silently.
    for (const char *bad : {"", "abc", "10ms", "-5", "+5", " 5", "1e3",
                            "99999999999999999999999"}) {
        setenv("PACT_RUN_TIMEOUT_MS", bad, 1);
        EXPECT_THROW(envRunTimeoutMs(), ConfigError)
            << "PACT_RUN_TIMEOUT_MS=" << bad;
    }
    unsetenv("PACT_RUN_TIMEOUT_MS");
}

TEST(Runner, SoarGetsProfiledAutomatically)
{
    const WorkloadBundle b = tinyBundle();
    Runner run;
    const RunResult r = run.run(b, "Soar", 0.5);
    EXPECT_EQ(r.stats.promotions(), 0u);
    // Soar's static placement of profiled-hot pages must beat
    // placing nothing in the fast tier.
    const RunResult slow = run.run(b, "NoTier", 0.0);
    EXPECT_LT(r.slowdownPct, slow.slowdownPct + 1.0);
}

TEST(Harness, SeedSweepReportsVariation)
{
    SimConfig cfg;
    WorkloadOptions opt;
    opt.scale = 0.1;
    const SeedStats s =
        seedSweep(cfg, "silo", opt, "PACT", 0.5, 3);
    EXPECT_EQ(s.seeds, 3u);
    EXPECT_GT(s.meanSlowdownPct, 0.0);
    EXPECT_GE(s.stddevPct, 0.0);
    // Different seeds produce different workloads, so variation is
    // finite but bounded.
    EXPECT_LT(s.stddevPct, s.meanSlowdownPct + 20.0);
}

namespace
{

using Registry = std::vector<std::pair<std::string, double>>;

/** Run @p policy_name on an Engine built directly on @p b: live LLC. */
Registry
liveRegistry(const SimConfig &base, const WorkloadBundle &b,
             const std::string &policy_name, double share)
{
    SimConfig cfg = base;
    cfg.fastCapacityPages = Runner(base).capacityPages(b, share);
    auto policy = makePolicy(policy_name);
    if (auto *soar = dynamic_cast<SoarPolicy *>(policy.get())) {
        soar->setPlan(soarPlan(soarProfile(base, b.as, b.traces),
                               cfg.fastCapacityPages));
    }
    Engine engine(cfg, b.as, &b.traces, policy.get());
    return engine.run().registry;
}

/** The LLC stream of a completed NoTier run of @p b under @p cfg. */
std::shared_ptr<const LlcOutcomes>
recordStream(const SimConfig &cfg, const WorkloadBundle &b)
{
    auto policy = makePolicy("NoTier");
    Engine engine(cfg, b.as, &b.traces, policy.get());
    EXPECT_TRUE(engine.recordLlcOutcomes());
    EXPECT_EQ(engine.llcOutcomes(), nullptr); // not before it completes
    engine.run();
    return engine.llcOutcomes();
}

/** @p in with access @p at's code replaced by @p code; a negative
 *  @p code drops it, and @p at == in.size() appends @p code. */
LlcOutcomes
edited(const LlcOutcomes &in, std::size_t at, int code)
{
    LlcOutcomes out(in.params(), in.source());
    for (std::size_t i = 0; i < in.size(); i++) {
        if (i != at)
            out.push(in[i]);
        else if (code >= 0)
            out.push(static_cast<unsigned>(code));
    }
    if (at >= in.size() && code >= 0)
        out.push(static_cast<unsigned>(code));
    return out;
}

/** One primary plus one other trace: a two-core bundle. */
WorkloadBundle
twoTraceBundle(bool loop_second)
{
    WorkloadBundle b = tinyBundle();
    b.name = loop_second ? "tiny-chase+mlc" : "tiny-chase-x2";
    Rng rng(7);
    if (loop_second) {
        MlcParams mp;
        mp.ops = 20000;
        b.traces.push_back(buildMlc(b.as, 1, mp));
    } else {
        MasimParams p;
        MasimRegion r;
        r.name = "r2";
        r.bytes = 4ull << 20;
        p.regions = {r};
        p.ops = 50000;
        b.traces.push_back(buildMasim(b.as, 1, p, rng));
    }
    return b;
}

struct ReplayCase
{
    const char *workload;
    bool thp;
};

void
PrintTo(const ReplayCase &c, std::ostream *os)
{
    *os << c.workload << (c.thp ? " (THP)" : " (4 KB)");
}

using LlcReplay = ::testing::TestWithParam<ReplayCase>;

} // namespace

TEST_P(LlcReplay, RunnerMatchesLiveEngineUnderEveryPolicy)
{
    WorkloadOptions opt;
    opt.scale = 0.05;
    opt.thp = GetParam().thp;
    const WorkloadBundle b = makeWorkload(GetParam().workload, opt);
    ASSERT_EQ(b.traces.size(), 1u);
    Runner runner;
    // The baseline recorded, and an engine set up like runWith's
    // takes the stream.
    const auto stream = runner.llcOutcomes(b);
    ASSERT_NE(stream, nullptr);
    {
        auto policy = makePolicy("PACT");
        Engine engine(runner.config(), b.as, &b.traces, policy.get());
        EXPECT_TRUE(engine.replayLlcOutcomes(stream));
    }
    for (const std::string &p : allPolicyNames()) {
        for (int slow : {1, 4}) {
            SCOPED_TRACE(p + " at 1:" + std::to_string(slow));
            const double share = Runner::ratioShare(1, slow);
            EXPECT_EQ(runner.run(b, p, share).stats.registry,
                      liveRegistry(runner.config(), b, p, share));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, LlcReplay,
    ::testing::Values(ReplayCase{"bc-kron", false},
                      ReplayCase{"bc-kron", true},
                      ReplayCase{"gups", false}, ReplayCase{"gups", true},
                      ReplayCase{"silo", false}, ReplayCase{"silo", true}),
    [](const ::testing::TestParamInfo<ReplayCase> &info) {
        std::string n = info.param.workload;
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n + (info.param.thp ? "_thp" : "_4k");
    });

TEST(LlcReplayEligibility, MultiCoreBundlesStayLive)
{
    for (bool loop : {false, true}) {
        SCOPED_TRACE(loop ? "primary + looping mlc" : "two primaries");
        const WorkloadBundle b = twoTraceBundle(loop);
        Runner runner;
        EXPECT_EQ(runner.llcOutcomes(b), nullptr);
        auto policy = makePolicy("NoTier");
        Engine engine(runner.config(), b.as, &b.traces, policy.get());
        EXPECT_FALSE(engine.recordLlcOutcomes());
        // A stream of its primary alone is not this run's stream.
        const WorkloadBundle solo = tinyBundle();
        auto other = makePolicy("NoTier");
        Engine live(runner.config(), b.as, &b.traces, other.get());
        EXPECT_FALSE(live.replayLlcOutcomes(
            recordStream(runner.config(), solo)));
        EXPECT_EQ(runner.run(b, "PACT", 0.5).stats.registry,
                  liveRegistry(runner.config(), b, "PACT", 0.5));
    }
}

TEST(LlcReplayEligibility, StreamOfOtherCacheParamsOrTraceIsIgnored)
{
    const WorkloadBundle b = tinyBundle();
    Runner runner;
    const auto stream = runner.llcOutcomes(b);
    ASSERT_NE(stream, nullptr);

    // The cached stream outlives a config change; the engine refuses it.
    runner.config().cache.sizeBytes /= 2;
    {
        auto policy = makePolicy("PACT");
        Engine engine(runner.config(), b.as, &b.traces, policy.get());
        EXPECT_FALSE(engine.replayLlcOutcomes(stream));
    }
    EXPECT_EQ(runner.run(b, "PACT", 0.5).stats.registry,
              liveRegistry(runner.config(), b, "PACT", 0.5));

    // Same params, another bundle's trace and address space.
    const WorkloadBundle other = tinyBundle(MasimPattern::Random);
    auto policy = makePolicy("PACT");
    Engine engine(SimConfig{}, other.as, &other.traces, policy.get());
    EXPECT_FALSE(engine.replayLlcOutcomes(stream));
}

TEST(LlcReplayEligibility, TruncatedRunPublishesNoStream)
{
    const WorkloadBundle b = tinyBundle();
    SimConfig cfg;
    cfg.maxWallCycles = 100000;
    auto policy = makePolicy("NoTier");
    Engine engine(cfg, b.as, &b.traces, policy.get());
    ASSERT_TRUE(engine.recordLlcOutcomes());
    EXPECT_FALSE(engine.run().completed);
    EXPECT_EQ(engine.llcOutcomes(), nullptr);
}

TEST(LlcReplayAudit, FlippedCodeThrowsUnderAudit)
{
    const WorkloadBundle b = tinyBundle();
    SimConfig cfg;
    const auto stream = recordStream(cfg, b);
    ASSERT_NE(stream, nullptr);
    ASSERT_GT(stream->size(), 2u);
    const std::size_t at = stream->size() / 2;

    cfg.audit = true;
    cfg.fastCapacityPages = Runner(cfg).capacityPages(b, 0.5);
    // The untouched stream passes the cross-check and equals live.
    {
        auto policy = makePolicy("PACT");
        Engine engine(cfg, b.as, &b.traces, policy.get());
        ASSERT_TRUE(engine.replayLlcOutcomes(stream));
        EXPECT_EQ(engine.run().registry, liveRegistry(cfg, b, "PACT", 0.5));
    }
    // One flipped code (hit <-> miss) is caught where it differs.
    const auto flipped = std::make_shared<LlcOutcomes>(
        edited(*stream, at, static_cast<int>((*stream)[at] ^ 2u)));
    auto policy = makePolicy("PACT");
    Engine engine(cfg, b.as, &b.traces, policy.get());
    ASSERT_TRUE(engine.replayLlcOutcomes(flipped));
    try {
        engine.run();
        FAIL() << "expected InvariantError";
    } catch (const InvariantError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "diverged at access " + std::to_string(at)),
                  std::string::npos)
            << e.what();
    }
}

TEST(LlcReplayAudit, StreamOfTheWrongLengthThrows)
{
    const WorkloadBundle b = tinyBundle();
    const SimConfig cfg;
    const auto stream = recordStream(cfg, b);
    ASSERT_NE(stream, nullptr);
    // Replay never reads past the end, and a finished run must have
    // used every recorded code.
    for (const bool shorter : {true, false}) {
        SCOPED_TRACE(shorter ? "one code short" : "one code extra");
        const auto bad = std::make_shared<LlcOutcomes>(
            shorter ? edited(*stream, stream->size() - 1, -1)
                    : edited(*stream, stream->size(), LlcOutcomes::Hit));
        auto policy = makePolicy("NoTier");
        Engine engine(cfg, b.as, &b.traces, policy.get());
        ASSERT_TRUE(engine.replayLlcOutcomes(bad));
        EXPECT_THROW(engine.run(), InvariantError);
    }
}
