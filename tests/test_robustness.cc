/**
 * @file
 * Robustness tests: the SimError hierarchy and SimConfig::validate()
 * diagnostics, deterministic fault injection (parse errors, schedule
 * determinism, per-class effects), parallelFor exception semantics,
 * fault-tolerant sweeps whose surviving results stay bit-identical to
 * a clean sweep at any job count, the per-run wall-clock watchdog, the
 * periodic invariant auditor, and the degenerate-window math fallbacks
 * (MLP with an idle tier, massless attribution windows, cold/constant
 * reservoirs feeding Freedman-Diaconis).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hh"
#include "fault/fault.hh"
#include "harness/pool.hh"
#include "pact/binning.hh"
#include "pact/pact_policy.hh"
#include "policies/registry.hh"
#include "sim/engine.hh"
#include "workloads/masim.hh"
#include "workloads/registry.hh"

using namespace pact;

namespace
{

WorkloadBundle
tinyBundle(std::uint64_t ops = 200000)
{
    WorkloadBundle b;
    b.name = "tiny-chase";
    Rng rng(31);
    MasimParams p;
    MasimRegion r;
    r.name = "r";
    r.bytes = 8ull << 20;
    r.pattern = MasimPattern::PointerChase;
    p.regions = {r};
    p.ops = ops;
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
    EXPECT_EQ(a.stats.procCycles, b.stats.procCycles);
    EXPECT_EQ(a.stats.pmu.instructions, b.stats.pmu.instructions);
    EXPECT_EQ(a.stats.pmu.llcMisses, b.stats.pmu.llcMisses);
    EXPECT_EQ(a.stats.migration.promotedOps,
              b.stats.migration.promotedOps);
    EXPECT_EQ(a.stats.migration.demotedOps, b.stats.migration.demotedOps);
    EXPECT_EQ(a.stats.migration.failed, b.stats.migration.failed);
    EXPECT_EQ(a.stats.pebsEvents, b.stats.pebsEvents);
    EXPECT_EQ(a.stats.daemonTicks, b.stats.daemonTicks);
    EXPECT_EQ(a.stats.registry, b.stats.registry); // full stat dump
}

} // namespace

// ---------------------------------------------------------------------
// SimError hierarchy
// ---------------------------------------------------------------------

TEST(SimErrorHierarchy, KindsAndCatchability)
{
    // Every subclass is catchable as SimError and as std::runtime_error
    // and reports a stable kind string for manifests.
    try {
        throw_policy("unknown policy 'x'");
    } catch (const SimError &e) {
        EXPECT_EQ(std::string(e.kind()), "PolicyError");
        EXPECT_NE(std::string(e.what()).find("unknown policy"),
                  std::string::npos);
    }
    EXPECT_THROW(throw_config("bad"), ConfigError);
    EXPECT_THROW(throw_workload("bad"), WorkloadError);
    EXPECT_THROW(throw_invariant("bad"), InvariantError);
    EXPECT_THROW(throw_config("bad"), std::runtime_error);
    EXPECT_NO_THROW(throw_config_if(false, "never"));
}

TEST(SimErrorHierarchy, RegistriesThrowStructuredErrors)
{
    EXPECT_THROW(makePolicy("NoSuchPolicy"), PolicyError);
    EXPECT_THROW(makeWorkload("no-such-workload", {}), WorkloadError);
    // ... which remain catchable at the SimError level for sweeps.
    EXPECT_THROW(makePolicy("NoSuchPolicy"), SimError);
}

// ---------------------------------------------------------------------
// SimConfig::validate
// ---------------------------------------------------------------------

TEST(SimConfigValidate, DefaultsPass)
{
    EXPECT_NO_THROW(SimConfig{}.validate());
}

TEST(SimConfigValidate, DiagnosticsNameTheField)
{
    const auto expectNames = [](SimConfig cfg, const char *field) {
        try {
            cfg.validate();
            FAIL() << "expected ConfigError naming " << field;
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos)
                << e.what();
        }
    };

    SimConfig c1;
    c1.cache.assoc = 0;
    expectNames(c1, "cache.assoc");

    SimConfig c2;
    c2.slow.serviceCycles = -1.0;
    expectNames(c2, "slow.serviceCycles");

    SimConfig c3;
    c3.cpu.mshrs = 0;
    expectNames(c3, "cpu.mshrs");

    SimConfig c4;
    c4.pebs.rate = 0;
    expectNames(c4, "pebs.rate");

    SimConfig c5;
    c5.daemonPeriod = 0;
    expectNames(c5, "daemonPeriod");
    c5.daemonPeriod = c5.slice / 2;
    expectNames(c5, "daemonPeriod");

    SimConfig c6;
    c6.migration.appPenaltyFraction =
        std::numeric_limits<double>::quiet_NaN();
    expectNames(c6, "appPenaltyFraction");

    SimConfig c7;
    c7.faults = "bogus:p=1";
    EXPECT_THROW(c7.validate(), ConfigError);
}

TEST(SimConfigValidate, CacheCtorRejectsPrefetchWithoutStreams)
{
    // The Cache constructor itself must refuse the degenerate
    // prefetcher configurations (unit code builds Caches directly,
    // bypassing SimConfig::validate): trainPrefetcher would otherwise
    // take streamVictim_ % streams_.size() with an empty stream table.
    CacheParams p;
    p.prefetch = true;
    p.prefetchStreams = 0;
    EXPECT_THROW(Cache{p}, ConfigError);

    CacheParams q;
    q.prefetch = true;
    q.prefetchDegree = 0;
    EXPECT_THROW(Cache{q}, ConfigError);

    // Streams without prefetching stay legal (the table sits unused).
    CacheParams r;
    r.prefetch = false;
    r.prefetchStreams = 0;
    EXPECT_NO_THROW(Cache{r});
}

// ---------------------------------------------------------------------
// Fault spec parsing
// ---------------------------------------------------------------------

TEST(FaultSpec, ParsesFullGrammar)
{
    const FaultSpec s = parseFaultSpec(
        "migabort:p=0.25;pebsdrop:p=0.5;pebsdup:p=0.125;"
        "wrap:bits=32;jitter:frac=0.1");
    EXPECT_EQ(s.migAbortP, 0.25);
    EXPECT_EQ(s.pebsDropP, 0.5);
    EXPECT_EQ(s.pebsDupP, 0.125);
    EXPECT_EQ(s.wrapBits, 32u);
    EXPECT_EQ(s.jitterFrac, 0.1);
    EXPECT_TRUE(s.any());
}

TEST(FaultSpec, EmptyAndNoOpSpecsDisable)
{
    EXPECT_FALSE(parseFaultSpec("").any());
    EXPECT_FALSE(parseFaultSpec("migabort:p=0").any());
    EXPECT_EQ(FaultPlan::fromSpec("", 1), nullptr);
    EXPECT_EQ(FaultPlan::fromSpec("migabort:p=0", 1), nullptr);
    EXPECT_NE(FaultPlan::fromSpec("migabort:p=0.5", 1), nullptr);
}

TEST(FaultSpec, RejectsMalformedClauses)
{
    EXPECT_THROW(parseFaultSpec("bogus:p=0.5"), ConfigError);
    EXPECT_THROW(parseFaultSpec("migabort"), ConfigError);
    EXPECT_THROW(parseFaultSpec("migabort:q=0.5"), ConfigError);
    EXPECT_THROW(parseFaultSpec("migabort:p=squid"), ConfigError);
    EXPECT_THROW(parseFaultSpec("migabort:p=1.5"), ConfigError);
    EXPECT_THROW(parseFaultSpec("migabort:p=-0.1"), ConfigError);
    EXPECT_THROW(parseFaultSpec("wrap:bits=64"), ConfigError);
    EXPECT_THROW(parseFaultSpec("wrap:bits=0"), ConfigError);
    EXPECT_THROW(parseFaultSpec("wrap:bits=3.5"), ConfigError);
    EXPECT_THROW(parseFaultSpec("jitter:frac=1.0"), ConfigError);
}

TEST(FaultSpec, ParsesExtendedGrammar)
{
    const FaultSpec s = parseFaultSpec(
        "midabort:p=0.4,at=0.75;dirty:p=0.3;tierfail:p=0.2;"
        "stall:p=0.1,periods=8;pebsstarve:p=0.05,len=128");
    EXPECT_EQ(s.midAbortP, 0.4);
    EXPECT_EQ(s.midAbortAt, 0.75);
    EXPECT_EQ(s.dirtyP, 0.3);
    EXPECT_EQ(s.tierFailP, 0.2);
    EXPECT_EQ(s.stallP, 0.1);
    EXPECT_EQ(s.stallPeriods, 8u);
    EXPECT_EQ(s.starveP, 0.05);
    EXPECT_EQ(s.starveLen, 128u);
    EXPECT_TRUE(s.any());
}

TEST(FaultSpec, OptionalParamsDefault)
{
    const FaultSpec s =
        parseFaultSpec("midabort:p=1;stall:p=1;pebsstarve:p=1");
    EXPECT_EQ(s.midAbortAt, 0.5);
    EXPECT_EQ(s.stallPeriods, 1u);
    EXPECT_EQ(s.starveLen, 32u);
}

TEST(FaultSpec, RejectsMalformedExtendedClauses)
{
    // Required p missing.
    EXPECT_THROW(parseFaultSpec("midabort:at=0.5"), ConfigError);
    EXPECT_THROW(parseFaultSpec("stall:periods=2"), ConfigError);
    EXPECT_THROW(parseFaultSpec("pebsstarve:len=8"), ConfigError);
    // Out-of-range params.
    EXPECT_THROW(parseFaultSpec("midabort:p=1,at=1.5"), ConfigError);
    EXPECT_THROW(parseFaultSpec("midabort:p=1,at=-0.1"), ConfigError);
    EXPECT_THROW(parseFaultSpec("stall:p=1,periods=0"), ConfigError);
    EXPECT_THROW(parseFaultSpec("stall:p=1,periods=65"), ConfigError);
    EXPECT_THROW(parseFaultSpec("stall:p=1,periods=2.5"), ConfigError);
    EXPECT_THROW(parseFaultSpec("pebsstarve:p=1,len=0"), ConfigError);
    EXPECT_THROW(parseFaultSpec("pebsstarve:p=1,len=65537"), ConfigError);
    // Malformed parameter syntax.
    EXPECT_THROW(parseFaultSpec("dirty:p=1,p=1"), ConfigError);
    EXPECT_THROW(parseFaultSpec("dirty:p=1,q=2"), ConfigError);
    EXPECT_THROW(parseFaultSpec("dirty:=1"), ConfigError);
    EXPECT_THROW(parseFaultSpec("dirty:p="), ConfigError);
    EXPECT_THROW(parseFaultSpec("tierfail:p"), ConfigError);
}

TEST(FaultSpec, DiagnosticsNameTheOffendingToken)
{
    const auto expectNames = [](const std::string &spec,
                                const char *token) {
        try {
            parseFaultSpec(spec);
            FAIL() << "expected ConfigError naming " << token << " for '"
                   << spec << "'";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(token),
                      std::string::npos)
                << spec << " -> " << e.what();
        }
    };
    // Unknown class: names the class and lists the vocabulary.
    expectNames("gremlin:p=0.5", "gremlin");
    expectNames("gremlin:p=0.5", "pebsstarve");
    // Unknown / duplicate parameter: names the key and the clause.
    expectNames("midabort:p=1,frac=0.5", "frac");
    expectNames("stall:p=1,p=1", "duplicate parameter 'p'");
    // Bad number: quotes the exact token that failed to parse.
    expectNames("dirty:p=0.5x", "0.5x");
    // Out of range: names the bound and the value.
    expectNames("midabort:p=1,at=2", "at");
    expectNames("pebsstarve:p=1,len=99999", "len");
}

// ---------------------------------------------------------------------
// Fault schedule determinism
// ---------------------------------------------------------------------

TEST(FaultPlan, SameSpecAndSeedYieldIdenticalSchedules)
{
    const FaultSpec spec = parseFaultSpec(
        "migabort:p=0.3;pebsdrop:p=0.2;pebsdup:p=0.1;jitter:frac=0.4");
    FaultPlan a(spec, 1234), b(spec, 1234);
    for (int i = 0; i < 4096; i++) {
        EXPECT_EQ(a.abortMigration(i), b.abortMigration(i));
        EXPECT_EQ(a.dropSample(), b.dropSample());
        EXPECT_EQ(a.duplicateSample(), b.duplicateSample());
        EXPECT_EQ(a.jitterPeriod(1000000), b.jitterPeriod(1000000));
    }
    EXPECT_EQ(a.counters().migrationAborts, b.counters().migrationAborts);
    EXPECT_EQ(a.counters().pebsDropped, b.counters().pebsDropped);
    EXPECT_EQ(a.counters().pebsDuplicated,
              b.counters().pebsDuplicated);
    EXPECT_GT(a.counters().migrationAborts, 0u);
    EXPECT_EQ(a.counters().jitteredWindows, 4096u);
}

TEST(FaultPlan, DisabledClassesConsumeNoRandomness)
{
    // Enabling wrap (which never draws) must not perturb the drop
    // schedule, and disabled decision classes return false without
    // touching the stream.
    FaultPlan drops(parseFaultSpec("pebsdrop:p=0.5"), 7);
    FaultPlan dropsWrap(parseFaultSpec("pebsdrop:p=0.5;wrap:bits=16"), 7);
    for (int i = 0; i < 1024; i++) {
        EXPECT_FALSE(dropsWrap.abortMigration(i)); // disabled: no draw
        EXPECT_FALSE(dropsWrap.duplicateSample());
        EXPECT_EQ(drops.dropSample(), dropsWrap.dropSample());
    }
    EXPECT_EQ(dropsWrap.wrapMask(), 0xffffull);
    EXPECT_EQ(drops.wrapMask(), ~0ull);
}

TEST(FaultPlan, NewClassStreamsAreDecorrelatedFromLegacy)
{
    // Enabling every post-v1 class must leave the legacy drop schedule
    // bit-identical: the new classes draw from private streams.
    FaultPlan legacy(parseFaultSpec("pebsdrop:p=0.5"), 77);
    FaultPlan mixed(parseFaultSpec("pebsdrop:p=0.5;midabort:p=0.5;"
                                   "dirty:p=0.5;tierfail:p=0.5;"
                                   "stall:p=0.5;pebsstarve:p=0.5,len=2"),
                    77);
    for (int i = 0; i < 2048; i++) {
        // Interleave new-class draws between legacy draws: they must
        // not perturb the legacy stream.
        mixed.midCopyAbort();
        mixed.dirtyDuringCopy();
        mixed.tierWriteFailure();
        mixed.daemonStall(1000);
        mixed.starveSample();
        EXPECT_EQ(legacy.dropSample(), mixed.dropSample());
    }
}

TEST(FaultPlan, NewClassStreamsAreMutuallyIndependent)
{
    // Each class's schedule is a function of (spec, seed) alone: the
    // mid-copy stream with only midabort enabled matches the mid-copy
    // stream with every sibling class drawing in between.
    FaultPlan solo(parseFaultSpec("midabort:p=0.5"), 191);
    FaultPlan mixed(parseFaultSpec("midabort:p=0.5;dirty:p=0.5;"
                                   "tierfail:p=0.5;stall:p=0.5"),
                    191);
    for (int i = 0; i < 2048; i++) {
        mixed.dirtyDuringCopy();
        mixed.tierWriteFailure();
        mixed.daemonStall(500);
        EXPECT_EQ(solo.midCopyAbort(), mixed.midCopyAbort());
    }
    EXPECT_EQ(solo.counters().midCopyAborts,
              mixed.counters().midCopyAborts);
    EXPECT_GT(solo.counters().midCopyAborts, 0u);
}

TEST(FaultPlan, StallReturnsWholeNominalPeriods)
{
    FaultPlan plan(parseFaultSpec("stall:p=1,periods=4"), 5);
    EXPECT_EQ(plan.daemonStall(1000), 4000u);
    EXPECT_EQ(plan.daemonStall(0), 0u); // degenerate window: no stall
    FaultPlan off(parseFaultSpec("midabort:p=1"), 5);
    EXPECT_EQ(off.daemonStall(1000), 0u);
    EXPECT_EQ(plan.counters().daemonStalls, 1u);
}

TEST(FaultPlan, StarvationBurstsDropWholeRuns)
{
    FaultPlan plan(parseFaultSpec("pebsstarve:p=1,len=4"), 13);
    for (int i = 0; i < 8; i++)
        EXPECT_TRUE(plan.starveSample());
    // 8 starved samples = 2 bursts of 4; only the triggers drew.
    EXPECT_EQ(plan.counters().pebsStarved, 8u);
    EXPECT_EQ(plan.counters().starveBursts, 2u);
}

// ---------------------------------------------------------------------
// Fault effects in the engine
// ---------------------------------------------------------------------

TEST(RobustnessTest, MigrationAbortFaultsSurfaceAsFailedMigrations)
{
    SimConfig cfg;
    cfg.faults = "migabort:p=0.5";
    Runner run(cfg);
    const WorkloadBundle b = tinyBundle();
    const RunResult r = run.run(b, "PACT", 0.4);
    EXPECT_GT(r.stats.stat("faults.migration_aborts"), 0.0);
    EXPECT_GT(r.stats.migration.failed, 0u);
}

TEST(RobustnessTest, FullPebsDropStarvesThePolicy)
{
    SimConfig cfg;
    cfg.faults = "pebsdrop:p=1";
    Runner run(cfg);
    const WorkloadBundle b = tinyBundle();
    const RunResult r = run.run(b, "PACT", 0.4);
    // Every sample is dropped before the buffer, so the PEBS-driven
    // policy never sees an address to promote.
    EXPECT_GT(r.stats.stat("faults.pebs_dropped"), 0.0);
    EXPECT_EQ(r.stats.promotions(), 0u);
}

TEST(RobustnessTest, WrapAndJitterRunsCompleteAndCount)
{
    SimConfig cfg;
    cfg.faults = "wrap:bits=24;jitter:frac=0.3";
    Runner run(cfg);
    const WorkloadBundle b = tinyBundle();
    const RunResult r = run.run(b, "PACT", 0.4);
    EXPECT_GT(r.runtime, 0u);
    EXPECT_GT(r.stats.stat("faults.jittered_windows"), 0.0);
    EXPECT_GT(r.stats.daemonTicks, 0u);
}

TEST(RobustnessTest, CopyFaultsSurfaceAsTxnAbortsAndRetries)
{
    SimConfig cfg;
    cfg.faults = "midabort:p=0.4;dirty:p=0.2;tierfail:p=0.2";
    Runner run(cfg);
    const WorkloadBundle b = tinyBundle();
    const RunResult r = run.run(b, "PACT", 0.4);
    EXPECT_GT(r.stats.stat("faults.mid_copy_aborts"), 0.0);
    EXPECT_GT(r.stats.txn.aborted, 0u);
    EXPECT_GT(r.stats.txn.retries, 0u);
    EXPECT_GT(r.stats.txn.committed, 0u); // retries actually recover
    EXPECT_GT(r.stats.txn.backoffCycles, 0u);
    // The transaction ledger balances even under mixed fault classes.
    EXPECT_EQ(r.stats.txn.committed + r.stats.txn.aborted -
                  r.stats.txn.retries,
              r.stats.txn.prepared);
}

TEST(RobustnessTest, StallAndStarveRunsCompleteAndCount)
{
    SimConfig cfg;
    cfg.faults = "stall:p=0.3,periods=4;pebsstarve:p=0.005,len=64";
    Runner run(cfg);
    const WorkloadBundle b = tinyBundle();
    const RunResult r = run.run(b, "PACT", 0.4);
    EXPECT_GT(r.runtime, 0u);
    EXPECT_GT(r.stats.stat("faults.daemon_stalls"), 0.0);
    EXPECT_GT(r.stats.stat("faults.pebs_starved"), 0.0);
    EXPECT_GT(r.stats.stat("faults.starve_bursts"), 0.0);
    // Stalled windows delay ticks, they don't lose them forever.
    EXPECT_GT(r.stats.daemonTicks, 0u);
}

TEST(RobustnessTest, AdmitSuffixGatesUnprofitableMigrations)
{
    // Under a persistent abort storm the +admit wrapper should learn
    // to reject promotions, cutting wasted copy bandwidth relative to
    // blind retry.
    SimConfig cfg;
    cfg.faults = "dirty:p=0.9";
    const WorkloadBundle b = tinyBundle();
    Runner blind(cfg), gated(cfg);
    const RunResult base = blind.run(b, "PACT", 0.4);
    const RunResult admit = gated.run(b, "PACT+admit", 0.4);
    EXPECT_GT(admit.stats.txn.admissionRejected, 0u);
    EXPECT_EQ(base.stats.txn.admissionRejected, 0u);
    EXPECT_LT(admit.stats.txn.wastedCopyCycles,
              base.stats.txn.wastedCopyCycles);
}

TEST(RobustnessTest, AdmitSuffixIsInertWithoutFaults)
{
    // Faults off: the gate never arms, so PACT+admit must reproduce
    // PACT's end-to-end timing exactly.
    const WorkloadBundle b = tinyBundle();
    Runner plain, gated;
    const RunResult base = plain.run(b, "PACT", 0.4);
    const RunResult admit = gated.run(b, "PACT+admit", 0.4);
    EXPECT_EQ(admit.stats.txn.admissionRejected, 0u);
    EXPECT_EQ(base.runtime, admit.runtime);
    EXPECT_EQ(base.stats.procCycles, admit.stats.procCycles);
    EXPECT_EQ(base.stats.migration.promotedOps,
              admit.stats.migration.promotedOps);
}

TEST(RobustnessTest, FaultedSweepIsDeterministicAcrossJobCounts)
{
    SimConfig cfg;
    cfg.faults = "migabort:p=0.3;pebsdrop:p=0.1;jitter:frac=0.2";
    const WorkloadBundle b = tinyBundle();
    std::vector<RunSpec> specs = {{&b, "PACT", 0.4},
                                  {&b, "Nomad", 0.4},
                                  {&b, "PACT", 0.6}};
    Runner serialRunner(cfg), parallelRunner(cfg);
    const auto serial = runMany(serialRunner, specs, 1);
    const auto parallel = runMany(parallelRunner, specs, 4);
    ASSERT_EQ(serial.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); i++)
        expectIdentical(serial[i], parallel[i]);
    // The injection actually fired (this is not a vacuous pass).
    EXPECT_GT(serial[0].stats.stat("faults.migration_aborts"), 0.0);
}

// ---------------------------------------------------------------------
// parallelFor exception semantics
// ---------------------------------------------------------------------

TEST(ParallelForExceptions, LowestIndexRethrownAfterAllIterationsRun)
{
    for (unsigned jobs : {1u, 4u}) {
        std::atomic<int> ran{0};
        try {
            parallelFor(
                64,
                [&](std::size_t i) {
                    ran.fetch_add(1);
                    if (i == 7 || i == 3 || i == 60)
                        throw std::runtime_error(
                            "boom " + std::to_string(i));
                },
                jobs);
            FAIL() << "expected rethrow at jobs=" << jobs;
        } catch (const std::runtime_error &e) {
            // Deterministic: the lowest failing index wins regardless
            // of worker scheduling.
            EXPECT_STREQ(e.what(), "boom 3");
        }
        EXPECT_EQ(ran.load(), 64); // no iteration was cancelled
    }
}

// ---------------------------------------------------------------------
// Fault-tolerant sweeps
// ---------------------------------------------------------------------

TEST(RobustnessTest, PoisonedSweepSurvivorsAreBitIdentical)
{
    const WorkloadBundle b = tinyBundle();
    std::vector<RunSpec> clean = {{&b, "PACT", 0.4}, {&b, "NoTier", 0.4}};
    std::vector<RunSpec> poisoned = {
        {&b, "PACT", 0.4}, {&b, "BogusPolicy", 0.4}, {&b, "NoTier", 0.4}};

    Runner cleanRunner;
    const auto want = runMany(cleanRunner, clean, 1);

    for (unsigned jobs : {1u, 4u}) {
        Runner runner;
        const auto out = runManyOutcomes(runner, poisoned, jobs);
        ASSERT_EQ(out.size(), poisoned.size());
        EXPECT_TRUE(out[0].ok);
        EXPECT_FALSE(out[1].ok);
        EXPECT_TRUE(out[2].ok);
        // The failure is structured and names the spec that died.
        EXPECT_EQ(out[1].error.kind, "PolicyError");
        EXPECT_NE(out[1].error.message.find("BogusPolicy"),
                  std::string::npos);
        EXPECT_EQ(out[1].spec.policy, "BogusPolicy");
        // Survivors match a sweep that never contained the bad spec.
        expectIdentical(out[0].result, want[0]);
        expectIdentical(out[2].result, want[1]);
        // ... and reshape into ok/error manifest records.
        const obs::ManifestResult good = manifestOutcome(out[0]);
        const obs::ManifestResult bad = manifestOutcome(out[1]);
        EXPECT_TRUE(good.ok);
        EXPECT_FALSE(bad.ok);
        EXPECT_EQ(bad.errorKind, "PolicyError");
        EXPECT_EQ(bad.policy, "BogusPolicy");
        EXPECT_EQ(bad.fastShare, 0.4);
    }
}

TEST(RobustnessTest, RunManyStillPropagatesTheLowestFailure)
{
    const WorkloadBundle b = tinyBundle();
    std::vector<RunSpec> specs = {
        {&b, "NoTier", 0.4}, {&b, "BogusA", 0.4}, {&b, "BogusB", 0.4}};
    Runner runner;
    try {
        runMany(runner, specs, 4);
        FAIL() << "expected PolicyError";
    } catch (const PolicyError &e) {
        EXPECT_NE(std::string(e.what()).find("BogusA"),
                  std::string::npos); // lowest index, not BogusB
    }
}

// ---------------------------------------------------------------------
// Per-run watchdog
// ---------------------------------------------------------------------

TEST(RobustnessTest, WatchdogTimeoutBecomesAStructuredFailure)
{
    EXPECT_EQ(envRunTimeoutMs(), 0u); // default: disabled
    setenv("PACT_RUN_TIMEOUT_MS", "1", 1);
    EXPECT_EQ(envRunTimeoutMs(), 1u);
    const WorkloadBundle b = tinyBundle(4000000);
    Runner runner;
    const auto out =
        runManyOutcomes(runner, {{&b, "PACT", 0.4}}, 1);
    unsetenv("PACT_RUN_TIMEOUT_MS");
    ASSERT_EQ(out.size(), 1u);
    ASSERT_FALSE(out[0].ok);
    EXPECT_EQ(out[0].error.kind, "TimeoutError");
    EXPECT_NE(out[0].error.message.find("PACT_RUN_TIMEOUT_MS"),
              std::string::npos);
}

TEST(RobustnessTest, WatchdogCoversTimeSeriesRuns)
{
    // The same runaway run, driven in recorder windows: the watchdog
    // must cut it off too.
    const WorkloadBundle b = tinyBundle(4000000);
    Runner runner;
    runner.baseline(b); // unwatched, so only the recorded run can time out
    std::ostringstream rows;
    obs::TimeSeriesRecorder rec(rows, runner.config().daemonPeriod);
    RunObservers observers;
    observers.timeseries = &rec;
    setenv("PACT_RUN_TIMEOUT_MS", "1", 1);
    EXPECT_THROW(runner.run(b, "PACT", 0.4, &observers), TimeoutError);
    unsetenv("PACT_RUN_TIMEOUT_MS");
    EXPECT_GT(rec.rows(), 0u);
}

TEST(RobustnessTest, WatchedRunUnderBudgetIsIdenticalToUnwatched)
{
    const WorkloadBundle b = tinyBundle();
    Runner plain;
    const RunResult want = plain.run(b, "PACT", 0.4);
    setenv("PACT_RUN_TIMEOUT_MS", "600000", 1); // 10 min: never fires
    Runner watched;
    const RunResult got = watched.run(b, "PACT", 0.4);
    unsetenv("PACT_RUN_TIMEOUT_MS");
    expectIdentical(want, got);
}

// ---------------------------------------------------------------------
// No environment input to the simulation
// ---------------------------------------------------------------------

TEST(RobustnessTest, FaultAndAuditEnvVarsLeaveRunsUnchanged)
{
    // Only SimConfig::faults/audit (the CLI's --faults/--audit) arm
    // injection and the auditor, so no shell variable can change a
    // run's results, its DRAM-only baseline included.
    const WorkloadBundle b = tinyBundle();
    auto manifest = [&b] {
        Runner runner;
        obs::RunManifest m;
        m.config = runner.config();
        m.results.push_back(manifestResult(runner.run(b, "PACT", 0.4)));
        std::ostringstream os;
        obs::writeRunManifest(os, m);
        return os.str();
    };
    const std::string want = manifest();
    setenv("PACT_FAULTS", "migabort:p=0.5;pebsdrop:p=0.2", 1);
    setenv("PACT_AUDIT", "1", 1);
    const std::string got = manifest();
    unsetenv("PACT_FAULTS");
    unsetenv("PACT_AUDIT");
    EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------
// Invariant auditor
// ---------------------------------------------------------------------

TEST(RobustnessTest, AuditedHealthyRunPasses)
{
    SimConfig cfg;
    cfg.audit = true;
    Runner run(cfg);
    const WorkloadBundle b = tinyBundle();
    const RunResult r = run.run(b, "PACT", 0.4);
    EXPECT_GT(r.runtime, 0u);
    EXPECT_GT(r.stats.daemonTicks, 0u);
}

TEST(RobustnessTest, AuditedFaultedRunStillPasses)
{
    // The auditor holds under injection: faults perturb behaviour but
    // must never corrupt tier accounting.
    SimConfig cfg;
    cfg.audit = true;
    cfg.faults = "migabort:p=0.5;pebsdrop:p=0.2;jitter:frac=0.3";
    Runner run(cfg);
    const WorkloadBundle b = tinyBundle();
    EXPECT_GT(run.run(b, "PACT", 0.4).runtime, 0u);
}

TEST(RobustnessTest, CorruptedTierBookkeepingTripsTheAuditor)
{
    const WorkloadBundle b = tinyBundle();
    SimConfig cfg;
    cfg.fastCapacityPages = b.rssPages() / 2;
    auto policy = makePolicy("NoTier");
    Engine e(cfg, b.as, &b.traces, policy.get());
    e.runUntil(cfg.daemonPeriod * 2);

    TierManager &tm = e.tierManager();
    EXPECT_NO_THROW(tm.auditConsistency());

    PageId victim = ~0ull;
    for (PageId p = 0; p < tm.totalPages(); p++) {
        if (tm.touched(p)) {
            victim = p;
            break;
        }
    }
    ASSERT_NE(victim, ~0ull) << "no touched page after two windows";
    // Flip the page's recorded tier without moving it: per-tier used
    // counts no longer match the metadata recount.
    tm.meta(victim).tier ^= 1;
    EXPECT_THROW(tm.auditConsistency(), InvariantError);
    tm.meta(victim).tier ^= 1; // restore
    EXPECT_NO_THROW(tm.auditConsistency());
}

// ---------------------------------------------------------------------
// Degenerate-window math
// ---------------------------------------------------------------------

TEST(DegenerateMath, MlpWithIdleTierIsOne)
{
    // dT2 == 0 (no busy cycles on the tier) must not divide by zero;
    // the documented fallback is MLP = 1.
    EXPECT_EQ(Pmu::mlp(123456, 0), 1.0);
    EXPECT_EQ(Pmu::mlp(0, 0), 1.0);
    PmuWindow w;
    w.torOccupancy[1] = 5;
    w.torBusy[1] = 0;
    EXPECT_EQ(w.mlp(TierId::Slow), 1.0);
}

TEST(DegenerateMath, BinningSurvivesColdAndDegenerateReservoirs)
{
    Rng rng(9);
    BinningConfig cfg;
    AdaptiveBinning bins(cfg);

    // Empty reservoir: no quartiles to estimate.
    Reservoir empty(64);
    bins.update(empty, 0, 0);
    EXPECT_TRUE(std::isfinite(bins.width()));
    EXPECT_GE(bins.width(), cfg.minWidth);

    // Constant values: IQR == 0.
    Reservoir flat(64);
    for (int i = 0; i < 1000; i++)
        flat.add(7.0, rng);
    bins.update(flat, 1000, 10);
    EXPECT_TRUE(std::isfinite(bins.width()));
    EXPECT_GE(bins.width(), cfg.minWidth);

    // Infinite values: the FD width would be inf/NaN without the
    // fallback.
    Reservoir inf(64);
    for (int i = 0; i < 100; i++)
        inf.add(std::numeric_limits<double>::infinity(), rng);
    bins.update(inf, 100, 10);
    EXPECT_TRUE(std::isfinite(bins.width()));
    EXPECT_GE(bins.width(), cfg.minWidth);
}

TEST(DegenerateMath, BinOfToleratesNanAndNegatives)
{
    AdaptiveBinning bins;
    EXPECT_EQ(bins.binOf(std::numeric_limits<double>::quiet_NaN()), 0u);
    EXPECT_EQ(bins.binOf(-1.0), 0u);
    EXPECT_EQ(bins.binOf(0.0), 0u);
    // Monstrous PACs clamp instead of overflowing the uint32 cast.
    EXPECT_EQ(bins.binOf(std::numeric_limits<double>::infinity()),
              4000000000u);
}

TEST(RobustnessTest, MasslessWindowAttributionStaysFinite)
{
    // A window whose samples carry zero total latency mass (A_t == 0
    // in S_p = S * A_p / A_t) must fall back to count-based shares,
    // not divide by zero.
    const WorkloadBundle b = tinyBundle();
    SimConfig cfg;
    cfg.fastCapacityPages = b.rssPages() / 2;
    cfg.pebs.rate = 1;
    cfg.daemonPeriod = 1ull << 40; // never ticks on its own
    PactConfig pcfg;
    pcfg.profileOnly = true;
    pcfg.latencyWeighted = true;
    PactPolicy pol(pcfg);
    Engine e(cfg, b.as, &b.traces, &pol);
    e.runUntil(cfg.slice * 4); // start the run, touch pages

    PageId page = ~0ull;
    for (PageId p = 0; p < e.tierManager().totalPages(); p++) {
        if (e.tierManager().touched(p)) {
            page = p;
            break;
        }
    }
    ASSERT_NE(page, ~0ull);

    SimContext &ctx = e.context();
    ctx.pebs.drain(); // discard anything the run buffered
    for (int i = 0; i < 32; i++)
        ctx.pebs.onLoadMiss(page << PageShift, TierId::Slow,
                            /*latency=*/0, 0);
    pol.tick(ctx);
    pol.audit(ctx); // every PAC finite and non-negative, or throws

    double sum = 0.0;
    pol.table().forEach([&](const PacEntry &e2) {
        EXPECT_TRUE(std::isfinite(e2.pac)) << "page " << e2.page;
        sum += e2.pac;
    });
    EXPECT_TRUE(std::isfinite(sum));
}
