/**
 * @file
 * Multi-tenant engine tests: a one-tenant colocation is the
 * single-daemon run and reproduces the golden corpus bit-for-bit,
 * N-tenant runs are byte-deterministic across PACT_JOBS settings and
 * repeats, and the
 * shared per-tier token buckets cap aggregate bandwidth no matter how
 * many tenants contend on them. Also pins the start()-time migration
 * journal attribution: a tenant's start-phase migrations must be
 * journaled under that tenant, not whichever tenant was stamped last.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "harness/runner.hh"
#include "mem/addr_space.hh"
#include "obs/events.hh"
#include "sim/engine.hh"
#include "workloads/registry.hh"

using namespace pact;

namespace
{

struct GoldenCase
{
    const char *id;
    const char *policy;
    unsigned mshrs;
    unsigned robOps;
    const char *faults;
};

/** The exact corner set test_golden.cc pins (same order). */
constexpr GoldenCase kCases[] = {
    {"pact_default", "PACT", 16, 192, ""},
    {"memtis_default", "Memtis", 16, 192, ""},
    {"tpp_default", "TPP", 16, 192, ""},
    {"pact_mshrs1", "PACT", 1, 192, ""},
    {"pact_mshrs64_rob8", "PACT", 64, 8, ""},
    {"pact_jitter", "PACT", 16, 192, "jitter:frac=0.3"},
};

struct GoldenStat
{
    const char *caseId;
    const char *name;
    double value;
};

const std::vector<GoldenStat> kGolden = {
#include "golden_stats.inc"
};

/** Restore an environment variable on scope exit. */
class EnvGuard
{
  public:
    explicit EnvGuard(const char *name) : name_(name)
    {
        if (const char *v = std::getenv(name))
            saved_ = v;
        else
            unset_ = true;
    }
    ~EnvGuard()
    {
        if (unset_)
            unsetenv(name_);
        else
            setenv(name_, saved_.c_str(), 1);
    }

    EnvGuard(const EnvGuard &) = delete;
    EnvGuard &operator=(const EnvGuard &) = delete;

  private:
    const char *name_;
    std::string saved_;
    bool unset_ = false;
};

/** Serialize one run the way pactsim_cli's --out-json path does. */
std::string
manifestBytes(const SimConfig &cfg, const RunResult &r)
{
    obs::RunManifest m;
    m.kind = "run";
    m.producer = "test_multicore";
    m.config = cfg;
    m.results.push_back(manifestResult(r));
    std::ostringstream os;
    obs::writeRunManifest(os, m);
    return os.str();
}

/**
 * Generate masim-coloc fresh (no shared-bundle cache, so PACT_JOBS
 * really governs generation) and run it as two tenants.
 */
RunResult
twoTenantRun(const char *jobs)
{
    setenv("PACT_JOBS", jobs, 1);
    WorkloadOptions opt;
    opt.scale = 0.05;
    const WorkloadBundle bundle = makeWorkload("masim-coloc", opt);
    Runner runner;
    return runner.runTenants(bundle, "PACT", 0.5);
}

} // namespace

/**
 * (a) A one-tenant colocation is the single-daemon run: on silo,
 * runTenants and run give equal registries, name for name, and equal
 * tenant rows, and every golden-corpus value reappears bit-identically
 * under its own, unprefixed name.
 */
TEST(Multicore, OneTenantReproducesGoldenCorners)
{
    WorkloadOptions opt;
    opt.scale = 0.1;
    const auto bundle = makeWorkloadShared("silo", opt);
    ASSERT_EQ(bundle->traces.size(), 1u);

    for (const GoldenCase &c : kCases) {
        SCOPED_TRACE(c.id);

        SimConfig cfg;
        cfg.cpu.mshrs = c.mshrs;
        cfg.cpu.robOps = c.robOps;
        cfg.faults = c.faults;
        Runner runner(cfg);
        const double share = Runner::ratioShare(1, 2);
        const RunResult r = runner.runTenants(*bundle, c.policy, share);
        const RunResult single = runner.run(*bundle, c.policy, share);

        const auto &reg = r.stats.registry;
        const auto &singleReg = single.stats.registry;
        ASSERT_EQ(reg.size(), singleReg.size());
        for (std::size_t i = 0; i < reg.size(); i++) {
            ASSERT_EQ(reg[i].first, singleReg[i].first);
            EXPECT_EQ(reg[i].second, singleReg[i].second) << reg[i].first;
        }

        ASSERT_EQ(r.tenants.size(), 1u);
        ASSERT_EQ(single.tenants.size(), 1u);
        const RunResult::Tenant &t = r.tenants[0];
        const RunResult::Tenant &st = single.tenants[0];
        EXPECT_EQ(t.name, "tenant0");
        EXPECT_EQ(t.name, st.name);
        EXPECT_EQ(t.slowdownPct, st.slowdownPct);
        EXPECT_EQ(t.retiredOps, st.retiredOps);
        EXPECT_EQ(t.cycles, st.cycles);
        EXPECT_EQ(t.daemonTicks, st.daemonTicks);
        EXPECT_EQ(t.pebsEvents, st.pebsEvents);

        std::map<std::string, double> dump(reg.begin(), reg.end());
        std::size_t checked = 0;
        for (const GoldenStat &g : kGolden) {
            if (std::string(g.caseId) != c.id)
                continue;
            auto it = dump.find(g.name);
            ASSERT_NE(it, dump.end())
                << g.name << " missing from the tenant-path registry";
            EXPECT_EQ(it->second, g.value)
                << g.name << " drifted on the tenant path";
            checked++;
        }
        ASSERT_GT(checked, 0u)
            << "no golden data for case " << c.id
            << " (regenerate golden_stats.inc)";
    }
}

/**
 * (b) Two-tenant manifests are byte-identical at PACT_JOBS=1 vs =4
 * (generation fan-out must not leak into the simulation) and across
 * repeated runs (no hidden state between engines).
 */
TEST(Multicore, TwoTenantManifestBytesAreJobInvariant)
{
    const EnvGuard guard("PACT_JOBS");
    const EnvGuard storeGuard("PACT_TRACE_DIR");
    unsetenv("PACT_TRACE_DIR");

    const SimConfig cfg;
    const std::string serial = manifestBytes(cfg, twoTenantRun("1"));
    const std::string wide = manifestBytes(cfg, twoTenantRun("4"));
    const std::string again = manifestBytes(cfg, twoTenantRun("4"));

    EXPECT_NE(serial.find("\"schema\":\"pact.manifest/6\""),
              std::string::npos);
    EXPECT_NE(serial.find("\"tenants\":["), std::string::npos);
    EXPECT_NE(serial.find("\"tenant0\""), std::string::npos);
    EXPECT_NE(serial.find("\"tenant1\""), std::string::npos);
    EXPECT_NE(serial.find("\"distributions\":{"), std::string::npos);
    EXPECT_NE(serial.find("\"engine.dist.migration.latency\""),
              std::string::npos);
    EXPECT_EQ(serial, wide) << "PACT_JOBS leaked into the simulation";
    EXPECT_EQ(wide, again) << "repeat run diverged";
}

namespace
{

/** One two-tenant run recorded through the TimeSeriesRecorder. */
std::string
twoTenantTimeSeries(const char *jobs)
{
    setenv("PACT_JOBS", jobs, 1);
    WorkloadOptions opt;
    opt.scale = 0.05;
    const WorkloadBundle bundle = makeWorkload("masim-coloc", opt);
    Runner runner;
    std::ostringstream os;
    obs::TimeSeriesRecorder rec(os, runner.config().daemonPeriod);
    RunObservers observers;
    observers.timeseries = &rec;
    runner.runTenants(bundle, "PACT", 0.5, &observers);
    EXPECT_GT(rec.rows(), 0u);
    return os.str();
}

} // namespace

/**
 * (b') The per-window recorder on the multi-tenant path: the header
 * layout carries every tenant's stat subtree, rows parse against it,
 * and the whole JSONL stream is byte-identical at PACT_JOBS=1 vs =4.
 */
TEST(Multicore, TwoTenantTimeSeriesBytesAreJobInvariant)
{
    const EnvGuard guard("PACT_JOBS");
    const EnvGuard storeGuard("PACT_TRACE_DIR");
    unsetenv("PACT_TRACE_DIR");

    const std::string serial = twoTenantTimeSeries("1");
    const std::string wide = twoTenantTimeSeries("4");

    // Header names both tenants' stat subtrees and the distribution
    // list (pact.timeseries/2).
    EXPECT_NE(serial.find("\"schema\":\"pact.timeseries/2\""),
              std::string::npos);
    EXPECT_NE(serial.find("\"tenant0.pact.ticks\""), std::string::npos);
    EXPECT_NE(serial.find("\"tenant1.pact.ticks\""), std::string::npos);
    EXPECT_NE(serial.find("\"distributions\":["), std::string::npos);
    EXPECT_NE(serial.find("\"tenant0.pact.dist.pac_score\""),
              std::string::npos);
    EXPECT_NE(serial.find("\"tenant1.pact.dist.pac_score\""),
              std::string::npos);
    // Rows carry the per-window distribution summaries.
    EXPECT_NE(serial.find("\"dist\":{"), std::string::npos);
    EXPECT_EQ(serial, wide)
        << "PACT_JOBS leaked into the time-series stream";
}

/**
 * (c) Four tenants share the two tier token buckets: total lines
 * served per tier must respect the tier's service rate over the run
 * (cap x wall time, plus bounded burst slack from migration copies) —
 * the property that would break if tenants ever got private buckets.
 */
TEST(Multicore, SharedTierBucketCapsAggregateBandwidth)
{
    WorkloadOptions opt;
    opt.scale = 0.05;
    const auto bundle = makeWorkloadShared("masim-coloc4", opt);
    ASSERT_EQ(bundle->traces.size(), 4u);

    Runner runner;
    const RunResult r = runner.runTenants(*bundle, "PACT", 0.5);

    ASSERT_EQ(r.tenants.size(), 4u);
    for (const RunResult::Tenant &t : r.tenants) {
        EXPECT_GT(t.retiredOps, 0u) << t.name;
        EXPECT_GT(t.daemonTicks, 0u) << t.name;
    }

    const double wall = static_cast<double>(r.stats.wallCycles);
    ASSERT_GT(wall, 0.0);
    const struct
    {
        const char *stat;
        double serviceCycles;
    } tiers[] = {
        {"engine.tier.fast.lines_served",
         runner.config().fast.serviceCycles},
        {"engine.tier.slow.lines_served",
         runner.config().slow.serviceCycles},
    };
    for (const auto &tier : tiers) {
        const double lines = r.stats.stat(tier.stat);
        EXPECT_GT(lines, 0.0) << tier.stat;
        // One migration batch can be charged as a burst past the
        // cursor; 2MB (32768 lines) of slack plus 5% covers it while
        // still catching any per-tenant (4x) bucket split.
        const double busy = lines * tier.serviceCycles;
        EXPECT_LE(busy, 1.05 * wall + 32768.0 * tier.serviceCycles)
            << tier.stat << ": " << lines
            << " lines exceed the shared bucket's service rate";
    }
}

/** Tenants see less fast-tier than a whole-machine run would. */
TEST(Multicore, TenantRowsSumToMachineRetired)
{
    WorkloadOptions opt;
    opt.scale = 0.05;
    const auto bundle = makeWorkloadShared("masim-coloc", opt);
    Runner runner;
    const RunResult r = runner.runTenants(*bundle, "Colloid", 0.5);

    ASSERT_EQ(r.tenants.size(), 2u);
    std::uint64_t retired = 0;
    std::uint64_t ticks = 0;
    for (const RunResult::Tenant &t : r.tenants) {
        retired += t.retiredOps;
        ticks += t.daemonTicks;
    }
    std::uint64_t procSum = 0;
    for (std::uint64_t p : r.stats.procRetired)
        procSum += p;
    EXPECT_EQ(retired, procSum);
    EXPECT_EQ(ticks, r.stats.daemonTicks);
    // Per-tenant stat subtrees exist for both tenants.
    EXPECT_GT(r.stats.stat("tenant0.daemon.ticks"), 0.0);
    EXPECT_GT(r.stats.stat("tenant1.daemon.ticks"), 0.0);
    EXPECT_EQ(r.stats.stat("tenant0.daemon.ticks") +
                  r.stats.stat("tenant1.daemon.ticks"),
              static_cast<double>(r.stats.daemonTicks));
}

/** Soar's offline profile assumes the whole machine; reject it. */
TEST(MulticoreDeath, SoarIsSingleTenantOnly)
{
    WorkloadOptions opt;
    opt.scale = 0.05;
    const auto bundle = makeWorkloadShared("masim-coloc", opt);
    Runner runner;
    try {
        runner.runTenants(*bundle, "Soar", 0.5);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("single-tenant"),
                  std::string::npos);
    }
}

namespace
{

/** Multi-process streaming bundle exercising both tiers directly. */
struct StreamEnv
{
    StreamEnv(unsigned procs, std::uint64_t ops)
    {
        for (unsigned p = 0; p < procs; p++) {
            const Addr base =
                as.alloc(p, "buf" + std::to_string(p), 8 << 20);
            Trace t;
            t.name = "proc" + std::to_string(p);
            t.proc = static_cast<ProcId>(p);
            // Distinct stride per process so cores interleave over
            // disjoint pages with different miss mixes.
            for (std::uint64_t i = 0; i < ops; i++)
                t.load(base + (i * (8 + p) % (8 << 14)) * LineBytes,
                       p % 2 == 1);
            traces.push_back(std::move(t));
        }
        // Force fast-tier spill so first-touch, LRU, and PEBS slow
        // sampling all see traffic.
        cfg.fastCapacityPages = 96;
    }

    SimConfig cfg;
    AddrSpace as;
    std::vector<Trace> traces;
};

/**
 * A daemon that migrates during start(): touches a page (first-touch
 * lands in the fast tier while capacity remains) and immediately
 * demotes it, before any simulation slice has run.
 */
class StartMigrator : public TieringPolicy
{
  public:
    const char *name() const override { return "start-migrator"; }
    void start(SimContext &ctx) override
    {
        const PageId page = startPage;
        ctx.tm.touch(page, 0, false);
        migrated = ctx.mig.demote(page);
    }
    void tick(SimContext &) override {}

    PageId startPage = 0;
    bool migrated = false;
};

} // namespace

/**
 * Regression (chargeCopy journal attribution): a migration fired from
 * tenant i's start() — before any slice stamps the current tenant —
 * must be journaled under tenant i. Previously the journal context
 * was whatever the engine last stamped (tenant 0 at construction), so
 * every start-time migration was misattributed to tenant 0.
 */
TEST(Multicore, StartTimeMigrationJournalsCorrectTenant)
{
    StreamEnv env(2, 20000);
    StartMigrator pol0, pol1;
    pol0.startPage = 1;
    pol1.startPage = 2;

    std::vector<TenantSpec> specs(2);
    specs[0].traces = {&env.traces[0]};
    specs[0].policy = &pol0;
    specs[1].traces = {&env.traces[1]};
    specs[1].policy = &pol1;

    Engine e(env.cfg, env.as, std::move(specs));
    obs::EventJournal journal;
    e.setEventJournal(&journal);
    e.run();

    ASSERT_TRUE(pol0.migrated);
    ASSERT_TRUE(pol1.migrated);

    bool saw0 = false, saw1 = false;
    for (const obs::PageEvent &ev : journal.events()) {
        if (ev.kind != obs::EventKind::TxnPrepare)
            continue;
        if (ev.page == pol0.startPage && ev.now == 0) {
            EXPECT_EQ(ev.tenant, 0u);
            saw0 = true;
        }
        if (ev.page == pol1.startPage && ev.now == 0) {
            EXPECT_EQ(ev.tenant, 1u)
                << "start()-time migration misattributed to tenant "
                << ev.tenant;
            saw1 = true;
        }
    }
    EXPECT_TRUE(saw0);
    EXPECT_TRUE(saw1);
}
