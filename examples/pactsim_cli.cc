/**
 * @file
 * pactsim: command-line driver over the full library — run any
 * workload under any policy at any tier ratio and print a one-screen
 * report, or sweep all policies. The "sixth example", closest to how
 * the paper's artifact is driven.
 *
 *   pactsim_cli --workload bc-kron --policy PACT --ratio 1:2
 *   pactsim_cli --workload silo --sweep --scale 0.5
 *   pactsim_cli --list
 */

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "harness/pool.hh"
#include "harness/sweep.hh"
#include "obs/export.hh"
#include "obs/timeseries.hh"
#include "policies/registry.hh"
#include "trace_store/trace_store.hh"
#include "workloads/registry.hh"

using namespace pact;

namespace
{

void
usage()
{
    std::printf(
        "pactsim: tiered-memory simulation driver\n"
        "  --workload <name>   workload (default bc-kron)\n"
        "  --policy <name>     tiering policy (default PACT); a +admit\n"
        "                      suffix (e.g. PACT+admit) adds migration\n"
        "                      admission control learned from recent\n"
        "                      transaction outcomes\n"
        "  --ratio <f:s>       fast:slow tier ratio (default 1:1)\n"
        "  --scale <x>         footprint scale factor (default 1.0)\n"
        "  --thp               allocate with transparent huge pages\n"
        "  --pebs-rate <n>     sample 1-in-n slow misses (default 64)\n"
        "  --period <cycles>   daemon period (default 1000000)\n"
        "  --seed <n>          RNG seed (default 42)\n"
        "  --faults <spec>     deterministic fault injection, e.g.\n"
        "                      migabort:p=0.1;pebsdrop:p=0.05. Kinds:\n"
        "                      migabort, midabort[,at=], dirty,\n"
        "                      tierfail, stall[,periods=],\n"
        "                      pebsstarve[,len=], pebsdrop, pebsdup,\n"
        "                      wrap:bits=, jitter:frac=\n"
        "  --retries <n>       max migration-transaction retries after\n"
        "                      a retryable abort (default 2; 0 = give\n"
        "                      up on first abort)\n"
        "  --audit             run the invariant auditor every window\n"
        "  --trace-dir [dir]   persist generated traces and warm-start\n"
        "                      from them (zero-copy) [.pact-traces]\n"
        "  --tenants [n]       multi-tenant mode: every trace becomes\n"
        "                      a tenant with its own core and policy\n"
        "                      daemon (tenant<i>.* stats when there\n"
        "                      are two or more);\n"
        "                      with n, runs the n-process colocation\n"
        "                      workload masim-coloc<n>\n"
        "  --sweep             run every policy at the given ratio\n"
        "  --policies <csv>    restrict --sweep to these policies\n"
        "  --list              list workloads and policies\n"
        "artifacts (optional path; default shown):\n"
        "  --out-json [file]   run manifest JSON"
        " [pactsim.manifest.json]\n"
        "  --timeseries [file] per-window stats JSONL"
        " [pactsim.timeseries.jsonl]\n"
        "  --trace-out [file]  chrome://tracing / Perfetto trace"
        " [pactsim.trace.json]\n"
        "  --events [file]     decision provenance journal JSONL"
        " [pactsim.events.jsonl]\n"
        "                      (with --trace-out, migrations also\n"
        "                      render as per-page async trace slices)\n"
        "env:\n"
        "  PACT_JOBS           worker threads for --sweep (default:\n"
        "                      all cores; 1 = serial). Results are\n"
        "                      identical regardless of job count.\n"
        "  PACT_TRACE_DIR      trace-store directory (--trace-dir\n"
        "                      overrides; 1 = .pact-traces)\n"
        "  PACT_RUN_TIMEOUT_MS per-run wall-clock budget; a run over\n"
        "                      budget fails with TimeoutError\n");
}

void
list()
{
    std::printf("workloads:");
    for (const auto &w : allWorkloadNames())
        std::printf(" %s", w.c_str());
    std::printf("\npolicies:");
    for (const auto &p : allPolicyNames())
        std::printf(" %s", p.c_str());
    std::printf(
        "\nvariants: PACT-freq PACT-static PACT-adaptive "
        "PACT-cool-halve PACT-cool-reset PACT-littleslaw\n");
}

std::string
pct(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", v);
    return buf;
}

void
report(const RunResult &r)
{
    Table t({"metric", "value"});
    t.row().cell("slowdown vs DRAM-only").cell(pct(r.slowdownPct));
    t.row().cell("runtime (Mcycles)").cell(
        static_cast<double>(r.runtime) / 1e6, 1);
    t.row().cell("promotions").cellCount(r.stats.promotions());
    t.row().cell("demotions").cellCount(r.stats.demotions());
    t.row().cell("hint faults").cellCount(r.stats.pmu.hintFaults);
    t.row().cell("PEBS events").cellCount(r.stats.pebsEvents);
    t.row().cell("LLC misses fast/slow").cell(
        Table::humanCount(r.stats.pmu.llcMisses[0]) + " / " +
        Table::humanCount(r.stats.pmu.llcMisses[1]));
    t.row().cell("slow-tier MLP").cell(
        Pmu::mlp(r.stats.pmu.torOccupancy[1], r.stats.pmu.torBusy[1]),
        2);
    t.row().cell("migration penalty (Mcycles)").cell(
        static_cast<double>(r.stats.migration.appPenaltyCycles) / 1e6,
        2);
    t.print();

    if (r.tenants.size() < 2)
        return;
    std::printf("\nper-tenant (shared LLC/tiers, one daemon each):\n");
    Table tt({"tenant", "slowdown", "retired ops", "daemon ticks",
              "PEBS events"});
    for (const RunResult::Tenant &tn : r.tenants) {
        tt.row()
            .cell(tn.name)
            .cell(pct(tn.slowdownPct))
            .cellCount(tn.retiredOps)
            .cellCount(tn.daemonTicks)
            .cellCount(tn.pebsEvents);
    }
    tt.print();
}

/** Split a comma-separated list, skipping empty fields. */
std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/**
 * Parse @p v, the value of @p flag, as a plain decimal count: digits
 * only (no sign, suffix or exponent) and at most @p max. Anything else
 * is fatal, naming the flag, before any workload is built.
 */
std::uint64_t
parseCount(const std::string &flag, const char *v,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    fatal_if(v[0] < '0' || v[0] > '9' || *end != '\0' || errno == ERANGE ||
                 n > max,
             flag, " expects a non-negative integer, got '", v, "'");
    return n;
}

int
cliMain(int argc, char **argv)
{
    std::string workload = "bc-kron";
    std::string policy = "PACT";
    int fast = 1, slow = 1;
    WorkloadOptions opt;
    SimConfig cfg;
    bool sweep = false;
    bool tenantsMode = false;
    unsigned tenantCount = 0;
    std::vector<std::string> sweepPolicies;
    std::string manifestPath, timeseriesPath, tracePath, eventsPath;

    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            fatal_if(i + 1 >= argc, "missing value for ", arg);
            return argv[++i];
        };
        // Artifact flags take an optional path: a following token that
        // does not look like another flag is consumed as the filename.
        auto nextOr = [&](const char *deflt) -> const char * {
            if (i + 1 < argc && argv[i + 1][0] != '-')
                return argv[++i];
            return deflt;
        };
        if (arg == "--workload") {
            workload = next();
        } else if (arg == "--policy") {
            policy = next();
        } else if (arg == "--ratio") {
            // Two plain decimal counts, each small enough that their
            // sum stays an int, and not both zero.
            const std::string v = next();
            const std::size_t colon = v.find(':');
            fatal_if(colon == std::string::npos,
                     "--ratio expects f:s, got '", v, "'");
            const std::uint64_t max = std::numeric_limits<int>::max() / 2;
            fast = static_cast<int>(
                parseCount(arg, v.substr(0, colon).c_str(), max));
            slow = static_cast<int>(
                parseCount(arg, v.substr(colon + 1).c_str(), max));
            fatal_if(fast + slow == 0,
                     "--ratio expects f:s with f + s > 0, got '", v, "'");
        } else if (arg == "--scale") {
            const char *v = next();
            char *end = nullptr;
            opt.scale = std::strtod(v, &end);
            fatal_if(end == v || *end != '\0' || !std::isfinite(opt.scale) ||
                         opt.scale <= 0.0,
                     "--scale expects a finite number > 0, got '", v, "'");
        } else if (arg == "--thp") {
            opt.thp = true;
        } else if (arg == "--pebs-rate") {
            cfg.pebs.rate = parseCount(arg, next());
        } else if (arg == "--period") {
            cfg.daemonPeriod = parseCount(arg, next());
        } else if (arg == "--seed") {
            opt.seed = parseCount(arg, next());
            cfg.seed = opt.seed;
        } else if (arg == "--faults") {
            cfg.faults = next();
        } else if (arg == "--retries") {
            cfg.migration.txnMaxRetries = static_cast<unsigned>(parseCount(
                arg, next(), std::numeric_limits<unsigned>::max()));
        } else if (arg == "--audit") {
            cfg.audit = true;
        } else if (arg == "--trace-dir") {
            setTraceStoreDir(nextOr(".pact-traces"));
        } else if (arg == "--tenants") {
            tenantsMode = true;
            const char *v = nextOr("");
            if (v[0] != '\0') {
                tenantCount = static_cast<unsigned>(parseCount(
                    arg, v, std::numeric_limits<unsigned>::max()));
                fatal_if(tenantCount == 0,
                         "--tenants expects a count > 0, got '", v, "'");
            }
        } else if (arg == "--sweep") {
            sweep = true;
        } else if (arg == "--policies") {
            sweepPolicies = splitCsv(next());
        } else if (arg == "--out-json") {
            manifestPath = nextOr("pactsim.manifest.json");
        } else if (arg == "--timeseries") {
            timeseriesPath = nextOr("pactsim.timeseries.jsonl");
        } else if (arg == "--trace-out") {
            tracePath = nextOr("pactsim.trace.json");
        } else if (arg == "--events") {
            eventsPath = nextOr("pactsim.events.jsonl");
        } else if (arg == "--list") {
            list();
            return 0;
        } else {
            usage();
            return arg == "--help" || arg == "-h" ? 0 : 1;
        }
    }

    fatal_if(sweep && (!timeseriesPath.empty() || !tracePath.empty() ||
                       !eventsPath.empty()),
             "--timeseries/--trace-out/--events apply to a single run, "
             "not --sweep (use --out-json for a sweep manifest)");
    fatal_if(!sweepPolicies.empty() && !sweep,
             "--policies only applies to --sweep (use --policy for a "
             "single run)");

    // --tenants <n> selects the n-process colocation generator; bare
    // --tenants runs whatever multi-process workload was named, one
    // tenant per trace.
    if (tenantCount > 0) {
        fatal_if(workload != "masim-coloc" &&
                     workload.rfind("masim-coloc", 0) != 0,
                 "--tenants <n> selects masim-coloc<n>; combine a bare "
                 "--tenants with --workload for other bundles");
        workload = "masim-coloc" + std::to_string(tenantCount);
    }

    // Validate before spending time building the workload.
    cfg.validate();

    WorkloadSource source = WorkloadSource::Generated;
    const auto buildStart = std::chrono::steady_clock::now();
    const auto bundle = makeWorkloadShared(workload, opt, &source);
    const auto buildMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - buildStart)
            .count();
    if (!traceStoreDir().empty()) {
        // generation_ms counts trace *generation* only: a warm load
        // (disk or memory) did not generate, so it reports 0.
        const bool generated = source == WorkloadSource::Generated;
        std::fprintf(
            stderr, "trace-store: source=%s generation_ms=%lld\n",
            generated ? "generated"
                      : (source == WorkloadSource::DiskCache
                             ? "disk"
                             : "memory"),
            generated ? static_cast<long long>(buildMs) : 0ll);
    }
    Runner runner(cfg);
    const double share = Runner::ratioShare(fast, slow);

    // One manifest shape for both modes: the effective per-run config
    // (capacity resolved from the ratio) plus driver parameters.
    auto writeManifest = [&](const std::vector<obs::ManifestResult> &results,
                             const std::string &kind) {
        obs::RunManifest m;
        m.kind = kind;
        m.producer = "pactsim_cli";
        m.config = cfg;
        m.config.fastCapacityPages = runner.capacityPages(*bundle, share);
        m.params = {{"scale", opt.scale},
                    {"fast_share", share},
                    {"ratio_fast", static_cast<double>(fast)},
                    {"ratio_slow", static_cast<double>(slow)},
                    {"thp", opt.thp ? 1.0 : 0.0}};
        m.textParams = {{"workload", workload}};
        if (tenantsMode)
            m.textParams.emplace_back("mode", "tenants");
        if (!sweep)
            m.textParams.emplace_back("policy", policy);
        m.results = results;
        std::ofstream os(manifestPath, std::ios::binary);
        fatal_if(!os, "cannot open ", manifestPath);
        obs::writeRunManifest(os, m);
        std::fprintf(stderr, "wrote %s\n", manifestPath.c_str());
    };

    std::printf("%s: %llu MB resident, %zu trace ops, fast:slow "
                "%d:%d\n\n",
                workload.c_str(),
                static_cast<unsigned long long>(
                    bundle->rssPages() * PageBytes >> 20),
                bundle->traces[0].size(), fast, slow);

    if (sweep) {
        // All policies run concurrently (PACT_JOBS workers); the
        // report keeps the registry order. A run that fails (bad
        // policy name, injected fault tripping an invariant, timeout)
        // is reported in place without aborting the rest of the sweep.
        std::vector<RunSpec> specs;
        const auto policies =
            sweepPolicies.empty() ? allPolicyNames() : sweepPolicies;
        for (const auto &p : policies)
            specs.push_back({bundle.get(), p, share, tenantsMode});
        const std::vector<RunOutcome> outcomes =
            runManyOutcomes(runner, specs);
        Table t({"policy", "slowdown", "promotions", "demotions",
                 "hint faults"});
        for (const RunOutcome &o : outcomes) {
            if (o.ok) {
                const RunResult &r = o.result;
                t.row().cell(r.policy);
                if (r.stats.completed)
                    t.cell(r.slowdownPct, 1);
                else
                    t.cell("TRUNCATED");
                t.cellCount(r.stats.promotions())
                    .cellCount(r.stats.demotions())
                    .cellCount(r.stats.pmu.hintFaults);
            } else {
                t.row()
                    .cell(o.spec.policy)
                    .cell("FAILED: " + o.error.kind)
                    .cell("-")
                    .cell("-")
                    .cell("-");
                std::fprintf(stderr, "%s: %s\n", o.spec.policy.c_str(),
                             o.error.message.c_str());
            }
        }
        t.print();
        if (!manifestPath.empty()) {
            std::vector<obs::ManifestResult> results;
            for (const RunOutcome &o : outcomes)
                results.push_back(manifestOutcome(o));
            writeManifest(results, "sweep");
        }
        return 0;
    }

    std::ofstream tsStream;
    std::optional<obs::TimeSeriesRecorder> recorder;
    obs::TraceEventSink trace;
    RunObservers observers;
    if (!timeseriesPath.empty()) {
        tsStream.open(timeseriesPath, std::ios::binary);
        fatal_if(!tsStream, "cannot open ", timeseriesPath);
        recorder.emplace(tsStream, cfg.daemonPeriod);
        observers.timeseries = &*recorder;
    }
    if (!tracePath.empty())
        observers.trace = &trace;
    std::optional<obs::EventJournal> journal;
    if (!eventsPath.empty()) {
        journal.emplace();
        observers.events = &*journal;
    }

    const RunResult r =
        tenantsMode ? runner.runTenants(*bundle, policy, share, &observers)
                    : runner.run(*bundle, policy, share, &observers);
    report(r);
    std::vector<obs::ManifestResult> results = {manifestResult(r)};
    results.back().fastShare = share;

    if (!timeseriesPath.empty()) {
        tsStream.close();
        std::fprintf(stderr, "wrote %s (%llu windows)\n",
                     timeseriesPath.c_str(),
                     static_cast<unsigned long long>(recorder->rows()));
    }
    if (!eventsPath.empty()) {
        std::ofstream os(eventsPath, std::ios::binary);
        fatal_if(!os, "cannot open ", eventsPath);
        journal->writeJsonl(os);
        std::fprintf(
            stderr, "wrote %s (%llu events, %llu dropped)\n",
            eventsPath.c_str(),
            static_cast<unsigned long long>(journal->emitted()),
            static_cast<unsigned long long>(journal->dropped()));
    }
    if (!tracePath.empty()) {
        // The journal's per-page migration slices land on the same
        // per-tenant migration lanes the engine uses for its copy
        // spans.
        if (journal) {
            journal->mergeIntoTrace(trace, [](std::uint32_t tenant) {
                return static_cast<int>(Engine::migrationLane(tenant));
            });
        }
        std::ofstream os(tracePath, std::ios::binary);
        fatal_if(!os, "cannot open ", tracePath);
        trace.write(os);
        std::fprintf(stderr, "wrote %s (%zu events)\n", tracePath.c_str(),
                     trace.size());
    }
    if (!manifestPath.empty())
        writeManifest(results, "run");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Structured failures (bad flags/config, unknown names, tripped
    // invariants) exit 1 with a one-line diagnostic instead of an
    // abort; anything else is a bug and propagates to std::terminate.
    try {
        return cliMain(argc, argv);
    } catch (const SimError &e) {
        std::fprintf(stderr, "error (%s): %s\n", e.kind().c_str(),
                     e.what());
        return 1;
    }
}
