/**
 * @file
 * End-to-end hot-path benchmark: trace ops per second through a full
 * Engine::run. perfbench/ is the benchmark of record and already times
 * the graph sweep and the healthy short-window colocations; the rows
 * here are the single-run shapes it does not cover, including the
 * PACT short-window rows that time the migration livelock.
 * BENCH_hotpath.json is their frozen history (last entry pr10-daemon).
 *
 * Workload scale defaults to 0.5 and follows PACT_SCALE.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "harness/runner.hh"
#include "policies/registry.hh"
#include "sim/engine.hh"
#include "workloads/registry.hh"

using namespace pact;

namespace
{

/** How a run maps the bundle's traces onto policy daemons. */
enum class Tenancy
{
    /** One daemon over every trace (the single-daemon engine). */
    Shared,
    /**
     * Every trace is a tenant with its own core, PEBS sampler and
     * policy daemon on the shared LLC/tiers: the per-op cost of the
     * tenant dispatch loop.
     */
    PerTrace,
};

/**
 * One full Engine::run of @p workload under @p policy_name with the
 * fast tier sized to half the footprint (the paper's 1:1 ratio).
 * Reported items are retired trace ops summed over all processes.
 * A nonzero @p period overrides the daemon period.
 */
void
engineRun(benchmark::State &state, const char *workload,
          const char *policy_name, Tenancy tenancy, std::uint64_t period)
{
    WorkloadOptions opt;
    opt.scale = envScale(0.5);
    const auto bundle = makeWorkloadShared(workload, opt);

    SimConfig cfg;
    cfg.fastCapacityPages = static_cast<std::uint64_t>(
        static_cast<double>(bundle->rssPages()) * 0.5 + 0.5);
    if (period)
        cfg.daemonPeriod = period;

    std::uint64_t ops = 0;
    for (auto _ : state) {
        std::vector<std::unique_ptr<TieringPolicy>> policies;
        std::vector<TenantSpec> specs;
        for (const Trace &t : bundle->traces) {
            if (specs.empty() || tenancy == Tenancy::PerTrace) {
                policies.push_back(makePolicy(policy_name));
                specs.push_back({"", {}, policies.back().get()});
            }
            specs.back().traces.push_back(&t);
        }
        Engine engine(cfg, bundle->as, std::move(specs));
        const RunStats rs = engine.run();
        for (const std::uint64_t r : rs.procRetired)
            ops += r;
        benchmark::DoNotOptimize(rs.wallCycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
    state.counters["scale"] = opt.scale;
    if (period)
        state.counters["period"] = static_cast<double>(period);
}

/**
 * Register one engineRun row under @p name (the row names predate the
 * shared body and key the BENCH_hotpath.json trajectory).
 */
void
engineRow(const char *name, const char *workload, const char *policy_name,
          Tenancy tenancy, std::uint64_t period = 0)
{
    benchmark::RegisterBenchmark(name, engineRun, workload, policy_name,
                                 tenancy, period)
        ->Unit(benchmark::kMillisecond);
}

void
registerRows()
{
    // The tracked set: a pointer-chase/random workload (MSHR- and
    // TOR-accounting-heavy), a graph kernel (the figure sweeps'
    // staple), a no-daemon run isolating the bare per-op simulation
    // loop, and a 4-tenant colocation exercising the multi-daemon
    // dispatch.
    engineRow("engineRun/gups_PACT", "gups", "PACT", Tenancy::Shared);
    engineRow("engineRun/gups_NoTier", "gups", "NoTier", Tenancy::Shared);
    engineRow("engineRun/bckron_PACT", "bc-kron", "PACT", Tenancy::Shared);
    engineRow("engineRun/silo_Memtis", "silo", "Memtis", Tenancy::Shared);
    engineRow("engineTenants/coloc4_PACT", "masim-coloc4", "PACT",
              Tenancy::PerTrace);
    // The named two-process colocation on the same path (the serial
    // baseline of the DESIGN.md §7c measurements).
    engineRow("engineTenants/coloc2_PACT", "masim-coloc", "PACT",
              Tenancy::PerTrace);
    // Daemon-window cost family: 16 tenants, period swept 1M -> 100k
    // cycles (10x more daemon windows at the short end), so control-
    // plane work (PAC attribution, candidate selection, migration
    // bookkeeping) takes a growing share of wall time. items_per_second
    // here prices the control plane itself.
    engineRow("engineDaemon/coloc16_PACT_p1000k", "masim-coloc16", "PACT",
              Tenancy::PerTrace, 1000000);
    engineRow("engineDaemon/coloc16_PACT_p500k", "masim-coloc16", "PACT",
              Tenancy::PerTrace, 500000);
    engineRow("engineDaemon/coloc16_PACT_p200k", "masim-coloc16", "PACT",
              Tenancy::PerTrace, 200000);
    engineRow("engineDaemon/coloc16_PACT_p100k", "masim-coloc16", "PACT",
              Tenancy::PerTrace, 100000);
}

} // namespace

int
main(int argc, char **argv)
{
    registerRows();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
