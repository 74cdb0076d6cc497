/**
 * @file
 * End-to-end hot-path benchmark: trace ops per second through a full
 * Engine::run, the metric scripts/bench_perf.py records into
 * BENCH_hotpath.json. Every paper figure is a sweep of exactly these
 * runs, so items_per_second here is the wall-clock currency of the
 * whole experiment harness.
 *
 * Workload scale defaults to 0.5 and follows PACT_SCALE/PACT_QUICK so
 * the bench_perf_smoke ctest entry can run a tiny configuration; the
 * recorded perf trajectory must always be produced at one fixed scale
 * (bench_perf.py pins it) to stay comparable across commits.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "harness/pool.hh"
#include "policies/registry.hh"
#include "sim/engine.hh"
#include "workloads/registry.hh"

using namespace pact;

namespace
{

/**
 * One full Engine::run of @p workload under @p policy_name with the
 * fast tier sized to half the footprint (the paper's 1:1 ratio).
 * Reported items are retired trace ops summed over all processes.
 */
void
engineRun(benchmark::State &state, const char *workload,
          const char *policy_name)
{
    setLogQuiet(true);
    WorkloadOptions opt;
    opt.scale = envScale(0.5);
    const auto bundle = makeWorkloadShared(workload, opt);

    SimConfig cfg;
    cfg.fastCapacityPages = static_cast<std::uint64_t>(
        static_cast<double>(bundle->rssPages()) * 0.5 + 0.5);

    std::uint64_t ops = 0;
    for (auto _ : state) {
        auto policy = makePolicy(policy_name);
        Engine engine(cfg, bundle->as, &bundle->traces, policy.get());
        const RunStats rs = engine.run();
        for (const std::uint64_t r : rs.procRetired)
            ops += r;
        benchmark::DoNotOptimize(rs.wallCycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
    state.counters["scale"] = opt.scale;
}

/**
 * Multi-tenant hot path: every trace of @p workload becomes a tenant
 * with its own core, PEBS sampler, and policy daemon on the shared
 * LLC/tiers — the per-op cost of the tenant dispatch loop relative to
 * the single-daemon engineRun above.
 */
void
engineTenants(benchmark::State &state, const char *workload,
              const char *policy_name)
{
    setLogQuiet(true);
    WorkloadOptions opt;
    opt.scale = envScale(0.5);
    const auto bundle = makeWorkloadShared(workload, opt);

    SimConfig cfg;
    cfg.fastCapacityPages = static_cast<std::uint64_t>(
        static_cast<double>(bundle->rssPages()) * 0.5 + 0.5);

    std::uint64_t ops = 0;
    for (auto _ : state) {
        std::vector<std::unique_ptr<TieringPolicy>> policies;
        std::vector<TenantSpec> specs;
        for (const Trace &t : bundle->traces) {
            policies.push_back(makePolicy(policy_name));
            specs.push_back({"", {&t}, policies.back().get()});
        }
        Engine engine(cfg, bundle->as, std::move(specs));
        const RunStats rs = engine.run();
        for (const std::uint64_t r : rs.procRetired)
            ops += r;
        benchmark::DoNotOptimize(rs.wallCycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
    state.counters["scale"] = opt.scale;
}

/**
 * Daemon-window cost family: the 16-tenant colocation with the daemon
 * period swept down from the default, so control-plane work (PAC
 * attribution, candidate selection, migration bookkeeping — the
 * per-window costs the allocation-free control plane targets) takes a
 * growing share of wall time. Sixteen tenants multiply every window
 * by sixteen daemon ticks, making this the policy-overhead-dominated
 * row of the tracked set.
 */
void
engineDaemon(benchmark::State &state, const char *workload,
             const char *policy_name, std::uint64_t period)
{
    setLogQuiet(true);
    WorkloadOptions opt;
    opt.scale = envScale(0.5);
    const auto bundle = makeWorkloadShared(workload, opt);

    SimConfig cfg;
    cfg.fastCapacityPages = static_cast<std::uint64_t>(
        static_cast<double>(bundle->rssPages()) * 0.5 + 0.5);
    cfg.daemonPeriod = period;

    std::uint64_t ops = 0;
    for (auto _ : state) {
        std::vector<std::unique_ptr<TieringPolicy>> policies;
        std::vector<TenantSpec> specs;
        for (const Trace &t : bundle->traces) {
            policies.push_back(makePolicy(policy_name));
            specs.push_back({"", {&t}, policies.back().get()});
        }
        Engine engine(cfg, bundle->as, std::move(specs));
        const RunStats rs = engine.run();
        for (const std::uint64_t r : rs.procRetired)
            ops += r;
        benchmark::DoNotOptimize(rs.wallCycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
    state.counters["scale"] = opt.scale;
    state.counters["period"] = static_cast<double>(period);
}

/**
 * The figure-sweep shape through the public harness: Runner::run of
 * the five graph-sweep policies at 1:1, one run at a time. The
 * runner's DRAM-only baseline is computed before timing starts, so
 * every timed run replays the LLC outcome stream that baseline
 * recorded; the engineRun rows above build Engine directly and keep
 * timing the live LLC probe.
 */
void
runnerSweep(benchmark::State &state, const char *workload)
{
    setLogQuiet(true);
    WorkloadOptions opt;
    opt.scale = envScale(0.5);
    const auto bundle = makeWorkloadShared(workload, opt);

    Runner runner;
    runner.baseline(*bundle);
    std::vector<RunSpec> specs;
    for (const char *p : {"PACT", "Memtis", "TPP", "Colloid", "NoTier"})
        specs.push_back({bundle.get(), p, Runner::ratioShare(1, 1)});

    std::uint64_t ops = 0;
    for (auto _ : state) {
        for (const RunResult &r : runMany(runner, specs, 1)) {
            for (const std::uint64_t n : r.stats.procRetired)
                ops += n;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
    state.counters["scale"] = opt.scale;
}

} // namespace

// The tracked set: a pointer-chase/random workload (MSHR- and
// TOR-accounting-heavy), a graph kernel (the figure sweeps' staple),
// a no-daemon run isolating the bare per-op simulation loop, and a
// 4-tenant colocation exercising the multi-daemon dispatch.
BENCHMARK_CAPTURE(engineRun, gups_PACT, "gups", "PACT")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(engineRun, gups_NoTier, "gups", "NoTier")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(engineRun, bckron_PACT, "bc-kron", "PACT")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(engineRun, silo_Memtis, "silo", "Memtis")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(engineTenants, coloc4_PACT, "masim-coloc4", "PACT")
    ->Unit(benchmark::kMillisecond);
// The graph-sweep unit through Runner::run: LLC outcome replay.
BENCHMARK_CAPTURE(runnerSweep, bckron, "bc-kron")
    ->Unit(benchmark::kMillisecond);
// The named two-process colocation on the same path (the serial
// baseline of the DESIGN.md §7c measurements).
BENCHMARK_CAPTURE(engineTenants, coloc2_PACT, "masim-coloc", "PACT")
    ->Unit(benchmark::kMillisecond);
// Daemon-window cost family: 16 tenants, period swept 1M -> 100k
// cycles (10x more daemon windows at the short end). items_per_second
// here prices the control plane itself; the pr10-daemon Release entry
// in BENCH_hotpath.json tracks its geomean.
BENCHMARK_CAPTURE(engineDaemon, coloc16_PACT_p1000k, "masim-coloc16",
                  "PACT", 1000000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(engineDaemon, coloc16_PACT_p500k, "masim-coloc16",
                  "PACT", 500000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(engineDaemon, coloc16_PACT_p200k, "masim-coloc16",
                  "PACT", 200000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(engineDaemon, coloc16_PACT_p100k, "masim-coloc16",
                  "PACT", 100000)->Unit(benchmark::kMillisecond);
// Short-window rows from healthy runs: the PACT p100k/p200k rows above
// time runs that livelock into the wall-cycle cap, so they price the
// migration storm. TPP and Colloid complete at 200k, and their ticks
// are dominated by NUMA-hint arming (TierManager::armHints).
BENCHMARK_CAPTURE(engineDaemon, coloc16_TPP_p200k, "masim-coloc16", "TPP",
                  200000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(engineDaemon, coloc16_Colloid_p200k, "masim-coloc16",
                  "Colloid", 200000)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    // The stock context's library_build_type describes how the
    // google-benchmark *library* was compiled; record this binary's
    // own build type so bench_perf.py can refuse to log unoptimized
    // numbers into the tracked trajectory. PACT_BUILD_TYPE carries
    // CMAKE_BUILD_TYPE (bench/CMakeLists.txt); NDEBUG is the fallback
    // for builds outside CMake.
#ifdef PACT_BUILD_TYPE
    benchmark::AddCustomContext("pact_build_type", PACT_BUILD_TYPE);
#elif defined(NDEBUG)
    benchmark::AddCustomContext("pact_build_type", "release");
#else
    benchmark::AddCustomContext("pact_build_type", "debug");
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
