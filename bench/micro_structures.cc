/**
 * @file
 * google-benchmark microbenchmarks for PACT's runtime data
 * structures: PAC table upsert/lookup, reservoir updates, adaptive
 * rebinning, and the LRU scan — the per-window costs the paper's
 * daemon pays.
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "common/rng.hh"
#include "harness/runner.hh"
#include "mem/addr_space.hh"
#include "mem/lru.hh"
#include "mem/migration.hh"
#include "mem/tier_manager.hh"
#include "obs/metrics.hh"
#include "pact/binning.hh"
#include "pact/pac_table.hh"
#include "pact/pact_policy.hh"
#include "pact/reservoir.hh"
#include "sim/cpu.hh"
#include "sim/pebs.hh"
#include "sim/pmu.hh"
#include "sim/policy_iface.hh"
#include "sim/tier.hh"
#include "trace_store/trace_store.hh"
#include "workloads/registry.hh"

using namespace pact;

static void
BM_PacTableTouch(benchmark::State &state)
{
    const std::uint64_t pages = state.range(0);
    PacTable table;
    Rng rng(1);
    for (auto _ : state) {
        const PageId p = rng.below(pages);
        PacTable::Ref e = table.touch(p);
        e.pac() += 1.0f;
        benchmark::DoNotOptimize(e.pac());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacTableTouch)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

static void
BM_PacTableFind(benchmark::State &state)
{
    const std::uint64_t pages = state.range(0);
    PacTable table;
    for (PageId p = 0; p < pages; p++)
        table.touch(p);
    Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.find(rng.below(2 * pages)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacTableFind)->Arg(1 << 16);

/**
 * Dependent-chain probe: each lookup's key derives from the previous
 * hit, so the measurement is per-probe latency (where the SoA key
 * array and the software prefetch in the probe loop pay off), not
 * pipelined throughput. Arg = table population; keys span 2x the
 * population for a ~50% miss mix.
 */
static void
BM_PacTableProbe(benchmark::State &state)
{
    const std::uint64_t pages = state.range(0);
    PacTable table;
    for (PageId p = 0; p < pages; p++)
        table.touch(p).freq() = static_cast<std::uint32_t>(p * 2654435761u);
    std::uint64_t key = 12345;
    for (auto _ : state) {
        PacTable::Ref e = table.find(key % (2 * pages));
        key = key * 6364136223846793005ull + 1442695040888963407ull +
              (e ? e.freq() : 0u);
        benchmark::DoNotOptimize(key);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacTableProbe)->Arg(1 << 16)->Arg(1 << 20);

namespace
{

/** Fixed-cost copy backend for driving MigrationEngine in benches. */
class FlatBackend final : public MigrationBackend
{
  public:
    Cycles
    chargeCopy(TierId, TierId, std::uint64_t bytes) override
    {
        return 100 + bytes / 64;
    }
};

/**
 * Drive PactPolicy::tick in isolation: one TierManager/LRU/migration
 * stack over @p pages touched pages (fast tier sized to half), the
 * policy started against it, and a synthesized per-window load (PMU
 * deltas + PEBS samples at rate 1) so each tick exercises the real
 * attribution, selection, and migration paths without a CPU model.
 * @p profile_only skips migration, isolating the attribution phase.
 */
void
policyTickBench(benchmark::State &state, std::uint64_t pages,
                std::uint64_t samples_per_window, bool profile_only)
{
    SimConfig cfg;
    cfg.fastCapacityPages = pages / 2;
    cfg.pebs.rate = 1;
    AddrSpace as;
    const Addr base = as.alloc(0, "buf", pages << PageShift);
    const PageId first = pageOf(base);
    TierManager tm(as.totalPages(), cfg.fastCapacityPages);
    LruLists lru(as.totalPages());
    for (PageId p = first; p < first + pages; p++) {
        const TierId t = tm.touch(p, 0, false);
        lru.insert(p, t, tm);
    }
    Pmu pmu;
    PebsSampler pebs(cfg.pebs);
    FlatBackend backend;
    MigrationEngine mig(tm, lru, backend, cfg.migration, 1);
    Tier fast(TierId::Fast, cfg.fast);
    Tier slow(TierId::Slow, cfg.slow);
    Rng rng(17);
    SimContext ctx{cfg,           0, pmu, pebs, tm, lru, mig, as,
                   {&fast, &slow},   rng};
    PactConfig pcfg;
    pcfg.profileOnly = profile_only;
    PactPolicy policy(pcfg);
    policy.start(ctx);

    const unsigned si = tierIndex(TierId::Slow);
    for (auto _ : state) {
        // Synthesize one daemon window: slow-tier miss/TOR deltas plus
        // a fresh PEBS batch over the tracked footprint.
        pmu.llcLoadMisses[si] += 4096;
        pmu.llcMisses[si] += 4096;
        pmu.torOccupancy[si] += 16384;
        pmu.torBusy[si] += 4096;
        for (std::uint64_t i = 0; i < samples_per_window; i++) {
            const PageId p = first + rng.below(pages);
            pebs.onLoadMiss(static_cast<Addr>(p) << PageShift,
                            TierId::Slow, 300, 0);
        }
        ctx.now += cfg.daemonPeriod;
        policy.tick(ctx);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["table_pages"] =
        static_cast<double>(policy.table().size());
}

} // namespace

/** Attribution phase alone (profile-only tick): arena scratch map +
 *  SoA table upserts over a fixed sample batch. */
static void
BM_Attribute(benchmark::State &state)
{
    policyTickBench(state, state.range(0), 2048, true);
}
BENCHMARK(BM_Attribute)->Arg(1 << 16)->Arg(1 << 18);

/** The full daemon tick: attribution + incremental candidate sync +
 *  selection + Algorithm-2 migration over a half-slow footprint. */
static void
BM_PolicyTick(benchmark::State &state)
{
    policyTickBench(state, state.range(0), 2048, false);
}
BENCHMARK(BM_PolicyTick)->Arg(1 << 16)->Arg(1 << 18);

static void
BM_ReservoirAdd(benchmark::State &state)
{
    Reservoir res(100);
    Rng rng(3);
    double v = 0.0;
    for (auto _ : state) {
        res.add(v += 1.0, rng);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReservoirAdd);

static void
BM_ReservoirQuartiles(benchmark::State &state)
{
    Reservoir res(100);
    Rng rng(4);
    for (int i = 0; i < 10000; i++)
        res.add(rng.uniform() * 1000.0, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(res.quartiles());
    }
}
BENCHMARK(BM_ReservoirQuartiles);

static void
BM_AdaptiveRebin(benchmark::State &state)
{
    AdaptiveBinning binning;
    Reservoir res(100);
    Rng rng(5);
    for (int i = 0; i < 10000; i++)
        res.add(rng.uniform() * 1000.0, rng);
    std::uint64_t cands = 50;
    for (auto _ : state) {
        binning.update(res, 100000, cands);
        benchmark::DoNotOptimize(binning.width());
    }
}
BENCHMARK(BM_AdaptiveRebin);

static void
BM_BinOf(benchmark::State &state)
{
    AdaptiveBinning binning;
    Reservoir res(100);
    Rng rng(6);
    for (int i = 0; i < 200; i++)
        res.add(rng.uniform() * 1000.0, rng);
    binning.update(res, 100000, 50);
    double v = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(binning.binOf(v += 0.7));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BinOf);

static void
BM_LruScan(benchmark::State &state)
{
    const std::uint64_t pages = state.range(0);
    TierManager tm(pages, pages);
    LruLists lru(pages);
    for (PageId p = 0; p < pages; p++) {
        tm.touch(p, 0, false);
        lru.insert(p, TierId::Fast, tm);
    }
    Rng rng(7);
    for (auto _ : state) {
        // Touch a random subset, then age.
        for (int i = 0; i < 64; i++) {
            tm.meta(rng.below(pages)).flags |= PageFlags::Referenced;
        }
        lru.scan(TierId::Fast, 256, tm);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_LruScan)->Arg(1 << 14)->Arg(1 << 18);

static void
BM_LruVictims(benchmark::State &state)
{
    const std::uint64_t pages = 1 << 16;
    TierManager tm(pages, pages);
    LruLists lru(pages);
    for (PageId p = 0; p < pages; p++) {
        tm.touch(p, 0, false);
        lru.insert(p, TierId::Fast, tm);
    }
    lru.scan(TierId::Fast, pages, tm);
    for (auto _ : state) {
        benchmark::DoNotOptimize(lru.victims(TierId::Fast, 32, tm));
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_LruVictims);

/**
 * One NUMA-hint scan period through TierManager::armHints. Arg 0 is
 * log2 of the page count, half of the pages (at random) on the slow
 * tier. Arg 1 picks the batch: 0 is the TPP shape (every slow page,
 * a full lap each call), 1 the Colloid shape (4096 pages). Between
 * scans 64 random pages take a hint fault (disarmHint), so, as in a
 * steady-state run, almost every page the scan reaches is still armed.
 */
static void
BM_HintArm(benchmark::State &state)
{
    const std::uint64_t pages = std::uint64_t{1} << state.range(0);
    TierManager tm(pages, pages);
    Rng rng(12);
    for (PageId p = 0; p < pages; p++) {
        tm.touch(p, 0, false);
        if (rng.below(2))
            tm.place(p, TierId::Slow);
    }
    const std::uint64_t batch =
        state.range(1) == 0 ? tm.used(TierId::Slow) : 4096;
    PageId cursor = 0;
    std::uint64_t armed = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; i++)
            tm.disarmHint(rng.below(pages));
        armed += tm.armHints(cursor, batch);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(armed));
}
BENCHMARK(BM_HintArm)
    ->Args({15, 0})
    ->Args({15, 1})
    ->Args({18, 0})
    ->Args({18, 1});

/**
 * The per-op CPU loop in isolation (no daemon, no migrations): a
 * looping trace of independent loads with compute gaps drives the
 * retire/advance machinery (a one-compare clock step between TOR
 * boundaries, the sweep over the per-tier miss rings' fronts and lazy
 * TOR accrual at them) and the fused page-meta resolve. Its 2048 pages
 * over a 1024-page fast tier keep misses in flight on both tiers.
 */
static void
BM_CpuAdvance(benchmark::State &state)
{
    SimConfig cfg;
    cfg.fastCapacityPages = 1024;
    AddrSpace as;
    const Addr base = as.alloc(0, "buf", 8 << 20);
    Trace trace;
    trace.loop = true;
    Rng rng(8);
    for (int i = 0; i < 8192; i++) {
        trace.load(base + (static_cast<Addr>(rng.below(2048)) << PageShift) +
                   ((static_cast<Addr>(i) * LineBytes) & (PageBytes - 1)));
        if (i % 4 == 0)
            trace.compute(2);
    }
    TierManager tm(as.totalPages(), cfg.fastCapacityPages);
    LruLists lru(as.totalPages());
    Cache cache(cfg.cache);
    Tier fast(TierId::Fast, cfg.fast);
    Tier slow(TierId::Slow, cfg.slow);
    Pmu pmu;
    PebsSampler pebs(cfg.pebs);
    std::vector<std::uint8_t> huge(as.totalPages(), 0);
    Cpu cpu(cfg, trace, cache,
            std::array<Tier *, NumTiers>{&fast, &slow}, tm, lru, pmu, pebs,
            huge, nullptr);
    for (auto _ : state) {
        cpu.run(cpu.cycle() + 10000);
    }
    state.SetItemsProcessed(cpu.retired());
}
BENCHMARK(BM_CpuAdvance);

/**
 * One LLC probe. Arg 0 (log2 bytes) is the footprint, which sets the
 * hit/miss mix of random probes. Arg 1 = 1 walks four interleaved
 * sequential streams instead, so the prefetcher trains and most
 * tag-store fills are prefetch installs (the fill/victim path). Either
 * way every burst is installed as Cpu::doAccess does for touched pages.
 * Arg 2 = 1 serves the same accesses from a recorded LlcOutcomes
 * stream (replay mode) instead of probing the tag store.
 */
static void
BM_CacheAccess(benchmark::State &state)
{
    const CacheParams params = SimConfig{}.cache;
    Cache cache(params);
    const unsigned log2_bytes = static_cast<unsigned>(state.range(0));
    const Addr mask = (Addr{1} << log2_bytes) - 1;
    const bool streaming = state.range(1) != 0;
    Rng rng(9);
    std::uint64_t i = 0;
    auto nextAddr = [&] {
        // Stream i % 4 starts a quarter of the footprint after the
        // previous one and advances one line per visit.
        const Addr vaddr =
            streaming ? ((i % 4) << (log2_bytes - 2)) + (i / 4) * LineBytes
                      : rng.next();
        i++;
        return vaddr & mask & ~Addr{LineBytes - 1};
    };
    auto step = [](Cache &c, Addr vaddr) {
        const CacheResult r = c.access(vaddr);
        if (r.prefetchLines > 0)
            c.installPrefetches(r.prefetchStart, r.prefetchLines);
        return r;
    };

    if (state.range(2) == 0) {
        for (auto _ : state)
            benchmark::DoNotOptimize(step(cache, nextAddr()));
    } else {
        // Replay: a window of the same address stream is recorded
        // once, then served from the stream, re-armed at its end.
        constexpr std::size_t Window = 1 << 16;
        std::vector<Addr> window;
        LlcOutcomes stream(params, {});
        Cache recorder(params);
        recorder.record(&stream);
        for (std::size_t k = 0; k < Window; k++) {
            window.push_back(nextAddr());
            step(recorder, window.back());
        }
        cache.replay(&stream, false);
        std::size_t k = 0;
        for (auto _ : state) {
            if (k == Window) {
                cache.replay(&stream, false);
                k = 0;
            }
            benchmark::DoNotOptimize(step(cache, window[k++]));
        }
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["prefetch_fill_frac"] = static_cast<double>(
        cache.prefetchIssued()) /
        static_cast<double>(cache.prefetchIssued() + cache.misses());
}
BENCHMARK(BM_CacheAccess)
    ->Args({22, 0, 0})
    ->Args({28, 0, 0})
    ->Args({22, 1, 0})
    ->Args({22, 0, 1})
    ->Args({28, 0, 1})
    ->Args({22, 1, 1});

/**
 * The single-PageMeta placement + LRU-membership resolve the CPU does
 * per access (tier, touched, and the folded LRU tracked bit all come
 * from one 8-byte load).
 */
static void
BM_TierResolve(benchmark::State &state)
{
    const std::uint64_t pages = 1 << 16;
    TierManager tm(pages, pages / 2);
    LruLists lru(pages);
    for (PageId p = 0; p < pages; p++) {
        const TierId t = tm.touch(p, 0, false);
        lru.insert(p, t, tm);
    }
    Rng rng(10);
    for (auto _ : state) {
        const PageMeta &m = tm.meta(rng.below(pages));
        unsigned r = (m.flags & PageFlags::Touched) ? m.tier : 0xffu;
        r += (m.flags & PageFlags::LruListed) ? 1u : 0u;
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TierResolve);

/**
 * Overhead guard for the stat registry: a registered obs::Counter is a
 * plain uint64 increment (the registry holds a pointer to the cell, so
 * registration adds no branch to the hot path). This bench must stay
 * within noise of BM_RawCounterInc — the "<3% Engine::run overhead"
 * claim in EXPERIMENTS.md rests on it.
 */
static void
BM_RawCounterInc(benchmark::State &state)
{
    std::uint64_t c = 0;
    for (auto _ : state) {
        c++;
        benchmark::DoNotOptimize(c);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RawCounterInc);

static void
BM_StatCounterInc(benchmark::State &state)
{
    obs::StatRegistry reg;
    obs::Counter c;
    reg.addCounter("bench.counter", c, "bench");
    for (auto _ : state) {
        c.inc();
        benchmark::DoNotOptimize(c);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatCounterInc);

/** Cold-path cost: snapshotting a registry the size of the Engine's. */
static void
BM_RegistrySample(benchmark::State &state)
{
    const int stats = static_cast<int>(state.range(0));
    obs::StatRegistry reg;
    std::vector<std::uint64_t> cells(stats, 7);
    for (int i = 0; i < stats; i++) {
        std::ostringstream name;
        name << "bench.group" << i % 8 << ".stat" << i;
        reg.addCounter(name.str(), &cells[i], "bench");
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(reg.sampleAll());
    }
    state.SetItemsProcessed(state.iterations() * stats);
}
BENCHMARK(BM_RegistrySample)->Arg(48);

/**
 * Startup cost, cold: generate bc-kron from scratch (graph build, bc
 * kernel, init pass) — what every process pays without the trace
 * store. items_per_second = trace ops made available per second of
 * the benchmark thread's CPU time. Cold generation fans out over a
 * thread pool, so that rate flatters it; the warm-start speedup is the
 * ratio of the two wall times. EXPERIMENTS.md ("Trace store") holds
 * the current numbers.
 */
static void
BM_WorkloadGenCold(benchmark::State &state)
{
    WorkloadOptions opt;
    opt.scale = envScale(1.0);
    std::uint64_t ops = 0;
    for (auto _ : state) {
        const WorkloadBundle b = makeWorkload("bc-kron", opt);
        for (const Trace &t : b.traces)
            ops += t.ops.size();
        benchmark::DoNotOptimize(b.traces[0].ops.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_WorkloadGenCold)->Unit(benchmark::kMillisecond);

/** Startup cost, warm: zero-copy mmap load of the same bundle. */
static void
BM_WorkloadGenWarm(benchmark::State &state)
{
    WorkloadOptions opt;
    opt.scale = envScale(1.0);
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("pact-bench-store-" + std::to_string(::getpid())))
            .string();
    const std::string key = workloadCacheKey("bc-kron", opt);
    {
        const WorkloadBundle b = makeWorkload("bc-kron", opt);
        if (!traceStoreSave(dir, key, b.name, b.as, b.traces)) {
            state.SkipWithError("trace store save failed");
            return;
        }
    }
    std::uint64_t ops = 0;
    for (auto _ : state) {
        std::string name;
        AddrSpace as;
        std::vector<Trace> traces;
        if (!traceStoreLoad(dir, key, name, as, traces)) {
            state.SkipWithError("trace store load failed");
            break;
        }
        for (const Trace &t : traces)
            ops += t.ops.size();
        benchmark::DoNotOptimize(traces[0].ops.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WorkloadGenWarm)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
