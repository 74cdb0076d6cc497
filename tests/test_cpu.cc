/**
 * @file
 * CPU timing-model tests: dependence serialization, MLP overlap, TOR
 * counter semantics, ROB/MSHR hazards, hint faults, spans, retire
 * width — the mechanisms PAC's Equation 1 is built on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "mem/addr_space.hh"
#include "sim/cpu.hh"

using namespace pact;

namespace
{

/** Minimal single-CPU harness around the memory system. */
struct CpuHarness
{
    explicit CpuHarness(std::uint64_t fast_pages = 0,
                        std::uint64_t footprint_mb = 8)
    {
        cfg.fastCapacityPages = fast_pages;
        // A tiny cache so distinct lines always miss.
        cfg.cache.sizeBytes = 16 * LineBytes * 4;
        cfg.cache.assoc = 4;
        cfg.cache.prefetch = false;
        base = as.alloc(0, "buf", footprint_mb << 20);

        tm = std::make_unique<TierManager>(as.totalPages(),
                                           cfg.fastCapacityPages);
        lru = std::make_unique<LruLists>(as.totalPages());
        cache = std::make_unique<Cache>(cfg.cache);
        fast = std::make_unique<Tier>(TierId::Fast, cfg.fast);
        slow = std::make_unique<Tier>(TierId::Slow, cfg.slow);
        pebs = std::make_unique<PebsSampler>(cfg.pebs);
        huge.assign(as.totalPages(), 0);
    }

    /** Build the CPU after the trace is final. */
    Cpu &
    cpu(AccessListener *listener = nullptr)
    {
        cpu_ = std::make_unique<Cpu>(
            cfg, trace, *cache,
            std::array<Tier *, NumTiers>{fast.get(), slow.get()}, *tm,
            *lru, pmu, *pebs, huge, listener);
        return *cpu_;
    }

    /** Run to completion; returns final cycle. */
    Cycles
    runAll()
    {
        Cpu &c = cpu_ ? *cpu_ : cpu();
        while (c.run(c.cycle() + 1000000)) {
        }
        return c.cycle();
    }

    SimConfig cfg;
    AddrSpace as;
    Addr base = 0;
    Trace trace;
    Pmu pmu;
    std::unique_ptr<TierManager> tm;
    std::unique_ptr<LruLists> lru;
    std::unique_ptr<Cache> cache;
    std::unique_ptr<Tier> fast;
    std::unique_ptr<Tier> slow;
    std::unique_ptr<PebsSampler> pebs;
    std::vector<std::uint8_t> huge;
    std::unique_ptr<Cpu> cpu_;
};

constexpr Cycles SlowLat = 418; // 190ns at 2.2GHz

} // namespace

TEST(Cpu, PointerChaseExposesFullLatency)
{
    CpuHarness h;
    const int n = 1000;
    for (int i = 0; i < n; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes, true);
    const Cycles cycles = h.runAll();
    // Each dependent miss pays the full slow latency.
    EXPECT_GT(cycles, n * (SlowLat - 10));
    const double perMiss =
        static_cast<double>(h.pmu.stallCycles[1]) / n;
    EXPECT_NEAR(perMiss, SlowLat, 10.0);
}

TEST(Cpu, IndependentMissesOverlap)
{
    CpuHarness h;
    const int n = 1000;
    for (int i = 0; i < n; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes);
    const Cycles cycles = h.runAll();
    // With 16 MSHRs, throughput is bandwidth/MSHR-limited, far below
    // the serialized bound.
    EXPECT_LT(cycles, n * SlowLat / 8);
    EXPECT_LT(h.pmu.stallCycles[1], static_cast<Cycles>(n) * SlowLat / 8);
}

TEST(Cpu, TorMlpIsOneForChase)
{
    CpuHarness h;
    for (int i = 0; i < 500; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes, true);
    h.runAll();
    const double mlp = Pmu::mlp(h.pmu.torOccupancy[1], h.pmu.torBusy[1]);
    EXPECT_NEAR(mlp, 1.0, 0.05);
}

TEST(Cpu, TorMlpNearMshrsForIndependent)
{
    CpuHarness h;
    for (int i = 0; i < 4000; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes);
    h.runAll();
    const double mlp = Pmu::mlp(h.pmu.torOccupancy[1], h.pmu.torBusy[1]);
    EXPECT_GT(mlp, 10.0);
    EXPECT_LE(mlp, 16.5);
}

TEST(Cpu, TorBusyExactAboveSixtyFourMshrs)
{
    // Regression: the former interval-union accounting silently capped
    // each window at 64 intervals per tier, undercounting tor_busy
    // whenever mshrs > 64. The event-driven sweep has no such cap.
    //
    // 96 independent misses through a tier serialized at 100
    // cycles/line with 418-cycle latency occupy [100*i, 100*i + 418):
    // consecutive intervals overlap (418 > 100), so the union is one
    // contiguous span [0, 100*95 + 418) and every counter is exact.
    // Compute after the misses keeps the core running while they
    // complete, and the integrals must be exact up to the clock at
    // every run() return, wherever a random slice ends.
    CpuHarness h;
    h.cfg.cpu.mshrs = 96;
    h.cfg.slow.serviceCycles = 100.0;
    h.slow = std::make_unique<Tier>(TierId::Slow, h.cfg.slow);
    for (int i = 0; i < 96; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes);
    for (int i = 0; i < 400; i++)
        h.trace.compute(37);
    Cpu &c = h.cpu();
    Rng rng(3);
    bool more = true;
    while (more) {
        more = c.run(c.cycle() + rng.range(1, 300));
        const Cycles f = c.cycle();
        std::uint64_t occ = 0;
        for (Cycles i = 0; i < 96; i++) {
            const Cycles start = 100 * i;
            if (f > start)
                occ += std::min(f, start + SlowLat) - start;
        }
        ASSERT_EQ(h.pmu.torOccupancy[1], occ) << "at cycle " << f;
        ASSERT_EQ(h.pmu.torBusy[1], std::min(f, 100 * 95 + SlowLat))
            << "at cycle " << f;
    }
    EXPECT_EQ(h.pmu.llcMisses[1], 96u);
    EXPECT_EQ(h.pmu.torOccupancy[1], 96u * SlowLat);
    EXPECT_EQ(h.pmu.torBusy[1], 100u * 95 + SlowLat);
}

TEST(Cpu, TorBusyNeverExceedsOccupancy)
{
    CpuHarness h;
    for (int i = 0; i < 1000; i++) {
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes,
                     i % 3 == 0);
    }
    h.runAll();
    for (unsigned t = 0; t < NumTiers; t++)
        EXPECT_LE(h.pmu.torBusy[t], h.pmu.torOccupancy[t]);
}

TEST(Cpu, DependentOnHitDoesNotStall)
{
    CpuHarness h;
    // Warm one line, then chase through it repeatedly: hits cost ~0.
    h.trace.load(h.base);
    for (int i = 0; i < 400; i++)
        h.trace.load(h.base + 8, true); // same line, dependent
    const Cycles cycles = h.runAll();
    EXPECT_LT(cycles, SlowLat + 400);
    EXPECT_EQ(h.pmu.llcHits, 400u);
}

TEST(Cpu, RobLimitsRunahead)
{
    CpuHarness h;
    h.cfg.cpu.robOps = 8;
    h.cfg.cpu.mshrs = 64;
    const int n = 1000;
    for (int i = 0; i < n; i++) {
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes);
        h.trace.compute(1);
    }
    const Cycles small = h.runAll();

    CpuHarness wide;
    wide.cfg.cpu.robOps = 512;
    wide.cfg.cpu.mshrs = 64;
    for (int i = 0; i < n; i++) {
        wide.trace.load(wide.base + static_cast<Addr>(i) * 8 * LineBytes);
        wide.trace.compute(1);
    }
    const Cycles big = wide.runAll();
    EXPECT_GT(small, big + big / 4);
}

TEST(Cpu, GapCyclesCountAsCompute)
{
    CpuHarness h;
    h.trace.compute(10000);
    const Cycles cycles = h.runAll();
    EXPECT_GE(cycles, 10000u);
    EXPECT_EQ(h.pmu.computeCycles, 10000u);
    EXPECT_EQ(h.pmu.stallCycles[0] + h.pmu.stallCycles[1], 0u);
}

TEST(Cpu, RetireWidthFloorsThroughput)
{
    CpuHarness h;
    // 4000 zero-gap marker nops: 4-wide retire -> >= 1000 cycles.
    for (int i = 0; i < 4000; i++)
        h.trace.ops.push_back(TraceOp::make(0, OpKind::Nop, false, 0));
    const Cycles cycles = h.runAll();
    EXPECT_GE(cycles, 1000u);
    EXPECT_LT(cycles, 1100u);
}

namespace
{

struct FaultRecorder : AccessListener
{
    void
    onHintFault(PageId page, ProcId proc) override
    {
        pages.push_back(page);
        procs.push_back(proc);
    }
    std::vector<PageId> pages;
    std::vector<ProcId> procs;
};

} // namespace

TEST(Cpu, HintFaultTrapsOnceAndCharges)
{
    CpuHarness h;
    h.trace.load(h.base);
    h.trace.load(h.base); // second access: hit, no fault (disarmed)
    FaultRecorder rec;
    Cpu &c = h.cpu(&rec);
    // Materialize the page first so we can arm it.
    h.tm->touch(pageOf(h.base), 0, false);
    h.tm->meta(pageOf(h.base)).flags |= PageFlags::HintArmed;
    while (c.run(c.cycle() + 100000)) {
    }
    ASSERT_EQ(rec.pages.size(), 1u);
    EXPECT_EQ(rec.pages[0], pageOf(h.base));
    EXPECT_EQ(h.pmu.hintFaults, 1u);
    EXPECT_GE(c.penaltyCycles(), h.cfg.cpu.hintFaultCycles);
}

TEST(Cpu, SpansMeasureLatency)
{
    CpuHarness h;
    h.trace.markBegin(7);
    for (int i = 0; i < 10; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes, true);
    h.trace.markEnd();
    h.trace.markBegin(8);
    h.trace.markEnd();
    Cpu &c = h.cpu();
    h.runAll();
    ASSERT_EQ(c.spans().size(), 2u);
    EXPECT_EQ(c.spans()[0].first, 7u);
    // The span ends when the last load issues: 9 dependent
    // waits of a full slow-tier latency each.
    EXPECT_GT(c.spans()[0].second, 9 * (SlowLat - 20));
    EXPECT_EQ(c.spans()[1].first, 8u);
    EXPECT_LT(c.spans()[1].second, 10u);
}

TEST(Cpu, SpansExceedUint32WithoutWrapping)
{
    CpuHarness h;
    // Two 3G-cycle compute blocks inside one span: the measured
    // length crosses 2^32 cycles and must not truncate (span cycles
    // were once 32-bit and long service spans silently wrapped).
    const std::uint64_t big = 3'000'000'000ull;
    h.trace.markBegin(3);
    h.trace.compute(big);
    h.trace.compute(big);
    h.trace.markEnd();
    Cpu &c = h.cpu();
    h.runAll();
    ASSERT_EQ(c.spans().size(), 1u);
    EXPECT_EQ(c.spans()[0].first, 3u);
    EXPECT_GT(c.spans()[0].second, std::uint64_t{0xffffffffu});
    EXPECT_GE(c.spans()[0].second, 2 * big);
}

TEST(Cpu, PebsSeesSlowLoadMisses)
{
    CpuHarness h;
    h.cfg.pebs.rate = 1;
    h.pebs = std::make_unique<PebsSampler>(h.cfg.pebs);
    const int n = 100;
    for (int i = 0; i < n; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes);
    h.runAll();
    const auto records = h.pebs->drain();
    EXPECT_EQ(records.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(records[0].tier, TierId::Slow);
    EXPECT_GE(records[0].latency, SlowLat - 10);
}

TEST(Cpu, StoresAreNotPebsSampled)
{
    CpuHarness h;
    h.cfg.pebs.rate = 1;
    h.pebs = std::make_unique<PebsSampler>(h.cfg.pebs);
    for (int i = 0; i < 50; i++)
        h.trace.store(h.base + static_cast<Addr>(i) * 8 * LineBytes);
    h.runAll();
    EXPECT_TRUE(h.pebs->drain().empty());
    EXPECT_EQ(h.pmu.llcMisses[1], 50u);
    EXPECT_EQ(h.pmu.llcLoadMisses[1], 0u);
}

TEST(Cpu, FirstTouchGoesThroughTierManager)
{
    CpuHarness h(4); // 4 fast pages
    for (int i = 0; i < 8; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * PageBytes);
    h.runAll();
    EXPECT_EQ(h.tm->used(TierId::Fast), 4u);
    EXPECT_EQ(h.tm->used(TierId::Slow), 4u);
    EXPECT_TRUE(h.lru->tracked(pageOf(h.base), *h.tm));
}

TEST(Cpu, DeterministicReplay)
{
    auto once = [] {
        CpuHarness h;
        for (int i = 0; i < 2000; i++) {
            h.trace.load(h.base + static_cast<Addr>(i * 37 % 1000) *
                                      LineBytes * 8,
                         i % 5 == 0);
        }
        h.runAll();
        return std::pair(h.cpu_->cycle(), h.pmu.stallCycles[1]);
    };
    EXPECT_EQ(once(), once());
}

TEST(Cpu, DrainCompletesOutstanding)
{
    CpuHarness h;
    h.trace.load(h.base);
    Cpu &c = h.cpu();
    h.runAll();
    // After the run the TOR busy time covers the full miss latency.
    EXPECT_GE(h.pmu.torBusy[1], SlowLat - 10);
    EXPECT_TRUE(c.done());
}

TEST(Cpu, LoopingTraceRestarts)
{
    CpuHarness h;
    h.trace.loop = true;
    h.trace.load(h.base);
    Cpu &c = h.cpu();
    EXPECT_TRUE(c.run(100000));
    EXPECT_FALSE(c.done());
    EXPECT_GT(c.retired(), 10u);
}

namespace
{

/** Every Pmu counter, in field-table order. */
std::vector<std::uint64_t>
pmuCounters(Pmu &p)
{
    std::vector<std::uint64_t> v;
    forEachPmuCounter([&](PmuCounter c) { v.push_back(c.of(p)); });
    return v;
}

/** A seeded mix of loads (some dependent), stores, gaps, short
 *  compute and wide BigGap compute over @p h's buffer. */
void
randomTrace(CpuHarness &h, std::uint64_t seed, std::uint64_t lines)
{
    Rng rng(seed);
    for (int i = 0; i < 1500; i++) {
        const Addr a = h.base + rng.below(lines) * LineBytes;
        const auto gap = static_cast<std::uint32_t>(
            rng.chance(0.5) ? 0 : rng.range(1, 40));
        const std::uint64_t kind = rng.below(100);
        if (kind < 55)
            h.trace.load(a, rng.chance(0.3), gap);
        else if (kind < 90)
            h.trace.store(a, gap);
        else if (kind < 97)
            h.trace.compute(static_cast<std::uint32_t>(rng.range(1, 50)));
        else
            h.trace.compute(
                static_cast<std::uint32_t>(rng.range(5000, 20000)));
    }
}

/**
 * Run one trace on two identical cores: A advanced one clock step per
 * call (every op that moves the clock ends a run()), B in random
 * slices, with the same penalties charged to both at the same op. A's
 * counters are read after a zero addPenalty, B's straight after run()
 * returns, so the two flush points check each other. After every
 * return of B the two must agree on every counter, the clock and the
 * retired count, and no TOR counter of B may have grown faster than
 * time allows since its previous read: a read that missed part of
 * the integral shows up as a catch-up at the next one.
 */
void
checkSliceInvariant(unsigned mshrs, unsigned robOps, double slowService)
{
    SCOPED_TRACE(testing::Message()
                 << "mshrs=" << mshrs << " robOps=" << robOps
                 << " slowService=" << slowService);
    // 1 MB footprint, half of it fits the fast tier: first touches
    // in random order split the pages across both tiers.
    constexpr std::uint64_t FastPages = 128;
    CpuHarness a(FastPages, 1), b(FastPages, 1);
    for (CpuHarness *h : {&a, &b}) {
        h->cfg.cpu.mshrs = mshrs;
        h->cfg.cpu.robOps = robOps;
        h->cfg.slow.serviceCycles = slowService;
        h->slow = std::make_unique<Tier>(TierId::Slow, h->cfg.slow);
        randomTrace(*h, 42, (1u << 20) / LineBytes);
    }
    Cpu &ca = a.cpu();
    Cpu &cb = b.cpu();
    Pmu last = b.pmu;
    Cycles lastCycle = 0;
    auto check = [&](const char *where) {
        ASSERT_EQ(ca.retired(), cb.retired()) << where;
        ASSERT_EQ(ca.cycle(), cb.cycle()) << where;
        ASSERT_EQ(pmuCounters(a.pmu), pmuCounters(b.pmu))
            << where << " at op " << cb.retired();
        const Cycles dt = cb.cycle() - lastCycle;
        for (unsigned t = 0; t < NumTiers; t++) {
            const std::uint64_t busy = b.pmu.torBusy[t] - last.torBusy[t];
            const std::uint64_t occ =
                b.pmu.torOccupancy[t] - last.torOccupancy[t];
            ASSERT_LE(busy, dt) << where << " at op " << cb.retired();
            ASSERT_LE(busy, occ) << where << " at op " << cb.retired();
            ASSERT_LE(occ, mshrs * dt) << where << " at op "
                                       << cb.retired();
        }
        last = b.pmu;
        lastCycle = cb.cycle();
    };
    Rng rng(7);
    bool more = true;
    while (more) {
        const Cycles len = rng.chance(0.3) ? 1 : rng.range(1, 3000);
        more = cb.run(cb.cycle() + len);
        // B stopped right after an op that moved the clock, which is
        // where A's one-step calls stop too.
        while (ca.retired() < cb.retired() && ca.run(ca.cycle() + 1)) {
        }
        if (!more) {
            while (ca.run(ca.cycle() + 1)) {
            }
        }
        ca.addPenalty(0);
        check("after run");
        if (more && rng.chance(0.1)) {
            const Cycles p = rng.range(0, 600);
            ca.addPenalty(p);
            cb.addPenalty(p);
            check("after a penalty");
        }
    }
    EXPECT_TRUE(ca.done() && cb.done());
    EXPECT_GT(a.pmu.llcMisses[0], 0u);
    EXPECT_GT(a.pmu.llcMisses[1], 0u);
}

} // namespace

TEST(Cpu, TorCountersSliceInvariant)
{
    // The default slow tier starts most misses on arrival; a
    // 100-cycle service interval queues them, so TOR starts land in
    // the future-start heap.
    const double defaultService = SimConfig{}.slow.serviceCycles;
    for (const double service : {defaultService, 100.0}) {
        for (const unsigned mshrs : {1u, 4u, 16u}) {
            for (const unsigned robOps : {1u, 8u, 192u})
                checkSliceInvariant(mshrs, robOps, service);
        }
    }
}

namespace
{

/** Copies the PMU at each hint fault. */
struct PmuAtFault : AccessListener
{
    explicit PmuAtFault(const Pmu &p) : pmu(p) {}
    void
    onHintFault(PageId, ProcId) override
    {
        seen.push_back(pmu);
    }
    const Pmu &pmu;
    std::vector<Pmu> seen;
};

} // namespace

TEST(Cpu, TorExactInsideHintFault)
{
    // A slow miss issues at cycle 0 and completes at SlowLat. The next
    // op computes 100 cycles, then traps on an armed page for 50: the
    // listener runs at cycle 150 with the miss still in flight and
    // must read its occupancy up to that cycle.
    CpuHarness h;
    h.cfg.cpu.hintFaultCycles = 50;
    const Addr armed = h.base + 2 * PageBytes;
    h.trace.load(h.base);
    h.trace.load(armed, false, 100);
    PmuAtFault rec(h.pmu);
    h.cpu(&rec);
    h.tm->touch(pageOf(h.base), 0, false);
    h.tm->touch(pageOf(armed), 0, false);
    h.tm->meta(pageOf(armed)).flags |= PageFlags::HintArmed;
    h.runAll();
    ASSERT_EQ(rec.seen.size(), 1u);
    const Pmu &at = rec.seen[0];
    EXPECT_EQ(at.llcMisses[1], 1u);
    EXPECT_EQ(at.torOccupancy[1], 150u);
    EXPECT_EQ(at.torBusy[1], 150u);
    EXPECT_EQ(at.torOccupancy[0], 0u);
    EXPECT_EQ(at.torBusy[0], 0u);
}

namespace
{

/**
 * A harness whose page 0 is fast and page 1 slow, with bandwidth
 * queuing switched off on the fast tier and set to @p slowService
 * cycles per line on the slow one, so every miss's service interval
 * can be computed by hand.
 */
struct TwoTierHarness : CpuHarness
{
    explicit TwoTierHarness(double slowService = 0.0) : CpuHarness(1)
    {
        cfg.fast.serviceCycles = 0.0;
        cfg.slow.serviceCycles = slowService;
        fast = std::make_unique<Tier>(TierId::Fast, cfg.fast);
        slow = std::make_unique<Tier>(TierId::Slow, cfg.slow);
        tm->touch(pageOf(fastLine(0)), 0, false);
        tm->touch(pageOf(slowLine(0)), 0, false);
    }

    /** The @p i-th distinct line of the fast page. */
    Addr fastLine(unsigned i) const { return base + i * LineBytes; }

    /** The @p i-th distinct line of the slow page. */
    Addr
    slowLine(unsigned i) const
    {
        return base + PageBytes + i * LineBytes;
    }

    Cycles fastLat() const { return cfg.fast.latencyCycles; }
    Cycles slowLat() const { return cfg.slow.latencyCycles; }
};

} // namespace

TEST(Cpu, MshrWaitTakesEarliestCompletionAcrossTiers)
{
    {
        // Two MSHRs: a slow miss, then a fast one, both at cycle 0.
        // The third miss waits for the fast one, which completes first
        // although it issued second.
        TwoTierHarness h;
        h.cfg.cpu.mshrs = 2;
        ASSERT_EQ(h.tm->tierOf(pageOf(h.fastLine(0))), TierId::Fast);
        ASSERT_EQ(h.tm->tierOf(pageOf(h.slowLine(0))), TierId::Slow);
        h.trace.load(h.slowLine(0));
        h.trace.load(h.fastLine(0));
        h.trace.load(h.fastLine(1));
        h.runAll();
        EXPECT_EQ(h.pmu.stallCycles[0], h.fastLat());
        EXPECT_EQ(h.pmu.stallCycles[1], 0u);
        EXPECT_EQ(h.cpu_->cycle(), h.slowLat());
    }
    {
        // The fast miss issues slowLat - fastLat cycles after the slow
        // one, so both complete at slowLat: the tie goes to the lower
        // opIdx, the slow miss.
        TwoTierHarness h;
        h.cfg.cpu.mshrs = 2;
        const Cycles spacing = h.slowLat() - h.fastLat();
        h.trace.load(h.slowLine(0));
        h.trace.load(h.fastLine(0), false,
                     static_cast<std::uint32_t>(spacing));
        h.trace.load(h.fastLine(1));
        h.runAll();
        EXPECT_EQ(h.pmu.stallCycles[0], 0u);
        EXPECT_EQ(h.pmu.stallCycles[1], h.fastLat());
        EXPECT_EQ(h.pmu.llcMisses[0], 2u);
        EXPECT_EQ(h.pmu.llcMisses[1], 1u);
    }
}

TEST(Cpu, RobWaitsOnOldestMissInProgramOrder)
{
    // A three-op ROB: a slow miss, then two fast misses that complete
    // earlier. The fourth op has no headroom and must wait on the
    // oldest incomplete miss in program order, the slow one, whose
    // completion also retires both fast misses.
    TwoTierHarness h;
    h.cfg.cpu.robOps = 3;
    h.trace.load(h.slowLine(0));
    h.trace.load(h.fastLine(0));
    h.trace.load(h.fastLine(1));
    h.trace.load(h.fastLine(2));
    h.runAll();
    EXPECT_EQ(h.pmu.stallCycles[0], 0u);
    EXPECT_EQ(h.pmu.stallCycles[1], h.slowLat());
    EXPECT_EQ(h.pmu.llcMisses[0], 3u);
    EXPECT_EQ(h.pmu.llcMisses[1], 1u);
}

TEST(Cpu, QueuedStartsOccupyTorInIssueOrder)
{
    // Eight slow and eight fast misses, interleaved, issued over the
    // first four cycles (the retire width floors the clock one cycle
    // per four ops). The slow tier serves one line per 100 cycles, so
    // slow miss j waits for a start at 100 j and occupies
    // [100 j, 100 j + slowLat); fast miss j starts on issue, at
    // cycle (2 j + 1) / 4. Compute after the misses keeps the clock
    // moving while they complete, and both tiers' TOR integrals must
    // match the hand-computed intervals at every run() return.
    TwoTierHarness h(100.0);
    std::array<std::vector<std::pair<Cycles, Cycles>>, NumTiers> spans;
    for (unsigned j = 0; j < 8; j++) {
        h.trace.load(h.slowLine(j));
        h.trace.load(h.fastLine(j));
        spans[1].emplace_back(100 * j, 100 * j + h.slowLat());
        const Cycles issue = (2 * j + 1) / 4;
        spans[0].emplace_back(issue, issue + h.fastLat());
    }
    for (int i = 0; i < 100; i++)
        h.trace.compute(37);
    Cpu &c = h.cpu();
    Rng rng(5);
    bool more = true;
    while (more) {
        more = c.run(c.cycle() + rng.range(1, 150));
        const Cycles f = c.cycle();
        for (unsigned t = 0; t < NumTiers; t++) {
            std::uint64_t occ = 0, busy = 0;
            for (Cycles at = 0; at < f; at++) {
                const auto n = std::count_if(
                    spans[t].begin(), spans[t].end(), [&](const auto &s) {
                        return s.first <= at && at < s.second;
                    });
                occ += static_cast<std::uint64_t>(n);
                busy += n > 0;
            }
            ASSERT_EQ(h.pmu.torOccupancy[t], occ)
                << "tier " << t << " at cycle " << f;
            ASSERT_EQ(h.pmu.torBusy[t], busy)
                << "tier " << t << " at cycle " << f;
        }
    }
    EXPECT_EQ(h.pmu.llcMisses[0], 8u);
    EXPECT_EQ(h.pmu.llcMisses[1], 8u);
    EXPECT_EQ(h.pmu.torOccupancy[1], 8 * h.slowLat());
    EXPECT_EQ(h.pmu.torBusy[1], 700 + h.slowLat());
    EXPECT_EQ(h.pmu.stallCycles[0] + h.pmu.stallCycles[1], 0u);
}
