/**
 * @file
 * Program-order CPU timing model with out-of-order miss overlap.
 *
 * The core retires trace ops at up to 4 per cycle, overlapping LLC
 * misses subject to three hazards: (1) a dependent load cannot issue
 * before its producer miss returns (pointer chasing), (2) at most
 * `mshrs` misses may be outstanding, and (3) the core can run at most
 * `robOps` ops past the oldest incomplete miss. Stall cycles emerge
 * from these hazards and are attributed to the tier of the miss being
 * waited on — giving the ground-truth per-tier stalls that PAC's
 * Equation 1 models. TOR occupancy counters (T1/T2) are integrated
 * cycle-exactly over the outstanding-miss set, per tier.
 *
 * The outstanding misses live in one FIFO ring per tier, in program
 * order. For one core a tier's service starts never decrease in issue
 * order (the core's clock and the tier's bandwidth cursor only move
 * forward) and its latency is a constant, so issue order is also start
 * order and completion order: each ring is already sorted by both and
 * every pick is a ring front. Three cursors split a ring: [head,
 * started) occupies the TOR, [started, tail) waits for a
 * bandwidth-queued start. The sweep moves `started` past starts and
 * `head` past completions in time order, so a tier's TOR count is
 * started - head. The MSHR hazard waits on the ring head with the
 * earlier (completion, opIdx), the ROB hazard on the head with the
 * lower opIdx; every queued miss is still incomplete, because each
 * clock move sweeps the completions it reaches. The clock caches the
 * earliest pending boundary (nextEvent_), so an advance that crosses
 * none is one compare; only a step that reaches a start or a
 * completion reads the ring fronts.
 *
 * Occupancy is integrated lazily: torSince_ marks the start of the
 * current constant-count segment, and count x dt (plus dt of busy
 * while count > 0) is accrued into the Pmu only when a per-tier count
 * changes or when code outside the Cpu may read the Pmu — every
 * run() return, addPenalty, drainInflight, and just before a hint
 * fault's listener call. The integrals are sums over constant-count
 * segments, so where they are split does not change the uint64
 * totals: every read point sees the same counters as an eager
 * per-advance integration.
 */

#ifndef PACT_SIM_CPU_HH
#define PACT_SIM_CPU_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/lru.hh"
#include "mem/tier_manager.hh"
#include "sim/cache.hh"
#include "sim/chmu.hh"
#include "sim/config.hh"
#include "sim/pebs.hh"
#include "sim/pmu.hh"
#include "sim/policy_iface.hh"
#include "sim/tier.hh"
#include "sim/trace.hh"

namespace pact
{

/** One simulated hardware context executing a trace. */
class Cpu
{
  public:
    Cpu(const SimConfig &cfg, const Trace &trace, Cache &cache,
        std::array<Tier *, NumTiers> tiers, TierManager &tm, LruLists &lru,
        Pmu &pmu, PebsSampler &pebs, const std::vector<std::uint8_t> &huge,
        AccessListener *listener, Chmu *chmu = nullptr);

    /**
     * Execute ops until the local clock reaches @p until or the trace
     * ends (looping traces restart). @return false once a non-looping
     * trace has fully retired.
     */
    bool run(Cycles until);

    /** Local clock. */
    Cycles cycle() const { return cycle_; }

    /** True when a non-looping trace has retired all ops. */
    bool done() const { return done_; }

    /** Cycle at which the trace finished (valid when done()). */
    Cycles finishCycle() const { return finishCycle_; }

    /** Charge externally imposed stall cycles (migration penalties). */
    void addPenalty(Cycles c);

    /** Wait out all outstanding misses (end-of-run drain). */
    void drainInflight();

    /**
     * Completed latency-span measurements, by span class. Span
     * lengths are full 64-bit cycle counts: long spans (minutes of
     * simulated time) exceed 2^32 cycles and must not wrap.
     */
    const std::vector<std::pair<std::uint32_t, std::uint64_t>> &
    spans() const
    {
        return spans_;
    }

    /** Ops retired so far. */
    std::uint64_t retired() const { return opIdx_; }

    /** Cycles charged as migration/fault penalties. */
    Cycles penaltyCycles() const { return penaltyCycles_; }

    /** Owning simulated process of the replayed trace. */
    ProcId proc() const { return trace_.proc; }

  private:
    /** An outstanding LLC miss. */
    struct Miss
    {
        Cycles start;
        Cycles completion;
        std::uint64_t opIdx;
    };

    /**
     * One tier's outstanding misses in program order, which is also
     * start and completion order. Cursors count up without bound and
     * index slots modulo the power-of-two capacity.
     */
    struct MissRing
    {
        std::vector<Miss> slots;
        /** Oldest incomplete miss. */
        std::uint64_t head = 0;
        /** First miss whose TOR occupancy has not started yet. */
        std::uint64_t started = 0;
        /** One past the newest miss. */
        std::uint64_t tail = 0;
    };

    void doAccess(const TraceOp &op);
    void waitFor(Cycles completion, TierId tier);

    /** @p r's miss at cursor @p i. */
    const Miss &
    slot(const MissRing &r, std::uint64_t i) const
    {
        return r.slots[i & ringMask_];
    }

    /** Move the clock to @p c1 (>= cycle_); reads the rings only
     *  when a TOR start or completion lies at or before @p c1. */
    void
    advanceTo(Cycles c1)
    {
        if (c1 < nextEvent_) {
            cycle_ = c1;
            return;
        }
        sweepTo(c1);
    }

    void sweepTo(Cycles c1);
    void accrueTorTo(Cycles t);
    void flushTor() { accrueTorTo(cycle_); }
    void insertMiss(Cycles start, Cycles completion, TierId tier);

    const SimConfig &cfg_;
    const Trace &trace_;
    Cache &cache_;
    std::array<Tier *, NumTiers> tiers_;
    TierManager &tm_;
    LruLists &lru_;
    Pmu &pmu_;
    PebsSampler &pebs_;
    const std::vector<std::uint8_t> &huge_;
    AccessListener *listener_;
    Chmu *chmu_;

    Cycles cycle_ = 0;
    std::size_t pos_ = 0;
    /** Ops retired so far; also each miss's program-order index. */
    std::uint64_t opIdx_ = 0;
    unsigned retireCredit_ = 0;
    bool done_ = false;
    Cycles finishCycle_ = 0;
    Cycles penaltyCycles_ = 0;

    /** Outstanding misses, one ring per tier. */
    std::array<MissRing, NumTiers> rings_;
    /** Ring capacity - 1 (the capacity is a power of two no smaller
     *  than the most misses the MSHR and ROB hazards let be
     *  outstanding). */
    std::uint64_t ringMask_;
    /** Start of the constant-count segment not yet accrued into the
     *  Pmu (<= cycle_). */
    Cycles torSince_ = 0;
    /** Earliest pending boundary: a ring's first unstarted start or
     *  its head's completion, ~0 when no miss is outstanding (always
     *  > cycle_). */
    Cycles nextEvent_ = ~Cycles{0};

    bool lastLoadValid_ = false;
    Cycles lastLoadCompletion_ = 0;
    TierId lastLoadTier_ = TierId::Fast;

    std::vector<std::pair<std::uint32_t, Cycles>> spanStack_;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> spans_;
};

} // namespace pact

#endif // PACT_SIM_CPU_HH
