#include "sim/cpu.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace pact
{

Cpu::Cpu(const SimConfig &cfg, const Trace &trace, Cache &cache,
         std::array<Tier *, NumTiers> tiers, TierManager &tm, LruLists &lru,
         Pmu &pmu, PebsSampler &pebs, const std::vector<std::uint8_t> &huge,
         AccessListener *listener, Chmu *chmu)
    : cfg_(cfg), trace_(trace), cache_(cache), tiers_(tiers), tm_(tm),
      lru_(lru), pmu_(pmu), pebs_(pebs), huge_(huge), listener_(listener),
      chmu_(chmu)
{
    // At most mshrs misses are outstanding, and all of them lie within
    // the last robOps ops.
    const std::size_t cap = std::bit_ceil(
        std::size_t{std::min(cfg.cpu.mshrs, cfg.cpu.robOps)});
    ringMask_ = cap - 1;
    for (MissRing &r : rings_)
        r.slots.assign(cap, Miss{0, 0, 0});
}

/**
 * Accrue TOR occupancy/busy over [torSince_, t), during which the
 * per-tier outstanding-miss counts are constant, and start the next
 * segment at @p t.
 */
void
Cpu::accrueTorTo(Cycles t)
{
    const Cycles dt = t - torSince_;
    torSince_ = t;
    for (unsigned i = 0; i < NumTiers; i++) {
        if (const std::uint64_t n = rings_[i].started - rings_[i].head) {
            pmu_.torOccupancy[i] += n * dt;
            pmu_.torBusy[i] += dt;
        }
    }
}

void
Cpu::sweepTo(Cycles c1)
{
    // Sweep interval boundaries up to c1 in time order, closing the
    // constant-count segment at each one. Boundaries at exactly c1
    // flip the counts for the next window. A completion's matching
    // start is strictly earlier (latency is at least one cycle), so
    // counts never go transiently negative. The segment open at c1
    // stays open until the next count change or flush.
    while (true) {
        Cycles nextStart = ~Cycles{0}, nextComp = ~Cycles{0};
        MissRing *startRing = nullptr, *compRing = nullptr;
        for (MissRing &r : rings_) {
            if (r.started != r.tail &&
                slot(r, r.started).start < nextStart) {
                nextStart = slot(r, r.started).start;
                startRing = &r;
            }
            if (r.head != r.tail &&
                slot(r, r.head).completion < nextComp) {
                nextComp = slot(r, r.head).completion;
                compRing = &r;
            }
        }
        const Cycles t = std::min(nextStart, nextComp);
        if (t > c1) {
            nextEvent_ = t;
            break;
        }
        accrueTorTo(t);
        if (nextStart <= nextComp)
            startRing->started++;
        else
            compRing->head++;
    }
    cycle_ = c1;
}

void
Cpu::waitFor(Cycles completion, TierId tier)
{
    if (completion > cycle_) {
        pmu_.stallCycles[tierIndex(tier)] += completion - cycle_;
        advanceTo(completion);
    }
}

void
Cpu::addPenalty(Cycles c)
{
    penaltyCycles_ += c;
    advanceTo(cycle_ + c);
    flushTor();
}

void
Cpu::drainInflight()
{
    Cycles maxc = cycle_;
    for (const MissRing &r : rings_) {
        if (r.head != r.tail)
            maxc = std::max(maxc, slot(r, r.tail - 1).completion);
    }
    advanceTo(maxc);
    flushTor();
}

void
Cpu::insertMiss(Cycles start, Cycles completion, TierId tier)
{
    MissRing &r = rings_[tierIndex(tier)];
    // The ring's order is start and completion order only while a
    // tier never serves a later miss earlier. The slot behind tail
    // holds the tier's newest miss (zeros before the first), popped
    // or not.
    const Miss &last = slot(r, r.tail - 1);
    panic_if(start < last.start || completion < last.completion,
             "tier ", tierIndex(tier), " serves op ", opIdx_, " over [",
             start, ", ", completion, "), before op ", last.opIdx,
             " over [", last.start, ", ", last.completion,
             "): misses must start and complete in issue order");
    r.slots[r.tail++ & ringMask_] = {start, completion, opIdx_};
    nextEvent_ = std::min(nextEvent_, completion);
    // start >= cycle_ always (tiers never backdate service). Service
    // beginning right now occupies the TOR immediately; no earlier
    // miss of the tier can still be waiting, since its start would be
    // later than this one. A bandwidth-queued start waits for the
    // sweep to reach it.
    if (start == cycle_) {
        accrueTorTo(cycle_);
        r.started = r.tail;
    } else {
        nextEvent_ = std::min(nextEvent_, start);
    }
}

void
Cpu::doAccess(const TraceOp &op)
{
    const bool isLoad = op.kind() == OpKind::Load;
    const PageId page = pageOf(op.vaddr());

    // Resolve placement, LRU membership, and the policy-visible bits
    // through a single PageMeta load (the LRU location lives in the
    // same flags byte). touch() materializes on first touch and panics
    // on out-of-range pages.
    TierId tier;
    PageMeta *mp;
    if (page < tm_.totalPages() &&
        ((mp = &tm_.meta(page))->flags & PageFlags::Touched)) {
        tier = static_cast<TierId>(mp->tier);
    } else {
        const bool huge = page < huge_.size() && huge_[page];
        tier = tm_.touch(page, trace_.proc, huge);
        mp = &tm_.meta(page);
    }
    PageMeta &m = *mp;
    if (!(m.flags & PageFlags::LruListed))
        lru_.insert(page, tier, tm_);

    tm_.noteReferencedWillSet(page, m.flags);
    m.flags |= PageFlags::Referenced;
    m.lastAccess = static_cast<std::uint32_t>(cycle_ >> 10);
    if (m.shortFreq < 0xff)
        m.shortFreq++;

    // NUMA hint fault: the policy unmapped this page to observe the
    // next access; the access traps, costing the process fault cycles.
    if (m.flags & PageFlags::HintArmed) {
        tm_.disarmHint(page);
        pmu_.hintFaults++;
        addPenalty(cfg_.cpu.hintFaultCycles); // flushes the TOR integral
        if (listener_)
            listener_->onHintFault(page, trace_.proc);
        tier = tm_.tierOf(page); // the fault handler may have migrated
    }

    // A dependent access cannot compute its address before the
    // producer load's data arrives, hit or miss downstream.
    if (op.dep() && lastLoadValid_)
        waitFor(lastLoadCompletion_, lastLoadTier_);

    const CacheResult cr = cache_.access(op.vaddr());

    if (cr.prefetchLines > 0) {
        // Prefetches consume target-tier bandwidth but never fault
        // pages in; drop bursts into unmapped space.
        const PageId ppage = pageOf(cr.prefetchStart << LineShift);
        if (ppage < tm_.totalPages()) {
            const PageMeta &pm = tm_.meta(ppage);
            if (pm.flags & PageFlags::Touched) {
                Tier *pt = tiers_[tierIndex(static_cast<TierId>(pm.tier))];
                pt->chargeLines(cycle_, cr.prefetchLines);
                cache_.installPrefetches(cr.prefetchStart,
                                         cr.prefetchLines);
                pmu_.prefetches += cr.prefetchLines;
            }
        }
    }

    if (cr.hit) {
        pmu_.llcHits++;
        if (isLoad)
            lastLoadValid_ = false; // data available immediately
        return;
    }

    // Structural hazards: MSHRs, then ROB headroom. Every queued miss
    // is incomplete (each clock move sweeps the completions it
    // reaches), so waiting on a ring head retires it.
    const MissRing &fr = rings_[tierIndex(TierId::Fast)];
    const MissRing &sr = rings_[tierIndex(TierId::Slow)];
    while ((fr.tail - fr.head) + (sr.tail - sr.head) >= cfg_.cpu.mshrs) {
        // The earlier (completion, opIdx) of the two heads.
        const Miss &a = slot(fr, fr.head), &b = slot(sr, sr.head);
        const bool slow =
            fr.head == fr.tail ||
            (sr.head != sr.tail && (b.completion != a.completion
                                        ? b.completion < a.completion
                                        : b.opIdx < a.opIdx));
        waitFor(slow ? b.completion : a.completion,
                slow ? TierId::Slow : TierId::Fast);
    }
    while (fr.head != fr.tail || sr.head != sr.tail) {
        // The oldest incomplete miss in program order.
        const Miss &a = slot(fr, fr.head), &b = slot(sr, sr.head);
        const bool slow =
            fr.head == fr.tail || (sr.head != sr.tail && b.opIdx < a.opIdx);
        const Miss &oldest = slow ? b : a;
        if (opIdx_ - oldest.opIdx <
            static_cast<std::uint64_t>(cfg_.cpu.robOps))
            break;
        waitFor(oldest.completion, slow ? TierId::Slow : TierId::Fast);
    }

    const TierAccess acc = tiers_[tierIndex(tier)]->access(cycle_);
    insertMiss(acc.start, acc.completion, tier);

    pmu_.llcMisses[tierIndex(tier)]++;
    if (chmu_ && tier == TierId::Slow)
        chmu_->record(page); // the device observes all its accesses
    if (isLoad) {
        pmu_.llcLoadMisses[tierIndex(tier)]++;
        pebs_.onLoadMiss(op.vaddr(), tier,
                         static_cast<std::uint32_t>(acc.completion - cycle_),
                         trace_.proc, cycle_);
        lastLoadValid_ = true;
        lastLoadCompletion_ = acc.completion;
        lastLoadTier_ = tier;
    }
}

bool
Cpu::run(Cycles until)
{
    if (done_)
        return false;
    const auto &ops = trace_.ops;

    while (cycle_ < until) {
        if (pos_ >= ops.size()) {
            if (trace_.loop && !ops.empty()) {
                pos_ = 0;
            } else {
                done_ = true;
                drainInflight();
                finishCycle_ = cycle_;
                return false;
            }
        }
        const TraceOp &op = ops[pos_++];
        opIdx_++;
        pmu_.instructions++;

        if (const std::uint32_t gap = op.gap()) {
            pmu_.computeCycles += gap;
            advanceTo(cycle_ + gap);
        }

        switch (op.kind()) {
          case OpKind::Load:
          case OpKind::Store:
            doAccess(op);
            break;
          case OpKind::MarkBegin:
            spanStack_.emplace_back(
                static_cast<std::uint32_t>(op.vaddr()), cycle_);
            break;
          case OpKind::MarkEnd:
            if (!spanStack_.empty()) {
                const auto [cls, beg] = spanStack_.back();
                spanStack_.pop_back();
                spans_.emplace_back(cls, cycle_ - beg);
            }
            break;
          case OpKind::Nop:
            break;
          case OpKind::BigGap:
            // The full cycle count rides in the addr field (the
            // 12-bit gap field is zero); accounting matches the
            // equivalent run of max-gap Nops.
            pmu_.computeCycles += op.vaddr();
            advanceTo(cycle_ + op.vaddr());
            break;
        }

        // Retire-width floor: at most 4 ops per cycle.
        if (++retireCredit_ == 4) {
            retireCredit_ = 0;
            advanceTo(cycle_ + 1);
        }
    }
    flushTor();
    return true;
}

} // namespace pact
