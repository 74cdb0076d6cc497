#include "mem/migration.hh"

#include "common/logging.hh"
#include "fault/fault.hh"

namespace pact
{

MigrationEngine::MigrationEngine(TierManager &tm, LruLists &lru,
                                 MigrationBackend &bk,
                                 const MigrationConfig &cfg,
                                 unsigned num_procs)
    : tm_(tm), lru_(lru), backend_(bk), cfg_(cfg),
      pendingPenalty_(num_procs, 0)
{
}

void
MigrationEngine::enableAdmission(std::uint32_t tenant,
                                 const AdmissionConfig &cfg)
{
    panic_if(cfg.window == 0, "admission: zero outcome window");
    panic_if(cfg.minSamples == 0, "admission: zero minSamples");
    admitCfg_ = cfg;
    if (tenant >= admitTenants_.size())
        admitTenants_.resize(tenant + 1, false);
    admitTenants_[tenant] = true;
    if (outcomes_.size() != admitCfg_.window) {
        outcomes_.assign(admitCfg_.window, TxnOutcome{false, 0, 0});
        outcomeNext_ = 0;
        outcomeCount_ = 0;
    }
}

bool
MigrationEngine::admissionEnabled(std::uint32_t tenant) const
{
    return tenant < admitTenants_.size() && admitTenants_[tenant];
}

void
MigrationEngine::recordOutcome(bool committed, Cycles useful, Cycles wasted)
{
    if (outcomes_.empty())
        return;
    outcomes_[outcomeNext_] = TxnOutcome{committed, useful, wasted};
    outcomeNext_ = (outcomeNext_ + 1) % outcomes_.size();
    if (outcomeCount_ < outcomes_.size())
        outcomeCount_++;
}

bool
MigrationEngine::admissionRejects() const
{
    if (!admissionEnabled(jTenant_))
        return false;
    if (outcomeCount_ < admitCfg_.minSamples)
        return false;
    std::uint64_t aborted = 0;
    Cycles useful = 0;
    Cycles wasted = 0;
    for (std::size_t i = 0; i < outcomeCount_; i++) {
        const TxnOutcome &o = outcomes_[i];
        if (!o.committed)
            aborted++;
        useful += o.useful;
        wasted += o.wasted;
    }
    const double n = static_cast<double>(outcomeCount_);
    const double abortRate = static_cast<double>(aborted) / n;
    const double spent = static_cast<double>(useful + wasted);
    const double wasteFrac =
        spent > 0.0 ? static_cast<double>(wasted) / spent : 0.0;
    return abortRate > admitCfg_.maxAbortRate ||
           wasteFrac > admitCfg_.maxWasteFrac;
}

Cycles
MigrationEngine::chargeCosts(PageId page, std::uint64_t bytes, TierId src,
                             TierId dst, bool include_fixed)
{
    // An abort before any work started (mid-copy abort at progress 0)
    // must be observably free: no bandwidth, no penalty, no latency
    // sample — only then does a 100%-forced-abort run stay timing-
    // identical to a migrations-disabled run.
    if (bytes == 0 && !include_fixed)
        return 0;
    const Cycles copy = bytes > 0 ? backend_.chargeCopy(src, dst, bytes)
                                  : Cycles(0);
    stats_.copyCycles += copy;
    const bool huge = tm_.meta(page).flags & PageFlags::Huge;
    const Cycles fixed =
        include_fixed ? (huge ? cfg_.fixedCyclesHuge : cfg_.fixedCycles4k)
                      : Cycles(0);
    const auto penalty =
        static_cast<Cycles>(cfg_.appPenaltyFraction *
                            static_cast<double>(fixed + copy));
    stats_.appPenaltyCycles += penalty;
    const ProcId owner = tm_.meta(page).owner;
    if (owner < pendingPenalty_.size())
        pendingPenalty_[owner] += penalty;
    const Cycles total = fixed + copy;
    latDist_.record(static_cast<double>(total));
    return total;
}

void
MigrationEngine::emitTxnEvent(obs::EventKind kind, PageId page, TierId src,
                              TierId dst, std::uint64_t pages,
                              Cycles latency, unsigned attempt,
                              obs::TxnAbortReason reason)
{
    obs::PageEvent e;
    e.now = jNow_;
    e.kind = kind;
    e.tenant = jTenant_;
    e.page = page;
    e.window = jWindow_;
    e.srcTier = static_cast<std::uint32_t>(src);
    e.dstTier = static_cast<std::uint32_t>(dst);
    e.pages = pages;
    e.latency = latency;
    e.attempt = attempt;
    e.reason = reason;
    journal_->emit(e);
}

bool
MigrationEngine::migrateRegion(PageId page, TierId dst)
{
    if (cfg_.disabled)
        return false;
    if (!tm_.touched(page))
        return false;
    if (tm_.tierOf(page) == dst)
        return false;

    const bool huge = tm_.meta(page).flags & PageFlags::Huge;
    const PageId base = huge ? hugeBase(page) : page;
    const std::uint64_t count = huge ? PagesPerHugePage : 1;
    const TierId src = tm_.tierOf(page);

    if (dst == TierId::Fast && tm_.freeFast() < count) {
        stats_.failed++;
        return false;
    }

    // TierBPF-style gate: reject promotions predicted unprofitable
    // from the recent transaction-outcome window, before any state or
    // cost is committed.
    if (dst == TierId::Fast && admissionRejects()) {
        txnStats_.admissionRejected++;
        if (journal_)
            emitTxnEvent(obs::EventKind::TxnAdmitReject, page, src, dst,
                         count, 0, 0, obs::TxnAbortReason::None);
        return false;
    }

    txnStats_.prepared++;
    if (journal_)
        emitTxnEvent(obs::EventKind::TxnPrepare, page, src, dst, count, 0,
                     1, obs::TxnAbortReason::None);

    Cycles txnWasted = 0;
    unsigned attempt = 0;
    for (;;) {
        attempt++;
        // Prepared: reserve the destination frames as a non-exclusive
        // shadow region; committed residency stays on the source tier
        // until the transaction validates.
        if (!tm_.beginShadow(base, count, dst)) {
            // Capacity raced away (possible only for callers that
            // mutate placement between our check and here).
            stats_.failed++;
            recordOutcome(false, 0, txnWasted);
            return false;
        }

        // Copying / Validating: draw the fault schedule in physical
        // order — whole-copy contention, destination write failure
        // (before data moves), mid-copy abort, then (after the full
        // copy) dirty-during-copy validation failure. Each class only
        // draws when enabled, so unused classes cost no randomness.
        obs::TxnAbortReason reason = obs::TxnAbortReason::None;
        if (faults_) {
            if (faults_->abortMigration(page))
                reason = obs::TxnAbortReason::Contention;
            else if (faults_->tierWriteFailure())
                reason = obs::TxnAbortReason::WriteFail;
            else if (faults_->midCopyAbort())
                reason = obs::TxnAbortReason::MidCopy;
            else if (faults_->dirtyDuringCopy())
                reason = obs::TxnAbortReason::Dirty;
        }

        if (reason == obs::TxnAbortReason::None) {
            // Committed: release the shadow, re-home every page of the
            // region, and charge the copy. Cost accounting is value-
            // identical to the pre-transactional engine.
            tm_.commitShadow(base, count, dst);
            for (PageId p = base; p < base + count; p++) {
                if (!tm_.touched(p) || tm_.tierOf(p) != src)
                    continue;
                tm_.place(p, dst);
                if (lru_.tracked(p, tm_))
                    lru_.moveTier(p, dst, tm_);
            }
            const Cycles charged =
                chargeCosts(page, count * PageBytes, src, dst, true);
            txnStats_.committed++;
            recordOutcome(true, charged, txnWasted);
            if (journal_)
                emitTxnEvent(obs::EventKind::TxnCommit, page, src, dst,
                             count, charged, attempt - 1,
                             obs::TxnAbortReason::None);
            if (dst == TierId::Fast) {
                stats_.promotedOps++;
                stats_.promotedPages += count;
            } else {
                stats_.demotedOps++;
                stats_.demotedPages += count;
            }
            return true;
        }

        // Aborted: rollback is dropping the shadow reservation —
        // committed residency, LRU membership, and stats never moved.
        tm_.abortShadow(base, count, dst);
        Cycles wasted = 0;
        switch (reason) {
          case obs::TxnAbortReason::Contention:
            // Legacy whole-copy contention abort: full copy + fixed
            // overhead wasted (the pre-transactional cost model).
            txnStats_.abortContention++;
            wasted = chargeCosts(page, count * PageBytes, src, dst, true);
            break;
          case obs::TxnAbortReason::WriteFail:
            // Failed before any data moved; only the kernel overhead
            // of the attempted move_pages() is lost.
            txnStats_.abortWriteFail++;
            wasted = chargeCosts(page, 0, src, dst, true);
            break;
          case obs::TxnAbortReason::MidCopy: {
            // Aborted at a progress fraction: that fraction of the
            // bandwidth is lost. At progress 0 the abort is free.
            txnStats_.abortMidCopy++;
            const auto bytes = static_cast<std::uint64_t>(
                static_cast<double>(count * PageBytes) *
                faults_->midCopyProgress());
            wasted = chargeCosts(page, bytes, src, dst, bytes > 0);
            break;
          }
          case obs::TxnAbortReason::Dirty:
            // The full copy completed, then validation failed: all of
            // it is wasted.
            txnStats_.abortDirty++;
            wasted = chargeCosts(page, count * PageBytes, src, dst, true);
            break;
          case obs::TxnAbortReason::None:
            break;
        }
        txnWasted += wasted;
        txnStats_.wastedCopyCycles += wasted;
        stats_.failed++;
        txnStats_.aborted++;
        if (journal_)
            emitTxnEvent(obs::EventKind::TxnAbort, page, src, dst, count,
                         wasted, attempt, reason);

        // Contention is the legacy non-retryable abort (one schedule
        // draw per migration keeps pre-existing fault schedules
        // bit-identical); the newer classes model transient conditions
        // worth retrying.
        const bool retryable = reason != obs::TxnAbortReason::Contention;
        if (!retryable || attempt > cfg_.txnMaxRetries) {
            if (retryable)
                txnStats_.exhausted++;
            recordOutcome(false, 0, txnWasted);
            return false;
        }
        txnStats_.retries++;
        const Cycles backoff = cfg_.txnBackoffCycles << (attempt - 1);
        txnStats_.backoffCycles += backoff;
        if (journal_)
            emitTxnEvent(obs::EventKind::TxnRetry, page, src, dst, count,
                         backoff, attempt + 1, obs::TxnAbortReason::None);
    }
}

bool
MigrationEngine::promote(PageId page)
{
    return migrateRegion(page, TierId::Fast);
}

bool
MigrationEngine::demote(PageId page)
{
    return migrateRegion(page, TierId::Slow);
}

void
MigrationEngine::chargeAbortedCopy(PageId page)
{
    if (cfg_.disabled)
        return;
    if (!tm_.touched(page))
        return;
    const bool huge = tm_.meta(page).flags & PageFlags::Huge;
    const std::uint64_t count = huge ? PagesPerHugePage : 1;
    const TierId src = tm_.tierOf(page);
    const TierId dst = otherTier(src);
    // A policy-level transactional abort (Nomad's shadow dirtied under
    // the copy): the full copy was charged, nothing moved. Journaled
    // as the one-attempt transaction the ledger counts.
    const Cycles charged =
        chargeCosts(page, count * PageBytes, src, dst, true);
    txnStats_.wastedCopyCycles += charged;
    stats_.failed++;
    txnStats_.prepared++;
    txnStats_.aborted++;
    txnStats_.abortDirty++;
    recordOutcome(false, 0, charged);
    if (journal_) {
        emitTxnEvent(obs::EventKind::TxnPrepare, page, src, dst, count, 0,
                     1, obs::TxnAbortReason::None);
        emitTxnEvent(obs::EventKind::TxnAbort, page, src, dst, count,
                     charged, 1, obs::TxnAbortReason::Dirty);
    }
}

} // namespace pact
