/**
 * @file
 * Shared building blocks for the baseline tiering policies: the NUMA
 * hint-fault scanner (the mechanism TPP/NBT/Colloid/Nomad observe
 * accesses with) and a two-touch recency filter (Linux promotion-
 * threshold behaviour).
 */

#ifndef PACT_POLICIES_POLICY_HH
#define PACT_POLICIES_POLICY_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "mem/lru.hh"
#include "mem/migration.hh"
#include "mem/tier_manager.hh"
#include "sim/policy_iface.hh"
#include "sim/tier.hh"

namespace pact
{

/**
 * Emulates NUMA-balancing page-table scanning: each tick a policy arms
 * a batch of slow-tier pages so their next access takes a hint fault.
 * The cursor wraps around the address space, as the kernel's virtual
 * address scanner does. The scanner owns only the pacing and the
 * cursor; TierManager::armHints does the walk a 64-page word at a
 * time over its slow-residency bitmap, skipping the flag write for
 * pages that are still armed from an earlier pass.
 */
class HintScanner
{
  public:
    /**
     * Arm up to @p batch touched slow-tier pages, subject to the
     * kernel-style scan-rate budget @p cap (Linux paces NUMA-hint
     * scanning to bound fault overhead; an unpaced scanner would arm
     * the whole slow tier every period and drown the workload in
     * faults).
     */
    void
    arm(SimContext &ctx, std::uint64_t batch,
        std::uint64_t cap = 4096)
    {
        batch = std::min(batch, cap);

        // Linux-style adaptive pacing: when the previous period's
        // fault volume exceeded the budget, back off exponentially;
        // when it was low, ramp back up.
        const std::uint64_t faults = ctx.pmu.hintFaults;
        const std::uint64_t delta = faults - lastFaults_;
        lastFaults_ = faults;
        if (delta > faultTarget_)
            scale_ = std::max(scale_ * 0.5, 1.0 / 64.0);
        else if (delta < faultTarget_ / 2)
            scale_ = std::min(scale_ * 2.0, 1.0);
        batch = static_cast<std::uint64_t>(
            static_cast<double>(batch) * scale_);
        ctx.tm.armHints(cursor_, batch);
    }

    /** Per-period fault budget driving the adaptive back-off. */
    void setFaultTarget(std::uint64_t target) { faultTarget_ = target; }

  private:
    PageId cursor_ = 0;
    std::uint64_t lastFaults_ = 0;
    std::uint64_t faultTarget_ = 1500;
    double scale_ = 1.0;
};

/**
 * Two-touch promotion filter: a page becomes a promotion candidate
 * only when it faults twice within @c windowTicks daemon ticks
 * (Linux NBT's promotion "hot threshold").
 */
class TwoTouchFilter
{
  public:
    explicit TwoTouchFilter(std::uint64_t window_ticks = 4)
        : window_(window_ticks)
    {
    }

    /** Report a fault at the current tick; true => candidate. */
    bool
    touch(PageId page, std::uint64_t tick)
    {
        auto [it, inserted] = last_.try_emplace(page, tick);
        if (inserted)
            return false;
        const bool hot = tick - it->second <= window_;
        it->second = tick;
        return hot;
    }

    void clear() { last_.clear(); }
    std::size_t tracked() const { return last_.size(); }

    /**
     * Drop entries whose last fault is stale beyond the hot window.
     * A stale entry and an absent entry behave identically on the
     * next touch (both answer "not hot" and restamp), so pruning is
     * invisible to the policy while bounding the map to the pages
     * that faulted within the window — without it the filter grows
     * with every page ever faulted over a long run.
     */
    void
    prune(std::uint64_t tick)
    {
        for (auto it = last_.begin(); it != last_.end();) {
            if (tick - it->second > window_)
                it = last_.erase(it);
            else
                ++it;
        }
    }

  private:
    std::uint64_t window_;
    std::unordered_map<PageId, std::uint64_t> last_;
};

/**
 * Watermark demotion shared by the kernel-style policies: keep at
 * least @p target pages free in the fast tier by demoting LRU
 * victims.
 */
inline std::uint64_t
demoteToWatermark(SimContext &ctx, std::uint64_t target)
{
    // Promotions move whole 2MB regions under THP, so the free-page
    // watermark must cover at least one region or promotion starves.
    if (ctx.tm.hugeInUse()) {
        target = std::max<std::uint64_t>(target,
                                         PagesPerHugePage + 64);
    }
    std::uint64_t demoted = 0;
    std::uint64_t guard = 4 * target + 16;
    while (ctx.tm.freeFast() < target && guard-- > 0) {
        const auto v = ctx.lru.victims(TierId::Fast, 1, ctx.tm);
        if (v.empty() || !ctx.mig.demote(v[0]))
            break;
        demoted++;
    }
    return demoted;
}

} // namespace pact

#endif // PACT_POLICIES_POLICY_HH
