/**
 * @file
 * Kernel-style two-list (active/inactive) page LRU per tier, emulating
 * the Linux reclaim machinery PACT's eager demotion and TPP's
 * watermark-based demotion pull victims from.
 *
 * A page's list membership is not stored in a side array: it lives in
 * the top three bits of PageMeta::flags (PageFlags::LruMask), so the
 * per-access tracked() probe on the CPU hot path touches the same
 * cache line the placement and referenced bits already load. Every
 * mutator therefore takes the owning TierManager.
 */

#ifndef PACT_MEM_LRU_HH
#define PACT_MEM_LRU_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/tier_manager.hh"

namespace pact
{

/**
 * Intrusive doubly-linked active/inactive lists over page ids, one pair
 * per tier. Pages are added on first touch, rotated by a clock-style
 * scan that consumes the per-page Referenced bit, and demotion victims
 * are taken from the inactive tail (least recently used).
 */
class LruLists
{
  public:
    explicit LruLists(std::uint64_t total_pages);

    /** Grow the backing arrays. */
    void resize(std::uint64_t total_pages);

    /** Add a newly materialized page to its tier's active list head. */
    void insert(PageId page, TierId tier, TierManager &tm);

    /** Remove a page (before migration re-inserts it elsewhere). */
    void remove(PageId page, TierManager &tm);

    /** Move a page between tiers (migration bookkeeping). */
    void moveTier(PageId page, TierId to, TierManager &tm);

    /**
     * Age lists: scan up to nscan pages from the active tail, moving
     * unreferenced ones to the inactive head and rotating referenced
     * ones (clearing their Referenced bit). Also rescues referenced
     * inactive-tail pages back to active.
     *
     * @return Pages examined across both loops (daemon phase costing).
     */
    std::uint64_t scan(TierId tier, std::uint64_t nscan,
                       TierManager &tm);

    /**
     * Collect up to n demotion candidates from the inactive tail
     * (falling back to the active tail when inactive is empty).
     * Referenced inactive pages are rescued to the active list
     * instead (second chance). Candidates stay on their list; a
     * subsequent migration moves them.
     */
    std::vector<PageId> victims(TierId tier, std::uint64_t n,
                                TierManager &tm,
                                bool allow_active = true);

    /** Number of pages on a tier's active list. */
    std::uint64_t activeSize(TierId t) const;
    /** Number of pages on a tier's inactive list. */
    std::uint64_t inactiveSize(TierId t) const;

    /** Whether the page is currently on any list. */
    bool
    tracked(PageId page, const TierManager &tm) const
    {
        return page < tm.totalPages() &&
               (tm.meta(page).flags & PageFlags::LruListed);
    }

  private:
    enum ListKind : std::uint8_t { Active = 0, Inactive = 1 };

    struct List
    {
        std::int64_t head = -1;
        std::int64_t tail = -1;
        std::uint64_t size = 0;
    };

    List &list(TierId t, ListKind k) { return lists_[tierIndex(t)][k]; }
    const List &
    list(TierId t, ListKind k) const
    {
        return lists_[tierIndex(t)][k];
    }

    void pushHead(List &l, PageId page);
    void unlink(List &l, PageId page);

    static void
    setWhere(TierManager &tm, PageId page, TierId t, ListKind k)
    {
        std::uint8_t &flags = tm.meta(page).flags;
        flags = static_cast<std::uint8_t>(
            (flags & ~PageFlags::LruMask) | PageFlags::LruListed |
            (tierIndex(t) ? PageFlags::LruSlow : 0) |
            (k == Inactive ? PageFlags::LruInactive : 0));
    }

    std::vector<std::int64_t> prev_;
    std::vector<std::int64_t> next_;
    std::array<std::array<List, 2>, NumTiers> lists_;
};

} // namespace pact

#endif // PACT_MEM_LRU_HH
