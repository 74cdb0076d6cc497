/**
 * @file
 * Per-page placement state: which tier each 4KB page lives in, first-
 * touch allocation, capacity accounting, and the metadata bits tiering
 * policies hang off a page (hint-fault arming, referenced bit, huge-
 * page membership).
 */

#ifndef PACT_MEM_TIER_MANAGER_HH
#define PACT_MEM_TIER_MANAGER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace pact
{

/** Packed per-page metadata (8 bytes/page). */
struct alignas(8) PageMeta
{
    /** Compressed last-access timestamp (cycle >> 10). */
    std::uint32_t lastAccess = 0;
    /** Tier the page currently resides in (valid when touched). */
    std::uint8_t tier = 0;
    /** Owning simulated process. */
    std::uint8_t owner = 0;
    /** Flag bits, see PageFlags. */
    std::uint8_t flags = 0;
    /** Saturating small access counter available to policies. */
    std::uint8_t shortFreq = 0;
};

/** Bit assignments for PageMeta::flags. */
namespace PageFlags
{
constexpr std::uint8_t Touched = 1 << 0;
/** Page belongs to a huge (2MB) mapping. */
constexpr std::uint8_t Huge = 1 << 1;
/** NUMA-hint fault armed: next access traps to the policy. */
constexpr std::uint8_t HintArmed = 1 << 2;
/** Referenced since the last LRU scan. */
constexpr std::uint8_t Referenced = 1 << 3;
/** A non-exclusive (Nomad-style) shadow copy exists on the slow tier. */
constexpr std::uint8_t Shadowed = 1 << 4;
/**
 * LruLists stores a page's list membership in the top three flag
 * bits, so the CPU hot path resolves placement and LRU tracking from
 * the same PageMeta load. Valid only via LruLists; the location bits
 * (LruSlow/LruInactive) are meaningless unless LruListed is set.
 */
constexpr std::uint8_t LruListed = 1 << 5;
/** Listed on the slow tier's lists (fast when clear). */
constexpr std::uint8_t LruSlow = 1 << 6;
/** Listed on the inactive list (active when clear). */
constexpr std::uint8_t LruInactive = 1 << 7;
/** All LruLists-owned bits. */
constexpr std::uint8_t LruMask = LruListed | LruSlow | LruInactive;
} // namespace PageFlags

/**
 * Tracks page placement across the two tiers. Pages materialize on
 * first touch; the fast tier has a hard page capacity, the slow tier is
 * effectively unbounded (as in the paper's testbed, where slow capacity
 * always exceeds the workload footprint).
 */
class TierManager
{
  public:
    /**
     * @param total_pages Number of 4KB pages in the address space.
     * @param fast_capacity_pages Fast-tier capacity in pages.
     */
    TierManager(std::uint64_t total_pages,
                std::uint64_t fast_capacity_pages);

    /** Grow the page array (after late allocations). */
    void resize(std::uint64_t total_pages);

    /**
     * Resolve the tier of a page, materializing it on first touch.
     * First-touch placement fills the fast tier, then spills to slow
     * (Linux default / NoTier behaviour).
     *
     * @param page Page being accessed.
     * @param proc Accessing process.
     * @param huge Whether the page belongs to a THP mapping; first
     *             touch then materializes the whole 2MB region.
     * @return The page's tier after materialization.
     */
    TierId touch(PageId page, ProcId proc, bool huge);

    /** Tier of an already-touched page. */
    TierId
    tierOf(PageId page) const
    {
        return static_cast<TierId>(meta_[page].tier);
    }

    /** Whether the page has been materialized. */
    bool
    touched(PageId page) const
    {
        return page < meta_.size() &&
               (meta_[page].flags & PageFlags::Touched);
    }

    /** Mutable metadata for a page. */
    PageMeta &meta(PageId page) { return meta_[page]; }
    const PageMeta &meta(PageId page) const { return meta_[page]; }

    /**
     * Re-home a touched page (migration). Capacity accounting is
     * updated; the caller handles cost modelling and LRU bookkeeping.
     */
    void place(PageId page, TierId tier);

    // --- hint-arming index -----------------------------------------
    // Two bit-per-page indexes let the NUMA-hint scanner arm a batch
    // one 64-page word at a time instead of probing pages one by one.
    // The slow-residency bitmap has a page's bit set iff the page is
    // touched and resident on the slow tier; materialize() and place()
    // keep it exact. The armed mirror has a bit set only if the page
    // carries PageFlags::HintArmed: armHints() sets both, disarmHint()
    // clears both, so a mirrored page needs no flag write when it is
    // re-armed. The flag itself stays in PageMeta::flags, where the CPU
    // hot path reads it in the same load as the page's tier.

    /**
     * Arm up to @p batch touched slow-tier pages with HintArmed,
     * walking ascending from @p cursor (0 once it reaches the end) and
     * wrapping once. Pages already armed count toward the batch.
     * Returns the number of slow pages counted; @p cursor ends one
     * past the last page counted when the batch fills, and otherwise
     * where the walk started (totalPages() if that was page 0).
     */
    std::uint64_t armHints(PageId &cursor, std::uint64_t batch);

    /** Clear a page's HintArmed flag (the only way to clear it). */
    void
    disarmHint(PageId page)
    {
        meta_[page].flags &= ~PageFlags::HintArmed;
        armedBits_[page >> 6] &= ~(std::uint64_t{1} << (page & 63));
    }

    // --- per-huge-region referenced counters -----------------------
    // Incremental count of pages per 2MB region carrying both Huge and
    // Referenced, replacing the daemon's 512-subpage loop per demotion
    // probe. THP extents are 2MB-aligned in base and size (AddrSpace),
    // so a region is either wholly huge or wholly not: within a huge
    // region, Huge set implies Touched, making this count equal to the
    // old "touched && Referenced" subpage census. The flag owners call
    // the note*() hooks just before flipping the Referenced bit.

    /** Call before setting Referenced on a page with @p old_flags. */
    void
    noteReferencedWillSet(PageId page, std::uint8_t old_flags)
    {
        constexpr std::uint8_t hr =
            PageFlags::Huge | PageFlags::Referenced;
        if ((old_flags & hr) == PageFlags::Huge)
            regionRef_[page / PagesPerHugePage]++;
    }

    /** Call before clearing Referenced on a page with @p old_flags. */
    void
    noteReferencedWillClear(PageId page, std::uint8_t old_flags)
    {
        constexpr std::uint8_t hr =
            PageFlags::Huge | PageFlags::Referenced;
        if ((old_flags & hr) == hr)
            regionRef_[page / PagesPerHugePage]--;
    }

    /** Huge-and-referenced pages in @p page's 2MB region. */
    std::uint64_t
    regionReferenced(PageId page) const
    {
        return regionRef_[page / PagesPerHugePage];
    }

    /** Force the first-touch preference (Soar static placement). */
    void setFirstTouchOverride(PageId page, TierId tier);
    void clearFirstTouchOverrides();

    /** Pages currently resident in a tier (committed copies only). */
    std::uint64_t used(TierId t) const { return used_[tierIndex(t)]; }

    /**
     * Free pages remaining in the fast tier. Open migration-transaction
     * shadow copies on the fast tier count against the capacity — the
     * destination frames are physically occupied while the copy is in
     * flight, even though the committed residency has not moved yet.
     */
    std::uint64_t
    freeFast() const
    {
        const std::uint64_t u = used_[tierIndex(TierId::Fast)] +
                                shadowUsed_[tierIndex(TierId::Fast)];
        return u >= fastCapacity_ ? 0 : fastCapacity_ - u;
    }

    /**
     * Open a non-exclusive (Nomad-style) transactional shadow region:
     * @p pages frames on @p dst are reserved for an in-flight copy of
     * [base, base+pages) while the committed copies stay on the source
     * tier. Reads keep hitting the committed copy; commitShadow() /
     * abortShadow() must release the region before the next audit
     * point. Returns false (and reserves nothing) when @p dst is the
     * fast tier and the frames don't fit.
     */
    bool beginShadow(PageId base, std::uint64_t pages, TierId dst);

    /** Release a shadow region after the copy committed (the caller
     *  re-homes the pages with place() itself). */
    void commitShadow(PageId base, std::uint64_t pages, TierId dst);

    /** Release a shadow region after an abort; committed state is
     *  untouched, so rollback is just dropping the reservation. */
    void abortShadow(PageId base, std::uint64_t pages, TierId dst);

    /** Shadow-reserved frames currently open on a tier. */
    std::uint64_t
    shadowUsed(TierId t) const
    {
        return shadowUsed_[tierIndex(t)];
    }

    /** Open shadow regions (in-flight migration transactions). */
    std::uint64_t openShadows() const { return openShadows_.size(); }

    /** Fast-tier capacity in pages. */
    std::uint64_t fastCapacity() const { return fastCapacity_; }

    /** Total pages in the page array. */
    std::uint64_t totalPages() const { return meta_.size(); }

    /** Count of pages materialized so far. */
    std::uint64_t touchedPages() const { return touchedCount_; }

    /** Number of materialized pages backed by huge mappings. */
    std::uint64_t hugePages() const { return hugeCount_; }

    /** True when any 2MB mappings exist (THP-aware policies). */
    bool hugeInUse() const { return hugeCount_ > 0; }

    /**
     * Full-consistency audit (SimConfig::audit): recounts the page array
     * and checks that every touched page sits in exactly one valid
     * tier, per-tier residency matches the used() accounting, touched
     * and huge counts are conserved, fast-tier usage (including any
     * shadow-reserved frames) respects the capacity, and Shadowed
     * implies fast residency. The hint-arming index is checked too:
     * the slow-residency bitmap against an exact recount, and every
     * armed-mirror bit against its page's HintArmed flag. Audits run
     * at transaction-quiescent points (daemon-window boundaries, end
     * of run), so any open migration-transaction shadow is leaked
     * residue and a violation: committed + aborted transactions must
     * both leave zero shadows.
     * O(totalPages); throws InvariantError with a dump of the first
     * violation.
     */
    void auditConsistency() const;

  private:
    /** One open migration-transaction shadow reservation. */
    struct ShadowRegion
    {
        PageId base;
        std::uint64_t pages;
        TierId dst;
    };

    void materialize(PageId page, ProcId proc, bool huge, TierId tier);
    void setSlowBit(PageId page, bool slow);
    /** Set HintArmed on the pages of word @p w named by @p bits. */
    void armWord(std::uint64_t w, std::uint64_t bits);
    void releaseShadow(PageId base, std::uint64_t pages, TierId dst,
                       const char *what);

    std::vector<PageMeta> meta_;
    /** Optional per-page first-touch override tier (0xff = none). */
    std::vector<std::uint8_t> firstTouchOverride_;
    /** Huge-and-referenced page count per 2MB region. */
    std::vector<std::uint16_t> regionRef_;
    /** Bit per page: touched and resident on the slow tier. */
    std::vector<std::uint64_t> slowBits_;
    /** Bit per page: set only if the page carries HintArmed. */
    std::vector<std::uint64_t> armedBits_;
    std::uint64_t fastCapacity_;
    std::array<std::uint64_t, NumTiers> used_ = {0, 0};
    /** Frames reserved by open shadow regions, per tier. */
    std::array<std::uint64_t, NumTiers> shadowUsed_ = {0, 0};
    /** Open shadow regions; tiny (migrations are synchronous today,
     *  so at most one is open outside targeted unit tests). */
    std::vector<ShadowRegion> openShadows_;
    std::uint64_t touchedCount_ = 0;
    std::uint64_t hugeCount_ = 0;
};

} // namespace pact

#endif // PACT_MEM_TIER_MANAGER_HH
