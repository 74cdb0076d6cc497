#include "mem/tier_manager.hh"

#include <algorithm>
#include <bit>

#include "common/error.hh"
#include "common/logging.hh"

namespace pact
{

namespace
{

/** 64-bit words holding one bit per page. */
std::uint64_t
bitWords(std::uint64_t pages)
{
    return (pages + 63) / 64;
}

} // namespace

TierManager::TierManager(std::uint64_t total_pages,
                         std::uint64_t fast_capacity_pages)
    : meta_(total_pages),
      firstTouchOverride_(total_pages, 0xff),
      regionRef_((total_pages + PagesPerHugePage - 1) / PagesPerHugePage,
                 0),
      slowBits_(bitWords(total_pages), 0),
      armedBits_(bitWords(total_pages), 0),
      fastCapacity_(fast_capacity_pages)
{
}

void
TierManager::resize(std::uint64_t total_pages)
{
    if (total_pages > meta_.size()) {
        meta_.resize(total_pages);
        firstTouchOverride_.resize(total_pages, 0xff);
        regionRef_.resize(
            (total_pages + PagesPerHugePage - 1) / PagesPerHugePage, 0);
        slowBits_.resize(bitWords(total_pages), 0);
        armedBits_.resize(bitWords(total_pages), 0);
    }
}

void
TierManager::materialize(PageId page, ProcId proc, bool huge, TierId tier)
{
    PageMeta &m = meta_[page];
    m.flags |= PageFlags::Touched;
    if (huge) {
        m.flags |= PageFlags::Huge;
        hugeCount_++;
    }
    m.tier = static_cast<std::uint8_t>(tier);
    m.owner = static_cast<std::uint8_t>(proc);
    setSlowBit(page, tier == TierId::Slow);
    used_[tierIndex(tier)]++;
    touchedCount_++;
}

TierId
TierManager::touch(PageId page, ProcId proc, bool huge)
{
    panic_if(page >= meta_.size(), "touch: page ", page, " out of range");
    PageMeta &m = meta_[page];
    if (m.flags & PageFlags::Touched)
        return static_cast<TierId>(m.tier);

    TierId tier;
    if (firstTouchOverride_[page] != 0xff) {
        tier = static_cast<TierId>(firstTouchOverride_[page]);
        if (tier == TierId::Fast && freeFast() == 0)
            tier = TierId::Slow;
    } else {
        tier = freeFast() > 0 ? TierId::Fast : TierId::Slow;
    }

    if (huge) {
        // A THP fault materializes the whole 2MB region in one tier.
        const PageId base = hugeBase(page);
        const PageId end = base + PagesPerHugePage;
        if (tier == TierId::Fast &&
            freeFast() < PagesPerHugePage) {
            tier = TierId::Slow;
        }
        for (PageId p = base; p < end && p < meta_.size(); p++) {
            if (!(meta_[p].flags & PageFlags::Touched))
                materialize(p, proc, true, tier);
        }
        return static_cast<TierId>(meta_[page].tier);
    }

    materialize(page, proc, false, tier);
    return tier;
}

void
TierManager::place(PageId page, TierId tier)
{
    PageMeta &m = meta_[page];
    panic_if(!(m.flags & PageFlags::Touched), "place: untouched page ",
             page);
    const TierId cur = static_cast<TierId>(m.tier);
    if (cur == tier)
        return;
    used_[tierIndex(cur)]--;
    used_[tierIndex(tier)]++;
    m.tier = static_cast<std::uint8_t>(tier);
    setSlowBit(page, tier == TierId::Slow);
}

void
TierManager::setSlowBit(PageId page, bool slow)
{
    const std::uint64_t bit = std::uint64_t{1} << (page & 63);
    if (slow)
        slowBits_[page >> 6] |= bit;
    else
        slowBits_[page >> 6] &= ~bit;
}

void
TierManager::armWord(std::uint64_t w, std::uint64_t bits)
{
    // Only pages the mirror does not already cover need a flag write.
    std::uint64_t fresh = bits & ~armedBits_[w];
    armedBits_[w] |= fresh;
    for (; fresh; fresh &= fresh - 1)
        meta_[(w << 6) + std::countr_zero(fresh)].flags |=
            PageFlags::HintArmed;
}

std::uint64_t
TierManager::armHints(PageId &cursor, std::uint64_t batch)
{
    const std::uint64_t total = meta_.size();
    if (batch == 0 || total == 0)
        return 0;
    const PageId start = cursor >= total ? 0 : cursor;
    std::uint64_t armed = 0;

    // Arm the slow pages of [lo, hi) in ascending order. Returns true
    // once the batch is full, with the cursor one past the last page
    // armed: the final word keeps only its lowest `need` slow bits.
    auto sweep = [&](PageId lo, PageId hi) {
        if (lo >= hi)
            return false;
        const std::uint64_t first = lo >> 6;
        const std::uint64_t last = (hi - 1) >> 6;
        for (std::uint64_t w = first; w <= last; w++) {
            std::uint64_t bits = slowBits_[w];
            if (w == first)
                bits &= ~std::uint64_t{0} << (lo & 63);
            if (w == last && (hi & 63) != 0)
                bits &= (std::uint64_t{1} << (hi & 63)) - 1;
            if (bits == 0)
                continue;
            const std::uint64_t need = batch - armed;
            if (static_cast<std::uint64_t>(std::popcount(bits)) >= need) {
                std::uint64_t beyond = bits;
                for (std::uint64_t k = 0; k < need; k++)
                    beyond &= beyond - 1;
                bits ^= beyond;
                armWord(w, bits);
                armed = batch;
                cursor = (w << 6) + (64 - std::countl_zero(bits));
                return true;
            }
            armWord(w, bits);
            armed += std::popcount(bits);
        }
        return false;
    };
    if (sweep(start, total) || sweep(0, start))
        return armed;
    // A full lap without filling the batch leaves the cursor where
    // the page-by-page walk would: back at its start, or at the end
    // of the array when the lap began at page 0.
    cursor = start == 0 ? total : start;
    return armed;
}

bool
TierManager::beginShadow(PageId base, std::uint64_t pages, TierId dst)
{
    panic_if(pages == 0, "beginShadow: empty region at page ", base);
    if (dst == TierId::Fast && freeFast() < pages)
        return false;
    shadowUsed_[tierIndex(dst)] += pages;
    openShadows_.push_back({base, pages, dst});
    return true;
}

void
TierManager::releaseShadow(PageId base, std::uint64_t pages, TierId dst,
                           const char *what)
{
    for (auto it = openShadows_.begin(); it != openShadows_.end(); ++it) {
        if (it->base != base || it->pages != pages || it->dst != dst)
            continue;
        panic_if(shadowUsed_[tierIndex(dst)] < pages,
                 what, ": shadow accounting underflow at page ", base);
        shadowUsed_[tierIndex(dst)] -= pages;
        openShadows_.erase(it);
        return;
    }
    panic(what, ": no open shadow region at page ", base, " (", pages,
          " pages, dst tier ", static_cast<unsigned>(dst), ")");
}

void
TierManager::commitShadow(PageId base, std::uint64_t pages, TierId dst)
{
    releaseShadow(base, pages, dst, "commitShadow");
}

void
TierManager::abortShadow(PageId base, std::uint64_t pages, TierId dst)
{
    releaseShadow(base, pages, dst, "abortShadow");
}

void
TierManager::setFirstTouchOverride(PageId page, TierId tier)
{
    panic_if(page >= firstTouchOverride_.size(),
             "override: page out of range");
    firstTouchOverride_[page] = static_cast<std::uint8_t>(tier);
}

void
TierManager::clearFirstTouchOverrides()
{
    std::fill(firstTouchOverride_.begin(), firstTouchOverride_.end(), 0xff);
}

void
TierManager::auditConsistency() const
{
    std::array<std::uint64_t, NumTiers> counted = {0, 0};
    std::uint64_t touched = 0;
    std::uint64_t huge = 0;
    std::vector<std::uint16_t> regionRef(regionRef_.size(), 0);
    for (PageId p = 0; p < meta_.size(); p++) {
        const PageMeta &m = meta_[p];
        constexpr std::uint8_t hr =
            PageFlags::Huge | PageFlags::Referenced;
        if ((m.flags & hr) == hr)
            regionRef[p / PagesPerHugePage]++;
        if (!(m.flags & PageFlags::Touched)) {
            throw_invariant_if(m.flags & PageFlags::Shadowed,
                               "audit: untouched page ", p,
                               " carries Shadowed (flags=",
                               static_cast<unsigned>(m.flags), ")");
            continue;
        }
        throw_invariant_if(m.tier >= NumTiers, "audit: page ", p,
                           " in invalid tier ",
                           static_cast<unsigned>(m.tier), " (flags=",
                           static_cast<unsigned>(m.flags), ", owner=",
                           static_cast<unsigned>(m.owner), ")");
        throw_invariant_if((m.flags & PageFlags::Shadowed) &&
                               m.tier != static_cast<std::uint8_t>(
                                             TierId::Fast),
                           "audit: page ", p, " is Shadowed but resides "
                           "in tier ", static_cast<unsigned>(m.tier),
                           " (shadow copies track fast-tier pages)");
        counted[m.tier]++;
        touched++;
        if (m.flags & PageFlags::Huge)
            huge++;
    }
    for (unsigned t = 0; t < NumTiers; t++) {
        throw_invariant_if(counted[t] != used_[t],
                           "audit: tier ", t, " residency mismatch: ",
                           counted[t], " pages counted vs ", used_[t],
                           " in used() accounting");
    }
    throw_invariant_if(touched != touchedCount_,
                       "audit: touched-page count mismatch: ", touched,
                       " counted vs ", touchedCount_, " recorded");
    throw_invariant_if(huge != hugeCount_,
                       "audit: huge-page count mismatch: ", huge,
                       " counted vs ", hugeCount_, " recorded");
    // Hint-arming index: the slow-residency bitmap is an exact recount
    // of touched slow-tier pages; an armed-mirror bit needs its flag.
    for (std::uint64_t w = 0; w < slowBits_.size(); w++) {
        std::uint64_t slow = 0;
        std::uint64_t flagged = 0;
        for (PageId p = w << 6; p < std::min<PageId>((w + 1) << 6,
                                                     meta_.size());
             p++) {
            const PageMeta &m = meta_[p];
            const std::uint64_t bit = std::uint64_t{1} << (p & 63);
            if ((m.flags & PageFlags::Touched) &&
                m.tier == static_cast<std::uint8_t>(TierId::Slow))
                slow |= bit;
            if (m.flags & PageFlags::HintArmed)
                flagged |= bit;
        }
        const std::uint64_t badSlow = slow ^ slowBits_[w];
        throw_invariant_if(badSlow != 0, "audit: page ",
                           (w << 6) + std::countr_zero(badSlow),
                           " slow-residency bit is ",
                           (slowBits_[w] & badSlow) ? "set" : "clear",
                           " but the page is ",
                           (slow & badSlow) ? "" : "not ",
                           "a touched slow-tier page");
        const std::uint64_t badArmed = armedBits_[w] & ~flagged;
        throw_invariant_if(badArmed != 0, "audit: page ",
                           (w << 6) + std::countr_zero(badArmed),
                           " is in the armed mirror but lacks HintArmed "
                           "(flag cleared without disarmHint)");
    }
    for (std::size_t r = 0; r < regionRef.size(); r++) {
        throw_invariant_if(regionRef[r] != regionRef_[r],
                           "audit: region ", r,
                           " referenced-count mismatch: ", regionRef[r],
                           " huge+referenced pages counted vs ",
                           regionRef_[r], " maintained");
    }
    // Audits run at transaction-quiescent points, so an open shadow
    // region is residue a committed or aborted transaction failed to
    // release.
    throw_invariant_if(!openShadows_.empty(),
                       "audit: ", openShadows_.size(),
                       " migration-transaction shadow region(s) left "
                       "open (first at page ", openShadows_.front().base,
                       ", ", openShadows_.front().pages, " pages)");
    for (unsigned t = 0; t < NumTiers; t++) {
        throw_invariant_if(shadowUsed_[t] != 0,
                           "audit: tier ", t, " carries ", shadowUsed_[t],
                           " shadow-reserved frames with no open shadow "
                           "region");
    }
    throw_invariant_if(used_[tierIndex(TierId::Fast)] +
                               shadowUsed_[tierIndex(TierId::Fast)] >
                           fastCapacity_,
                       "audit: fast tier over capacity: ",
                       used_[tierIndex(TierId::Fast)], " used + ",
                       shadowUsed_[tierIndex(TierId::Fast)],
                       " shadow-reserved vs ", fastCapacity_, " capacity");
}

} // namespace pact
