/**
 * @file
 * Set-associative last-level cache with true-LRU replacement and a
 * confidence-based stream prefetcher. The LLC is what turns the
 * workload's virtual access stream into the demand-miss stream that
 * PEBS samples; the prefetcher is why sequential pages end up with low
 * per-access criticality (paper Figure 1a).
 *
 * The tag store is structure-of-arrays per set: a set's tags and its
 * LRU stamps are two contiguous blocks side by side, and the per-way
 * prefetched marks live in a parallel byte array. An invalid way holds
 * the ~0 tag (no vaddr >> 6 reaches it) and stamp 0 (older than any
 * stamp a fill writes), so a probe needs no valid flag: it is one
 * branch-free tag select plus, on a miss, one branch-free argmin over
 * the stamps. The LRU clock is 64 bits wide, so it never wraps.
 */

#ifndef PACT_SIM_CACHE_HH
#define PACT_SIM_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/config.hh"

namespace pact
{

/** Outcome of a cache lookup. */
struct CacheResult
{
    bool hit = false;
    /** The access hit a line installed by the prefetcher. */
    bool prefetched = false;
    /** Lines the prefetcher wants fetched after this access. */
    std::uint32_t prefetchLines = 0;
    /** First line address of the prefetch burst. */
    std::uint64_t prefetchStart = 0;
};

/**
 * LLC model. Tags are 64B line addresses (vaddr >> 6); replacement is
 * true LRU within a set via a per-access 64-bit stamp. A miss fills
 * the set's first invalid way, else the way with the smallest stamp.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up (and on miss, fill) the line containing @p vaddr.
     * Prefetch candidates are reported to the caller, which owns the
     * bandwidth accounting, then installed via installPrefetches().
     */
    CacheResult access(Addr vaddr);

    /** Install a burst of prefetched lines starting at @p line. */
    void installPrefetches(std::uint64_t line, std::uint32_t count);

    /** Invalidate every line (used between independent runs). */
    void reset();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t prefetchHits() const { return prefetchHits_; }
    std::uint64_t prefetchIssued() const { return prefetchIssued_; }
    std::size_t sets() const { return sets_; }
    unsigned assoc() const { return assoc_; }

  private:
    struct Stream
    {
        std::uint64_t nextLine = 0;
        std::uint32_t confidence = 0;
        bool valid = false;
    };

    /** Tag of an invalid way; line addresses stay below 2^58. */
    static constexpr std::uint64_t InvalidTag = ~0ull;

    /** Find/fill a line; returns hit/prefetched status. */
    bool lookupFill(std::uint64_t line, bool prefetch_fill,
                    bool &was_prefetched);
    void trainPrefetcher(std::uint64_t line, CacheResult &res);

    CacheParams params_;
    std::size_t sets_;
    unsigned assoc_;
    /** LRU clock: bumped per lookup, so every fill stamps >= 1. */
    std::uint64_t clock_ = 0;
    /** Set s: tags at [2*s*assoc, (2*s+1)*assoc), stamps right after. */
    std::vector<std::uint64_t> tagStamps_;
    /** Way w of set s was filled by the prefetcher: [s*assoc + w]. */
    std::vector<std::uint8_t> prefetched_;
    std::vector<Stream> streams_;
    std::size_t streamVictim_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t prefetchHits_ = 0;
    std::uint64_t prefetchIssued_ = 0;
};

} // namespace pact

#endif // PACT_SIM_CACHE_HH
