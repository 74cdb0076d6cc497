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
 *
 * A cache can also record the outcome of every access() into an
 * LlcOutcomes stream, or replay one instead of probing the tag store
 * (DESIGN.md §6, "LLC outcome replay"): on one core the outcome of
 * access i depends only on the trace, the address space and the
 * CacheParams, so a stream recorded once serves every later run of
 * the same trace.
 */

#ifndef PACT_SIM_CACHE_HH
#define PACT_SIM_CACHE_HH

#include <cstddef>
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
 * The LLC outcome of every access() of one run, packed 2 bits per
 * access, plus the CacheParams it was recorded under. The engine
 * stamps the run it came from (source) so a replaying engine can
 * refuse a stream that belongs to another trace or address space.
 */
class LlcOutcomes
{
  public:
    /** One access's outcome code. */
    enum Code : unsigned
    {
        Miss = 0,
        /** A miss that fired a prefetch burst: always prefetchDegree
         *  lines from line + 1, the only burst the prefetcher makes. */
        MissBurst = 1,
        Hit = 2,
        /** A hit on a line the prefetcher installed. */
        PrefetchHit = 3,
    };

    /** The run a stream was recorded from (compared by identity). */
    struct Source
    {
        const void *trace = nullptr;
        const void *ops = nullptr;
        std::size_t opCount = 0;
        const void *addrSpace = nullptr;

        bool operator==(const Source &) const = default;
    };

    LlcOutcomes(const CacheParams &params, const Source &source)
        : params_(params), source_(source)
    {}

    /** Reserve room for @p accesses codes. */
    void
    reserve(std::size_t accesses)
    {
        words_.reserve((accesses + 31) / 32);
    }

    void
    push(unsigned code)
    {
        const unsigned shift = static_cast<unsigned>(size_ & 31) * 2;
        if (shift == 0)
            words_.push_back(0);
        words_.back() |= std::uint64_t{code} << shift;
        size_++;
    }

    /** Code of access @p i (i < size()). */
    unsigned
    operator[](std::size_t i) const
    {
        return static_cast<unsigned>(words_[i >> 5] >>
                                     ((i & 31) * 2)) & 3u;
    }

    /** Number of accesses recorded. */
    std::size_t size() const { return size_; }
    const CacheParams &params() const { return params_; }
    const Source &source() const { return source_; }

  private:
    CacheParams params_;
    Source source_;
    std::vector<std::uint64_t> words_;
    std::size_t size_ = 0;
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
     * In replay the outcome is decoded inline from the stream; the
     * live probe stays out of line.
     */
    CacheResult
    access(Addr vaddr)
    {
        const std::uint64_t line = vaddr >> LineShift;
        if (mode_ == Mode::Live) [[likely]]
            return probe(line);
        return mode_ == Mode::Replay ? replayNext(line) : probeStreamed(line);
    }

    /** Install a burst of prefetched lines starting at @p line. */
    void
    installPrefetches(std::uint64_t line, std::uint32_t count)
    {
        if (mode_ == Mode::Replay)
            prefetchIssued_ += count;
        else
            fillPrefetches(line, count);
    }

    /** Invalidate every line (used between independent runs). */
    void reset();

    /**
     * Append the outcome of every later access() to @p out, which
     * must outlive the recording and match this cache's params.
     */
    void record(LlcOutcomes *out);

    /**
     * Serve every later access() from @p in, from its first code,
     * instead of probing the tag store; installPrefetches() then only
     * counts. Reading past the end throws InvariantError. With
     * @p verify the live probe runs too, and the first outcome that
     * differs from the recorded one throws InvariantError.
     */
    void replay(const LlcOutcomes *in, bool verify);

    /** Codes consumed so far in replay. */
    std::size_t replayed() const { return cursor_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t prefetchHits() const { return prefetchHits_; }
    std::uint64_t prefetchIssued() const { return prefetchIssued_; }
    std::size_t sets() const { return sets_; }
    unsigned assoc() const { return assoc_; }

  private:
    /** Where access() outcomes come from / go to. */
    enum class Mode : std::uint8_t
    {
        Live,
        Record,
        Replay,
        /** Replay cross-checked against the live probe. */
        Verify,
    };

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
    /** The live model: probe, fill, train the prefetcher. */
    CacheResult probe(std::uint64_t line);
    /** The live model's prefetch install. */
    void fillPrefetches(std::uint64_t line, std::uint32_t count);
    /** Build access()'s result and counter updates from a code. */
    CacheResult
    replayNext(std::uint64_t line)
    {
        const unsigned code = nextCode();
        const bool burst = code == LlcOutcomes::MissBurst;
        CacheResult res;
        res.hit = code >= LlcOutcomes::Hit;
        res.prefetched = code == LlcOutcomes::PrefetchHit;
        res.prefetchLines = burst ? params_.prefetchDegree : 0;
        res.prefetchStart = burst ? line + 1 : 0;
        hits_ += res.hit;
        misses_ += !res.hit;
        prefetchHits_ += res.prefetched;
        return res;
    }
    /** The live probe, recording or verifying its outcome. */
    CacheResult probeStreamed(std::uint64_t line);
    /** The code of a live result for @p line. */
    unsigned encode(const CacheResult &res, std::uint64_t line) const;
    /** The next recorded code; throws InvariantError past the end. */
    unsigned
    nextCode()
    {
        if (cursor_ >= in_->size())
            streamExhausted();
        return (*in_)[cursor_++];
    }
    [[noreturn]] void streamExhausted() const;

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

    Mode mode_ = Mode::Live;
    LlcOutcomes *out_ = nullptr;
    const LlcOutcomes *in_ = nullptr;
    std::size_t cursor_ = 0;
};

} // namespace pact

#endif // PACT_SIM_CACHE_HH
