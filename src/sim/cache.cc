#include "sim/cache.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/logging.hh"

namespace pact
{

namespace
{

/** Mix the set index bits so contiguous lines spread across sets. */
std::uint64_t
hashLine(std::uint64_t line)
{
    std::uint64_t x = line;
    x ^= x >> 17;
    x *= 0xed5ad4bbu;
    x ^= x >> 11;
    return x;
}

} // namespace

Cache::Cache(const CacheParams &params) : params_(params)
{
    throw_config_if(params.assoc == 0, "Cache: zero associativity");
    throw_config_if(params.prefetch && params.prefetchStreams == 0,
                    "Cache: prefetch enabled with zero streams");
    throw_config_if(params.prefetch && params.prefetchDegree == 0,
                    "Cache: prefetch enabled with zero degree");
    const std::uint64_t lines = params.sizeBytes / LineBytes;
    throw_config_if(lines < params.assoc,
                    "Cache: too small for associativity");
    sets_ = lines / params.assoc;
    // Round down to a power of two for cheap indexing.
    while (sets_ & (sets_ - 1))
        sets_ &= sets_ - 1;
    assoc_ = params.assoc;
    tagStamps_.resize(2 * sets_ * assoc_);
    prefetched_.resize(sets_ * assoc_);
    streams_.assign(params.prefetchStreams, Stream{});
    reset();
}

bool
Cache::lookupFill(std::uint64_t line, bool prefetch_fill,
                  bool &was_prefetched)
{
    const std::size_t set = hashLine(line) & (sets_ - 1);
    std::uint64_t *tags = &tagStamps_[2 * set * assoc_];
    std::uint64_t *stamps = tags + assoc_;
    std::uint8_t *prefetched = &prefetched_[set * assoc_];
    clock_++;

    // Tag select without an early exit: a line sits in at most one
    // way, so the last match is the only one, and the loop has no
    // data-dependent branch to mispredict.
    unsigned hit = assoc_;
    for (unsigned w = 0; w < assoc_; w++)
        hit = tags[w] == line ? w : hit;

    if (hit != assoc_) {
        was_prefetched = prefetched[hit];
        prefetched[hit] = 0; // demand hit clears the mark
        stamps[hit] = clock_;
        return true;
    }

    // Miss: argmin over the stamps, keeping the first minimum. Invalid
    // ways hold stamp 0 and every valid stamp is unique and >= 1, so
    // this is the first invalid way if any, else the LRU way.
    unsigned victim = 0;
    std::uint64_t oldest = stamps[0];
    for (unsigned w = 1; w < assoc_; w++) {
        const bool older = stamps[w] < oldest;
        oldest = older ? stamps[w] : oldest;
        victim = older ? w : victim;
    }

    tags[victim] = line;
    stamps[victim] = clock_;
    prefetched[victim] = prefetch_fill;
    was_prefetched = false;
    return false;
}

void
Cache::trainPrefetcher(std::uint64_t line, CacheResult &res)
{
    // Look for a stream expecting this line (or its successor window).
    for (auto &s : streams_) {
        if (!s.valid)
            continue;
        if (line == s.nextLine) {
            s.confidence++;
            s.nextLine = line + 1;
            if (s.confidence >= 2) {
                res.prefetchLines = params_.prefetchDegree;
                res.prefetchStart = line + 1;
                s.nextLine = line + 1 + params_.prefetchDegree;
            }
            return;
        }
    }
    // Allocate a new stream (round-robin victim).
    Stream &s = streams_[streamVictim_];
    streamVictim_ = (streamVictim_ + 1) % streams_.size();
    s.valid = true;
    s.nextLine = line + 1;
    s.confidence = 0;
}

CacheResult
Cache::probe(std::uint64_t line)
{
    CacheResult res;
    bool was_prefetched = false;
    res.hit = lookupFill(line, false, was_prefetched);
    res.prefetched = was_prefetched;

    if (res.hit) {
        hits_++;
        if (was_prefetched)
            prefetchHits_++;
    } else {
        misses_++;
        if (params_.prefetch)
            trainPrefetcher(line, res);
    }
    return res;
}

void
Cache::streamExhausted() const
{
    throw_invariant("LLC replay: stream of ", in_->size(),
                    " accesses ran out");
}

unsigned
Cache::encode(const CacheResult &res, std::uint64_t line) const
{
    if (res.hit)
        return res.prefetched ? LlcOutcomes::PrefetchHit : LlcOutcomes::Hit;
    if (res.prefetchLines == 0)
        return LlcOutcomes::Miss;
    // The code stores only "a burst fired"; replay rebuilds its shape.
    panic_if(res.prefetchLines != params_.prefetchDegree ||
                 res.prefetchStart != line + 1,
             "LLC record: burst of ", res.prefetchLines, " lines at ",
             res.prefetchStart, " after line ", line,
             " has no outcome code");
    return LlcOutcomes::MissBurst;
}

CacheResult
Cache::probeStreamed(std::uint64_t line)
{
    const CacheResult res = probe(line);
    const unsigned code = encode(res, line);
    if (mode_ == Mode::Record) {
        out_->push(code);
        return res;
    }
    const std::size_t at = cursor_;
    const unsigned want = nextCode();
    throw_invariant_if(code != want, "LLC replay diverged at access ", at,
                       " (line ", line, "): recorded outcome ", want,
                       ", live probe ", code);
    return res;
}

void
Cache::fillPrefetches(std::uint64_t line, std::uint32_t count)
{
    bool dummy = false;
    for (std::uint32_t i = 0; i < count; i++) {
        lookupFill(line + i, true, dummy);
        prefetchIssued_++;
    }
}

void
Cache::record(LlcOutcomes *out)
{
    panic_if(!out || out->params() != params_,
             "Cache::record: stream params differ from the cache's");
    mode_ = Mode::Record;
    out_ = out;
}

void
Cache::replay(const LlcOutcomes *in, bool verify)
{
    panic_if(!in || in->params() != params_,
             "Cache::replay: stream params differ from the cache's");
    mode_ = verify ? Mode::Verify : Mode::Replay;
    in_ = in;
    cursor_ = 0;
}

void
Cache::reset()
{
    for (std::size_t set = 0; set < sets_; set++) {
        std::uint64_t *tags = &tagStamps_[2 * set * assoc_];
        std::fill(tags, tags + assoc_, InvalidTag);
        std::fill(tags + assoc_, tags + 2 * assoc_, 0);
    }
    std::fill(prefetched_.begin(), prefetched_.end(), 0);
    for (auto &s : streams_)
        s = Stream{};
    clock_ = 0;
}

} // namespace pact
