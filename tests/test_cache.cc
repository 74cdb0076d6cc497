/**
 * @file
 * LLC model tests: hit/miss behaviour, LRU replacement, stream
 * prefetcher training and prefetch-hit accounting, plus a differential
 * check of the SoA tag store against a plain array-of-ways model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hh"

#include "sim/cache.hh"

using namespace pact;

/**
 * Assert @p stmt throws @p kind with @p substr somewhere in what().
 * (The throw-based replacement for the old EXPECT_EXIT death tests.)
 */
#define EXPECT_THROW_KIND(kind, stmt, substr)                          \
    do {                                                               \
        try {                                                          \
            stmt;                                                      \
            FAIL() << "expected " #kind;                               \
        } catch (const kind &e_) {                                     \
            EXPECT_NE(std::string(e_.what()).find(substr),             \
                      std::string::npos)                               \
                << e_.what();                                          \
        }                                                              \
    } while (0)

namespace
{

CacheParams
smallCache(bool prefetch = false)
{
    CacheParams p;
    p.sizeBytes = 64 * LineBytes * 8; // 64 sets x 8 ways
    p.assoc = 8;
    p.prefetch = prefetch;
    return p;
}

} // namespace

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000).hit);
    EXPECT_TRUE(c.access(0x1000).hit);
    EXPECT_TRUE(c.access(0x1020).hit); // same 64B line
    EXPECT_FALSE(c.access(0x1040).hit); // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, GeometryRounded)
{
    Cache c(smallCache());
    EXPECT_EQ(c.sets(), 64u);
    EXPECT_EQ(c.assoc(), 8u);
    // Non-power-of-two set counts round down.
    CacheParams p;
    p.sizeBytes = 100 * LineBytes * 4;
    p.assoc = 4;
    Cache c2(p);
    EXPECT_EQ(c2.sets(), 64u);
}

TEST(Cache, LruEvictsOldest)
{
    CacheParams p;
    p.sizeBytes = LineBytes * 2; // 1 set x 2 ways
    p.assoc = 2;
    p.prefetch = false;
    Cache c(p);
    ASSERT_EQ(c.sets(), 1u);
    c.access(0 * LineBytes);
    c.access(1 * LineBytes);
    c.access(0 * LineBytes);      // refresh line 0
    c.access(2 * LineBytes);      // evicts line 1 (LRU)
    EXPECT_TRUE(c.access(0 * LineBytes).hit);
    EXPECT_FALSE(c.access(1 * LineBytes).hit);
}

TEST(Cache, WorkingSetLargerThanCacheMisses)
{
    Cache c(smallCache());
    const std::uint64_t lines = 64 * 8 * 4; // 4x capacity
    for (int pass = 0; pass < 2; pass++) {
        for (std::uint64_t l = 0; l < lines; l++)
            c.access(l * LineBytes);
    }
    // Streaming over 4x capacity cannot hit (with LRU and no reuse).
    EXPECT_GT(c.misses(), c.hits());
}

TEST(Cache, PrefetcherTrainsOnSequentialStream)
{
    Cache c(smallCache(true));
    CacheResult r;
    std::uint32_t bursts = 0;
    for (std::uint64_t l = 0; l < 64; l++) {
        r = c.access(l * LineBytes);
        if (r.prefetchLines > 0) {
            bursts++;
            c.installPrefetches(r.prefetchStart, r.prefetchLines);
        }
    }
    EXPECT_GT(bursts, 0u);
    EXPECT_GT(c.prefetchHits(), 0u);
    // Steady state: most stream accesses hit.
    EXPECT_GT(c.hits(), c.misses());
}

TEST(Cache, NoPrefetchOnRandomAccesses)
{
    Cache c(smallCache(true));
    std::uint64_t x = 88172645463325252ull;
    std::uint32_t bursts = 0;
    for (int i = 0; i < 2000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const CacheResult r = c.access((x % 100000) * LineBytes);
        bursts += r.prefetchLines > 0;
    }
    // Random misses rarely line up into trained streams.
    EXPECT_LT(bursts, 20u);
}

TEST(Cache, PrefetchedFlagClearsOnDemandHit)
{
    Cache c(smallCache(true));
    c.installPrefetches(100, 1);
    const CacheResult first = c.access(100 * LineBytes);
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(first.prefetched);
    const CacheResult second = c.access(100 * LineBytes);
    EXPECT_TRUE(second.hit);
    EXPECT_FALSE(second.prefetched);
    EXPECT_EQ(c.prefetchHits(), 1u);
}

TEST(Cache, ResetClearsEverything)
{
    Cache c(smallCache());
    c.access(0x1000);
    c.reset();
    EXPECT_FALSE(c.access(0x1000).hit);
}

TEST(Cache, FillsInvalidWaysBeforeEvicting)
{
    CacheParams p;
    p.sizeBytes = LineBytes * 8; // 1 set x 8 ways
    p.assoc = 8;
    p.prefetch = false;
    for (int round = 0; round < 2; round++) {
        Cache c(p);
        ASSERT_EQ(c.sets(), 1u);
        // A partly filled set, then a reset: every way is invalid
        // again, and the next eight lines must all find a free way.
        if (round == 1) {
            for (std::uint64_t l = 100; l < 104; l++)
                c.access(l * LineBytes);
            c.reset();
        }
        for (std::uint64_t l = 0; l < 8; l++)
            EXPECT_FALSE(c.access(l * LineBytes).hit) << l;
        for (std::uint64_t l = 0; l < 8; l++)
            EXPECT_TRUE(c.access(l * LineBytes).hit) << l;
        // Full now: the ninth line evicts the LRU way (line 0).
        EXPECT_FALSE(c.access(8 * LineBytes).hit);
        EXPECT_FALSE(c.access(0 * LineBytes).hit);
        EXPECT_TRUE(c.access(8 * LineBytes).hit);
    }
}

namespace
{

/**
 * Reference LLC: the array-of-ways layout with a valid flag, an
 * early-exit tag scan and a branchy victim scan (last invalid way,
 * else the earliest minimum stamp), plus a copy of the stream
 * prefetcher. Cache must make the same decision on every access.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &p) : p_(p)
    {
        sets_ = p.sizeBytes / LineBytes / p.assoc;
        while (sets_ & (sets_ - 1))
            sets_ &= sets_ - 1;
        ways_.assign(sets_ * p.assoc, Way{});
        streams_.assign(p.prefetchStreams, Stream{});
    }

    CacheResult
    access(Addr vaddr)
    {
        const std::uint64_t line = vaddr >> LineShift;
        CacheResult res;
        bool pf = false;
        res.hit = lookupFill(line, false, pf);
        res.prefetched = pf;
        if (res.hit) {
            hits++;
            prefetchHits += pf;
        } else {
            misses++;
            if (p_.prefetch)
                train(line, res);
        }
        return res;
    }

    void
    installPrefetches(std::uint64_t line, std::uint32_t count)
    {
        bool pf = false;
        for (std::uint32_t i = 0; i < count; i++) {
            lookupFill(line + i, true, pf);
            prefetchIssued++;
        }
    }

    std::size_t sets() const { return sets_; }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t prefetchHits = 0;
    std::uint64_t prefetchIssued = 0;

  private:
    struct Way
    {
        std::uint64_t tag = ~0ull;
        std::uint64_t stamp = 0;
        bool valid = false;
        bool prefetched = false;
    };

    struct Stream
    {
        std::uint64_t nextLine = 0;
        std::uint32_t confidence = 0;
        bool valid = false;
    };

    bool
    lookupFill(std::uint64_t line, bool prefetch_fill, bool &was_pf)
    {
        std::uint64_t x = line;
        x ^= x >> 17;
        x *= 0xed5ad4bbu;
        x ^= x >> 11;
        Way *base = &ways_[(x & (sets_ - 1)) * p_.assoc];
        clock_++;
        for (unsigned w = 0; w < p_.assoc; w++) {
            Way &way = base[w];
            if (way.valid && way.tag == line) {
                was_pf = way.prefetched;
                way.prefetched = false;
                way.stamp = clock_;
                return true;
            }
        }
        Way *victim = base;
        for (unsigned w = 0; w < p_.assoc; w++) {
            Way &way = base[w];
            if (!way.valid)
                victim = &way;
            else if (victim->valid && way.stamp < victim->stamp)
                victim = &way;
        }
        *victim = Way{line, clock_, true, prefetch_fill};
        was_pf = false;
        return false;
    }

    void
    train(std::uint64_t line, CacheResult &res)
    {
        for (auto &s : streams_) {
            if (!s.valid || line != s.nextLine)
                continue;
            s.confidence++;
            s.nextLine = line + 1;
            if (s.confidence >= 2) {
                res.prefetchLines = p_.prefetchDegree;
                res.prefetchStart = line + 1;
                s.nextLine = line + 1 + p_.prefetchDegree;
            }
            return;
        }
        Stream &s = streams_[victim_];
        victim_ = (victim_ + 1) % streams_.size();
        s = Stream{line + 1, 0, true};
    }

    CacheParams p_;
    std::size_t sets_;
    std::uint64_t clock_ = 0;
    std::vector<Way> ways_;
    std::vector<Stream> streams_;
    std::size_t victim_ = 0;
};

enum class Pattern { Random, Strided, Streaming };

/** Next line address of @p pat at step @p i (lines span ~4x capacity). */
std::uint64_t
patternLine(Pattern pat, std::uint64_t i, std::uint64_t span,
            std::uint64_t &rng)
{
    switch (pat) {
      case Pattern::Random:
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng % span;
      case Pattern::Strided: {
        // Cycle through a few strides so sets alias differently.
        static constexpr std::uint64_t strides[] = {1, 3, 64, 257};
        return (i * strides[(i / 512) % 4]) % span;
      }
      case Pattern::Streaming:
        // Several interleaved sequential streams, restarting as they
        // run off the span, with a random touch every 16 accesses.
        if (i % 16 == 15) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            return rng % span;
        }
        return ((i % 3) * span / 3 + i / 3) % span;
    }
    return 0;
}

} // namespace

TEST(Cache, MatchesArrayOfWaysReference)
{
    for (unsigned assoc : {1u, 2u, 4u, 8u, 16u}) {
        for (std::uint64_t sets : {4u, 64u}) {
            for (Pattern pat :
                 {Pattern::Random, Pattern::Strided, Pattern::Streaming}) {
                CacheParams p;
                p.sizeBytes = sets * assoc * LineBytes;
                p.assoc = assoc;
                p.prefetch = true;
                Cache c(p);
                RefCache ref(p);
                ASSERT_EQ(c.sets(), ref.sets());
                const std::uint64_t span = 4 * sets * assoc;
                std::uint64_t rng = 88172645463325252ull + assoc + sets;
                for (std::uint64_t i = 0; i < 20000; i++) {
                    const Addr vaddr =
                        patternLine(pat, i, span, rng) * LineBytes;
                    const CacheResult got = c.access(vaddr);
                    const CacheResult want = ref.access(vaddr);
                    ASSERT_EQ(got.hit, want.hit)
                        << "assoc " << assoc << " sets " << sets
                        << " pattern " << static_cast<int>(pat)
                        << " step " << i;
                    ASSERT_EQ(got.prefetched, want.prefetched) << i;
                    ASSERT_EQ(got.prefetchLines, want.prefetchLines) << i;
                    ASSERT_EQ(got.prefetchStart, want.prefetchStart) << i;
                    // Install every burst, as the CPU does for touched
                    // pages.
                    if (got.prefetchLines > 0) {
                        c.installPrefetches(got.prefetchStart,
                                            got.prefetchLines);
                        ref.installPrefetches(want.prefetchStart,
                                              want.prefetchLines);
                    }
                }
                EXPECT_EQ(c.hits(), ref.hits);
                EXPECT_EQ(c.misses(), ref.misses);
                EXPECT_EQ(c.prefetchHits(), ref.prefetchHits);
                EXPECT_EQ(c.prefetchIssued(), ref.prefetchIssued);
                if (pat == Pattern::Streaming) {
                    EXPECT_GT(c.prefetchHits(), 0u)
                        << "assoc " << assoc << " sets " << sets;
                }
            }
        }
    }
}

TEST(Cache, ReplayRebuildsEveryRecordedResult)
{
    CacheParams p = smallCache(true);
    // Drop some bursts, as the CPU does for bursts into untouched
    // pages: the decision is a function of the address alone.
    auto installs = [](const CacheResult &r) {
        return r.prefetchLines > 0 && (r.prefetchStart / 64) % 3 != 0;
    };
    auto drive = [&](Cache &c, std::vector<CacheResult> &out) {
        std::uint64_t rng = 88172645463325252ull;
        for (std::uint64_t i = 0; i < 30000; i++) {
            const Pattern pat = (i / 1000) % 2 ? Pattern::Streaming
                                               : Pattern::Random;
            const CacheResult r =
                c.access(patternLine(pat, i, 4096, rng) * LineBytes);
            if (installs(r))
                c.installPrefetches(r.prefetchStart, r.prefetchLines);
            out.push_back(r);
        }
    };

    Cache live(p);
    LlcOutcomes stream(p, {});
    live.record(&stream);
    std::vector<CacheResult> want;
    drive(live, want);
    ASSERT_EQ(stream.size(), want.size());
    EXPECT_GT(live.prefetchHits(), 0u);

    for (const bool verify : {false, true}) {
        Cache c(p);
        c.replay(&stream, verify);
        std::vector<CacheResult> got;
        drive(c, got);
        EXPECT_EQ(c.replayed(), stream.size());
        for (std::size_t i = 0; i < want.size(); i++) {
            ASSERT_EQ(got[i].hit, want[i].hit) << i;
            ASSERT_EQ(got[i].prefetched, want[i].prefetched) << i;
            ASSERT_EQ(got[i].prefetchLines, want[i].prefetchLines) << i;
            ASSERT_EQ(got[i].prefetchStart, want[i].prefetchStart) << i;
        }
        EXPECT_EQ(c.hits(), live.hits());
        EXPECT_EQ(c.misses(), live.misses());
        EXPECT_EQ(c.prefetchHits(), live.prefetchHits());
        EXPECT_EQ(c.prefetchIssued(), live.prefetchIssued());
        // Past the end of the stream is an error, never a guess.
        EXPECT_THROW_KIND(InvariantError, c.access(0), "ran out");
    }
}

TEST(CacheDeath, ZeroAssocThrows)
{
    CacheParams p;
    p.assoc = 0;
    EXPECT_THROW_KIND(ConfigError, { Cache c(p); },
                "associativity");
}
