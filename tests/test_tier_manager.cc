/**
 * @file
 * TierManager tests: first-touch placement, capacity accounting, huge
 * page materialization, placement overrides, hint arming and its
 * audit.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hh"
#include "common/rng.hh"
#include "mem/tier_manager.hh"

using namespace pact;

TEST(TierManager, FirstTouchFillsFastThenSlow)
{
    TierManager tm(100, 10);
    for (PageId p = 0; p < 10; p++)
        EXPECT_EQ(tm.touch(p, 0, false), TierId::Fast);
    EXPECT_EQ(tm.freeFast(), 0u);
    for (PageId p = 10; p < 20; p++)
        EXPECT_EQ(tm.touch(p, 0, false), TierId::Slow);
    EXPECT_EQ(tm.used(TierId::Fast), 10u);
    EXPECT_EQ(tm.used(TierId::Slow), 10u);
}

TEST(TierManager, TouchIsIdempotent)
{
    TierManager tm(10, 1);
    EXPECT_EQ(tm.touch(3, 0, false), TierId::Fast);
    EXPECT_EQ(tm.touch(3, 0, false), TierId::Fast);
    EXPECT_EQ(tm.used(TierId::Fast), 1u);
    EXPECT_EQ(tm.touchedPages(), 1u);
}

TEST(TierManager, OwnerRecorded)
{
    TierManager tm(10, 10);
    tm.touch(2, 3, false);
    EXPECT_EQ(tm.meta(2).owner, 3u);
}

TEST(TierManager, PlaceMovesAccounting)
{
    TierManager tm(10, 10);
    tm.touch(1, 0, false);
    EXPECT_EQ(tm.used(TierId::Fast), 1u);
    tm.place(1, TierId::Slow);
    EXPECT_EQ(tm.used(TierId::Fast), 0u);
    EXPECT_EQ(tm.used(TierId::Slow), 1u);
    EXPECT_EQ(tm.tierOf(1), TierId::Slow);
    // Placing on the same tier is a no-op.
    tm.place(1, TierId::Slow);
    EXPECT_EQ(tm.used(TierId::Slow), 1u);
}

TEST(TierManager, HugeFaultMaterializesWholeRegion)
{
    TierManager tm(2 * PagesPerHugePage, 4 * PagesPerHugePage);
    const PageId inRegion = PagesPerHugePage / 2;
    tm.touch(inRegion, 0, true);
    EXPECT_EQ(tm.used(TierId::Fast), PagesPerHugePage);
    EXPECT_TRUE(tm.touched(0));
    EXPECT_TRUE(tm.touched(PagesPerHugePage - 1));
    EXPECT_FALSE(tm.touched(PagesPerHugePage));
    EXPECT_TRUE(tm.meta(0).flags & PageFlags::Huge);
}

TEST(TierManager, HugeFaultSpillsWhenFastTooSmall)
{
    TierManager tm(2 * PagesPerHugePage, PagesPerHugePage / 2);
    tm.touch(0, 0, true);
    EXPECT_EQ(tm.tierOf(0), TierId::Slow);
    EXPECT_EQ(tm.used(TierId::Slow), PagesPerHugePage);
}

TEST(TierManager, FirstTouchOverride)
{
    TierManager tm(10, 10);
    tm.setFirstTouchOverride(5, TierId::Slow);
    EXPECT_EQ(tm.touch(5, 0, false), TierId::Slow);
    // Override to fast respects capacity.
    TierManager tm2(10, 0);
    tm2.setFirstTouchOverride(1, TierId::Fast);
    EXPECT_EQ(tm2.touch(1, 0, false), TierId::Slow);
}

TEST(TierManager, ClearOverrides)
{
    TierManager tm(10, 10);
    tm.setFirstTouchOverride(5, TierId::Slow);
    tm.clearFirstTouchOverrides();
    EXPECT_EQ(tm.touch(5, 0, false), TierId::Fast);
}

TEST(TierManager, ResizeGrows)
{
    TierManager tm(4, 4);
    tm.resize(100);
    EXPECT_EQ(tm.totalPages(), 100u);
    EXPECT_EQ(tm.touch(99, 0, false), TierId::Fast);
}

TEST(TierManager, ZeroFastCapacityAllSlow)
{
    TierManager tm(10, 0);
    for (PageId p = 0; p < 10; p++)
        EXPECT_EQ(tm.touch(p, 0, false), TierId::Slow);
    EXPECT_EQ(tm.freeFast(), 0u);
}

namespace
{

/**
 * Reference model of TierManager::armHints: the page-by-page walk the
 * NUMA-hint scanner used before the word-parallel index. It reads
 * placement from @p tm and arms into @p armed instead of the page
 * flags, so the model and the real index run side by side on one
 * TierManager.
 */
std::uint64_t
referenceArm(const TierManager &tm, std::vector<bool> &armed,
             PageId &cursor, std::uint64_t batch)
{
    const std::uint64_t total = tm.totalPages();
    std::uint64_t count = 0;
    std::uint64_t walked = 0;
    while (count < batch && walked < total) {
        if (cursor >= total)
            cursor = 0;
        const PageId page = cursor++;
        walked++;
        if (!tm.touched(page) || tm.tierOf(page) != TierId::Slow)
            continue;
        armed[page] = true;
        count++;
    }
    return count;
}

std::uint64_t
slowPages(const TierManager &tm)
{
    std::uint64_t n = 0;
    for (PageId p = 0; p < tm.totalPages(); p++)
        n += tm.touched(p) && tm.tierOf(p) == TierId::Slow;
    return n;
}

} // namespace

TEST(TierManager, ArmHintsMatchesPageWalkReference)
{
    // Not a multiple of 64 (a partial last word) and spanning several
    // 2MB regions, some of which fault in whole.
    const std::uint64_t total = 3 * PagesPerHugePage + 37;
    TierManager tm(total, total / 2);
    std::vector<bool> ref(total, false);
    Rng rng(14);
    PageId cursor = 0;
    PageId refCursor = 0;
    // A word-aligned start makes the wrapped lap end exactly on a word
    // boundary, the edge mask a shift by 64 would get wrong.
    const std::vector<PageId> starts = {0, 64 * 5 + 17, 64 * 3, total - 1,
                                        total};
    for (unsigned round = 0; round < 60; round++) {
        // Random first touches, fast then slow as capacity runs out,
        // and now and then a whole huge region.
        for (unsigned i = 0; i < 24; i++) {
            const PageId p = rng.below(total);
            tm.touch(p, 0, round % 7 == 3 && i == 0);
        }
        // Random migrations and hint faults between scans.
        for (unsigned i = 0; i < 16; i++) {
            const PageId p = rng.below(total);
            if (tm.touched(p)) {
                tm.place(p, rng.below(2) ? TierId::Slow : TierId::Fast);
            }
            const PageId q = rng.below(total);
            tm.disarmHint(q);
            ref[q] = false;
        }
        tm.auditConsistency();

        const std::uint64_t slow = slowPages(tm);
        const std::vector<std::uint64_t> batches = {1,    63,       64,
                                                    65,   slow,     slow + 9};
        for (const std::uint64_t batch : batches) {
            for (const PageId start : starts) {
                // Half the calls continue from where the last left
                // off, half restart at a chosen cursor.
                if (rng.below(2)) {
                    cursor = start;
                    refCursor = start;
                }
                const PageId from = cursor;
                const std::uint64_t want =
                    referenceArm(tm, ref, refCursor, batch);
                const std::uint64_t got = tm.armHints(cursor, batch);
                ASSERT_EQ(got, want) << "round " << round << " batch "
                                     << batch << " from " << from;
                ASSERT_EQ(cursor, refCursor)
                    << "round " << round << " batch " << batch
                    << " from " << from;
                for (PageId p = 0; p < total; p++) {
                    ASSERT_EQ((tm.meta(p).flags & PageFlags::HintArmed) != 0,
                              ref[p])
                        << "page " << p << " round " << round << " batch "
                        << batch << " from " << from;
                }
            }
        }
        tm.auditConsistency();
    }
}

TEST(TierManager, ArmHintsCountsPagesArmedBehindItsBack)
{
    // Setting HintArmed directly (as a test harness may) leaves the
    // mirror a subset of the flags: still consistent, and the page
    // still counts toward the batch.
    TierManager tm(128, 0);
    for (PageId p = 0; p < 128; p++)
        tm.touch(p, 0, false);
    tm.meta(5).flags |= PageFlags::HintArmed;
    tm.auditConsistency();
    PageId cursor = 0;
    EXPECT_EQ(tm.armHints(cursor, 10), 10u);
    EXPECT_EQ(cursor, 10u);
    tm.auditConsistency();
}

TEST(TierManager, AuditCatchesHintClearedBehindItsBack)
{
    TierManager tm(200, 0);
    for (PageId p = 0; p < 200; p++)
        tm.touch(p, 0, false);
    PageId cursor = 0;
    ASSERT_EQ(tm.armHints(cursor, 200), 200u);
    tm.auditConsistency();
    // Clearing the flag anywhere but disarmHint() desynchronizes the
    // armed mirror; the next armHints() would skip the page.
    tm.meta(131).flags &= ~PageFlags::HintArmed;
    try {
        tm.auditConsistency();
        FAIL() << "expected InvariantError";
    } catch (const InvariantError &e) {
        EXPECT_NE(std::string(e.what()).find("page 131"),
                  std::string::npos)
            << e.what();
    }
    tm.disarmHint(131);
    tm.auditConsistency();
}
