/**
 * @file
 * PAC table tests: hash-map semantics, growth, iteration (including
 * the slot-order guarantee across interleaved inserts and walks), and
 * the paper's per-page footprint claim.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "pact/pac_table.hh"

using namespace pact;

TEST(PacTable, TouchInsertsOnce)
{
    PacTable t;
    bool inserted = false;
    PacTable::Ref e = t.touch(42, &inserted);
    EXPECT_TRUE(inserted);
    e.pac() = 5.0f;
    e.freq() = 3;
    EXPECT_EQ(t.size(), 1u);
    PacTable::Ref again = t.touch(42, &inserted);
    EXPECT_FALSE(inserted);
    EXPECT_FLOAT_EQ(again.pac(), 5.0f);
    EXPECT_EQ(again.freq(), 3u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(PacTable, FindMissingReturnsFalseRef)
{
    PacTable t;
    t.touch(1);
    EXPECT_FALSE(t.find(2));
    EXPECT_TRUE(t.find(1));

    const PacTable &ct = t;
    EXPECT_FALSE(ct.find(2));
    EXPECT_TRUE(ct.find(1));
}

TEST(PacTable, GrowPreservesEntries)
{
    PacTable t(16);
    for (PageId p = 0; p < 1000; p++)
        t.touch(p).pac() = static_cast<float>(p);
    EXPECT_EQ(t.size(), 1000u);
    for (PageId p = 0; p < 1000; p++) {
        PacTable::Ref e = t.find(p);
        ASSERT_TRUE(e);
        EXPECT_FLOAT_EQ(e.pac(), static_cast<float>(p));
    }
}

TEST(PacTable, CollidingKeysCoexist)
{
    PacTable t(16);
    // Sequential pages stress-probe a small table before growth.
    for (PageId p = 0; p < 11; p++)
        t.touch(p * 16).freq() = static_cast<std::uint32_t>(p);
    for (PageId p = 0; p < 11; p++)
        EXPECT_EQ(t.find(p * 16).freq(), p);
}

TEST(PacTable, ForEachVisitsAllLiveEntries)
{
    PacTable t;
    std::set<PageId> expect;
    for (PageId p = 100; p < 200; p += 7) {
        t.touch(p);
        expect.insert(p);
    }
    std::set<PageId> seen;
    t.forEach([&](const PacEntry &e) { seen.insert(e.page); });
    EXPECT_EQ(seen, expect);
}

TEST(PacTable, ForEachMutAllowsUpdates)
{
    PacTable t;
    t.touch(1).pac() = 1.0f;
    t.touch(2).pac() = 2.0f;
    t.forEachMut([](PacEntry &e) { e.pac *= 10.0f; });
    EXPECT_FLOAT_EQ(t.find(1).pac(), 10.0f);
    EXPECT_FLOAT_EQ(t.find(2).pac(), 20.0f);
}

TEST(PacTable, IterationOrderIsDeterministicAndStable)
{
    // The daemon's candidate list feeds an unstable sort whose tie
    // permutation depends on input order, so iteration order is
    // load-bearing. The guarantee: the order is a pure function of the
    // construction sequence (ascending slot order, pinned end-to-end
    // by the golden corpus), every iteration flavor yields the same
    // sequence, and read-only traffic (find) never perturbs it.
    auto build = [] {
        PacTable t(64);
        for (PageId p = 0; p < 40; p++)
            t.touch(p * 977 + 3);
        return t;
    };
    PacTable t = build();

    std::vector<PageId> order;
    t.forEach([&](const PacEntry &e) { order.push_back(e.page); });
    ASSERT_EQ(order.size(), 40u);

    // forEachRef and forEachMut must produce the same sequence.
    std::vector<PageId> refOrder;
    t.forEachRef([&](PacTable::Ref e) { refOrder.push_back(e.page()); });
    EXPECT_EQ(order, refOrder);
    std::vector<PageId> mutOrder;
    t.forEachMut([&](PacEntry &e) { mutOrder.push_back(e.page); });
    EXPECT_EQ(order, mutOrder);

    // An identically-constructed table iterates identically.
    PacTable u = build();
    std::vector<PageId> order2;
    u.forEach([&](const PacEntry &e) { order2.push_back(e.page); });
    EXPECT_EQ(order, order2);

    // Lookups leave the sequence untouched.
    for (PageId p = 0; p < 80; p++)
        (void)t.find(p * 977 + 3);
    std::vector<PageId> order3;
    t.forEach([&](const PacEntry &e) { order3.push_back(e.page); });
    EXPECT_EQ(order, order3);
}

TEST(PacTable, WalksInterleavedWithInsertsStaySorted)
{
    // Inserts append to the occupied-slot index and each walk merges
    // the new tail into the sorted prefix. Interleave inserts with
    // walks, across several growths, and check every walk visits
    // exactly the live entries in ascending slot order. The reference
    // order comes from a fresh table fed the same inserts and walked
    // once: same capacity history, so the same slots, with no earlier
    // walk to merge into.
    PacTable t(16);
    std::vector<PageId> inserted;
    PageId next = 7;
    for (int round = 0; round < 40; round++) {
        for (int k = 0; k <= round % 5; k++) {
            next = next * 2654435761ull % 1000003;
            t.touch(next);
            inserted.push_back(next);
        }
        std::vector<PageId> walk;
        t.forEachRef([&](PacTable::Ref e) { walk.push_back(e.page()); });

        PacTable ref(16);
        for (const PageId p : inserted)
            ref.touch(p);
        std::vector<PageId> expect;
        ref.forEach([&](const PacEntry &e) { expect.push_back(e.page); });
        ASSERT_EQ(expect.size(), inserted.size());
        EXPECT_EQ(walk, expect) << "round " << round;
    }
    EXPECT_GT(t.size(), 16u); // the table grew along the way
}

TEST(PacTable, ClearEmpties)
{
    PacTable t;
    t.touch(5);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_FALSE(t.find(5));
}

TEST(PacTable, EntryFootprintMatchesPaperClaim)
{
    // The paper claims ~25 bytes of metadata per tracked 4KB page
    // (0.6% overhead); our SoA field bytes must stay in that regime.
    EXPECT_LE(PacTable::entryBytes, 32u);
    EXPECT_LE(static_cast<double>(PacTable::entryBytes) / PageBytes,
              0.01);
}

TEST(PacTableDeath, ReservedKeyPanics)
{
    PacTable t;
    EXPECT_DEATH({ t.touch(PacEntry::EmptyKey); }, "reserved");
}
