#include "mem/lru.hh"

#include "common/logging.hh"

namespace pact
{

LruLists::LruLists(std::uint64_t total_pages)
    : prev_(total_pages, -1), next_(total_pages, -1)
{
}

void
LruLists::resize(std::uint64_t total_pages)
{
    if (total_pages > prev_.size()) {
        prev_.resize(total_pages, -1);
        next_.resize(total_pages, -1);
    }
}

void
LruLists::pushHead(List &l, PageId page)
{
    prev_[page] = -1;
    next_[page] = l.head;
    if (l.head >= 0)
        prev_[l.head] = static_cast<std::int64_t>(page);
    l.head = static_cast<std::int64_t>(page);
    if (l.tail < 0)
        l.tail = static_cast<std::int64_t>(page);
    l.size++;
}

void
LruLists::unlink(List &l, PageId page)
{
    const std::int64_t p = prev_[page];
    const std::int64_t n = next_[page];
    if (p >= 0)
        next_[p] = n;
    else
        l.head = n;
    if (n >= 0)
        prev_[n] = p;
    else
        l.tail = p;
    prev_[page] = -1;
    next_[page] = -1;
    panic_if(l.size == 0, "LRU unlink from empty list");
    l.size--;
}

void
LruLists::insert(PageId page, TierId tier, TierManager &tm)
{
    panic_if(page >= prev_.size(), "LRU insert: page out of range");
    panic_if(tm.meta(page).flags & PageFlags::LruListed,
             "LRU insert: page already listed");
    pushHead(list(tier, Active), page);
    setWhere(tm, page, tier, Active);
}

void
LruLists::remove(PageId page, TierManager &tm)
{
    if (page >= prev_.size() || page >= tm.totalPages())
        return;
    std::uint8_t &flags = tm.meta(page).flags;
    if (!(flags & PageFlags::LruListed))
        return;
    const auto t = static_cast<TierId>((flags & PageFlags::LruSlow) ? 1 : 0);
    const auto k =
        (flags & PageFlags::LruInactive) ? Inactive : Active;
    unlink(list(t, k), page);
    flags &= static_cast<std::uint8_t>(~PageFlags::LruMask);
}

void
LruLists::moveTier(PageId page, TierId to, TierManager &tm)
{
    remove(page, tm);
    pushHead(list(to, Active), page);
    setWhere(tm, page, to, Active);
}

std::uint64_t
LruLists::scan(TierId tier, std::uint64_t nscan, TierManager &tm)
{
    List &active = list(tier, Active);
    List &inactive = list(tier, Inactive);
    std::uint64_t examined = 0;

    for (std::uint64_t i = 0; i < nscan && active.tail >= 0; i++) {
        const PageId page = static_cast<PageId>(active.tail);
        PageMeta &m = tm.meta(page);
        examined++;
        unlink(active, page);
        if (m.flags & PageFlags::Referenced) {
            tm.noteReferencedWillClear(page, m.flags);
            m.flags &= ~PageFlags::Referenced;
            pushHead(active, page);
            setWhere(tm, page, tier, Active);
        } else {
            pushHead(inactive, page);
            setWhere(tm, page, tier, Inactive);
        }
    }

    // Rescue recently referenced inactive pages.
    for (std::uint64_t i = 0; i < nscan && inactive.tail >= 0; i++) {
        const PageId page = static_cast<PageId>(inactive.tail);
        PageMeta &m = tm.meta(page);
        examined++;
        if (!(m.flags & PageFlags::Referenced))
            break;
        tm.noteReferencedWillClear(page, m.flags);
        m.flags &= ~PageFlags::Referenced;
        unlink(inactive, page);
        pushHead(active, page);
        setWhere(tm, page, tier, Active);
    }
    return examined;
}

std::vector<PageId>
LruLists::victims(TierId tier, std::uint64_t n, TierManager &tm,
                  bool allow_active)
{
    std::vector<PageId> out;
    out.reserve(n);
    List &active = list(tier, Active);
    List &inactive = list(tier, Inactive);

    // Walk the inactive tail, rescuing referenced pages (second
    // chance) and collecting the rest without unlinking them.
    std::uint64_t budget = 4 * n + 16;
    while (out.size() < n && budget-- > 0 && inactive.tail >= 0) {
        const PageId page = static_cast<PageId>(inactive.tail);
        PageMeta &m = tm.meta(page);
        if (m.flags & PageFlags::Referenced) {
            tm.noteReferencedWillClear(page, m.flags);
            m.flags &= ~PageFlags::Referenced;
            unlink(inactive, page);
            pushHead(active, page);
            setWhere(tm, page, tier, Active);
            continue;
        }
        // Rotate the candidate to the head so the walk progresses even
        // though the page stays listed until migration moves it.
        unlink(inactive, page);
        pushHead(inactive, page);
        setWhere(tm, page, tier, Inactive);
        out.push_back(page);
        if (inactive.size <= out.size())
            break;
    }

    if (!allow_active)
        return out;

    // Fall back to the active tail under pressure, skipping pages
    // referenced since the last scan.
    std::int64_t cursor = active.tail;
    while (out.size() < n && cursor >= 0 && budget-- > 0) {
        const PageId page = static_cast<PageId>(cursor);
        cursor = prev_[page];
        if (tm.meta(page).flags & PageFlags::Referenced)
            continue;
        out.push_back(page);
    }
    // Last resort: referenced active-tail pages (tier over capacity).
    cursor = active.tail;
    while (out.size() < n && cursor >= 0 && budget-- > 0) {
        const PageId page = static_cast<PageId>(cursor);
        cursor = prev_[page];
        if (!(tm.meta(page).flags & PageFlags::Referenced))
            continue; // already collected above
        out.push_back(page);
    }
    return out;
}

std::uint64_t
LruLists::activeSize(TierId t) const
{
    return list(t, Active).size;
}

std::uint64_t
LruLists::inactiveSize(TierId t) const
{
    return list(t, Inactive).size;
}

} // namespace pact
