#include "pact/pac_table.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pact
{

namespace
{

std::uint64_t
hashPage(PageId page)
{
    std::uint64_t x = page;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
}

std::size_t
roundPow2(std::size_t n)
{
    std::size_t p = 16;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

PacTable::PacTable(std::size_t initial_capacity)
{
    const std::size_t cap = roundPow2(initial_capacity);
    keys_.assign(cap, PacEntry::EmptyKey);
    pac_.assign(cap, 0.0f);
    freq_.assign(cap, 0);
    lastSample_.assign(cap, 0);
    lastPromote_.assign(cap, 0);
    mask_ = cap - 1;
}

std::size_t
PacTable::slot(PageId page) const
{
    return static_cast<std::size_t>(hashPage(page)) & mask_;
}

void
PacTable::grow()
{
    AlignedVec<PageId> oldKeys;
    AlignedVec<float> oldPac;
    AlignedVec<std::uint32_t> oldFreq;
    AlignedVec<std::uint64_t> oldLastSample;
    AlignedVec<std::uint32_t> oldLastPromote;
    oldKeys.swap(keys_);
    oldPac.swap(pac_);
    oldFreq.swap(freq_);
    oldLastSample.swap(lastSample_);
    oldLastPromote.swap(lastPromote_);

    const std::size_t cap = oldKeys.size() * 2;
    keys_.assign(cap, PacEntry::EmptyKey);
    pac_.assign(cap, 0.0f);
    freq_.assign(cap, 0);
    lastSample_.assign(cap, 0);
    lastPromote_.assign(cap, 0);
    mask_ = cap - 1;

    for (std::size_t i = 0; i < oldKeys.size(); i++) {
        if (oldKeys[i] == PacEntry::EmptyKey)
            continue;
        // Re-probe into the doubled array; no grow can trigger here.
        std::size_t j = slot(oldKeys[i]);
        while (keys_[j] != PacEntry::EmptyKey)
            j = (j + 1) & mask_;
        keys_[j] = oldKeys[i];
        pac_[j] = oldPac[i];
        freq_[j] = oldFreq[i];
        lastSample_[j] = oldLastSample[i];
        lastPromote_[j] = oldLastPromote[i];
    }

    // Slot numbers changed wholesale: rebuild the occupied index in
    // ascending slot order with one array scan.
    occupied_.clear();
    for (std::size_t i = 0; i < cap; i++) {
        if (keys_[i] != PacEntry::EmptyKey)
            occupied_.push_back(static_cast<std::uint32_t>(i));
    }
    occupiedSorted_ = occupied_.size();
}

void
PacTable::ensureOccupiedSorted() const
{
    if (occupiedSorted_ == occupied_.size())
        return;
    // Only the slots inserted since the last walk are out of place:
    // sort that tail and merge it into the sorted prefix.
    const auto mid =
        occupied_.begin() + static_cast<std::ptrdiff_t>(occupiedSorted_);
    std::sort(mid, occupied_.end());
    std::inplace_merge(occupied_.begin(), mid, occupied_.end());
    occupiedSorted_ = occupied_.size();
}

PacTable::Ref
PacTable::touch(PageId page, bool *inserted)
{
    panic_if(page == PacEntry::EmptyKey, "PacTable: reserved key");
    if (size_ * 10 >= keys_.size() * 7)
        grow();
    std::size_t i = slot(page);
    __builtin_prefetch(&keys_[i]);
    while (true) {
        const PageId k = keys_[i];
        if (k == PacEntry::EmptyKey) {
            keys_[i] = page;
            size_++;
            occupied_.push_back(static_cast<std::uint32_t>(i));
            if (inserted)
                *inserted = true;
            return Ref(this, i);
        }
        if (k == page) {
            if (inserted)
                *inserted = false;
            return Ref(this, i);
        }
        i = (i + 1) & mask_;
        __builtin_prefetch(&keys_[(i + 8) & mask_]);
    }
}

PacTable::Ref
PacTable::find(PageId page)
{
    std::size_t i = slot(page);
    __builtin_prefetch(&keys_[i]);
    while (true) {
        const PageId k = keys_[i];
        if (k == PacEntry::EmptyKey)
            return Ref();
        if (k == page)
            return Ref(this, i);
        i = (i + 1) & mask_;
        __builtin_prefetch(&keys_[(i + 8) & mask_]);
    }
}

PacTable::ConstRef
PacTable::find(PageId page) const
{
    std::size_t i = slot(page);
    while (true) {
        const PageId k = keys_[i];
        if (k == PacEntry::EmptyKey)
            return ConstRef();
        if (k == page)
            return ConstRef(this, i);
        i = (i + 1) & mask_;
    }
}

void
PacTable::clear()
{
    std::fill(keys_.begin(), keys_.end(), PacEntry::EmptyKey);
    std::fill(pac_.begin(), pac_.end(), 0.0f);
    std::fill(freq_.begin(), freq_.end(), 0u);
    std::fill(lastSample_.begin(), lastSample_.end(), 0ull);
    std::fill(lastPromote_.begin(), lastPromote_.end(), 0u);
    occupied_.clear();
    occupiedSorted_ = 0;
    size_ = 0;
}

} // namespace pact
