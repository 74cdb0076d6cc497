/**
 * @file
 * The PAC table: a compact open-addressing hash map from page id to
 * accumulated Per-page Access Criticality state. Matches the paper's
 * in-memory hash table with ~25 bytes of metadata per tracked 4KB page
 * and O(1) insert/lookup (§4.3.6).
 *
 * Storage is structure-of-arrays: keys / pac / freq / lastSample /
 * lastPromote live in parallel cache-aligned arrays, so the probe loop
 * streams through the 8-byte key array alone and a full-table walk of
 * one field touches a fraction of the cache lines the old
 * array-of-structs layout did. A maintained dense occupied-slot index
 * lets forEach visit exactly the live entries — in ascending slot
 * order, i.e. byte-identical iteration order to walking the raw slot
 * array — instead of scanning empty capacity. Inserts append to the
 * index; a walk sorts only the slots appended since the previous walk
 * and merges them into the sorted prefix. PactPolicy's promotion walk
 * filters this sequence down to the slow-tier pages each window.
 */

#ifndef PACT_PACT_PAC_TABLE_HH
#define PACT_PACT_PAC_TABLE_HH

#include <cstdint>
#include <new>
#include <vector>

#include "common/types.hh"

namespace pact
{

/**
 * Per-page criticality record: the value type forEach presents and
 * tests/benches consume. The table itself stores these fields in
 * parallel arrays; a PacEntry is materialized on demand.
 */
struct PacEntry
{
    PageId page = EmptyKey;
    /** Accumulated PAC in stall cycles. */
    float pac = 0.0f;
    /** Accumulated sampled access count. */
    std::uint32_t freq = 0;
    /** Global sample counter at the page's last sample (cooling). */
    std::uint64_t lastSample = 0;
    /** Daemon tick of the page's last promotion (anti-ping-pong). */
    std::uint32_t lastPromote = 0;

    static constexpr PageId EmptyKey = ~0ull;
    bool empty() const { return page == EmptyKey; }
};

/** 64-byte-aligned vector storage for the SoA field arrays. */
template <typename T>
struct CacheAlignedAlloc
{
    using value_type = T;
    static constexpr std::align_val_t align{64};

    CacheAlignedAlloc() = default;
    template <typename U>
    CacheAlignedAlloc(const CacheAlignedAlloc<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), align));
    }
    void
    deallocate(T *p, std::size_t)
    {
        ::operator delete(p, align);
    }
    template <typename U>
    bool
    operator==(const CacheAlignedAlloc<U> &) const
    {
        return true;
    }
    template <typename U>
    bool
    operator!=(const CacheAlignedAlloc<U> &) const
    {
        return false;
    }
};

template <typename T>
using AlignedVec = std::vector<T, CacheAlignedAlloc<T>>;

/**
 * Linear-probing hash table keyed by page id. Entries are never
 * individually erased (pages stay tracked once seen), matching PACT's
 * accumulate-by-default design.
 */
class PacTable
{
  public:
    explicit PacTable(std::size_t initial_capacity = 1024);

    /**
     * Handle to one live slot: field accessors over the parallel
     * arrays. Invalidated by any insert (touch may grow the table)
     * — re-find after mutation, exactly like the old PacEntry*.
     */
    class Ref
    {
      public:
        Ref() = default;
        explicit operator bool() const { return t_ != nullptr; }

        PageId page() const { return t_->keys_[i_]; }
        float &pac() const { return t_->pac_[i_]; }
        std::uint32_t &freq() const { return t_->freq_[i_]; }
        std::uint64_t &lastSample() const { return t_->lastSample_[i_]; }
        std::uint32_t &lastPromote() const
        {
            return t_->lastPromote_[i_];
        }

        /** Materialize the slot as a PacEntry value. */
        PacEntry
        entry() const
        {
            return {page(), pac(), freq(), lastSample(), lastPromote()};
        }

      private:
        friend class PacTable;
        Ref(PacTable *t, std::size_t i) : t_(t), i_(i) {}
        PacTable *t_ = nullptr;
        std::size_t i_ = 0;
    };

    /** Read-only slot handle (const table). */
    class ConstRef
    {
      public:
        ConstRef() = default;
        explicit operator bool() const { return t_ != nullptr; }

        PageId page() const { return t_->keys_[i_]; }
        float pac() const { return t_->pac_[i_]; }
        std::uint32_t freq() const { return t_->freq_[i_]; }
        std::uint64_t lastSample() const { return t_->lastSample_[i_]; }
        std::uint32_t lastPromote() const
        {
            return t_->lastPromote_[i_];
        }

        PacEntry
        entry() const
        {
            return {page(), pac(), freq(), lastSample(), lastPromote()};
        }

      private:
        friend class PacTable;
        ConstRef(const PacTable *t, std::size_t i) : t_(t), i_(i) {}
        const PacTable *t_ = nullptr;
        std::size_t i_ = 0;
    };

    /**
     * Find or insert the entry for a page. When @p inserted is
     * non-null it reports whether a new slot was created, letting the
     * caller maintain side indexes without a separate find().
     */
    Ref touch(PageId page, bool *inserted = nullptr);

    /** Find an entry; a false Ref when the page is untracked. */
    Ref find(PageId page);
    ConstRef find(PageId page) const;

    /** Visit every live entry in ascending slot order. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        ensureOccupiedSorted();
        for (const std::uint32_t s : occupied_)
            fn(ConstRef(this, s).entry());
    }

    /**
     * Visit every live entry, allowing mutation of value fields (the
     * PacEntry is materialized, passed to @p fn, and written back).
     */
    template <typename F>
    void
    forEachMut(F &&fn)
    {
        ensureOccupiedSorted();
        for (const std::uint32_t s : occupied_) {
            PacEntry e = ConstRef(this, s).entry();
            fn(e);
            pac_[s] = e.pac;
            freq_[s] = e.freq;
            lastSample_[s] = e.lastSample;
            lastPromote_[s] = e.lastPromote;
        }
    }

    /** Visit every live entry by Ref in ascending slot order. */
    template <typename F>
    void
    forEachRef(F &&fn)
    {
        ensureOccupiedSorted();
        for (const std::uint32_t s : occupied_)
            fn(Ref(this, s));
    }

    /** Tracked page count. */
    std::size_t size() const { return size_; }

    /** Remove all entries. */
    void clear();

    /**
     * Bytes per tracked page across the parallel arrays: 28 bytes of
     * key+value fields (the paper claims ~25B).
     */
    static constexpr std::size_t entryBytes =
        sizeof(PageId) + sizeof(float) + sizeof(std::uint32_t) +
        sizeof(std::uint64_t) + sizeof(std::uint32_t);

  private:
    std::size_t slot(PageId page) const;
    void grow();
    void ensureOccupiedSorted() const;

    AlignedVec<PageId> keys_;
    AlignedVec<float> pac_;
    AlignedVec<std::uint32_t> freq_;
    AlignedVec<std::uint64_t> lastSample_;
    AlignedVec<std::uint32_t> lastPromote_;

    /**
     * Dense occupied-slot index. Inserts append, so the list is only
     * sorted on demand (mutable: forEach is const). Entries are never
     * erased outside clear()/grow(), so no compaction is needed.
     */
    mutable std::vector<std::uint32_t> occupied_;
    /** Length of occupied_'s sorted prefix; later entries are the
     *  slots inserted since the last walk. */
    mutable std::size_t occupiedSorted_ = 0;

    std::size_t size_ = 0;
    std::size_t mask_ = 0;
};

} // namespace pact

#endif // PACT_PACT_PAC_TABLE_HH
