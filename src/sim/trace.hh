/**
 * @file
 * Memory access trace format. Workloads run their real algorithms once
 * to record the virtual-address access stream (with dependence and
 * inter-access compute information); the simulator then replays a trace
 * under any policy/placement, which keeps the access stream identical
 * across compared systems.
 *
 * Ops are packed into 8 bytes:
 *   [0:47]  virtual address (or marker class / BigGap cycle count)
 *   [48:59] compute-gap cycles preceding the op (0..4095)
 *   [60:62] op kind
 *   [63]    depends-on-previous-load flag
 *
 * Ops live in a TraceOpSpan: either an owned vector (while a workload
 * records itself) or a read-only view into a shared mmap'd .pacttrace
 * file (zero-copy warm start from the trace store).
 */

#ifndef PACT_SIM_TRACE_HH
#define PACT_SIM_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace pact
{

/** Kind of a trace operation. */
enum class OpKind : std::uint8_t
{
    /** Demand data load from vaddr. */
    Load = 0,
    /** Store to vaddr (does not stall the core on completion). */
    Store = 1,
    /** Begin a latency-measured span; vaddr carries the span class. */
    MarkBegin = 2,
    /** End the innermost open span. */
    MarkEnd = 3,
    /** No memory access; only consumes its gap (pure compute). */
    Nop = 4,
    /**
     * Wide compute gap: the full cycle count rides in the 48-bit addr
     * field, so a million-cycle pause is one op instead of ~245
     * max-gap Nops. Cycle accounting is identical to the equivalent
     * Nop run.
     */
    BigGap = 5,
};

/** One recorded operation (packed, 8 bytes). */
struct TraceOp
{
    std::uint64_t bits = 0;

    static constexpr unsigned GapShift = 48;
    static constexpr unsigned KindShift = 60;
    static constexpr unsigned DepShift = 63;
    static constexpr std::uint64_t AddrMask = (1ull << GapShift) - 1;
    static constexpr std::uint64_t MaxGap = 4095;

    static TraceOp
    make(Addr vaddr, OpKind kind, bool dep, std::uint32_t gap)
    {
        TraceOp op;
        op.bits = (vaddr & AddrMask) |
                  (static_cast<std::uint64_t>(gap & MaxGap) << GapShift) |
                  (static_cast<std::uint64_t>(kind) << KindShift) |
                  (static_cast<std::uint64_t>(dep ? 1 : 0) << DepShift);
        return op;
    }

    Addr vaddr() const { return bits & AddrMask; }
    std::uint32_t
    gap() const
    {
        return static_cast<std::uint32_t>((bits >> GapShift) & MaxGap);
    }
    OpKind
    kind() const
    {
        return static_cast<OpKind>((bits >> KindShift) & 0x7);
    }
    bool dep() const { return (bits >> DepShift) & 1; }
};

static_assert(sizeof(TraceOp) == 8, "TraceOp must stay compact");

/**
 * The op storage of a Trace: a (pointer, length) view that either owns
 * its ops in a vector (the recording path) or aliases a shared
 * read-only mapping of a .pacttrace file (the zero-copy warm path; the
 * shared_ptr's deleter munmaps once the last trace drops it).
 *
 * The view fields are kept coherent on every mutation, so the
 * simulator's per-op hot loop reads operator[]/size() branch-free
 * regardless of where the ops live. Mutating a mapped span first
 * materializes a private copy (copy-on-write), so recorded and
 * replayed traces expose one API.
 */
class TraceOpSpan
{
  public:
    TraceOpSpan() = default;

    TraceOpSpan(const TraceOpSpan &other) :
        owned_(other.owned_), backing_(other.backing_)
    {
        refresh(other);
    }

    TraceOpSpan(TraceOpSpan &&other) noexcept :
        owned_(std::move(other.owned_)),
        backing_(std::move(other.backing_))
    {
        refresh(other);
        other.owned_.clear();
        other.backing_.reset();
        other.data_ = nullptr;
        other.size_ = 0;
    }

    TraceOpSpan &
    operator=(const TraceOpSpan &other)
    {
        if (this != &other) {
            owned_ = other.owned_;
            backing_ = other.backing_;
            refresh(other);
        }
        return *this;
    }

    TraceOpSpan &
    operator=(TraceOpSpan &&other) noexcept
    {
        if (this != &other) {
            owned_ = std::move(other.owned_);
            backing_ = std::move(other.backing_);
            refresh(other);
            other.owned_.clear();
            other.backing_.reset();
            other.data_ = nullptr;
            other.size_ = 0;
        }
        return *this;
    }

    const TraceOp *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const TraceOp &operator[](std::size_t i) const { return data_[i]; }
    const TraceOp *begin() const { return data_; }
    const TraceOp *end() const { return data_ + size_; }
    const TraceOp &front() const { return data_[0]; }
    const TraceOp &back() const { return data_[size_ - 1]; }

    /** True when the ops alias a shared mapping (warm start). */
    bool mapped() const { return backing_ != nullptr; }

    /** Ops the owned storage holds before it reallocates (0 if mapped). */
    std::size_t capacity() const { return owned_.capacity(); }

    void
    reserve(std::size_t n)
    {
        materialize();
        owned_.reserve(n);
        data_ = owned_.data();
    }

    void
    push_back(TraceOp op)
    {
        materialize();
        owned_.push_back(op);
        data_ = owned_.data();
        size_ = owned_.size();
    }

    /** Insert @p ops before the current contents (init passes). */
    void
    prepend(const std::vector<TraceOp> &ops)
    {
        materialize();
        owned_.insert(owned_.begin(), ops.begin(), ops.end());
        data_ = owned_.data();
        size_ = owned_.size();
    }

    void
    clear()
    {
        owned_.clear();
        backing_.reset();
        data_ = nullptr;
        size_ = 0;
    }

    /**
     * Alias @p n ops at @p ops inside @p backing (a shared file
     * mapping). The span holds a reference for its lifetime, so the
     * mapping outlives every trace replaying from it.
     */
    void
    adopt(std::shared_ptr<const void> backing, const TraceOp *ops,
          std::size_t n)
    {
        owned_.clear();
        owned_.shrink_to_fit();
        backing_ = std::move(backing);
        data_ = ops;
        size_ = n;
    }

  private:
    /** Re-point the view after copying/moving the owned vector. */
    void
    refresh(const TraceOpSpan &other)
    {
        if (backing_) {
            data_ = other.data_;
            size_ = other.size_;
        } else {
            data_ = owned_.data();
            size_ = owned_.size();
        }
    }

    /** Copy mapped ops into owned storage before a mutation. */
    void
    materialize()
    {
        if (!backing_)
            return;
        owned_.assign(data_, data_ + size_);
        backing_.reset();
        data_ = owned_.data();
        size_ = owned_.size();
    }

    std::vector<TraceOp> owned_;
    std::shared_ptr<const void> backing_;
    const TraceOp *data_ = nullptr;
    std::size_t size_ = 0;
};

/** A process's recorded access stream. */
struct Trace
{
    std::string name;
    ProcId proc = 0;
    TraceOpSpan ops;
    /** Restart from the beginning when exhausted (co-runners). */
    bool loop = false;

    void
    load(Addr a, bool dep = false, std::uint32_t gap = 0)
    {
        emitGap(gap);
        ops.push_back(TraceOp::make(a, OpKind::Load, dep,
                                    gap > TraceOp::MaxGap ? 0 : gap));
    }

    void
    store(Addr a, std::uint32_t gap = 0)
    {
        emitGap(gap);
        ops.push_back(TraceOp::make(a, OpKind::Store, false,
                                    gap > TraceOp::MaxGap ? 0 : gap));
    }

    /** Pure compute between accesses. */
    void
    compute(std::uint32_t cycles)
    {
        if (cycles == 0)
            return;
        if (cycles <= TraceOp::MaxGap) {
            ops.push_back(TraceOp::make(0, OpKind::Nop, false, cycles));
            return;
        }
        // Wide gaps ride in the addr field of a single BigGap op.
        ops.push_back(TraceOp::make(cycles, OpKind::BigGap, false, 0));
    }

    void
    markBegin(std::uint32_t cls)
    {
        ops.push_back(TraceOp::make(cls, OpKind::MarkBegin, false, 0));
    }

    void
    markEnd()
    {
        ops.push_back(TraceOp::make(0, OpKind::MarkEnd, false, 0));
    }

    std::size_t size() const { return ops.size(); }

  private:
    /** Oversized gaps spill into an explicit BigGap op. */
    void
    emitGap(std::uint32_t gap)
    {
        if (gap > TraceOp::MaxGap)
            compute(gap);
    }
};

} // namespace pact

#endif // PACT_SIM_TRACE_HH
