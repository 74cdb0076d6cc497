/**
 * @file
 * Decision provenance journal: an opt-in, bounded ring of typed
 * page-lifecycle events — PEBS sample, binning decision, promote/
 * demote enqueue, the migration transaction (prepare/retry/commit/
 * abort with reason, admission reject; the journal's only migration
 * record), daemon tick — each stamped with the cycle, tenant, page,
 * and the policy inputs (PAC score, bin, MLP, daemon window) that
 * drove the decision. Together they answer "why was this page
 * promoted?" offline, which aggregate counters cannot.
 *
 * The journal is off by default (no journal pointer wired = zero
 * cost beyond a null check at each emit site) and deterministic when
 * on: events are emitted from the single-threaded engine loop in
 * execution order, so the exported pact.events/2 JSONL is
 * byte-identical at any PACT_JOBS. When the ring fills, the oldest
 * events are overwritten and `dropped` counts them — the journal is a
 * flight recorder, not a complete log.
 */

#ifndef PACT_OBS_EVENTS_HH
#define PACT_OBS_EVENTS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace pact
{

namespace obs
{

class TraceEventSink;

/** What happened to the page (the provenance chain runs top-down). */
enum class EventKind : std::uint8_t
{
    PebsSample,       ///< an LLC-miss sample of this page was captured
    BinAssign,        ///< policy placed the page in a criticality bin
    PromoteEnqueue,   ///< policy asked the migration engine to promote
    DemoteEnqueue,    ///< policy asked the migration engine to demote
    DaemonTick,       ///< a policy daemon window closed (page = 0)
    TxnPrepare,       ///< migration transaction opened (shadow copy)
    TxnRetry,         ///< aborted attempt re-armed after backoff
    TxnCommit,        ///< committed (latency = charged cycles)
    TxnAbort,         ///< attempt aborted (latency = wasted cycles)
    TxnAdmitReject,   ///< admission control rejected the migration
};

const char *eventKindName(EventKind k);

/**
 * Why a migration transaction attempt aborted. Lives here (not in
 * mem/) because the journal schema serializes the reason names and
 * obs sits below mem in the library stack.
 */
enum class TxnAbortReason : std::uint8_t
{
    None,       ///< not aborted
    Contention, ///< whole-copy contention abort (legacy migabort)
    MidCopy,    ///< aborted mid-copy at an injected progress fraction
    Dirty,      ///< page written during the copy; validation failed
    WriteFail,  ///< transient destination-tier write failure
};

const char *txnAbortReasonName(TxnAbortReason r);

/** One journal record. Unused payload fields stay 0. */
struct PageEvent
{
    std::uint64_t seq = 0;     ///< emission order, monotonically increasing
    std::uint64_t now = 0;     ///< engine cycle at emission
    EventKind kind = EventKind::PebsSample;
    std::uint32_t tenant = 0;  ///< owning tenant (0 in single-daemon runs)
    std::uint64_t page = 0;    ///< page id (0 for DaemonTick)
    std::uint64_t window = 0;  ///< policy daemon window (tick number)
    double pac = 0.0;          ///< PAC score at decision time
    std::int32_t bin = -1;     ///< criticality bin (-1 = n/a)
    double mlp = 0.0;          ///< per-tier MLP input to attribution
    std::uint32_t srcTier = 0; ///< migration source tier
    std::uint32_t dstTier = 0; ///< migration destination tier
    std::uint64_t latency = 0; ///< cycles (per-kind meaning)
    std::uint64_t pages = 0;   ///< pages moved (migration events)
    std::uint32_t attempt = 0; ///< transaction attempt number (txn_*)
    TxnAbortReason reason = TxnAbortReason::None; ///< abort reason
};

/**
 * Bounded ring of PageEvents. Single-writer (the engine loop); emit()
 * is cheap enough to leave wired in fault-heavy runs — a few stores
 * and a modulo-free index wrap.
 */
class EventJournal
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1u << 16;

    explicit EventJournal(std::size_t capacity = kDefaultCapacity);

    /** Append an event; stamps seq, overwrites the oldest when full. */
    void emit(PageEvent e);

    /** Events emitted since construction (including overwritten). */
    std::uint64_t emitted() const { return emitted_; }
    /** Events lost to ring overwrite. */
    std::uint64_t dropped() const
    {
        return emitted_ > ring_.size() ? emitted_ - ring_.size() : 0;
    }
    std::size_t capacity() const { return ring_.size(); }
    /** Events currently held, oldest first. */
    std::vector<PageEvent> events() const;

    /**
     * Write the journal as pact.events/2 JSONL: a header object
     * {schema, capacity, emitted, dropped} then one event per line in
     * seq order. Deterministic: same run = same bytes.
     */
    void writeJsonl(std::ostream &os) const;

    /**
     * Merge migration transactions into a Chrome/Perfetto trace as
     * one async slice per attempt on the tenant's migration lane:
     * TxnPrepare and TxnRetry open a 'b' slice (id = page), TxnCommit
     * closes it at now + latency and TxnAbort at now, so begins and
     * ends always balance (an end whose begin was overwritten in the
     * ring is skipped). @p tidOf maps tenant -> trace tid (the
     * per-tenant migration lane).
     */
    void mergeIntoTrace(
        TraceEventSink &sink,
        const std::function<int(std::uint32_t)> &tidOf) const;

  private:
    std::vector<PageEvent> ring_;
    std::uint64_t emitted_ = 0;
};

} // namespace obs

} // namespace pact

#endif // PACT_OBS_EVENTS_HH
