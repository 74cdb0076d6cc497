#include "obs/events.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/export.hh"

namespace pact
{

namespace obs
{

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::PebsSample:
        return "pebs_sample";
      case EventKind::BinAssign:
        return "bin_assign";
      case EventKind::PromoteEnqueue:
        return "promote_enqueue";
      case EventKind::DemoteEnqueue:
        return "demote_enqueue";
      case EventKind::DaemonTick:
        return "daemon_tick";
      case EventKind::TxnPrepare:
        return "txn_prepare";
      case EventKind::TxnRetry:
        return "txn_retry";
      case EventKind::TxnCommit:
        return "txn_commit";
      case EventKind::TxnAbort:
        return "txn_abort";
      case EventKind::TxnAdmitReject:
        return "txn_admit_reject";
    }
    return "unknown";
}

const char *
txnAbortReasonName(TxnAbortReason r)
{
    switch (r) {
      case TxnAbortReason::None:
        return "none";
      case TxnAbortReason::Contention:
        return "contention";
      case TxnAbortReason::MidCopy:
        return "mid_copy";
      case TxnAbortReason::Dirty:
        return "dirty";
      case TxnAbortReason::WriteFail:
        return "write_fail";
    }
    return "unknown";
}

EventJournal::EventJournal(std::size_t capacity)
{
    panic_if(capacity == 0, "EventJournal: zero capacity");
    ring_.resize(capacity);
}

void
EventJournal::emit(PageEvent e)
{
    e.seq = emitted_;
    ring_[emitted_ % ring_.size()] = e;
    emitted_++;
}

std::vector<PageEvent>
EventJournal::events() const
{
    std::vector<PageEvent> out;
    const std::uint64_t held =
        std::min<std::uint64_t>(emitted_, ring_.size());
    out.reserve(held);
    const std::uint64_t first = emitted_ - held;
    for (std::uint64_t s = first; s < emitted_; s++)
        out.push_back(ring_[s % ring_.size()]);
    return out;
}

void
EventJournal::writeJsonl(std::ostream &os) const
{
    // One writer for every line: each line is a complete document.
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", EventsSchema);
    w.kv("capacity", static_cast<std::uint64_t>(ring_.size()));
    w.kv("emitted", emitted_);
    w.kv("dropped", dropped());
    w.endObject();
    os << '\n';
    for (const PageEvent &e : events()) {
        w.beginObject();
        w.kv("seq", e.seq);
        w.kv("now", e.now);
        w.kv("kind", eventKindName(e.kind));
        w.kv("tenant", static_cast<std::uint64_t>(e.tenant));
        w.kv("page", e.page);
        w.kv("window", e.window);
        // Payload keys only where they mean something, so the journal
        // stays compact and a reader can key off presence.
        switch (e.kind) {
          case EventKind::PebsSample:
            w.kv("src_tier", static_cast<std::uint64_t>(e.srcTier));
            w.kv("latency", e.latency);
            break;
          case EventKind::BinAssign:
            w.kv("pac", e.pac);
            w.kv("bin", static_cast<std::int64_t>(e.bin));
            w.kv("mlp", e.mlp);
            break;
          case EventKind::PromoteEnqueue:
          case EventKind::DemoteEnqueue:
            w.kv("pac", e.pac);
            w.kv("bin", static_cast<std::int64_t>(e.bin));
            break;
          case EventKind::DaemonTick:
            w.kv("latency", e.latency);
            break;
          case EventKind::TxnPrepare:
          case EventKind::TxnAdmitReject:
            w.kv("src_tier", static_cast<std::uint64_t>(e.srcTier));
            w.kv("dst_tier", static_cast<std::uint64_t>(e.dstTier));
            w.kv("pages", e.pages);
            break;
          case EventKind::TxnAbort:
            // latency is the copy cost the aborted attempt wasted.
            w.kv("reason", txnAbortReasonName(e.reason));
            w.kv("attempt", static_cast<std::uint64_t>(e.attempt));
            w.kv("src_tier", static_cast<std::uint64_t>(e.srcTier));
            w.kv("dst_tier", static_cast<std::uint64_t>(e.dstTier));
            w.kv("pages", e.pages);
            w.kv("latency", e.latency);
            break;
          case EventKind::TxnRetry:
            // latency carries the deterministic backoff charged to the
            // daemon before this attempt re-armed.
            w.kv("attempt", static_cast<std::uint64_t>(e.attempt));
            w.kv("latency", e.latency);
            break;
          case EventKind::TxnCommit:
            // attempt counts retries consumed before the commit (0 =
            // first-try commit); latency is the committed copy cost.
            w.kv("attempt", static_cast<std::uint64_t>(e.attempt));
            w.kv("src_tier", static_cast<std::uint64_t>(e.srcTier));
            w.kv("dst_tier", static_cast<std::uint64_t>(e.dstTier));
            w.kv("pages", e.pages);
            w.kv("latency", e.latency);
            break;
        }
        w.endObject();
        os << '\n';
    }
}

void
EventJournal::mergeIntoTrace(
    TraceEventSink &sink,
    const std::function<int(std::uint32_t)> &tidOf) const
{
    // A transaction journals its events back to back, so at most one
    // attempt is open at a time; an end whose begin was overwritten in
    // the ring is skipped.
    bool open = false;
    for (const PageEvent &e : events()) {
        const double ts = cyclesToUs(e.now);
        const std::uint32_t tid =
            static_cast<std::uint32_t>(tidOf(e.tenant));
        const char *name = e.dstTier == 0 ? "page promote" : "page demote";
        switch (e.kind) {
          case EventKind::TxnPrepare:
          case EventKind::TxnRetry:
            // One slice per attempt: the first opens at prepare, each
            // re-armed attempt at its retry.
            open = true;
            sink.asyncEvent(true, name, "migration", ts, e.page, tid,
                            {{"page", static_cast<double>(e.page)},
                             {"pages", static_cast<double>(e.pages)}});
            break;
          case EventKind::TxnCommit:
            // The engine charges the copy synchronously at `now`; give
            // the slice its charged width so the lane reads as a
            // timeline of copy costs.
            if (open)
                sink.asyncEvent(false, name, "migration",
                                cyclesToUs(e.now + e.latency), e.page, tid);
            open = false;
            break;
          case EventKind::TxnAbort:
            if (open)
                sink.asyncEvent(false, name, "migration", ts, e.page, tid);
            open = false;
            break;
          default:
            break;
        }
    }
}

} // namespace obs

} // namespace pact
