#include "obs/export.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"

namespace pact
{

namespace obs
{

namespace
{

/** Whether @p c must be escaped inside a JSON string. */
bool
needsEscape(unsigned char c)
{
    return c < 0x20 || c == '"' || c == '\\';
}

/** Longest text formatNumber() writes, "-1.2345678901234567e-308". */
constexpr std::size_t NumberChars = 32;

/** jsonNumber() into @p buf (NumberChars bytes); returns the length. */
std::size_t
formatNumber(double v, char *buf)
{
    if (!std::isfinite(v)) {
        std::memcpy(buf, "null", 4);
        return 4;
    }
    // Counters are exact integers up to 2^53; print them without a
    // fraction so deltas diff cleanly.
    if (v == std::rint(v) && std::fabs(v) < 9.007199254740992e15) {
        const long long n = static_cast<long long>(v);
        return static_cast<std::size_t>(
            std::to_chars(buf, buf + NumberChars, n).ptr - buf);
    }
    return static_cast<std::size_t>(
        std::snprintf(buf, NumberChars, "%.17g", v));
}

/** Append the decimal text of @p v (what ostream << prints). */
template <typename Int>
void
appendDecimal(std::string &out, Int v)
{
    char buf[NumberChars];
    const char *end = std::to_chars(buf, buf + NumberChars, v).ptr;
    out.append(buf, static_cast<std::size_t>(end - buf));
}

} // namespace

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[NumberChars];
    return std::string(buf, formatNumber(v, buf));
}

JsonWriter::~JsonWriter()
{
    flush();
}

void
JsonWriter::flush()
{
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
}

JsonWriter &
JsonWriter::beginObject()
{
    preValue();
    buf_ += '{';
    stack_.push_back('{');
    started_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    panic_if(stack_.empty() || stack_.back() != '{' || pendingKey_,
             "JsonWriter: mismatched endObject");
    buf_ += '}';
    stack_.pop_back();
    started_.pop_back();
    endValue();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    preValue();
    buf_ += '[';
    stack_.push_back('[');
    started_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    panic_if(stack_.empty() || stack_.back() != '[',
             "JsonWriter: mismatched endArray");
    buf_ += ']';
    stack_.pop_back();
    started_.pop_back();
    endValue();
    return *this;
}

void
JsonWriter::writeString(std::string_view s)
{
    buf_ += '"';
    bool plain = true;
    for (unsigned char c : s)
        plain &= !needsEscape(c);
    if (plain)
        buf_ += s;
    else
        buf_ += jsonEscape(s);
    buf_ += '"';
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    panic_if(stack_.empty() || stack_.back() != '{' || pendingKey_,
             "JsonWriter: key() outside an object");
    if (started_.back())
        buf_ += ',';
    started_.back() = true;
    writeString(k);
    buf_ += ':';
    pendingKey_ = true;
    return *this;
}

void
JsonWriter::preValue()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (!stack_.empty()) {
        panic_if(stack_.back() == '{',
                 "JsonWriter: value in object without key");
        if (started_.back())
            buf_ += ',';
        started_.back() = true;
    }
}

void
JsonWriter::endValue()
{
    if (stack_.empty())
        flush();
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    preValue();
    writeString(s);
    endValue();
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    preValue();
    char buf[NumberChars];
    buf_.append(buf, formatNumber(v, buf));
    endValue();
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    preValue();
    appendDecimal(buf_, v);
    endValue();
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    preValue();
    appendDecimal(buf_, v);
    endValue();
    return *this;
}

JsonWriter &
JsonWriter::value(bool b)
{
    preValue();
    buf_ += b ? "true" : "false";
    endValue();
    return *this;
}

void
writeSimConfig(JsonWriter &w, const SimConfig &cfg)
{
    w.beginObject();
    w.key("fast").beginObject();
    w.kv("latency_cycles", static_cast<std::uint64_t>(cfg.fast.latencyCycles));
    w.kv("service_cycles_per_line", cfg.fast.serviceCycles);
    w.endObject();
    w.key("slow").beginObject();
    w.kv("latency_cycles", static_cast<std::uint64_t>(cfg.slow.latencyCycles));
    w.kv("service_cycles_per_line", cfg.slow.serviceCycles);
    w.endObject();
    w.key("cache").beginObject();
    w.kv("size_bytes", cfg.cache.sizeBytes);
    w.kv("assoc", static_cast<std::uint64_t>(cfg.cache.assoc));
    w.kv("prefetch", cfg.cache.prefetch);
    w.kv("prefetch_degree",
         static_cast<std::uint64_t>(cfg.cache.prefetchDegree));
    w.kv("prefetch_streams",
         static_cast<std::uint64_t>(cfg.cache.prefetchStreams));
    w.endObject();
    w.key("cpu").beginObject();
    w.kv("mshrs", static_cast<std::uint64_t>(cfg.cpu.mshrs));
    w.kv("rob_ops", static_cast<std::uint64_t>(cfg.cpu.robOps));
    w.kv("hint_fault_cycles",
         static_cast<std::uint64_t>(cfg.cpu.hintFaultCycles));
    w.endObject();
    w.key("pebs").beginObject();
    w.kv("rate", cfg.pebs.rate);
    w.kv("sample_fast_tier", cfg.pebs.sampleFastTier);
    w.kv("buffer_cap", static_cast<std::uint64_t>(cfg.pebs.bufferCap));
    w.endObject();
    w.key("chmu").beginObject();
    w.kv("enabled", cfg.chmu.enabled);
    w.kv("counter_cap", static_cast<std::uint64_t>(cfg.chmu.counterCap));
    w.kv("hot_list_len", static_cast<std::uint64_t>(cfg.chmu.hotListLen));
    w.endObject();
    w.key("migration").beginObject();
    w.kv("fixed_cycles_4k",
         static_cast<std::uint64_t>(cfg.migration.fixedCycles4k));
    w.kv("fixed_cycles_huge",
         static_cast<std::uint64_t>(cfg.migration.fixedCyclesHuge));
    w.kv("app_penalty_fraction", cfg.migration.appPenaltyFraction);
    w.kv("disabled", cfg.migration.disabled);
    w.kv("txn_max_retries",
         static_cast<std::uint64_t>(cfg.migration.txnMaxRetries));
    w.kv("txn_backoff_cycles",
         static_cast<std::uint64_t>(cfg.migration.txnBackoffCycles));
    w.endObject();
    w.kv("fast_capacity_pages", cfg.fastCapacityPages);
    w.kv("daemon_period_cycles", static_cast<std::uint64_t>(cfg.daemonPeriod));
    w.kv("slice_cycles", static_cast<std::uint64_t>(cfg.slice));
    w.kv("seed", cfg.seed);
    w.kv("max_wall_cycles", static_cast<std::uint64_t>(cfg.maxWallCycles));
    w.kv("faults", cfg.faults);
    w.kv("audit", cfg.audit);
    w.endObject();
}

void
writeDistSnapshot(JsonWriter &w, const DistSnapshot &d)
{
    w.beginObject();
    w.kv("count", d.count);
    w.kv("sum", d.sum);
    w.kv("max", d.max);
    w.kv("p50", d.p50);
    w.kv("p90", d.p90);
    w.kv("p99", d.p99);
    w.key("bins").beginArray();
    for (const auto &[idx, n] : d.bins) {
        w.beginArray();
        w.value(static_cast<std::uint64_t>(idx));
        w.value(n);
        w.endArray();
    }
    w.endArray();
    w.endObject();
}

void
writeRunManifest(std::ostream &os, const RunManifest &m)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", ManifestSchema);
    w.kv("kind", m.kind);
    w.kv("producer", m.producer);
    w.key("config");
    writeSimConfig(w, m.config);
    w.key("params").beginObject();
    for (const auto &[k, v] : m.params)
        w.kv(k, v);
    for (const auto &[k, v] : m.textParams)
        w.kv(k, v);
    w.endObject();
    w.key("results").beginArray();
    for (const ManifestResult &r : m.results) {
        w.beginObject();
        w.kv("workload", r.workload);
        w.kv("policy", r.policy);
        w.kv("ok", r.ok);
        if (r.fastShare >= 0.0)
            w.kv("fast_share", r.fastShare);
        if (r.ok) {
            w.kv("slowdown_pct", r.slowdownPct);
            w.key("proc_slowdown_pct").beginArray();
            for (double p : r.procSlowdownPct)
                w.value(p);
            w.endArray();
            w.key("tenants").beginArray();
            for (const ManifestResult::Tenant &t : r.tenants) {
                w.beginObject();
                w.kv("name", t.name);
                w.kv("slowdown_pct", t.slowdownPct);
                w.kv("retired_ops", t.retiredOps);
                w.kv("cycles", t.cycles);
                w.kv("daemon_ticks", t.daemonTicks);
                w.kv("pebs_events", t.pebsEvents);
                w.endObject();
            }
            w.endArray();
            w.kv("runtime_cycles", r.runtimeCycles);
            w.key("txn").beginObject();
            w.kv("prepared", r.txn.prepared);
            w.kv("committed", r.txn.committed);
            w.kv("aborted", r.txn.aborted);
            w.kv("retries", r.txn.retries);
            w.kv("exhausted", r.txn.exhausted);
            w.kv("admission_rejected", r.txn.admissionRejected);
            w.kv("wasted_copy_cycles", r.txn.wastedCopyCycles);
            w.kv("backoff_cycles", r.txn.backoffCycles);
            w.endObject();
            w.key("stats").beginObject();
            for (const auto &[k, v] : r.stats)
                w.kv(k, v);
            w.endObject();
            w.key("distributions").beginObject();
            for (const auto &[k, d] : r.dists) {
                w.key(k);
                writeDistSnapshot(w, d);
            }
            w.endObject();
        } else {
            // A failed run records what was asked and why it died; no
            // stats exist to dump.
            w.key("error").beginObject();
            w.kv("kind", r.errorKind);
            w.kv("message", r.errorMessage);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
    panic_if(w.depth() != 0, "writeRunManifest: unbalanced document");
}

bool
TraceEventSink::admit()
{
    if (events_.size() < capEvents())
        return true;
    if (dropped_++ == 0)
        warn("TraceEventSink: event cap reached; dropping further events");
    return false;
}

void
TraceEventSink::completeEvent(const std::string &name,
                              const std::string &cat, double ts_us,
                              double dur_us, std::uint32_t tid, Args args)
{
    if (!admit())
        return;
    Event e;
    e.ph = 'X';
    e.name = name;
    e.cat = cat;
    e.ts = ts_us;
    e.dur = dur_us;
    e.tid = tid;
    e.args = std::move(args);
    events_.push_back(std::move(e));
}

void
TraceEventSink::counterEvent(const std::string &name, double ts_us,
                             double value)
{
    if (!admit())
        return;
    Event e;
    e.ph = 'C';
    e.name = name;
    e.ts = ts_us;
    e.value = value;
    events_.push_back(std::move(e));
}

void
TraceEventSink::asyncEvent(bool begin, const std::string &name,
                           const std::string &cat, double ts_us,
                           std::uint64_t id, std::uint32_t tid, Args args)
{
    if (!admit())
        return;
    Event e;
    e.ph = begin ? 'b' : 'e';
    e.name = name;
    e.cat = cat;
    e.ts = ts_us;
    e.id = id;
    e.tid = tid;
    e.args = std::move(args);
    events_.push_back(std::move(e));
}

void
TraceEventSink::threadName(std::uint32_t tid, const std::string &name)
{
    threadNames_.emplace_back(tid, name);
}

void
TraceEventSink::write(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray();
    for (const auto &[tid, name] : threadNames_) {
        w.beginObject();
        w.kv("ph", "M");
        w.kv("name", "thread_name");
        w.kv("pid", std::uint64_t{0});
        w.kv("tid", static_cast<std::uint64_t>(tid));
        w.key("args").beginObject().kv("name", name).endObject();
        w.endObject();
    }
    for (const Event &e : events_) {
        w.beginObject();
        w.kv("ph", std::string(1, e.ph));
        w.kv("name", e.name);
        if (!e.cat.empty())
            w.kv("cat", e.cat);
        w.kv("pid", std::uint64_t{0});
        w.kv("tid", static_cast<std::uint64_t>(e.tid));
        w.kv("ts", e.ts);
        if (e.ph == 'X')
            w.kv("dur", e.dur);
        if (e.ph == 'b' || e.ph == 'e')
            w.kv("id", e.id);
        if (e.ph == 'C') {
            w.key("args").beginObject().kv("value", e.value).endObject();
        } else if (!e.args.empty()) {
            w.key("args").beginObject();
            for (const auto &[k, v] : e.args)
                w.kv(k, v);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
    panic_if(w.depth() != 0, "TraceEventSink: unbalanced document");
}

} // namespace obs

} // namespace pact
