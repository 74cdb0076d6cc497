/**
 * @file
 * Machine-readable run artifacts: a deterministic JSON writer, the
 * run-manifest exporter (full SimConfig + policy params + final stats,
 * schema-versioned), and a Chrome trace_event sink so migration and
 * daemon-tick activity can be opened in chrome://tracing / Perfetto.
 *
 * Everything here is layered below the harness: writers consume plain
 * data (names, doubles, SimConfig fields) so the obs library depends
 * only on common code.
 */

#ifndef PACT_OBS_EXPORT_HH
#define PACT_OBS_EXPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "sim/config.hh"

namespace pact
{

namespace obs
{

/**
 * Schema tags written into (and validated against) the artifacts.
 * pact.manifest/2 added per-result "ok" and structured "error" records
 * (failed sweep runs are first-class results) plus the "faults" and
 * "audit" config keys. pact.manifest/3 adds the per-result "tenants"
 * array (one object per tenant of a multi-tenant engine).
 * pact.manifest/4 adds the per-result "distributions" object
 * (log-linear histogram stats: sparse bin counts plus derived
 * count/sum/max/p50/p90/p99). pact.manifest/5 adds the per-result
 * "txn" object (migration-transaction outcome counts: committed/
 * aborted/retried/exhausted/rejected-by-admission plus wasted copy
 * cycles) and the migration config's disabled/txn_max_retries/
 * txn_backoff_cycles keys. pact.manifest/6 gives every ok result at
 * least one "tenants" row: a single-daemon run is one tenant holding
 * every trace. pact.timeseries/2 adds the header "distributions" list
 * and per-row "dist" per-window summaries. pact.events/1 is the
 * decision-provenance journal JSONL (header object, then one typed
 * page-lifecycle event per line). pact.events/2 makes the txn_* arc
 * the only migration record: the migration_start/complete/abort kinds
 * are gone, txn_commit carries src_tier/dst_tier/pages and txn_abort
 * its wasted-cycle latency.
 */
inline constexpr const char *ManifestSchema = "pact.manifest/6";
inline constexpr const char *TimeSeriesSchema = "pact.timeseries/2";
inline constexpr const char *EventsSchema = "pact.events/2";

/** Escape a string for embedding inside JSON double quotes. */
std::string jsonEscape(std::string_view s);

/**
 * Deterministic JSON number formatting: integral values (within the
 * double-exact range) print without a decimal point, everything else
 * as shortest-round-trip %.17g; non-finite values become null. The
 * format depends only on the bit pattern, which is what keeps JSONL
 * artifacts byte-identical across job counts.
 */
std::string jsonNumber(double v);

/**
 * Minimal streaming JSON writer with comma/nesting bookkeeping.
 * Compact output (no whitespace) so artifact bytes are canonical.
 * A document is built in memory and reaches the stream in one write
 * when it is complete (depth() back to 0); the destructor writes out
 * an unfinished one. The same writer can then start the next
 * document, which is how JSONL lines share a writer.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}
    ~JsonWriter();
    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Key inside the current object; follow with a value or begin*. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view s);
    /** Without this, a string literal would convert to bool. */
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter &value(bool b);

    /** key+value in one call. */
    template <typename T>
    JsonWriter &
    kv(std::string_view k, const T &v)
    {
        key(k);
        return value(v);
    }

    /** Depth of open containers (0 when the document is complete). */
    std::size_t depth() const { return stack_.size(); }

  private:
    void preValue();
    /** After a value or a closed container: flush a complete document. */
    void endValue();
    void flush();
    /** Write @p s quoted, escaping only when some byte needs it. */
    void writeString(std::string_view s);

    std::ostream &os_;
    /** Text of the document in progress. */
    std::string buf_;
    /** Per-level "a value has been emitted" flag. */
    std::vector<bool> started_;
    std::vector<char> stack_;
    bool pendingKey_ = false;
};

/** One run's result as the manifest exporter consumes it. */
struct ManifestResult
{
    /** Per-tenant summary row. */
    struct Tenant
    {
        std::string name;
        /** Mean slowdown over the tenant's non-looping processes. */
        double slowdownPct = 0.0;
        std::uint64_t retiredOps = 0;
        std::uint64_t cycles = 0;
        std::uint64_t daemonTicks = 0;
        std::uint64_t pebsEvents = 0;
    };

    std::string workload;
    std::string policy;
    double slowdownPct = 0.0;
    std::vector<double> procSlowdownPct;
    /** One row per tenant daemon (at least one on an ok result). */
    std::vector<Tenant> tenants;
    std::uint64_t runtimeCycles = 0;
    /** Full registry dump (name-sorted), the authoritative stats. */
    std::vector<std::pair<std::string, double>> stats;
    /** Distribution snapshots (name-sorted), pact.manifest/4. */
    std::vector<std::pair<std::string, DistSnapshot>> dists;

    /** Migration-transaction outcome counts, pact.manifest/5. */
    struct Txn
    {
        std::uint64_t prepared = 0;
        std::uint64_t committed = 0;
        std::uint64_t aborted = 0;
        std::uint64_t retries = 0;
        std::uint64_t exhausted = 0;
        std::uint64_t admissionRejected = 0;
        std::uint64_t wastedCopyCycles = 0;
        std::uint64_t backoffCycles = 0;
    };
    Txn txn;

    /**
     * Whether the run completed. Failed runs carry errorKind/
     * errorMessage instead of slowdown/runtime/stats, so a poisoned
     * sweep still documents every spec it attempted.
     */
    bool ok = true;
    /** SimError kind ("ConfigError", ...) when !ok. */
    std::string errorKind;
    /** Human-readable failure diagnostic when !ok. */
    std::string errorMessage;
    /** Fast-tier share the spec requested (< 0 = not recorded). */
    double fastShare = -1.0;
};

/** Everything a run manifest records. */
struct RunManifest
{
    /** "run", "sweep", or "bench". */
    std::string kind = "run";
    /** Driver that produced the artifact (binary or figure name). */
    std::string producer;
    SimConfig config;
    /** Driver-level numeric parameters (scale, fast_share, ...). */
    std::vector<std::pair<std::string, double>> params;
    /** Driver-level string parameters (workload, ratio, ...). */
    std::vector<std::pair<std::string, std::string>> textParams;
    /** One entry per run (a single-run manifest has exactly one). */
    std::vector<ManifestResult> results;
};

/** Write a schema-versioned run manifest as a JSON document. */
void writeRunManifest(std::ostream &os, const RunManifest &m);

/**
 * Serialize a DistSnapshot as its canonical JSON object:
 * {"count":..,"sum":..,"max":..,"p50":..,"p90":..,"p99":..,
 *  "bins":[[index,count],...]} (sparse, index-ascending).
 */
void writeDistSnapshot(JsonWriter &w, const DistSnapshot &d);

/** Serialize a SimConfig as the current JSON object. */
void writeSimConfig(JsonWriter &w, const SimConfig &cfg);

/**
 * Chrome trace_event collector. Events carry microsecond timestamps
 * (the caller converts simulated cycles); write() emits the JSON
 * object format that chrome://tracing and Perfetto load directly.
 * The sink is bounded: past capEvents() further events are dropped
 * with a single warning, so a pathological run cannot OOM the host.
 */
class TraceEventSink
{
  public:
    /** Named argument attached to an event. */
    using Args = std::vector<std::pair<std::string, double>>;

    /** Complete ('X') duration event. */
    void completeEvent(const std::string &name, const std::string &cat,
                       double ts_us, double dur_us, std::uint32_t tid,
                       Args args = {});

    /** Counter ('C') event: a named value track over time. */
    void counterEvent(const std::string &name, double ts_us, double value);

    /**
     * Async ('b'/'e') nestable event pair: slices with the same
     * (name, id) pair up across time, which is how per-page migration
     * slices render as one row per in-flight page. @p begin selects
     * 'b' vs 'e'.
     */
    void asyncEvent(bool begin, const std::string &name,
                    const std::string &cat, double ts_us, std::uint64_t id,
                    std::uint32_t tid, Args args = {});

    /** Label a tid for the trace viewer's track names. */
    void threadName(std::uint32_t tid, const std::string &name);

    std::size_t size() const { return events_.size(); }
    std::size_t dropped() const { return dropped_; }
    static constexpr std::size_t capEvents() { return 1u << 22; }

    /** Emit the trace document. */
    void write(std::ostream &os) const;

  private:
    struct Event
    {
        char ph = 'X';
        std::string name;
        std::string cat;
        double ts = 0.0;
        double dur = 0.0;
        double value = 0.0;
        std::uint64_t id = 0;
        std::uint32_t tid = 0;
        Args args;
    };

    bool admit();

    std::vector<Event> events_;
    std::vector<std::pair<std::uint32_t, std::string>> threadNames_;
    std::size_t dropped_ = 0;
};

/** Convert simulated cycles to trace microseconds at ClockHz. */
inline double
cyclesToUs(Cycles c)
{
    return static_cast<double>(c) * 1e6 / ClockHz;
}

} // namespace obs

} // namespace pact

#endif // PACT_OBS_EXPORT_HH
