/**
 * @file
 * Observability tests: stat registry semantics (hierarchical names,
 * duplicate/malformed panics, pull-based sampling), time-series delta
 * rows, artifact exporters, the RunStats registry view, and the
 * byte-identical-JSONL determinism guarantee under concurrency.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "harness/runner.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"
#include "workloads/masim.hh"

using namespace pact;

namespace
{

WorkloadBundle
tinyBundle()
{
    WorkloadBundle b;
    b.name = "tiny-chase";
    Rng rng(31);
    MasimParams p;
    MasimRegion r;
    r.name = "r";
    r.bytes = 8ull << 20;
    r.pattern = MasimPattern::PointerChase;
    p.regions = {r};
    p.ops = 200000;
    b.traces.push_back(buildMasim(b.as, 0, p, rng));
    return b;
}

/** Split a stream's contents into lines. */
std::vector<std::string>
lines(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string line;
    while (std::getline(is, line))
        out.push_back(line);
    return out;
}

} // namespace

TEST(StatRegistry, RegistersAllSourceKinds)
{
    obs::StatRegistry reg;
    std::uint64_t raw = 7;
    obs::Counter cell;
    double level = 2.5;
    reg.addCounter("a.raw", &raw, "raw cell");
    reg.addCounter("a.cell", cell);
    reg.addGauge("a.level", &level);
    reg.addFn("a.fn", obs::StatKind::Counter, [] { return 11.0; });

    EXPECT_EQ(reg.size(), 4u);
    EXPECT_TRUE(reg.has("a.raw"));
    EXPECT_FALSE(reg.has("a.missing"));
    EXPECT_DOUBLE_EQ(reg.value("a.raw"), 7.0);
    EXPECT_DOUBLE_EQ(reg.value("a.cell"), 0.0);
    EXPECT_DOUBLE_EQ(reg.value("a.level"), 2.5);
    EXPECT_DOUBLE_EQ(reg.value("a.fn"), 11.0);
    EXPECT_EQ(reg.descOf("a.raw"), "raw cell");
    EXPECT_EQ(reg.descOf("a.cell"), "");
    EXPECT_EQ(reg.kindOf("a.level"), obs::StatKind::Gauge);
    EXPECT_EQ(reg.kindOf("a.fn"), obs::StatKind::Counter);

    // The registry samples live sources, not registration-time copies.
    raw = 100;
    cell.inc(3);
    ++cell;
    level = -1.0;
    EXPECT_DOUBLE_EQ(reg.value("a.raw"), 100.0);
    EXPECT_DOUBLE_EQ(reg.value("a.cell"), 4.0);
    EXPECT_DOUBLE_EQ(reg.value("a.level"), -1.0);
}

TEST(StatRegistry, NamesAreSortedAndSamplesAlign)
{
    obs::StatRegistry reg;
    std::uint64_t a = 1, b = 2, c = 3;
    reg.addCounter("zeta.x", &a);
    reg.addCounter("alpha.y", &b);
    reg.addCounter("mid.z", &c);

    const auto names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "alpha.y");
    EXPECT_EQ(names[1], "mid.z");
    EXPECT_EQ(names[2], "zeta.x");

    const auto vals = reg.sampleAll();
    ASSERT_EQ(vals.size(), 3u);
    EXPECT_DOUBLE_EQ(vals[0], 2.0);
    EXPECT_DOUBLE_EQ(vals[1], 3.0);
    EXPECT_DOUBLE_EQ(vals[2], 1.0);

    std::vector<std::string> visited;
    reg.forEach([&](const std::string &n, obs::StatKind, double) {
        visited.push_back(n);
    });
    EXPECT_EQ(visited, names);
}

TEST(StatRegistry, HierarchicalNamesAccepted)
{
    obs::StatRegistry reg;
    std::uint64_t v = 0;
    reg.addCounter("engine.cache.misses", &v);
    reg.addCounter("pact.promotions.eager", &v);
    reg.addCounter("a", &v);
    reg.addCounter("A-b_c.d2", &v);
    EXPECT_EQ(reg.size(), 4u);
}

TEST(StatRegistryDeath, DuplicateNamePanics)
{
    obs::StatRegistry reg;
    std::uint64_t v = 0;
    reg.addCounter("dup.name", &v);
    EXPECT_DEATH(reg.addCounter("dup.name", &v), "dup.name");
}

TEST(StatRegistryDeath, MalformedNamesPanic)
{
    obs::StatRegistry reg;
    std::uint64_t v = 0;
    EXPECT_DEATH(reg.addCounter("", &v), "stat name");
    EXPECT_DEATH(reg.addCounter(".leading", &v), "stat name");
    EXPECT_DEATH(reg.addCounter("trailing.", &v), "stat name");
    EXPECT_DEATH(reg.addCounter("two..dots", &v), "stat name");
    EXPECT_DEATH(reg.addCounter("has space", &v), "stat name");
}

TEST(StatRegistryDeath, UnknownNamePanicsOnRead)
{
    obs::StatRegistry reg;
    EXPECT_DEATH(reg.value("no.such"), "no.such");
}

TEST(Distribution, BinIndexHandlesEdgeCases)
{
    using D = obs::Distribution;
    // Bin 0 collects everything that is not a positive normal value
    // in range: zero, negatives, NaN, and underflow below 2^kMinExp.
    EXPECT_EQ(D::binIndex(0.0), 0u);
    EXPECT_EQ(D::binIndex(-1.0), 0u);
    EXPECT_EQ(D::binIndex(std::nan("")), 0u);
    EXPECT_EQ(D::binIndex(std::ldexp(1.0, D::kMinExp - 1)), 0u);
    EXPECT_EQ(D::binIndex(5e-324), 0u); // smallest subnormal
    // The last bin collects overflow past 2^(kMaxExp+1), incl. +inf.
    EXPECT_EQ(D::binIndex(std::ldexp(1.0, D::kMaxExp + 1)),
              D::kNumBins - 1);
    EXPECT_EQ(D::binIndex(std::numeric_limits<double>::infinity()),
              D::kNumBins - 1);
    // In-range extremes stay in range.
    EXPECT_EQ(D::binIndex(std::ldexp(1.0, D::kMinExp)), 1u);
    EXPECT_LT(D::binIndex(std::ldexp(1.75, D::kMaxExp)), D::kNumBins);
}

TEST(Distribution, BinIndexPlacesSubBins)
{
    using D = obs::Distribution;
    // One octave holds 2^kSubBits linear sub-bins: [1,2) splits at
    // 1.25/1.5/1.75, and 2.0 starts the next octave.
    const std::size_t one = D::binIndex(1.0);
    EXPECT_EQ(D::binIndex(1.1), one);
    EXPECT_EQ(D::binIndex(1.25), one + 1);
    EXPECT_EQ(D::binIndex(1.5), one + 2);
    EXPECT_EQ(D::binIndex(1.75), one + 3);
    EXPECT_EQ(D::binIndex(2.0), one + 4);
    EXPECT_EQ(D::binIndex(4.0), one + 8);
}

TEST(Distribution, BinLowerEdgeRoundTrips)
{
    using D = obs::Distribution;
    EXPECT_DOUBLE_EQ(D::binLowerEdge(0), 0.0);
    EXPECT_DOUBLE_EQ(D::binLowerEdge(D::binIndex(1.0)), 1.0);
    EXPECT_DOUBLE_EQ(D::binLowerEdge(D::binIndex(1.5)), 1.5);
    // Every bin's lower edge maps back to that bin: the edges are the
    // exact representative values the quantile walk reports.
    for (std::size_t b = 1; b < D::kNumBins; b++)
        EXPECT_EQ(D::binIndex(D::binLowerEdge(b)), b) << "bin " << b;
}

TEST(Distribution, RecordsSummaryAndQuantiles)
{
    obs::Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.quantile(0.5), 0.0); // empty
    EXPECT_DOUBLE_EQ(d.max(), 0.0);

    for (int i = 0; i < 50; i++)
        d.record(1.0);
    for (int i = 0; i < 50; i++)
        d.record(4.0);
    EXPECT_EQ(d.count(), 100u);
    EXPECT_DOUBLE_EQ(d.sum(), 250.0);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
    EXPECT_DOUBLE_EQ(d.max(), 4.0); // exact, not an edge
    EXPECT_EQ(d.binCount(obs::Distribution::binIndex(1.0)), 50u);
    EXPECT_EQ(d.binCount(obs::Distribution::binIndex(4.0)), 50u);
    // The 50th sample is the last 1.0; the 51st is the first 4.0.
    EXPECT_DOUBLE_EQ(d.quantile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.51), 4.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.99), 4.0);
    // quantileOf walks an external bin array identically.
    EXPECT_DOUBLE_EQ(
        obs::Distribution::quantileOf(d.bins(), d.count(), 0.5), 1.0);
    EXPECT_DOUBLE_EQ(
        obs::Distribution::quantileOf(d.bins(), d.count(), 0.99), 4.0);

    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.sum(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
    EXPECT_EQ(d.binCount(obs::Distribution::binIndex(1.0)), 0u);
}

TEST(Distribution, SnapshotIsSparseAndSummarized)
{
    obs::Distribution d;
    for (int i = 0; i < 9; i++)
        d.record(2.0);
    d.record(16.0);

    const obs::DistSnapshot s = obs::DistSnapshot::of(d);
    EXPECT_EQ(s.count, 10u);
    EXPECT_DOUBLE_EQ(s.sum, 34.0);
    EXPECT_DOUBLE_EQ(s.max, 16.0);
    EXPECT_DOUBLE_EQ(s.p50, 2.0);
    EXPECT_DOUBLE_EQ(s.p90, 2.0);
    EXPECT_DOUBLE_EQ(s.p99, 16.0);
    // Only the two occupied bins travel, index-ascending.
    ASSERT_EQ(s.bins.size(), 2u);
    EXPECT_EQ(s.bins[0].first, obs::Distribution::binIndex(2.0));
    EXPECT_EQ(s.bins[0].second, 9u);
    EXPECT_EQ(s.bins[1].first, obs::Distribution::binIndex(16.0));
    EXPECT_EQ(s.bins[1].second, 1u);
}

TEST(StatRegistry, DistributionsLiveInTheirOwnList)
{
    obs::StatRegistry reg;
    std::uint64_t raw = 0;
    reg.addCounter("scalar.x", &raw);
    obs::Distribution lat, pac;
    reg.addDistribution("zeta.latency", lat, "migration latency");
    {
        obs::StatPrefix guard(reg, "tenant0.");
        reg.addDistribution("pac_score", pac);
    }

    // Scalar layout is untouched — that is what keeps the golden
    // corpus and pinned artifacts byte-identical.
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.names(), std::vector<std::string>{"scalar.x"});
    EXPECT_FALSE(reg.has("zeta.latency"));

    EXPECT_EQ(reg.distSize(), 2u);
    EXPECT_TRUE(reg.hasDist("zeta.latency"));
    EXPECT_TRUE(reg.hasDist("tenant0.pac_score"));
    EXPECT_FALSE(reg.hasDist("pac_score")); // prefix applied
    const std::vector<std::string> want = {"tenant0.pac_score",
                                           "zeta.latency"};
    EXPECT_EQ(reg.distNames(), want);
    EXPECT_EQ(reg.distDescOf("zeta.latency"), "migration latency");

    // The registry reads the live cell, not a copy.
    lat.record(3.0);
    EXPECT_EQ(reg.distOf("zeta.latency").count(), 1u);

    std::vector<std::string> visited;
    reg.forEachDist(
        [&](const std::string &n, const obs::Distribution &dist) {
            visited.push_back(n);
            if (n == "zeta.latency") {
                EXPECT_EQ(dist.count(), 1u);
            }
        });
    EXPECT_EQ(visited, want);
}

TEST(StatRegistryDeath, DuplicateDistributionPanics)
{
    obs::StatRegistry reg;
    obs::Distribution d;
    reg.addDistribution("dup.dist", d);
    EXPECT_DEATH(reg.addDistribution("dup.dist", d), "dup.dist");
    EXPECT_DEATH(reg.distOf("no.such.dist"), "no.such.dist");
}

TEST(JsonWriter, NumbersAreCanonical)
{
    EXPECT_EQ(obs::jsonNumber(0.0), "0");
    EXPECT_EQ(obs::jsonNumber(5.0), "5");
    EXPECT_EQ(obs::jsonNumber(-3.0), "-3");
    EXPECT_EQ(obs::jsonNumber(1e15), "1000000000000000");
    // Non-integral and non-finite forms.
    EXPECT_EQ(obs::jsonNumber(0.5).substr(0, 3), "0.5");
    EXPECT_EQ(obs::jsonNumber(std::nan("")), "null");
}

TEST(JsonWriter, EscapesStrings)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(JsonWriter, WritesPlainAndEscapedStringsAndReusesAcrossLines)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    const std::string owned = "tab\there";
    w.beginObject();
    w.kv("plain", "text");
    w.kv(std::string_view("q\"key"), owned);
    w.kv("ctl", std::string_view("\x01", 1));
    w.endObject();
    os << '\n';
    ASSERT_EQ(w.depth(), 0u);
    // A complete document leaves the writer ready for the next line.
    w.beginObject().kv("n", std::uint64_t{7}).endObject();
    EXPECT_EQ(os.str(), "{\"plain\":\"text\",\"q\\\"key\":\"tab\\there\","
                        "\"ctl\":\"\\u0001\"}\n{\"n\":7}");
}

TEST(TimeSeries, HeaderThenDeltaRows)
{
    obs::StatRegistry reg;
    std::uint64_t count = 0;
    double level = 1.0;
    reg.addCounter("t.count", &count);
    reg.addGauge("t.level", &level);

    std::ostringstream os;
    obs::TimeSeriesRecorder rec(os, 100);
    count = 5;
    rec.sample(reg, 0, 100);
    count = 12; // +7
    level = 9.0;
    rec.sample(reg, 100, 200);
    EXPECT_EQ(rec.rows(), 2u);

    const auto rows = lines(os.str());
    ASSERT_EQ(rows.size(), 3u);
    // Header: schema + field layout.
    EXPECT_NE(rows[0].find(obs::TimeSeriesSchema), std::string::npos);
    EXPECT_NE(rows[0].find("t.count"), std::string::npos);
    // First row: counters measured from zero, gauges as levels.
    EXPECT_NE(rows[1].find("\"t.count\":5"), std::string::npos);
    EXPECT_NE(rows[1].find("\"t.level\":1"), std::string::npos);
    // Second row: the counter reports the per-window delta.
    EXPECT_NE(rows[2].find("\"t.count\":7"), std::string::npos);
    EXPECT_NE(rows[2].find("\"t.level\":9"), std::string::npos);
    EXPECT_NE(rows[2].find("\"window\":1"), std::string::npos);
}

TEST(TimeSeries, RecordedRunMatchesPlainRun)
{
    const WorkloadBundle b = tinyBundle();

    Runner plain;
    const RunResult r0 = plain.run(b, "PACT", 0.5);

    Runner recorded;
    std::ostringstream os;
    obs::TimeSeriesRecorder rec(os, recorded.config().daemonPeriod);
    RunObservers observers;
    observers.timeseries = &rec;
    const RunResult r1 = recorded.run(b, "PACT", 0.5, &observers);

    // Driving the engine in windows must not change the simulation.
    EXPECT_EQ(r0.runtime, r1.runtime);
    EXPECT_EQ(r0.stats.cacheMisses, r1.stats.cacheMisses);
    EXPECT_EQ(r0.stats.registry, r1.stats.registry);
    EXPECT_GT(rec.rows(), 1u);
}

TEST(TimeSeries, ByteIdenticalAcrossConcurrency)
{
    const WorkloadBundle b = tinyBundle();

    // Serial reference.
    auto record = [&b]() {
        Runner r;
        std::ostringstream os;
        obs::TimeSeriesRecorder rec(os, r.config().daemonPeriod);
        RunObservers observers;
        observers.timeseries = &rec;
        r.run(b, "PACT", 0.5, &observers);
        return os.str();
    };
    const std::string reference = record();
    EXPECT_FALSE(reference.empty());

    // Four concurrent recordings of the same run: every artifact must
    // match the serial reference byte for byte (the PACT_JOBS
    // guarantee — parallelism is across runs, never within one).
    std::vector<std::string> outs(4);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < outs.size(); i++)
        threads.emplace_back([&outs, &record, i] { outs[i] = record(); });
    for (auto &t : threads)
        t.join();
    for (const std::string &s : outs)
        EXPECT_EQ(s, reference);
}

TEST(Engine, RunStatsIsARegistryView)
{
    const WorkloadBundle b = tinyBundle();
    Runner runner;
    const RunResult r = runner.run(b, "PACT", 0.5);

    // The dump carries the hierarchy and feeds the scalar view fields.
    EXPECT_GT(r.stats.registry.size(), 20u);
    EXPECT_EQ(static_cast<std::uint64_t>(r.stats.stat("engine.cache.misses")),
              r.stats.cacheMisses);
    EXPECT_EQ(static_cast<std::uint64_t>(r.stats.stat("engine.pebs.events")),
              r.stats.pebsEvents);
    EXPECT_EQ(static_cast<std::uint64_t>(r.stats.stat("engine.daemon.ticks")),
              r.stats.daemonTicks);
    EXPECT_EQ(static_cast<std::uint64_t>(
                  r.stats.stat("engine.migration.promoted_pages")),
              r.stats.migration.promotedPages);
    // PACT's policy stats ride in the same dump.
    EXPECT_GT(r.stats.stat("pact.ticks"), 0.0);
    EXPECT_GT(r.stats.stat("pact.binning.rebins"), 0.0);
    // Unknown names read as 0 (the view is tolerant; the registry is
    // strict).
    EXPECT_DOUBLE_EQ(r.stats.stat("no.such.stat"), 0.0);
}

TEST(Export, ManifestCarriesConfigParamsAndStats)
{
    const WorkloadBundle b = tinyBundle();
    Runner runner;
    const RunResult r = runner.run(b, "PACT", 0.5);

    obs::RunManifest m;
    m.producer = "test_metrics";
    m.config = runner.config();
    m.params = {{"fast_share", 0.5}};
    m.textParams = {{"workload", b.name}};
    m.results.push_back(manifestResult(r));

    std::ostringstream os;
    obs::writeRunManifest(os, m);
    const std::string doc = os.str();
    EXPECT_EQ(doc.front(), '{');
    EXPECT_NE(doc.find(obs::ManifestSchema), std::string::npos);
    EXPECT_NE(doc.find("\"producer\":\"test_metrics\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"daemon_period_cycles\""), std::string::npos);
    EXPECT_NE(doc.find("\"workload\":\"tiny-chase\""), std::string::npos);
    EXPECT_NE(doc.find("engine.cache.misses"), std::string::npos);
    EXPECT_NE(doc.find("pact.pac.mass"), std::string::npos);
    // Deterministic: serializing the same manifest twice is identical.
    std::ostringstream os2;
    obs::writeRunManifest(os2, m);
    EXPECT_EQ(doc, os2.str());
}

TEST(Export, TraceSinkEmitsLoadableDocument)
{
    obs::TraceEventSink sink;
    sink.threadName(0, "policy daemon");
    sink.completeEvent("daemon.tick", "daemon", 10.0, 2.0, 0,
                       {{"tick", 1.0}});
    sink.counterEvent("fast_used_pages", 12.0, 42.0);
    EXPECT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink.dropped(), 0u);

    std::ostringstream os;
    sink.write(os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(doc.find("daemon.tick"), std::string::npos);
    EXPECT_NE(doc.find("policy daemon"), std::string::npos);
}

TEST(Export, TraceSinkCollectsEngineSpans)
{
    const WorkloadBundle b = tinyBundle();
    Runner runner;
    obs::TraceEventSink sink;
    RunObservers observers;
    observers.trace = &sink;
    const RunResult r = runner.run(b, "PACT", 0.5, &observers);

    EXPECT_GT(sink.size(), 0u);
    std::ostringstream os;
    sink.write(os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("daemon.tick"), std::string::npos);
    // A PACT run on a chase workload migrates at least once.
    if (r.stats.promotions() > 0) {
        EXPECT_NE(doc.find("promote.copy"), std::string::npos);
    }
}
