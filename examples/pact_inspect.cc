/**
 * @file
 * pact-inspect: offline reader for the run artifacts. Where
 * pactsim_cli *produces* manifests, time series, and event journals,
 * this tool answers questions about artifacts that already exist —
 * without re-running anything:
 *
 *   pact_inspect summary a.manifest.json       one-screen overview
 *   pact_inspect dist a.manifest.json [filt]   percentile tables
 *   pact_inspect diff a.json b.json [--all]    stat-by-stat diff with
 *                                              per-tenant breakdowns
 *   pact_inspect explain events.jsonl <page>   a page's provenance
 *
 * "explain" reconstructs the full decision chain for one page from a
 * pact.events/2 journal: every PEBS sample, the bin the policy put it
 * in (with the PAC score and MLP that drove the choice), the enqueue,
 * and the migration outcome as its transaction lifecycle (txn_prepare,
 * txn_abort with its reason and attempt, txn_retry, and the eventual
 * txn_commit with the charged latency).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "obs/export.hh"
#include "obs/json_read.hh"
#include "obs/metrics.hh"

using namespace pact;
using obs::Distribution;
using obs::JsonValue;

namespace
{

void
usage()
{
    std::printf(
        "pact-inspect: read run artifacts (no simulation)\n"
        "  pact_inspect summary <manifest.json>\n"
        "      headline table per result, tenants, distributions\n"
        "  pact_inspect dist <manifest.json> [<name-substring>]\n"
        "      full percentile tables for distribution stats\n"
        "  pact_inspect diff <a.json> <b.json> [--all]\n"
        "      stat-by-stat diff (machine + per-tenant sections);\n"
        "      only changed stats unless --all\n"
        "  pact_inspect explain <events.jsonl> <page>\n"
        "      reconstruct one page's decision provenance chain,\n"
        "      including its migration-transaction lifecycle\n"
        "      (abort reason, retry attempts, commit)\n");
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    throw_config_if(!is, "cannot open ", path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

JsonValue
loadManifest(const std::string &path)
{
    JsonValue doc = obs::parseJson(readFile(path));
    const std::string &schema = doc.at("schema").asString();
    throw_config_if(schema.rfind("pact.manifest/", 0) != 0, path,
                    ": not a run manifest (schema '", schema, "')");
    return doc;
}

std::string
fmt(double v, const char *spec = "%.6g")
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), spec, v);
    return buf;
}

/** Rebuild the dense bin array from a manifest's sparse pairs. */
std::vector<std::uint64_t>
denseBins(const JsonValue &dist)
{
    std::vector<std::uint64_t> bins(Distribution::kNumBins, 0);
    for (const JsonValue &pair : dist.at("bins").items()) {
        const std::uint64_t idx = pair.at(0).asU64();
        throw_config_if(idx >= Distribution::kNumBins,
                        "distribution bin index ", idx, " out of range");
        bins[idx] = pair.at(1).asU64();
    }
    return bins;
}

/** "tenant3." prefix of a stat name, or "" for machine-level stats. */
std::string
tenantPrefix(const std::string &name)
{
    if (name.rfind("tenant", 0) != 0)
        return "";
    std::size_t i = 6;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9')
        i++;
    if (i == 6 || i >= name.size() || name[i] != '.')
        return "";
    return name.substr(0, i + 1);
}

std::string
resultLabel(const JsonValue &r)
{
    return r.at("workload").asString() + "/" + r.at("policy").asString();
}

int
cmdSummary(const std::string &path)
{
    const JsonValue doc = loadManifest(path);
    std::printf("%s: %s kind=%s producer=%s\n", path.c_str(),
                doc.at("schema").asString().c_str(),
                doc.at("kind").asString().c_str(),
                doc.at("producer").asString().c_str());

    Table t({"result", "ok", "slowdown", "runtime Mcyc", "stats",
             "dists"});
    for (const JsonValue &r : doc.at("results").items()) {
        const bool ok = r.at("ok").asBool();
        auto row = [&](const std::string &slow, const std::string &rt,
                       const std::string &ns, const std::string &nd) {
            t.row()
                .cell(resultLabel(r))
                .cell(ok ? "yes" : "NO")
                .cell(slow)
                .cell(rt)
                .cell(ns)
                .cell(nd);
        };
        if (!ok) {
            row("FAILED: " + r.at("error").at("kind").asString(), "-",
                "-", "-");
            continue;
        }
        row(fmt(r.at("slowdown_pct").asNumber(), "%.1f%%"),
            fmt(r.at("runtime_cycles").asNumber() / 1e6, "%.1f"),
            std::to_string(r.at("stats").size()),
            std::to_string(r.at("distributions").size()));
    }
    t.print();

    for (const JsonValue &r : doc.at("results").items()) {
        if (!r.at("ok").asBool())
            continue;
        if (const JsonValue *tenants = r.find("tenants");
            tenants && tenants->size() > 1) {
            std::printf("\n%s tenants:\n", resultLabel(r).c_str());
            Table tt({"tenant", "slowdown", "retired ops",
                      "daemon ticks", "PEBS events"});
            for (const JsonValue &tn : tenants->items()) {
                tt.row()
                    .cell(tn.at("name").asString())
                    .cell(fmt(tn.at("slowdown_pct").asNumber(), "%.1f%%"))
                    .cellCount(tn.at("retired_ops").asU64())
                    .cellCount(tn.at("daemon_ticks").asU64())
                    .cellCount(tn.at("pebs_events").asU64());
            }
            tt.print();
        }
        const JsonValue &dists = r.at("distributions");
        if (dists.size() == 0)
            continue;
        std::printf("\n%s distributions:\n", resultLabel(r).c_str());
        Table dt({"distribution", "count", "mean", "p50", "p90", "p99",
                  "max"});
        for (const auto &[name, d] : dists.members()) {
            const double count = d.at("count").asNumber();
            dt.row()
                .cell(name)
                .cellCount(static_cast<std::uint64_t>(count))
                .cell(fmt(count > 0 ? d.at("sum").asNumber() / count
                                    : 0.0))
                .cell(fmt(d.at("p50").asNumber()))
                .cell(fmt(d.at("p90").asNumber()))
                .cell(fmt(d.at("p99").asNumber()))
                .cell(fmt(d.at("max").asNumber()));
        }
        dt.print();
    }
    return 0;
}

int
cmdDist(const std::string &path, const std::string &filter)
{
    const JsonValue doc = loadManifest(path);
    static constexpr double kQs[] = {0.10, 0.25, 0.50, 0.75,
                                     0.90, 0.99, 0.999};
    bool any = false;
    for (const JsonValue &r : doc.at("results").items()) {
        if (!r.at("ok").asBool())
            continue;
        std::vector<std::pair<std::string, const JsonValue *>> picked;
        for (const auto &[name, d] : r.at("distributions").members())
            if (filter.empty() || name.find(filter) != std::string::npos)
                picked.emplace_back(name, &d);
        if (picked.empty())
            continue;
        any = true;
        std::printf("%s:\n", resultLabel(r).c_str());
        Table t({"distribution", "count", "p10", "p25", "p50", "p75",
                 "p90", "p99", "p99.9", "max"});
        for (const auto &[name, d] : picked) {
            const std::vector<std::uint64_t> bins = denseBins(*d);
            const std::uint64_t count = d->at("count").asU64();
            auto &row =
                t.row().cell(name).cellCount(count);
            for (double q : kQs)
                row.cell(
                    fmt(Distribution::quantileOf(bins.data(), count, q)));
            row.cell(fmt(d->at("max").asNumber()));
        }
        t.print();
        std::printf("\n");
    }
    if (!any)
        std::printf("no matching distributions\n");
    return any ? 0 : 1;
}

/** One result's scalar stats as an ordered map. */
std::map<std::string, double>
statMap(const JsonValue &r)
{
    std::map<std::string, double> m;
    for (const auto &[k, v] : r.at("stats").members())
        m.emplace(k, v.asNumber());
    return m;
}

int
cmdDiff(const std::string &pathA, const std::string &pathB, bool all)
{
    const JsonValue a = loadManifest(pathA);
    const JsonValue b = loadManifest(pathB);
    const auto &resA = a.at("results").items();
    const auto &resB = b.at("results").items();
    if (resA.size() != resB.size())
        std::printf("note: %zu results vs %zu; diffing the common "
                    "prefix\n",
                    resA.size(), resB.size());

    int changed = 0;
    const std::size_t n = std::min(resA.size(), resB.size());
    for (std::size_t i = 0; i < n; i++) {
        const JsonValue &ra = resA[i];
        const JsonValue &rb = resB[i];
        std::printf("== result[%zu] %s vs %s ==\n", i,
                    resultLabel(ra).c_str(), resultLabel(rb).c_str());
        if (!ra.at("ok").asBool() || !rb.at("ok").asBool()) {
            std::printf("  %s vs %s — no stats to diff\n",
                        ra.at("ok").asBool() ? "ok" : "FAILED",
                        rb.at("ok").asBool() ? "ok" : "FAILED");
            continue;
        }

        const auto sa = statMap(ra);
        const auto sb = statMap(rb);
        // Per-tenant breakdown: stats sectioned by their tenant<i>.
        // prefix ("" = machine-level), so a colocation diff reads one
        // tenant at a time instead of interleaving lanes.
        std::set<std::string> sections;
        for (const auto &[k, _] : sa)
            sections.insert(tenantPrefix(k));
        for (const auto &[k, _] : sb)
            sections.insert(tenantPrefix(k));

        for (const std::string &sec : sections) {
            Table t({"stat", "a", "b", "delta", "pct"});
            std::set<std::string> names;
            for (const auto &[k, _] : sa)
                if (tenantPrefix(k) == sec)
                    names.insert(k);
            for (const auto &[k, _] : sb)
                if (tenantPrefix(k) == sec)
                    names.insert(k);
            for (const std::string &name : names) {
                const auto ia = sa.find(name);
                const auto ib = sb.find(name);
                if (ia == sa.end() || ib == sb.end()) {
                    changed++;
                    t.row()
                        .cell(name)
                        .cell(ia != sa.end() ? fmt(ia->second)
                                             : "(absent)")
                        .cell(ib != sb.end() ? fmt(ib->second)
                                             : "(absent)")
                        .cell("-")
                        .cell("-");
                    continue;
                }
                const double va = ia->second, vb = ib->second;
                const double delta = vb - va;
                if (delta == 0.0 && !all)
                    continue;
                if (delta != 0.0)
                    changed++;
                t.row()
                    .cell(name)
                    .cell(fmt(va))
                    .cell(fmt(vb))
                    .cell(fmt(delta, "%+.6g"))
                    .cell(va != 0.0 ? fmt(100.0 * delta / va, "%+.2f%%")
                                    : "-");
            }
            if (t.rows() == 0)
                continue;
            std::printf("%s\n", sec.empty()
                                    ? "machine stats:"
                                    : (sec + "* stats:").c_str());
            t.print();
        }

        // Distribution deltas: shifted percentiles matter even when
        // counts agree.
        Table dt({"distribution", "count a/b", "p50 a/b", "p99 a/b",
                  "max a/b"});
        std::set<std::string> dnames;
        for (const auto &[k, _] : ra.at("distributions").members())
            dnames.insert(k);
        for (const auto &[k, _] : rb.at("distributions").members())
            dnames.insert(k);
        for (const std::string &name : dnames) {
            const JsonValue *da = ra.at("distributions").find(name);
            const JsonValue *db = rb.at("distributions").find(name);
            auto cellPair = [&](const char *key, const char *spec) {
                return (da ? fmt(da->at(key).asNumber(), spec)
                           : std::string("(absent)")) +
                       " / " +
                       (db ? fmt(db->at(key).asNumber(), spec)
                           : std::string("(absent)"));
            };
            const bool differs =
                !da || !db ||
                da->at("count").asU64() != db->at("count").asU64() ||
                da->at("p50").asNumber() != db->at("p50").asNumber() ||
                da->at("p99").asNumber() != db->at("p99").asNumber() ||
                da->at("max").asNumber() != db->at("max").asNumber();
            if (!differs && !all)
                continue;
            if (differs)
                changed++;
            dt.row()
                .cell(name)
                .cell(cellPair("count", "%.0f"))
                .cell(cellPair("p50", "%.6g"))
                .cell(cellPair("p99", "%.6g"))
                .cell(cellPair("max", "%.6g"));
        }
        if (dt.rows() > 0) {
            std::printf("distributions:\n");
            dt.print();
        }
        std::printf("\n");
    }
    std::printf("%d differing stat(s)\n", changed);
    return 0;
}

int
cmdExplain(const std::string &path, std::uint64_t page)
{
    std::ifstream is(path, std::ios::binary);
    throw_config_if(!is, "cannot open ", path);
    std::string line;
    throw_config_if(!std::getline(is, line), path, ": empty journal");
    const JsonValue header = obs::parseJson(line);
    const std::string &schema = header.at("schema").asString();
    throw_config_if(schema != obs::EventsSchema, path,
                    ": not an events journal (schema '", schema, "')");
    const std::uint64_t dropped = header.at("dropped").asU64();
    if (dropped > 0)
        std::printf("note: ring dropped %llu oldest events; the chain "
                    "below may start mid-flight\n",
                    static_cast<unsigned long long>(dropped));

    Table t({"seq", "cycle", "tenant", "window", "event", "detail"});
    std::uint64_t matched = 0;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        const JsonValue e = obs::parseJson(line);
        if (e.at("page").asU64() != page)
            continue;
        matched++;
        const std::string &kind = e.at("kind").asString();
        std::string detail;
        auto add = [&](const std::string &s) {
            if (!detail.empty())
                detail += " ";
            detail += s;
        };
        if (const JsonValue *v = e.find("pac"))
            add("pac=" + fmt(v->asNumber(), "%.4g"));
        if (const JsonValue *v = e.find("bin"))
            add("bin=" + fmt(v->asNumber(), "%.0f"));
        if (const JsonValue *v = e.find("mlp"))
            add("mlp=" + fmt(v->asNumber(), "%.3g"));
        if (const JsonValue *s = e.find("src_tier")) {
            const JsonValue *d = e.find("dst_tier");
            add("tier " + fmt(s->asNumber(), "%.0f") +
                (d ? ("->" + fmt(d->asNumber(), "%.0f")) : ""));
        }
        if (const JsonValue *v = e.find("pages"))
            add("pages=" + fmt(v->asNumber(), "%.0f"));
        if (const JsonValue *v = e.find("reason"))
            add("reason=" + v->asString());
        if (const JsonValue *v = e.find("attempt"))
            add("attempt=" + fmt(v->asNumber(), "%.0f"));
        if (const JsonValue *v = e.find("latency"))
            add("latency=" + fmt(v->asNumber(), "%.0f"));
        t.row()
            .cell(e.at("seq").asU64())
            .cell(e.at("now").asU64())
            .cell(e.at("tenant").asU64())
            .cell(e.at("window").asU64())
            .cell(kind)
            .cell(detail);
    }
    if (matched == 0) {
        std::printf("page %llu: no events in %s\n",
                    static_cast<unsigned long long>(page), path.c_str());
        return 1;
    }
    std::printf("page %llu: %llu event(s)\n",
                static_cast<unsigned long long>(page),
                static_cast<unsigned long long>(matched));
    t.print();
    return 0;
}

std::uint64_t
parsePage(const char *s)
{
    char *end = nullptr;
    const std::uint64_t page = std::strtoull(s, &end, 0);
    fatal_if(!end || *end != '\0', "bad page id '", s, "'");
    return page;
}

int
inspectMain(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h") {
        usage();
        return 0;
    }
    if (cmd == "summary") {
        fatal_if(argc != 3, "summary takes one manifest path");
        return cmdSummary(argv[2]);
    }
    if (cmd == "dist") {
        fatal_if(argc != 3 && argc != 4,
                 "dist takes a manifest path and an optional filter");
        return cmdDist(argv[2], argc == 4 ? argv[3] : "");
    }
    if (cmd == "diff") {
        fatal_if(argc != 4 && !(argc == 5 &&
                                std::strcmp(argv[4], "--all") == 0),
                 "diff takes two manifest paths and optional --all");
        return cmdDiff(argv[2], argv[3], argc == 5);
    }
    if (cmd == "explain") {
        fatal_if(argc != 4, "explain takes an events journal and a page");
        return cmdExplain(argv[2], parsePage(argv[3]));
    }
    usage();
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return inspectMain(argc, argv);
    } catch (const SimError &e) {
        std::fprintf(stderr, "error (%s): %s\n", e.kind().c_str(),
                     e.what());
        return 1;
    }
}
