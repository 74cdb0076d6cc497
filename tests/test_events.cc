/**
 * @file
 * Decision provenance journal tests: ring semantics (seq stamping,
 * overwrite-oldest, dropped accounting), the pact.events/2 JSONL
 * shape, trace merging, opt-in wiring through the engine, and the
 * determinism + chain-completeness guarantees the offline explain
 * tooling depends on.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "harness/runner.hh"
#include "obs/events.hh"
#include "obs/export.hh"
#include "obs/json_read.hh"
#include "workloads/registry.hh"

using namespace pact;
using obs::EventJournal;
using obs::EventKind;
using obs::PageEvent;

namespace
{

PageEvent
mkEvent(EventKind kind, std::uint64_t page, std::uint64_t now = 0)
{
    PageEvent e;
    e.kind = kind;
    e.page = page;
    e.now = now;
    return e;
}

} // namespace

TEST(EventJournal, StampsSequenceNumbers)
{
    EventJournal j(8);
    for (int i = 0; i < 3; i++)
        j.emit(mkEvent(EventKind::PebsSample, 100 + i));
    const auto events = j.events();
    ASSERT_EQ(events.size(), 3u);
    for (std::uint64_t i = 0; i < 3; i++) {
        EXPECT_EQ(events[i].seq, i);
        EXPECT_EQ(events[i].page, 100 + i);
    }
    EXPECT_EQ(j.emitted(), 3u);
    EXPECT_EQ(j.dropped(), 0u);
}

TEST(EventJournal, RingOverwritesOldest)
{
    EventJournal j(4);
    for (std::uint64_t i = 0; i < 6; i++)
        j.emit(mkEvent(EventKind::BinAssign, i));
    EXPECT_EQ(j.emitted(), 6u);
    EXPECT_EQ(j.dropped(), 2u);
    const auto events = j.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first: pages 2..5 survive, seq matches emission order.
    for (std::uint64_t i = 0; i < 4; i++) {
        EXPECT_EQ(events[i].page, i + 2);
        EXPECT_EQ(events[i].seq, i + 2);
    }
}

TEST(EventJournal, JsonlHeaderAndPayloadKeys)
{
    EventJournal j(16);
    PageEvent s = mkEvent(EventKind::PebsSample, 7, 1000);
    s.srcTier = 1;
    s.latency = 300;
    j.emit(s);
    PageEvent b = mkEvent(EventKind::BinAssign, 7, 2000);
    b.pac = 3.5;
    b.bin = 2;
    b.mlp = 1.25;
    j.emit(b);
    PageEvent a = mkEvent(EventKind::TxnAbort, 7, 3000);
    a.srcTier = 1;
    a.dstTier = 0;
    a.pages = 1;
    a.latency = 900;
    a.attempt = 1;
    a.reason = obs::TxnAbortReason::MidCopy;
    j.emit(a);
    PageEvent m = mkEvent(EventKind::TxnCommit, 7, 3000);
    m.srcTier = 1;
    m.dstTier = 0;
    m.pages = 1;
    m.latency = 4200;
    m.attempt = 1;
    j.emit(m);

    std::ostringstream os;
    j.writeJsonl(os);
    const std::string out = os.str();

    EXPECT_NE(out.find("\"schema\":\"pact.events/2\""),
              std::string::npos);
    EXPECT_NE(out.find("\"capacity\":16"), std::string::npos);
    EXPECT_NE(out.find("\"emitted\":4"), std::string::npos);
    EXPECT_NE(out.find("\"dropped\":0"), std::string::npos);
    // Per-kind payload keys: samples carry tier+latency, bin
    // assignments carry the policy inputs, transaction ends the
    // moved region and its charge (wasted for an abort).
    EXPECT_NE(out.find("\"kind\":\"pebs_sample\",\"tenant\":0,"
                       "\"page\":7,\"window\":0,\"src_tier\":1,"
                       "\"latency\":300"),
              std::string::npos);
    EXPECT_NE(out.find("\"kind\":\"bin_assign\""), std::string::npos);
    EXPECT_NE(out.find("\"pac\":3.5,\"bin\":2,\"mlp\":1.25"),
              std::string::npos);
    EXPECT_NE(out.find("\"kind\":\"txn_abort\",\"tenant\":0,"
                       "\"page\":7,\"window\":0,\"reason\":\"mid_copy\","
                       "\"attempt\":1,\"src_tier\":1,\"dst_tier\":0,"
                       "\"pages\":1,\"latency\":900"),
              std::string::npos);
    EXPECT_NE(out.find("\"kind\":\"txn_commit\",\"tenant\":0,"
                       "\"page\":7,\"window\":0,\"attempt\":1,"
                       "\"src_tier\":1,\"dst_tier\":0,\"pages\":1,"
                       "\"latency\":4200"),
              std::string::npos);
    // Header + 4 events = 5 lines.
    std::size_t lines = 0;
    for (char c : out)
        lines += c == '\n';
    EXPECT_EQ(lines, 5u);
}

TEST(EventJournal, MergeIntoTraceClosesSlices)
{
    EventJournal j(16);
    PageEvent start = mkEvent(EventKind::TxnPrepare, 42, 1000);
    start.srcTier = 1;
    start.dstTier = 0;
    start.pages = 1;
    start.tenant = 1;
    j.emit(start);
    PageEvent done = mkEvent(EventKind::TxnCommit, 42, 1000);
    done.srcTier = 1;
    done.dstTier = 0;
    done.pages = 1;
    done.latency = 2000;
    done.tenant = 1;
    j.emit(done);

    obs::TraceEventSink sink;
    j.mergeIntoTrace(sink,
                     [](std::uint32_t tenant) { return 2 * tenant + 1; });
    EXPECT_EQ(sink.size(), 2u);

    std::ostringstream os;
    sink.write(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"page promote\""), std::string::npos);
    EXPECT_NE(out.find("\"id\":42"), std::string::npos);
    EXPECT_NE(out.find("\"tid\":3"), std::string::npos);
}

TEST(EventJournal, MergeSkipsEndsWhoseBeginWasOverwritten)
{
    // A ring of three keeps only abort -> retry -> commit of a
    // retried transaction: the abort's slice began at the overwritten
    // prepare, so only the retried attempt's slice is traced.
    EventJournal j(3);
    for (const EventKind k : {EventKind::TxnPrepare, EventKind::TxnAbort,
                              EventKind::TxnRetry, EventKind::TxnCommit})
        j.emit(mkEvent(k, 42, 1000));
    ASSERT_EQ(j.dropped(), 1u);

    obs::TraceEventSink sink;
    j.mergeIntoTrace(sink, [](std::uint32_t) { return 1; });
    EXPECT_EQ(sink.size(), 2u);
    std::ostringstream os;
    sink.write(os);
    const std::string out = os.str();
    const std::size_t b = out.find("\"ph\":\"b\"");
    const std::size_t e = out.find("\"ph\":\"e\"");
    ASSERT_NE(b, std::string::npos);
    ASSERT_NE(e, std::string::npos);
    EXPECT_LT(b, e);
}

namespace
{

/** One journaled fault-injected run; returns the JSONL bytes. */
std::string
journaledRun(bool tenants)
{
    WorkloadOptions opt;
    opt.scale = 0.05;
    const auto bundle = makeWorkloadShared(
        tenants ? "masim-coloc" : "silo", opt);
    SimConfig cfg;
    cfg.faults = "migabort:p=0.2";
    Runner runner(cfg);
    EventJournal journal;
    RunObservers observers;
    observers.events = &journal;
    if (tenants)
        runner.runTenants(*bundle, "PACT", 0.5, &observers);
    else
        runner.run(*bundle, "PACT", Runner::ratioShare(1, 2),
                   &observers);
    EXPECT_GT(journal.emitted(), 0u);
    std::ostringstream os;
    journal.writeJsonl(os);
    return os.str();
}

} // namespace

TEST(EventJournal, EngineRunIsJournaledAndDeterministic)
{
    const std::string a = journaledRun(false);
    const std::string b = journaledRun(false);
    EXPECT_EQ(a, b) << "journal bytes diverged between identical runs";

    // The journal covers the whole decision pipeline.
    for (const char *kind :
         {"pebs_sample", "bin_assign", "promote_enqueue",
          "txn_prepare", "txn_commit", "txn_abort", "daemon_tick"}) {
        EXPECT_NE(a.find(std::string("\"kind\":\"") + kind + "\""),
                  std::string::npos)
            << kind << " missing from a fault-injected PACT run";
    }
}

TEST(EventJournal, PromotedPageHasFullProvenanceChain)
{
    WorkloadOptions opt;
    opt.scale = 0.05;
    const auto bundle = makeWorkloadShared("masim-coloc", opt);
    SimConfig cfg;
    cfg.faults = "migabort:p=0.2";
    Runner runner(cfg);
    EventJournal journal;
    RunObservers observers;
    observers.events = &journal;
    const RunResult r =
        runner.runTenants(*bundle, "PACT", 0.5, &observers);
    ASSERT_EQ(r.tenants.size(), 2u);

    // Multi-tenant lanes are stamped: both tenants appear.
    std::set<std::uint32_t> lanes;
    std::map<std::uint64_t, std::set<EventKind>> byPage;
    for (const PageEvent &e : journal.events()) {
        lanes.insert(e.tenant);
        if (e.kind == EventKind::BinAssign ||
            e.kind == EventKind::PromoteEnqueue ||
            (e.dstTier == 0 && (e.kind == EventKind::TxnPrepare ||
                                e.kind == EventKind::TxnCommit)))
            byPage[e.page].insert(e.kind);
    }
    EXPECT_GE(lanes.size(), 2u) << "events never left tenant lane 0";

    bool full = false;
    for (const auto &[page, kinds] : byPage) {
        full = kinds.count(EventKind::BinAssign) &&
               kinds.count(EventKind::PromoteEnqueue) &&
               kinds.count(EventKind::TxnPrepare) &&
               kinds.count(EventKind::TxnCommit);
        if (full)
            break;
    }
    EXPECT_TRUE(full)
        << "no promoted page retained bin->enqueue->prepare->commit";
}

TEST(EventJournal, JournalIsOptIn)
{
    WorkloadOptions opt;
    opt.scale = 0.05;
    const auto bundle = makeWorkloadShared("silo", opt);
    Runner runner;
    // No events observer: the engine must not require a journal.
    const RunResult r =
        runner.run(*bundle, "PACT", Runner::ratioShare(1, 2));
    EXPECT_GT(r.stats.promotions(), 0u);
}

namespace
{

/**
 * The two migration-record shapes a journal must get right: PACT
 * tenants under mid-copy aborts (attempts that abort and retry) and
 * Nomad (policy-level shadow-dirtied aborts, charged outside the
 * engine's transaction loop).
 */
struct LedgerRun
{
    const char *workload;
    const char *policy;
    double scale;
    const char *faults;
    bool tenants;
};

constexpr LedgerRun kLedgerRuns[] = {
    {"masim-coloc", "PACT", 0.05, "midabort:p=0.3,at=0.5", true},
    {"gups", "Nomad", 0.1, "", false},
};

RunResult
ledgerRun(const LedgerRun &c, EventJournal &journal)
{
    WorkloadOptions opt;
    opt.scale = c.scale;
    const auto bundle = makeWorkloadShared(c.workload, opt);
    SimConfig cfg;
    cfg.faults = c.faults;
    Runner runner(cfg);
    RunObservers observers;
    observers.events = &journal;
    return c.tenants
               ? runner.runTenants(*bundle, c.policy, 0.5, &observers)
               : runner.run(*bundle, c.policy, Runner::ratioShare(1, 1),
                            &observers);
}

} // namespace

TEST(EventJournal, MergedMigrationSlicesAreBalanced)
{
    for (const LedgerRun &c : kLedgerRuns) {
        SCOPED_TRACE(c.policy);
        EventJournal journal;
        const RunResult r = ledgerRun(c, journal);
        ASSERT_EQ(journal.dropped(), 0u);
        EXPECT_GT(r.stats.txn.aborted, 0u) << "no aborted attempt to close";

        obs::TraceEventSink sink;
        journal.mergeIntoTrace(sink, [](std::uint32_t tenant) {
            return static_cast<int>(Engine::migrationLane(tenant));
        });
        std::ostringstream os;
        sink.write(os);
        const obs::JsonValue doc = obs::parseJson(os.str());

        // Every 'e' closes an open 'b' of the same (name, id), and
        // nothing stays open.
        std::map<std::pair<std::string, std::uint64_t>, int> open;
        std::uint64_t begins = 0;
        for (const obs::JsonValue &ev : doc.at("traceEvents").items()) {
            const std::string &ph = ev.at("ph").asString();
            if (ph != "b" && ph != "e")
                continue;
            int &depth = open[{ev.at("name").asString(),
                               ev.at("id").asU64()}];
            if (ph == "b") {
                depth++;
                begins++;
            } else {
                ASSERT_GT(depth, 0)
                    << "'e' for page " << ev.at("id").asU64()
                    << " closes no open slice";
                depth--;
            }
        }
        EXPECT_EQ(begins, r.stats.txn.prepared + r.stats.txn.retries);
        for (const auto &[key, depth] : open)
            EXPECT_EQ(depth, 0) << key.first << " " << key.second
                                << " left open";
    }
}

TEST(EventJournal, TxnEventsMatchTheLedger)
{
    for (const LedgerRun &c : kLedgerRuns) {
        SCOPED_TRACE(c.policy);
        EventJournal journal;
        const RunResult r = ledgerRun(c, journal);
        ASSERT_EQ(journal.dropped(), 0u);
        std::map<EventKind, std::uint64_t> n;
        for (const PageEvent &e : journal.events())
            n[e.kind]++;
        const MigrationTxnStats &txn = r.stats.txn;
        EXPECT_EQ(n[EventKind::TxnPrepare], txn.prepared);
        EXPECT_EQ(n[EventKind::TxnAbort], txn.aborted);
        EXPECT_EQ(n[EventKind::TxnCommit], txn.committed);
        EXPECT_EQ(n[EventKind::TxnRetry], txn.retries);
        EXPECT_EQ(n[EventKind::TxnAdmitReject], txn.admissionRejected);
    }
}
