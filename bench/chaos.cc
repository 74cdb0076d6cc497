/**
 * @file
 * Chaos soak: hundreds of seeded randomized fault schedules swept over
 * the policy × workload matrix through runManyOutcomes(), with the
 * invariant auditor always on. Every schedule is a deterministic
 * function of (--seed, schedule index), so the sweep — including the
 * survivor manifest written with --out — is byte-identical at any
 * PACT_JOBS. The driver exits nonzero if any run dies (invariant
 * violation, watchdog timeout, or foreign exception): under fault
 * injection migrations may abort, retry, and be rejected, but the
 * engine must never corrupt state or wedge.
 *
 *   chaos [--schedules N] [--policies a,b,..] [--workloads x,y,..]
 *         [--share F] [--seed S] [--out manifest.json]
 *
 * Defaults: 60 schedules over PACT,TPP,Memtis × gups,silo,masim-coloc
 * (scripts/check_chaos.sh raises this to the full soak).
 */

#include <cstring>
#include <fstream>
#include <map>

#include "bench_util.hh"
#include "common/rng.hh"
#include "fault/fault.hh"
#include "harness/pool.hh"
#include "workloads/registry.hh"

using namespace pact;

namespace
{

/** Split on @p sep, skipping empty pieces. */
std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string piece;
    for (char c : text) {
        if (c == sep) {
            if (!piece.empty())
                out.push_back(piece);
            piece.clear();
        } else {
            piece += c;
        }
    }
    if (!piece.empty())
        out.push_back(piece);
    return out;
}

/** Deterministic short decimal (locale-independent). */
std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

/**
 * Randomized-but-seeded fault schedule @p idx: each fault class joins
 * independently with its own draw, probabilities kept in ranges that
 * stress the transaction machinery without drowning the run (a
 * schedule that drew nothing gets a mid-copy abort clause so every
 * soak run exercises at least one class).
 */
std::string
makeSchedule(std::uint64_t seed, std::uint64_t idx)
{
    Rng rng(rngStream(seed, idx));
    std::string spec;
    auto clause = [&](const std::string &s) {
        if (!spec.empty())
            spec += ";";
        spec += s;
    };
    if (rng.chance(0.35))
        clause("migabort:p=" + num(0.05 + 0.35 * rng.uniform()));
    if (rng.chance(0.5))
        clause("midabort:p=" + num(0.1 + 0.5 * rng.uniform()) +
               ",at=" + num(rng.uniform()));
    if (rng.chance(0.4))
        clause("dirty:p=" + num(0.05 + 0.4 * rng.uniform()));
    if (rng.chance(0.4))
        clause("tierfail:p=" + num(0.05 + 0.4 * rng.uniform()));
    if (rng.chance(0.3))
        clause("stall:p=" + num(0.05 + 0.25 * rng.uniform()) +
               ",periods=" + std::to_string(rng.range(1, 8)));
    if (rng.chance(0.3))
        clause("pebsstarve:p=" + num(0.01 + 0.1 * rng.uniform()) +
               ",len=" + std::to_string(rng.range(8, 128)));
    if (rng.chance(0.25))
        clause("pebsdrop:p=" + num(0.3 * rng.uniform()));
    if (rng.chance(0.25))
        clause("pebsdup:p=" + num(0.3 * rng.uniform()));
    if (rng.chance(0.2))
        clause("jitter:frac=" + num(0.05 + 0.5 * rng.uniform()));
    if (rng.chance(0.15))
        clause("wrap:bits=" + std::to_string(rng.range(28, 40)));
    if (spec.empty())
        clause("midabort:p=" + num(0.2 + 0.6 * rng.uniform()) +
               ",at=" + num(rng.uniform()));
    return spec;
}

/** FNV-1a over a string (schedule-set digest for the manifest). */
std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t schedules = 60;
    std::uint64_t seed = 42;
    double share = 0.5;
    std::string policiesCsv = "PACT,TPP,Memtis";
    std::string workloadsCsv = "gups,silo,masim-coloc";
    std::string outPath;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            fatal_if(i + 1 >= argc, "chaos: ", arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--schedules")
            schedules = std::strtoull(value(), nullptr, 10);
        else if (arg == "--seed")
            seed = std::strtoull(value(), nullptr, 10);
        else if (arg == "--share")
            share = std::atof(value());
        else if (arg == "--policies")
            policiesCsv = value();
        else if (arg == "--workloads")
            workloadsCsv = value();
        else if (arg == "--out")
            outPath = value();
        else
            fatal("chaos: unknown flag '", arg, "'");
    }
    const std::vector<std::string> policies = splitOn(policiesCsv, ',');
    const std::vector<std::string> workloads = splitOn(workloadsCsv, ',');
    fatal_if(schedules == 0 || policies.empty() || workloads.empty(),
             "chaos: need at least one schedule, policy, and workload");

    const double scale = envScale(0.1);
    std::printf("chaos soak: %llu schedules x (%s) x (%s), scale %.2f, "
                "seed %llu\n",
                static_cast<unsigned long long>(schedules),
                policiesCsv.c_str(), workloadsCsv.c_str(), scale,
                static_cast<unsigned long long>(seed));

    WorkloadOptions opt;
    opt.scale = scale;
    std::vector<std::shared_ptr<const WorkloadBundle>> bundles;
    for (const std::string &w : workloads)
        bundles.push_back(makeWorkloadShared(w, opt));

    Runner runner;
    // The auditor is the whole point of the soak: every daemon window
    // and every run end cross-checks tier occupancy, LRU membership,
    // and shadow-copy residue against the page table.
    runner.config().audit = true;

    // One run per schedule, cells assigned round-robin over the
    // policy × workload grid so every cell sees its share of the
    // schedule population.
    std::vector<RunSpec> specs;
    std::map<std::string, std::uint64_t> clauseCoverage;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (std::uint64_t s = 0; s < schedules; s++) {
        const std::string faults = makeSchedule(seed, s);
        digest = fnv1a(digest, faults);
        for (const std::string &clause : splitOn(faults, ';')) {
            const auto colon = clause.find(':');
            clauseCoverage[clause.substr(0, colon)]++;
        }
        const std::size_t cell = s % (policies.size() * workloads.size());
        RunSpec spec;
        spec.bundle = bundles[cell % workloads.size()].get();
        spec.policy = policies[cell / workloads.size()];
        spec.share = share;
        spec.tenants = spec.bundle->traces.size() > 1;
        spec.mods.faults = faults;
        spec.mods.seed = rngStream(seed, 0x10000 + s) | 1;
        specs.push_back(std::move(spec));
    }

    const std::vector<RunOutcome> outcomes =
        runManyOutcomes(runner, specs);

    // Tally survivors and transaction outcomes per policy; any failed
    // run (thrown, or cut short at maxWallCycles) is a soak failure
    // and is reported in full.
    struct PolicyTally
    {
        std::uint64_t runs = 0;
        MigrationTxnStats txn;
    };
    std::map<std::string, PolicyTally> tallies;
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < outcomes.size(); i++) {
        const RunOutcome &o = outcomes[i];
        const obs::ManifestResult row = manifestOutcome(o);
        if (!row.ok) {
            failed++;
            std::printf("FAIL schedule %zu: %s/%s faults='%s' seed=%llu\n"
                        "  %s: %s\n",
                        i, o.spec.bundle->name.c_str(),
                        o.spec.policy.c_str(), o.spec.mods.faults.c_str(),
                        static_cast<unsigned long long>(o.spec.mods.seed),
                        row.errorKind.c_str(), row.errorMessage.c_str());
            continue;
        }
        PolicyTally &t = tallies[o.spec.policy];
        t.runs++;
        const MigrationTxnStats &x = o.result.stats.txn;
        t.txn.prepared += x.prepared;
        t.txn.committed += x.committed;
        t.txn.aborted += x.aborted;
        t.txn.retries += x.retries;
        t.txn.exhausted += x.exhausted;
        t.txn.admissionRejected += x.admissionRejected;
        t.txn.wastedCopyCycles += x.wastedCopyCycles;
        t.txn.backoffCycles += x.backoffCycles;
    }

    printHeading(std::cout, "fault-class coverage over the schedule set");
    Table ct({"clause", "schedules"});
    for (const auto &kv : clauseCoverage)
        ct.row().cell(kv.first).cell(kv.second);
    ct.print();

    printHeading(std::cout, "transaction outcomes per policy (survivors)");
    Table t({"policy", "runs", "prepared", "committed", "aborted",
             "retries", "exhausted", "admit-rej"});
    for (const auto &kv : tallies) {
        t.row()
            .cell(kv.first)
            .cell(kv.second.runs)
            .cellCount(kv.second.txn.prepared)
            .cellCount(kv.second.txn.committed)
            .cellCount(kv.second.txn.aborted)
            .cellCount(kv.second.txn.retries)
            .cellCount(kv.second.txn.exhausted)
            .cellCount(kv.second.txn.admissionRejected);
    }
    t.print();

    if (!outPath.empty()) {
        obs::RunManifest m;
        m.kind = "sweep";
        m.producer = "chaos";
        m.config = runner.config();
        m.params = {{"schedules", static_cast<double>(schedules)},
                    {"seed", static_cast<double>(seed)},
                    {"scale", scale},
                    {"fast_share", share},
                    {"schedule_digest", static_cast<double>(digest >> 11)}};
        m.textParams = {{"policies", policiesCsv},
                        {"workloads", workloadsCsv},
                        {"mode", "chaos"}};
        for (const RunOutcome &o : outcomes)
            m.results.push_back(manifestOutcome(o));
        std::ofstream os(outPath, std::ios::binary);
        fatal_if(!os, "chaos: cannot open ", outPath);
        obs::writeRunManifest(os, m);
        std::printf("\nwrote %s (%zu results)\n", outPath.c_str(),
                    m.results.size());
    }

    if (failed > 0) {
        std::printf("\nchaos soak FAILED: %llu of %zu runs failed\n",
                    static_cast<unsigned long long>(failed),
                    outcomes.size());
        return 1;
    }
    std::printf("\nchaos soak passed: %zu runs, zero invariant "
                "violations, zero wedges\n",
                outcomes.size());
    return 0;
}
