/**
 * @file
 * A latency-sensitive KV server (Redis + YCSB-C style zipfian reads)
 * on tiered memory: per-operation latency percentiles and throughput
 * under PACT vs a hotness baseline, using the trace span markers to
 * measure each GET end to end.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "harness/runner.hh"
#include "workloads/registry.hh"

using namespace pact;

namespace
{

void
reportService(Table &t, const char *label, const RunResult &r)
{
    std::vector<double> lat;
    for (const auto &[cls, cycles] : r.stats.spans[0]) {
        (void)cls;
        lat.push_back(static_cast<double>(cycles) / (ClockHz / 1e6));
    }
    std::sort(lat.begin(), lat.end());
    const double secs = static_cast<double>(r.runtime) / ClockHz;
    t.row()
        .cell(label)
        .cell(lat.size() / secs / 1e6, 3)
        .cell(stats::quantileSorted(lat, 0.5), 2)
        .cell(stats::quantileSorted(lat, 0.99), 2)
        .cell(r.slowdownPct, 1)
        .cellCount(r.stats.promotions());
}

} // namespace

int
main()
{
    std::printf("KV-server tiering: Redis-style zipfian GETs at a "
                "1:1 tier split\n");

    WorkloadOptions opt;
    opt.scale = envScale(0.5);
    const auto bundle = makeWorkloadShared("redis", opt);
    Runner runner;

    Table t({"policy", "thpt (Mops/s)", "p50 (us)", "p99 (us)",
             "slowdown", "promotions"});
    reportService(t, "PACT", runner.run(*bundle, "PACT", 0.5));
    reportService(t, "Memtis", runner.run(*bundle, "Memtis", 0.5));
    reportService(t, "Colloid", runner.run(*bundle, "Colloid", 0.5));
    reportService(t, "NoTier", runner.run(*bundle, "NoTier", 0.5));
    t.print();

    std::printf("\nZipfian GETs concentrate criticality in the bucket "
                "array and hot entry chains; PACT promotes those and "
                "leaves the cold value arena on the slow tier.\n");
    return 0;
}
