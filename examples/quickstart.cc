/**
 * @file
 * Quickstart: simulate one workload under PACT on a DRAM+CXL system
 * and print what the criticality-first daemon did.
 *
 *   ./quickstart [workload] [fast:slow]
 *   ./quickstart bc-kron 1:2
 */

#include <cstdio>
#include <string>

#include "harness/runner.hh"
#include "pact/pact_policy.hh"
#include "workloads/registry.hh"

using namespace pact;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "bc-kron";
    int fast = 1, slow = 1;
    if (argc > 2)
        std::sscanf(argv[2], "%d:%d", &fast, &slow);

    std::printf("PACT quickstart: %s with a %d:%d fast:slow tier "
                "split\n\n",
                workload.c_str(), fast, slow);

    // 1. Instantiate the workload. This runs the real algorithm once
    //    to record its memory access trace.
    WorkloadOptions opt;
    opt.scale = envScale(0.5);
    const auto bundle = makeWorkloadShared(workload, opt);
    std::printf("  footprint : %llu MB (%llu pages)\n",
                static_cast<unsigned long long>(
                    bundle->rssPages() * PageBytes >> 20),
                static_cast<unsigned long long>(bundle->rssPages()));
    std::printf("  trace     : %zu memory operations\n",
                bundle->traces[0].size());

    // 2. Run it under PACT. The runner computes a DRAM-only baseline
    //    and reports slowdown against it, the paper's metric.
    Runner runner;
    PactPolicy pact; // default: adaptive binning + scaling, alpha=1
    const RunResult r = runner.runWith(
        *bundle, pact, Runner::ratioShare(fast, slow), "PACT");

    // 3. Compare against first-touch (no tiering).
    const RunResult none = runner.run(
        *bundle, "NoTier", Runner::ratioShare(fast, slow));

    std::printf("\nResults (slowdown vs DRAM-only):\n");
    std::printf("  PACT      : %6.1f%%  (%llu promotions, %llu "
                "demotions)\n",
                r.slowdownPct,
                static_cast<unsigned long long>(r.stats.promotions()),
                static_cast<unsigned long long>(r.stats.demotions()));
    std::printf("  NoTier    : %6.1f%%\n", none.slowdownPct);

    const auto &pmu = r.stats.pmu;
    std::printf("\nWhat PACT saw:\n");
    std::printf("  slow-tier MLP        : %.2f\n",
                Pmu::mlp(pmu.torOccupancy[1], pmu.torBusy[1]));
    std::printf("  slow-tier load misses: %llu (PEBS sampled %llu)\n",
                static_cast<unsigned long long>(pmu.llcLoadMisses[1]),
                static_cast<unsigned long long>(r.stats.pebsEvents /
                                                64));
    std::printf("  tracked pages        : %zu (%.2f KB of metadata)\n",
                pact.table().size(),
                static_cast<double>(pact.table().size() *
                                    PacTable::entryBytes) /
                    1024.0);
    std::printf("  final bin width      : %.1f stall cycles\n",
                pact.binWidth());
    return 0;
}
