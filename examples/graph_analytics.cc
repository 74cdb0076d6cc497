/**
 * @file
 * Graph analytics under memory tiering: sweep the fast-tier ratio for
 * a betweenness-centrality workload on a Kronecker graph and compare
 * criticality-first (PACT) against a latency-balancing hotness policy
 * (Colloid) and no tiering — the paper's headline scenario.
 */

#include <cstdio>

#include "common/table.hh"
#include "harness/sweep.hh"
#include "workloads/registry.hh"

using namespace pact;

int
main()
{
    std::printf("Graph analytics (bc-kron) across fast-tier ratios\n");

    WorkloadOptions opt;
    opt.scale = envScale(0.5);
    const auto bundle = makeWorkloadShared("bc-kron", opt);
    Runner runner;

    Table t({"ratio", "PACT", "Colloid", "NoTier", "PACT promos",
             "Colloid promos"});
    for (const RatioSpec &ratio : paperRatios()) {
        const RunResult pact =
            runner.run(*bundle, "PACT", ratio.share());
        const RunResult colloid =
            runner.run(*bundle, "Colloid", ratio.share());
        const RunResult none =
            runner.run(*bundle, "NoTier", ratio.share());
        t.row()
            .cell(ratio.label)
            .cell(pact.slowdownPct, 1)
            .cell(colloid.slowdownPct, 1)
            .cell(none.slowdownPct, 1)
            .cellCount(pact.stats.promotions())
            .cellCount(colloid.stats.promotions());
    }
    t.print();
    std::printf("\nGraph workloads look random, but their high-degree "
                "hub vertices produce serialized, low-MLP accesses; "
                "PAC finds exactly those pages, so PACT keeps up with "
                "(or beats) aggressive hotness policies at a fraction "
                "of the migration volume.\n");
    return 0;
}
