/**
 * @file
 * Colocated tenants with clashing access patterns: a streaming
 * process and a pointer-chasing process share one machine whose fast
 * tier holds only half the combined footprint. Shows per-process
 * outcomes under PACT vs a hotness policy (the paper's Figure 12
 * scenario) and why criticality — not frequency — should arbitrate
 * the shared fast tier.
 */

#include <cstdio>

#include "common/table.hh"
#include "harness/runner.hh"
#include "workloads/registry.hh"

using namespace pact;

int
main()
{
    std::printf("Colocation: streaming tenant vs pointer-chasing "
                "tenant, fast tier = 1/2 footprint\n");

    WorkloadOptions opt;
    opt.scale = envScale(0.5);
    const auto bundle = makeWorkloadShared("masim-coloc", opt);
    Runner runner;

    Table t({"policy", "stream tenant", "chase tenant", "aggregate",
             "promotions"});
    for (const char *policy : {"PACT", "Colloid", "NoTier"}) {
        const RunResult r = runner.run(*bundle, policy, 0.5);
        const double agg =
            (r.procSlowdownPct[0] + r.procSlowdownPct[1]) / 2.0;
        t.row()
            .cell(policy)
            .cell(r.procSlowdownPct[0], 1)
            .cell(r.procSlowdownPct[1], 1)
            .cell(agg, 1)
            .cellCount(r.stats.promotions());
    }
    t.print();

    std::printf("\nBoth tenants touch their pages equally often, so "
                "frequency cannot arbitrate; per-tier MLP exposes "
                "that the chase tenant's accesses stall the CPU far "
                "more, and PACT gives it the fast tier.\n");
    return 0;
}
