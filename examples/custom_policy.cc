/**
 * @file
 * Writing your own tiering policy against the public API: implement
 * TieringPolicy, read the PMU/PEBS state from SimContext, and drive
 * the migration engine. The toy policy below promotes the most
 * recently PEBS-sampled pages (pure recency), a surprisingly solid
 * heuristic on skewed workloads — the point of the example is the
 * API surface, not a benchmark victory.
 */

#include <cstdio>
#include <deque>

#include "common/table.hh"
#include "harness/runner.hh"
#include "mem/lru.hh"
#include "mem/migration.hh"
#include "mem/tier_manager.hh"
#include "workloads/registry.hh"

using namespace pact;

namespace
{

/**
 * A minimal custom policy: every daemon tick, promote the pages PEBS
 * sampled most recently, demoting LRU victims to make room.
 */
class RecencyPolicy : public TieringPolicy
{
  public:
    const char *name() const override { return "Recency"; }

    void
    tick(SimContext &ctx) override
    {
        // Age the fast tier's LRU lists so victims exist.
        ctx.lru.scan(TierId::Fast, ctx.tm.fastCapacity() / 4, ctx.tm);

        std::uint64_t budget = 256; // promotions per tick
        for (const PebsRecord &rec : ctx.pebs.drain()) {
            if (budget == 0)
                break;
            const PageId page = pageOf(rec.vaddr);
            if (!ctx.tm.touched(page) ||
                ctx.tm.tierOf(page) != TierId::Slow) {
                continue;
            }
            if (ctx.tm.freeFast() == 0) {
                const auto v =
                    ctx.lru.victims(TierId::Fast, 1, ctx.tm, false);
                if (v.empty() || !ctx.mig.demote(v[0]))
                    break;
            }
            if (ctx.mig.promote(page))
                budget--;
        }
    }
};

} // namespace

int
main()
{
    std::printf("Custom-policy walkthrough: a recency promoter built "
                "on the public API, vs PACT (1:4)\n");

    WorkloadOptions opt;
    opt.scale = envScale(0.5);
    const double share = Runner::ratioShare(1, 4);

    for (const char *workload : {"bc-kron", "gups"}) {
        const auto bundle = makeWorkloadShared(workload, opt);
        Runner runner;

        RecencyPolicy recency;
        const RunResult rr =
            runner.runWith(*bundle, recency, share, "Recency");
        const RunResult rp = runner.run(*bundle, "PACT", share);
        const RunResult rn = runner.run(*bundle, "NoTier", share);

        std::printf("\n-- %s --\n", workload);
        Table t({"policy", "slowdown", "promotions", "demotions"});
        for (const RunResult *r : {&rp, &rr, &rn}) {
            t.row()
                .cell(r->policy)
                .cell(r->slowdownPct, 1)
                .cellCount(r->stats.promotions())
                .cellCount(r->stats.demotions());
        }
        t.print();
    }

    std::printf("\nOn the skewed graph a reactive recency promoter "
                "is genuinely competitive -- at the cost of more "
                "migrations. On uniform-random gups neither policy "
                "finds standout pages and both leave placement "
                "alone. PACT's edge in the paper's evaluation is "
                "this consistency across workloads and ratios at a "
                "fraction of the migration volume; sweep more "
                "configurations with the binaries under bench/.\n");
    return 0;
}
