/**
 * @file
 * Workload tests: graph generators/kernels validated against
 * reference implementations, trace well-formedness for every
 * registered workload, and pattern-specific properties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <queue>
#include <set>

#include "common/error.hh"
#include "common/logging.hh"
#include "workloads/graph.hh"
#include "workloads/graph_kernels.hh"
#include "workloads/gups.hh"
#include "workloads/masim.hh"
#include "mem/tier_manager.hh"
#include "workloads/mlc.hh"
#include "workloads/registry.hh"

using namespace pact;

namespace
{

void
expectValidCsr(const CsrGraph &g)
{
    ASSERT_EQ(g.offsets.size(), g.numVertices + 1u);
    EXPECT_EQ(g.offsets[0], 0u);
    for (std::uint32_t v = 0; v < g.numVertices; v++)
        EXPECT_LE(g.offsets[v], g.offsets[v + 1]);
    EXPECT_EQ(g.offsets[g.numVertices], g.numEdges);
    EXPECT_EQ(g.neighbors.size(), g.numEdges);
    for (std::uint32_t n : g.neighbors)
        EXPECT_LT(n, g.numVertices);
}

/** Host-side reference BFS. */
std::vector<std::uint32_t>
refBfs(const CsrGraph &g, std::uint32_t src)
{
    std::vector<std::uint32_t> depth(g.numVertices, ~0u);
    std::queue<std::uint32_t> q;
    depth[src] = 0;
    q.push(src);
    while (!q.empty()) {
        const std::uint32_t v = q.front();
        q.pop();
        for (std::uint64_t k = g.offsets[v]; k < g.offsets[v + 1]; k++) {
            const std::uint32_t u = g.neighbors[k];
            if (depth[u] == ~0u) {
                depth[u] = depth[v] + 1;
                q.push(u);
            }
        }
    }
    return depth;
}

/** Restore an environment variable on scope exit. */
class EnvGuard
{
  public:
    explicit EnvGuard(const char *name) : name_(name)
    {
        if (const char *v = std::getenv(name))
            saved_ = v;
        else
            unset_ = true;
    }
    ~EnvGuard()
    {
        if (unset_)
            unsetenv(name_);
        else
            setenv(name_, saved_.c_str(), 1);
    }

    EnvGuard(const EnvGuard &) = delete;
    EnvGuard &operator=(const EnvGuard &) = delete;

  private:
    const char *name_;
    std::string saved_;
    bool unset_ = false;
};

/**
 * Reference graph builder: the original sort-based construction. Both
 * directions of every edge go into one pair list, drawn serially from
 * the same 64K-edge chunk streams the generators use. The list is then
 * sorted and deduplicated, self-loops are skipped, and one weight is
 * drawn per kept edge in CSR order. The generators must emit the same
 * CSR and leave the caller's rng in the same state.
 */
template <typename GenOne>
CsrGraph
refBuild(std::uint32_t scale, std::uint32_t edge_factor, Rng &rng,
         GenOne genOne)
{
    constexpr std::uint64_t kChunk = 1ull << 16;
    const std::uint32_t n = 1u << scale;
    const std::uint64_t m = static_cast<std::uint64_t>(n) * edge_factor;
    const std::uint64_t streamSeed = rng.next();
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::uint64_t c = 0; c * kChunk < m; c++) {
        Rng crng(rngStream(streamSeed, c));
        for (std::uint64_t e = c * kChunk; e < std::min(m, (c + 1) * kChunk);
             e++) {
            const auto [u, v] = genOne(crng);
            edges.push_back({u, v});
            edges.push_back({v, u});
        }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    CsrGraph g;
    g.numVertices = n;
    g.offsets.assign(n + 1, 0);
    for (const auto &[u, v] : edges) {
        if (u != v) {
            g.offsets[u + 1]++;
            g.neighbors.push_back(v);
            g.weights.push_back(
                static_cast<std::uint8_t>(1 + rng.below(255)));
        }
    }
    for (std::uint32_t v = 0; v < n; v++)
        g.offsets[v + 1] += g.offsets[v];
    g.numEdges = g.offsets[n];
    return g;
}

CsrGraph
refRmat(std::uint32_t scale, std::uint32_t edge_factor, const RmatParams &p,
        Rng &rng)
{
    return refBuild(scale, edge_factor, rng, [&](Rng &crng) {
        std::uint32_t u = 0, v = 0;
        for (std::uint32_t bit = 0; bit < scale; bit++) {
            const double r = crng.uniform();
            std::uint32_t ub = 0, vb = 0;
            if (r < p.a) {
                // top-left
            } else if (r < p.a + p.b) {
                vb = 1;
            } else if (r < p.a + p.b + p.c) {
                ub = 1;
            } else {
                ub = 1;
                vb = 1;
            }
            u = (u << 1) | ub;
            v = (v << 1) | vb;
        }
        return std::pair<std::uint32_t, std::uint32_t>{u, v};
    });
}

CsrGraph
refUniform(std::uint32_t scale, std::uint32_t edge_factor, Rng &rng)
{
    const std::uint32_t n = 1u << scale;
    return refBuild(scale, edge_factor, rng, [n](Rng &crng) {
        const auto u = static_cast<std::uint32_t>(crng.below(n));
        const auto v = static_cast<std::uint32_t>(crng.below(n));
        return std::pair<std::uint32_t, std::uint32_t>{u, v};
    });
}

} // namespace

TEST(GraphGen, CsrMatchesSortedReference)
{
    const EnvGuard guard("PACT_JOBS");
    RmatParams twitter;
    twitter.a = 0.65;
    twitter.b = 0.15;
    twitter.c = 0.15;
    for (const char *jobs : {"1", "4"}) {
        setenv("PACT_JOBS", jobs, 1);
        for (std::uint32_t scale : {1u, 3u, 10u, 14u}) {
            for (std::uint64_t seed : {1u, 7u, 42u}) {
                for (int kind = 0; kind < 3; kind++) {
                    SCOPED_TRACE(::testing::Message()
                                 << "jobs " << jobs << " scale " << scale
                                 << " seed " << seed << " kind " << kind);
                    Rng rng(seed), refRng(seed);
                    CsrGraph got, want;
                    if (kind == 0) {
                        got = buildRmat(scale, 12, {}, rng);
                        want = refRmat(scale, 12, {}, refRng);
                    } else if (kind == 1) {
                        got = buildUniform(scale, 12, rng);
                        want = refUniform(scale, 12, refRng);
                    } else {
                        got = buildTwitterLike(scale, 16, rng);
                        want = refRmat(scale, 16, twitter, refRng);
                    }
                    ASSERT_EQ(got.numVertices, want.numVertices);
                    ASSERT_EQ(got.numEdges, want.numEdges);
                    ASSERT_EQ(got.offsets, want.offsets);
                    ASSERT_EQ(got.neighbors, want.neighbors);
                    ASSERT_EQ(got.weights, want.weights);
                    ASSERT_EQ(rng.next(), refRng.next());
                }
            }
        }
    }
}

TEST(GraphGen, RmatProducesValidCsr)
{
    Rng rng(1);
    const CsrGraph g = buildRmat(10, 8, {}, rng);
    expectValidCsr(g);
    EXPECT_EQ(g.numVertices, 1024u);
    EXPECT_GT(g.numEdges, 1024u);
}

TEST(GraphGen, UniformProducesValidCsr)
{
    Rng rng(2);
    const CsrGraph g = buildUniform(10, 8, rng);
    expectValidCsr(g);
}

TEST(GraphGen, RmatIsMoreSkewedThanUniform)
{
    Rng rng(3);
    const CsrGraph kron = buildTwitterLike(12, 8, rng);
    Rng rng2(3);
    const CsrGraph urand = buildUniform(12, 8, rng2);
    EXPECT_GT(kron.maxDegree(), 3 * urand.maxDegree());
}

TEST(GraphGen, UndirectedSymmetry)
{
    Rng rng(4);
    const CsrGraph g = buildRmat(8, 4, {}, rng);
    // Every edge (u,v) has its reverse (v,u).
    std::set<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::uint32_t u = 0; u < g.numVertices; u++) {
        for (std::uint64_t k = g.offsets[u]; k < g.offsets[u + 1]; k++)
            edges.insert({u, g.neighbors[k]});
    }
    for (const auto &[u, v] : edges)
        EXPECT_TRUE(edges.count({v, u})) << u << "->" << v;
}

TEST(GraphGen, AllocRegistersArrays)
{
    Rng rng(5);
    CsrGraph g = buildRmat(8, 4, {}, rng);
    AddrSpace as;
    allocGraph(as, 0, "t", g, false, true);
    EXPECT_NE(g.offsetsAddr, 0u);
    EXPECT_NE(g.neighborsAddr, 0u);
    EXPECT_NE(g.weightsAddr, 0u);
    EXPECT_TRUE(as.mapped(g.nbrAddr(g.numEdges - 1)));
}

TEST(GraphKernels, BfsTraceTouchesReachableSet)
{
    Rng rng(6);
    CsrGraph g = buildRmat(10, 8, {}, rng);
    AddrSpace as;
    allocGraph(as, 0, "g", g, false);
    KernelLimits lim;
    const Trace t = bfsTrace(as, 0, g, 0, lim, false);
    EXPECT_GT(t.size(), g.numEdges / 4);

    // Every emitted access lands in a mapped object.
    int checked = 0;
    for (std::size_t i = 0; i < t.ops.size(); i += 97) {
        const TraceOp &op = t.ops[i];
        if (op.kind() == OpKind::Load || op.kind() == OpKind::Store) {
            EXPECT_TRUE(as.mapped(op.vaddr())) << i;
            checked++;
        }
    }
    EXPECT_GT(checked, 0);

    // The number of depth-array stores equals reachable vertices - 1.
    const auto depth = refBfs(g, 0);
    const std::uint64_t reachable = static_cast<std::uint64_t>(
        std::count_if(depth.begin(), depth.end(),
                      [](std::uint32_t d) { return d != ~0u; }));
    const ObjectInfo *dobj = nullptr;
    for (const auto &o : as.objects()) {
        if (o.name == "bfs.depth")
            dobj = &o;
    }
    ASSERT_NE(dobj, nullptr);
    std::uint64_t depthStores = 0;
    for (const TraceOp &op : t.ops) {
        depthStores += op.kind() == OpKind::Store &&
                       op.vaddr() >= dobj->base &&
                       op.vaddr() < dobj->end();
    }
    EXPECT_EQ(depthStores, reachable - 1);
}

TEST(GraphKernels, BcEmitsForwardAndBackward)
{
    Rng rng(7);
    CsrGraph g = buildRmat(9, 8, {}, rng);
    AddrSpace as;
    allocGraph(as, 0, "g", g, false);
    KernelLimits lim;
    const Trace t = bcTrace(as, 0, g, 1, lim, false);
    EXPECT_GT(t.size(), g.numEdges / 2);
    // Scores are written in the backward pass.
    const ObjectInfo *scores = nullptr;
    for (const auto &o : as.objects()) {
        if (o.name == "bc.scores")
            scores = &o;
    }
    ASSERT_NE(scores, nullptr);
    bool wroteScore = false;
    for (const TraceOp &op : t.ops) {
        wroteScore |= op.kind() == OpKind::Store &&
                      op.vaddr() >= scores->base &&
                      op.vaddr() < scores->end();
    }
    EXPECT_TRUE(wroteScore);
}

TEST(GraphKernels, SsspRelaxesAllReachable)
{
    Rng rng(8);
    CsrGraph g = buildRmat(9, 8, {}, rng);
    AddrSpace as;
    allocGraph(as, 0, "g", g, false, true);
    KernelLimits lim;
    const Trace t = ssspTrace(as, 0, g, 0, lim, false);
    EXPECT_GT(t.size(), g.numEdges / 2);
}

TEST(GraphKernels, TcScansAdjacencies)
{
    Rng rng(9);
    CsrGraph g = buildTwitterLike(9, 8, rng);
    AddrSpace as;
    allocGraph(as, 0, "g", g, false);
    KernelLimits lim;
    const Trace t = tcTrace(as, 0, g, lim, false);
    EXPECT_GT(t.size(), g.numEdges / 2);
}

TEST(GraphKernels, MaxOpsBoundsTrace)
{
    Rng rng(10);
    CsrGraph g = buildRmat(10, 8, {}, rng);
    AddrSpace as;
    allocGraph(as, 0, "g", g, false);
    KernelLimits lim;
    lim.maxOps = 1000;
    const Trace t = bcTrace(as, 0, g, 4, lim, false);
    // Emission stops at vertex granularity, so the trace can overshoot
    // by one vertex's worth of work (bounded by the max degree).
    EXPECT_LE(t.size(), lim.maxOps + 8 * g.maxDegree() + 64);
}

TEST(Masim, ChaseCycleCoversAllSlots)
{
    Rng rng(11);
    const auto next = chaseCycle(64, rng);
    std::set<std::uint32_t> seen;
    std::uint32_t cur = 0;
    for (int i = 0; i < 64; i++) {
        seen.insert(cur);
        cur = next[cur];
    }
    EXPECT_EQ(seen.size(), 64u); // one full cycle
    EXPECT_EQ(cur, 0u);
}

TEST(Masim, PatternsEmitExpectedDependence)
{
    AddrSpace as;
    Rng rng(12);
    MasimParams p;
    MasimRegion chase;
    chase.name = "c";
    chase.bytes = 1 << 20;
    chase.pattern = MasimPattern::PointerChase;
    p.regions = {chase};
    p.ops = 1000;
    const Trace t = buildMasim(as, 0, p, rng);
    ASSERT_EQ(t.size(), 1000u);
    for (const TraceOp &op : t.ops)
        EXPECT_TRUE(op.dep());
}

TEST(Masim, PhasedModeAlternatesRegions)
{
    AddrSpace as;
    Rng rng(13);
    MasimParams p;
    MasimRegion a, b;
    a.name = "a";
    a.bytes = 1 << 20;
    a.pattern = MasimPattern::Sequential;
    b.name = "b";
    b.bytes = 1 << 20;
    b.pattern = MasimPattern::Random;
    p.regions = {a, b};
    p.ops = 4000;
    p.phased = true;
    p.phaseOps = 1000;
    const Trace t = buildMasim(as, 0, p, rng);
    const ObjectInfo *oa = as.objectAt(t.ops[0].vaddr());
    ASSERT_NE(oa, nullptr);
    EXPECT_EQ(oa->name, "a");
    const ObjectInfo *ob = as.objectAt(t.ops[1500].vaddr());
    ASSERT_NE(ob, nullptr);
    EXPECT_EQ(ob->name, "b");
}

TEST(Gups, MixesLoadsAndStores)
{
    AddrSpace as;
    Rng rng(14);
    GupsParams p;
    p.tableBytes = 1 << 20;
    p.updates = 10000;
    const Trace t = buildGups(as, 0, p, rng);
    std::uint64_t loads = 0, stores = 0;
    for (const TraceOp &op : t.ops) {
        loads += op.kind() == OpKind::Load;
        stores += op.kind() == OpKind::Store;
    }
    EXPECT_EQ(loads, 10000u);
    EXPECT_NEAR(static_cast<double>(stores), 5000.0, 500.0);
}

TEST(Mlc, LoopsAndStreams)
{
    AddrSpace as;
    MlcParams p;
    p.bufferBytes = 1 << 20;
    p.ops = 1000;
    p.threads = 4;
    const Trace t = buildMlc(as, 0, p);
    EXPECT_TRUE(t.loop);
    EXPECT_EQ(t.size(), 1000u);
    for (const TraceOp &op : t.ops)
        EXPECT_TRUE(as.mapped(op.vaddr()));
}

TEST(Registry, EveryWorkloadBuildsWellFormed)
{
    WorkloadOptions opt;
    opt.scale = 0.1;
    for (const std::string &name : allWorkloadNames()) {
        const WorkloadBundle b = makeWorkload(name, opt);
        EXPECT_EQ(b.name, name);
        ASSERT_FALSE(b.traces.empty()) << name;
        EXPECT_GT(b.traces[0].size(), 1000u) << name;
        EXPECT_GT(b.rssPages(), 16u) << name;

        // Spot-check address validity.
        const Trace &t = b.traces[0];
        for (std::size_t i = 0; i < t.ops.size(); i += 211) {
            const TraceOp &op = t.ops[i];
            if (op.kind() == OpKind::Load ||
                op.kind() == OpKind::Store) {
                ASSERT_TRUE(b.as.mapped(op.vaddr()))
                    << name << " op " << i;
            }
        }
    }
}

TEST(Registry, RedisSpansBalance)
{
    const WorkloadBundle b = makeWorkload("redis", {0.1, false, 42});
    std::int64_t depth = 0;
    std::uint64_t begins = 0;
    for (const TraceOp &op : b.traces[0].ops) {
        if (op.kind() == OpKind::MarkBegin) {
            depth++;
            begins++;
        } else if (op.kind() == OpKind::MarkEnd) {
            depth--;
        }
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_GT(begins, 1000u);
}

TEST(Registry, ColocationBundleHasTwoProcs)
{
    const WorkloadBundle b =
        makeWorkload("masim-coloc", {0.1, false, 42});
    ASSERT_EQ(b.traces.size(), 2u);
    EXPECT_EQ(b.traces[0].proc, 0u);
    EXPECT_EQ(b.traces[1].proc, 1u);
}

TEST(Registry, ColocationNScalesTenantCount)
{
    for (unsigned n : {2u, 5u}) {
        const WorkloadBundle b = makeWorkload(
            "masim-coloc" + std::to_string(n), {0.1, false, 42});
        ASSERT_EQ(b.traces.size(), n);
        for (unsigned i = 0; i < n; i++)
            EXPECT_EQ(b.traces[i].proc, i);
    }
    EXPECT_THROW(makeWorkload("masim-coloc1", {0.1, false, 42}),
                 WorkloadError);
    EXPECT_THROW(makeWorkload("masim-colocx", {0.1, false, 42}),
                 WorkloadError);
}

TEST(Registry, ThpOptionAlignsObjects)
{
    const WorkloadBundle b = makeWorkload("gups", {0.1, true, 42});
    for (const ObjectInfo &o : b.as.objects()) {
        EXPECT_TRUE(o.thp);
        EXPECT_EQ(o.base % HugePageBytes, 0u);
    }
}

TEST(Registry, ScaleShrinksFootprint)
{
    const WorkloadBundle small = makeWorkload("gups", {0.1, false, 42});
    const WorkloadBundle big = makeWorkload("gups", {1.0, false, 42});
    EXPECT_LT(small.rssPages(), big.rssPages() / 4);
}

TEST(RegistryDeath, UnknownWorkloadThrows)
{
    try {
        makeWorkload("nope", {});
        FAIL() << "expected WorkloadError";
    } catch (const WorkloadError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown workload"),
                  std::string::npos);
    }
}

TEST(InitPass, MakesWholeAllocationResident)
{
    const WorkloadBundle b = makeWorkload("gpt2", {0.1, false, 42});
    // The init pass stores to every allocated page, so the first
    // rssPages() ops of the trace cover each object's page range.
    std::set<PageId> initPages;
    for (std::size_t i = 0;
         i < b.traces[0].ops.size() && initPages.size() < b.rssPages();
         i++) {
        const TraceOp &op = b.traces[0].ops[i];
        if (op.kind() != OpKind::Store)
            break;
        initPages.insert(pageOf(op.vaddr()));
    }
    for (const ObjectInfo &o : b.as.objects()) {
        EXPECT_TRUE(initPages.count(o.firstPage())) << o.name;
        EXPECT_TRUE(initPages.count(o.firstPage() + o.pages() - 1))
            << o.name;
    }
}

TEST(InitPass, SkipsLoopingTraces)
{
    WorkloadBundle b;
    b.name = "loop-unit";
    b.as.alloc(0, "buf", 1 << 20);
    Trace t;
    t.proc = 0;
    t.loop = true;
    t.load(b.as.base());
    b.traces.push_back(t);
    prependInitPass(b);
    EXPECT_EQ(b.traces[0].size(), 1u);
}

TEST(TierManagerHuge, CountsHugeMappings)
{
    TierManager tm(2 * PagesPerHugePage, 4 * PagesPerHugePage);
    EXPECT_FALSE(tm.hugeInUse());
    tm.touch(0, 0, true);
    EXPECT_TRUE(tm.hugeInUse());
    EXPECT_EQ(tm.hugePages(), PagesPerHugePage);
}

TEST(GraphKernels, TraceReservationCoversOvershootAndInitPass)
{
    // A binding budget: each kernel overshoots it by part of its last
    // row, and the init pass is prepended afterwards. Neither may
    // reallocate the trace (a doubling would exceed 2x the budget).
    for (int kernel = 0; kernel < 6; kernel++) {
        SCOPED_TRACE(kernel);
        Rng rng(18);
        CsrGraph g = buildRmat(10, 8, {}, rng);
        WorkloadBundle b;
        allocGraph(b.as, 0, "g", g, false, kernel == 2);
        KernelLimits lim;
        lim.maxOps = 10000;
        switch (kernel) {
          case 0:
            b.traces.push_back(bfsTrace(b.as, 0, g, 0, lim, false));
            break;
          case 1:
            b.traces.push_back(bcTrace(b.as, 0, g, 3, lim, false));
            break;
          case 2:
            b.traces.push_back(ssspTrace(b.as, 0, g, 0, lim, false));
            break;
          case 3:
            b.traces.push_back(ccTrace(b.as, 0, g, lim, false));
            break;
          case 4:
            b.traces.push_back(prTrace(b.as, 0, g, 4, lim, false));
            break;
          default:
            b.traces.push_back(tcTrace(b.as, 0, g, lim, false));
            break;
        }
        const TraceOpSpan &ops = b.traces[0].ops;
        ASSERT_GE(ops.size(), lim.maxOps);
        EXPECT_LT(ops.capacity(), 2 * lim.maxOps);
        const TraceOp *data = ops.data();
        const std::size_t capacity = ops.capacity();
        prependInitPass(b);
        EXPECT_EQ(ops.data(), data);
        EXPECT_EQ(ops.capacity(), capacity);
    }
}

TEST(GraphKernels, TriangleCountMatchesBruteForce)
{
    Rng rng(15);
    CsrGraph g = buildRmat(7, 4, {}, rng);
    AddrSpace as;
    allocGraph(as, 0, "g", g, false);
    KernelLimits lim;
    lim.maxOps = 1u << 30; // no truncation: count must be exact
    std::uint64_t fast = 0;
    tcTrace(as, 0, g, lim, false, &fast);

    // Brute force over u < v < w.
    auto connected = [&](std::uint32_t a, std::uint32_t b) {
        for (std::uint64_t k = g.offsets[a]; k < g.offsets[a + 1]; k++) {
            if (g.neighbors[k] == b)
                return true;
        }
        return false;
    };
    std::uint64_t ref = 0;
    for (std::uint32_t u = 0; u < g.numVertices; u++) {
        for (std::uint64_t k = g.offsets[u]; k < g.offsets[u + 1]; k++) {
            const std::uint32_t v = g.neighbors[k];
            if (v <= u)
                continue;
            for (std::uint64_t j = g.offsets[v]; j < g.offsets[v + 1];
                 j++) {
                const std::uint32_t w = g.neighbors[j];
                if (w > v && connected(u, w))
                    ref++;
            }
        }
    }
    EXPECT_EQ(fast, ref);
}

TEST(GraphKernels, ConnectedComponentsLabelsAreValid)
{
    Rng rng(16);
    CsrGraph g = buildRmat(8, 4, {}, rng);
    AddrSpace as;
    allocGraph(as, 0, "g", g, false);
    KernelLimits lim;
    lim.maxOps = 1u << 30;
    std::vector<std::uint32_t> labels;
    const Trace t = ccTrace(as, 0, g, lim, false, &labels);
    EXPECT_GT(t.size(), g.numEdges / 2);
    ASSERT_EQ(labels.size(), g.numVertices);
    // Connected vertices share a label.
    for (std::uint32_t v = 0; v < g.numVertices; v++) {
        for (std::uint64_t k = g.offsets[v]; k < g.offsets[v + 1]; k++)
            EXPECT_EQ(labels[v], labels[g.neighbors[k]]);
    }
    // Labels are canonical component minima.
    for (std::uint32_t v = 0; v < g.numVertices; v++)
        EXPECT_LE(labels[v], v);
}

TEST(GraphKernels, PageRankEmitsAllIterations)
{
    Rng rng(17);
    CsrGraph g = buildRmat(8, 4, {}, rng);
    AddrSpace as;
    allocGraph(as, 0, "g", g, false);
    KernelLimits lim;
    lim.maxOps = 1u << 30;
    const Trace two = prTrace(as, 0, g, 2, lim, false);
    AddrSpace as2;
    CsrGraph g2 = g;
    g2.offsetsAddr = g2.neighborsAddr = 0;
    allocGraph(as2, 0, "g", g2, false);
    const Trace four = prTrace(as2, 0, g2, 4, lim, false);
    EXPECT_NEAR(static_cast<double>(four.size()),
                2.0 * static_cast<double>(two.size()),
                0.1 * static_cast<double>(four.size()));
}

TEST(Registry, NewWorkloadVariantsBuild)
{
    for (const char *name : {"pr-kron", "cc-kron", "redis-a", "redis-b"}) {
        const WorkloadBundle b = makeWorkload(name, {0.1, false, 42});
        EXPECT_GT(b.traces[0].size(), 1000u) << name;
    }
    // YCSB-A writes far more than YCSB-B.
    auto stores = [](const WorkloadBundle &b) {
        std::uint64_t n = 0;
        for (const TraceOp &op : b.traces[0].ops)
            n += op.kind() == OpKind::Store;
        return n;
    };
    const WorkloadBundle a = makeWorkload("redis-a", {0.1, false, 42});
    const WorkloadBundle bb = makeWorkload("redis-b", {0.1, false, 42});
    EXPECT_GT(stores(a), 2 * stores(bb));
}
