#include "workloads/graph.hh"

#include <algorithm>
#include <utility>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/pool.hh"

namespace pact
{

namespace
{

/**
 * Edge-generation chunk size. Each chunk draws from its own
 * deterministic RNG stream and writes a disjoint, index-addressed
 * slice of the edge list, so the merged output is byte-identical to a
 * serial pass at any PACT_JOBS. 64K edges per chunk keeps scheduling
 * overhead negligible while still fanning a scale-18 build across
 * every core.
 */
constexpr std::uint64_t kEdgeChunk = 1ull << 16;

/**
 * Rows per task of the parallel row pass. R-MAT concentrates edges on
 * ids with many zero bits, so the first block of rows is the heaviest;
 * 1K-row blocks keep it to a small share of the work.
 */
constexpr std::uint32_t kRowBlock = 1u << 10;

using EdgeList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/**
 * Fill edges[e] for e in chunked parallel index order; genOne draws
 * one edge (u, v) from the chunk's stream. Each edge is stored once
 * and stands for both directions.
 */
template <typename GenOne>
EdgeList
generateEdges(std::uint64_t m, std::uint64_t streamSeed, GenOne genOne)
{
    EdgeList edges(m);
    const std::uint64_t chunks = (m + kEdgeChunk - 1) / kEdgeChunk;
    parallelFor(chunks, [&](std::size_t c) {
        Rng rng(rngStream(streamSeed, c));
        const std::uint64_t lo = c * kEdgeChunk;
        const std::uint64_t hi = std::min(m, lo + kEdgeChunk);
        for (std::uint64_t e = lo; e < hi; e++)
            edges[e] = genOne(rng);
    });
    return edges;
}

/**
 * Build the undirected CSR (deduplicated, self-loops dropped) in
 * linear time. A counting pass sizes each row and a scatter pass
 * buckets every edge into both endpoint rows. Rows are then sorted
 * and deduplicated independently in parallel, and compacted into the
 * neighbor array. Every row ends sorted, so the CSR does not depend
 * on the scatter order or on the job count. The weights are drawn
 * serially in CSR order, one per kept edge, so the caller's rng
 * advances exactly as a sort of the whole edge list would advance it.
 */
CsrGraph
toCsr(std::uint32_t n, EdgeList edges, Rng &rng)
{
    std::vector<std::uint64_t> start(n + 1, 0);
    for (const auto &[u, v] : edges) {
        start[u + 1]++;
        start[v + 1]++;
    }
    for (std::uint32_t v = 0; v < n; v++)
        start[v + 1] += start[v];

    std::vector<std::uint32_t> nbr(start[n]);
    {
        std::vector<std::uint64_t> cursor(start.begin(), start.end() - 1);
        for (const auto &[u, v] : edges) {
            nbr[cursor[u]++] = v;
            nbr[cursor[v]++] = u;
        }
    }
    EdgeList().swap(edges);

    CsrGraph g;
    g.numVertices = n;
    g.offsets.assign(n + 1, 0);
    // offsets[u + 1] holds row u's kept length until the prefix sum.
    parallelFor((n + kRowBlock - 1) / kRowBlock, [&](std::size_t b) {
        const auto lo = static_cast<std::uint32_t>(b * kRowBlock);
        const std::uint32_t hi = std::min(n, lo + kRowBlock);
        for (std::uint32_t u = lo; u < hi; u++) {
            const auto first = nbr.begin() + start[u];
            auto last = nbr.begin() + start[u + 1];
            std::sort(first, last);
            last = std::unique(first, last);
            const auto self = std::lower_bound(first, last, u);
            if (self != last && *self == u)
                last = std::move(self + 1, last, self);
            g.offsets[u + 1] = last - first;
        }
    });

    // Compact the kept rows into an exactly sized neighbor array.
    for (std::uint32_t u = 0; u < n; u++)
        g.offsets[u + 1] += g.offsets[u];
    g.numEdges = g.offsets[n];
    g.neighbors.resize(g.numEdges);
    for (std::uint32_t u = 0; u < n; u++) {
        std::copy(nbr.begin() + start[u],
                  nbr.begin() + start[u] + g.degree(u),
                  g.neighbors.begin() + g.offsets[u]);
    }
    std::vector<std::uint32_t>().swap(nbr);

    g.weights.resize(g.numEdges);
    for (std::uint8_t &w : g.weights)
        w = static_cast<std::uint8_t>(1 + rng.below(255));
    return g;
}

} // namespace

CsrGraph
buildRmat(std::uint32_t scale, std::uint32_t edge_factor,
          const RmatParams &p, Rng &rng)
{
    const std::uint32_t n = 1u << scale;
    const std::uint64_t m = static_cast<std::uint64_t>(n) * edge_factor;

    // One draw from the caller's rng seeds every chunk stream; the
    // caller's rng then continues with the CSR weight pass, so the
    // whole build is deterministic at any job count.
    const std::uint64_t streamSeed = rng.next();
    // Quadrant pick without branches: r < a is top-left, then
    // top-right, bottom-left and bottom-right by the cumulative sums.
    const double ab = p.a + p.b;
    const double abc = ab + p.c;
    auto edges = generateEdges(
        m, streamSeed,
        [&p, ab, abc, scale](Rng &crng)
            -> std::pair<std::uint32_t, std::uint32_t> {
            std::uint32_t u = 0, v = 0;
            for (std::uint32_t bit = 0; bit < scale; bit++) {
                const double r = crng.uniform();
                const std::uint32_t ub = r >= ab;
                const std::uint32_t vb =
                    (r >= p.a) & ((r < ab) | (r >= abc));
                u = (u << 1) | ub;
                v = (v << 1) | vb;
            }
            return {u, v};
        });
    return toCsr(n, std::move(edges), rng);
}

CsrGraph
buildUniform(std::uint32_t scale, std::uint32_t edge_factor, Rng &rng)
{
    const std::uint32_t n = 1u << scale;
    const std::uint64_t m = static_cast<std::uint64_t>(n) * edge_factor;

    const std::uint64_t streamSeed = rng.next();
    auto edges = generateEdges(
        m, streamSeed,
        [n](Rng &crng) -> std::pair<std::uint32_t, std::uint32_t> {
            const auto u = static_cast<std::uint32_t>(crng.below(n));
            const auto v = static_cast<std::uint32_t>(crng.below(n));
            return {u, v};
        });
    return toCsr(n, std::move(edges), rng);
}

CsrGraph
buildTwitterLike(std::uint32_t scale, std::uint32_t edge_factor, Rng &rng)
{
    // Heavier top-left concentration -> steeper power law, like the
    // follower distribution of the Twitter graph.
    RmatParams p;
    p.a = 0.65;
    p.b = 0.15;
    p.c = 0.15;
    return buildRmat(scale, edge_factor, p, rng);
}

void
allocGraph(AddrSpace &as, ProcId proc, const std::string &prefix,
           CsrGraph &g, bool thp, bool with_weights)
{
    throw_workload_if(g.numVertices == 0, "allocGraph: empty graph");
    g.offsetsAddr = as.alloc(proc, prefix + ".offsets",
                             8ull * (g.numVertices + 1), thp);
    g.neighborsAddr =
        as.alloc(proc, prefix + ".neighbors", 4ull * g.numEdges, thp);
    if (with_weights)
        g.weightsAddr = as.alloc(proc, prefix + ".weights", g.numEdges,
                                 thp);
}

} // namespace pact
