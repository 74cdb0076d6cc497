#include "workloads/graph_kernels.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace pact
{

namespace
{

constexpr std::uint32_t Unset = std::numeric_limits<std::uint32_t>::max();

/**
 * Emit the line loads a sequential scan of [start, start+bytes) makes.
 * The first load carries the dependence on the producing pointer.
 */
void
rangeLoads(Trace &t, Addr start, std::uint64_t bytes, bool first_dep,
           std::uint16_t gap)
{
    if (bytes == 0)
        return;
    const Addr first = start & ~(LineBytes - 1);
    const Addr last = (start + bytes - 1) & ~(LineBytes - 1);
    bool dep = first_dep;
    for (Addr a = first; a <= last; a += LineBytes) {
        t.load(a, dep, gap);
        dep = false;
    }
}

/** Full trace budget reached? */
bool
full(const Trace &t, const KernelLimits &lim)
{
    return t.size() >= lim.maxOps;
}

/**
 * Reserve a kernel's whole trace up front, so that recording never
 * reallocates (a reallocation keeps both copies resident). Three parts:
 * - the budget, or the kernel's own estimate @p ops when smaller;
 * - the overshoot: full() is checked once per vertex, so the last
 *   vertex emits its whole row past the budget. That is at most
 *   @p per_edge ops plus one line load per edge, and a few ops per
 *   vertex;
 * - the init pass prependInitPass() later puts in front: one store
 *   per page of every object @p proc has allocated, so call this after
 *   the kernel's own allocations.
 */
void
reserveTrace(Trace &t, const AddrSpace &as, ProcId proc,
             const CsrGraph &g, const KernelLimits &lim, std::uint64_t ops,
             std::uint64_t per_edge)
{
    std::uint64_t initPages = 0;
    for (const ObjectInfo &obj : as.objects()) {
        if (obj.proc == proc)
            initPages += obj.pages();
    }
    t.ops.reserve(std::min(lim.maxOps, ops) +
                  (per_edge + 1) * g.maxDegree() + 8 + initPages);
}

} // namespace

Trace
bfsTrace(AddrSpace &as, ProcId proc, CsrGraph &g, std::uint32_t source,
         const KernelLimits &lim, bool thp)
{
    Trace t;
    t.name = "bfs";
    t.proc = proc;

    const Addr depthAddr =
        as.alloc(proc, "bfs.depth", 4ull * g.numVertices, thp);
    const Addr queueAddr =
        as.alloc(proc, "bfs.queue", 4ull * g.numVertices, thp);
    reserveTrace(t, as, proc, g, lim, 4 * g.numEdges, 3);

    std::vector<std::uint32_t> depth(g.numVertices, Unset);
    std::vector<std::uint32_t> queue;
    queue.reserve(g.numVertices);

    depth[source] = 0;
    queue.push_back(source);
    t.store(queueAddr);

    for (std::size_t head = 0; head < queue.size() && !full(t, lim);
         head++) {
        const std::uint32_t v = queue[head];
        t.load(queueAddr + 4ull * head);             // pop frontier
        t.load(g.offAddr(v), true, lim.gap);         // offsets[v]
        const std::uint64_t begin = g.offsets[v];
        const std::uint64_t end = g.offsets[v + 1];
        rangeLoads(t, g.nbrAddr(begin), 4 * (end - begin), true, 0);
        for (std::uint64_t k = begin; k < end; k++) {
            const std::uint32_t u = g.neighbors[k];
            t.load(depthAddr + 4ull * u, true, lim.gap); // depth[u]
            if (depth[u] == Unset) {
                depth[u] = depth[v] + 1;
                t.store(depthAddr + 4ull * u);
                t.store(queueAddr + 4ull * queue.size());
                queue.push_back(u);
            }
        }
    }
    return t;
}

Trace
bcTrace(AddrSpace &as, ProcId proc, CsrGraph &g, std::uint32_t num_sources,
        const KernelLimits &lim, bool thp)
{
    Trace t;
    t.name = "bc";
    t.proc = proc;

    const std::uint64_t vbytes = 4ull * g.numVertices;
    const Addr depthAddr = as.alloc(proc, "bc.depth", vbytes, thp);
    const Addr sigmaAddr = as.alloc(proc, "bc.sigma", vbytes, thp);
    const Addr deltaAddr = as.alloc(proc, "bc.delta", vbytes, thp);
    const Addr queueAddr = as.alloc(proc, "bc.queue", vbytes, thp);
    const Addr scoreAddr = as.alloc(proc, "bc.scores", vbytes, thp);
    reserveTrace(t, as, proc, g, lim, 6 * g.numEdges, 5);

    std::vector<std::uint32_t> depth(g.numVertices);
    std::vector<double> sigma(g.numVertices);
    std::vector<double> delta(g.numVertices);
    std::vector<std::uint32_t> queue;
    queue.reserve(g.numVertices);

    Rng srcRng(0x9c0ffee1 + g.numVertices);
    for (std::uint32_t s = 0; s < num_sources && !full(t, lim); s++) {
        // GAPBS resamples until the root has outgoing edges.
        auto source =
            static_cast<std::uint32_t>(srcRng.below(g.numVertices));
        for (unsigned tries = 0; g.degree(source) == 0 && tries < 10000;
             tries++) {
            source =
                static_cast<std::uint32_t>(srcRng.below(g.numVertices));
        }
        std::fill(depth.begin(), depth.end(), Unset);
        std::fill(sigma.begin(), sigma.end(), 0.0);
        std::fill(delta.begin(), delta.end(), 0.0);
        queue.clear();

        // Forward BFS counting shortest paths.
        depth[source] = 0;
        sigma[source] = 1.0;
        queue.push_back(source);
        t.store(queueAddr);
        for (std::size_t head = 0; head < queue.size() && !full(t, lim);
             head++) {
            const std::uint32_t v = queue[head];
            t.load(queueAddr + 4ull * head);
            t.load(g.offAddr(v), true, lim.gap);
            const std::uint64_t begin = g.offsets[v];
            const std::uint64_t end = g.offsets[v + 1];
            rangeLoads(t, g.nbrAddr(begin), 4 * (end - begin), true, 0);
            for (std::uint64_t k = begin; k < end; k++) {
                const std::uint32_t u = g.neighbors[k];
                t.load(depthAddr + 4ull * u, true, lim.gap);
                if (depth[u] == Unset) {
                    depth[u] = depth[v] + 1;
                    t.store(depthAddr + 4ull * u);
                    t.store(queueAddr + 4ull * queue.size());
                    queue.push_back(u);
                }
                if (depth[u] == depth[v] + 1) {
                    sigma[u] += sigma[v];
                    t.load(sigmaAddr + 4ull * v, true);
                    t.store(sigmaAddr + 4ull * u);
                }
            }
        }

        // Backward pass: accumulate dependencies in reverse BFS order.
        for (std::size_t i = queue.size(); i-- > 0 && !full(t, lim);) {
            const std::uint32_t v = queue[i];
            t.load(queueAddr + 4ull * i);
            t.load(g.offAddr(v), true, lim.gap);
            const std::uint64_t begin = g.offsets[v];
            const std::uint64_t end = g.offsets[v + 1];
            rangeLoads(t, g.nbrAddr(begin), 4 * (end - begin), true, 0);
            for (std::uint64_t k = begin; k < end; k++) {
                const std::uint32_t u = g.neighbors[k];
                t.load(depthAddr + 4ull * u, true, lim.gap);
                if (depth[u] == depth[v] + 1) {
                    t.load(sigmaAddr + 4ull * u, true);
                    t.load(deltaAddr + 4ull * u, true);
                    delta[v] += sigma[v] / sigma[u] * (1.0 + delta[u]);
                    t.store(deltaAddr + 4ull * v);
                }
            }
            t.store(scoreAddr + 4ull * v);
        }
    }
    return t;
}

Trace
ssspTrace(AddrSpace &as, ProcId proc, CsrGraph &g, std::uint32_t source,
          const KernelLimits &lim, bool thp)
{
    panic_if(g.weightsAddr == 0, "ssspTrace: graph lacks weights");
    Trace t;
    t.name = "sssp";
    t.proc = proc;

    const Addr distAddr =
        as.alloc(proc, "sssp.dist", 4ull * g.numVertices, thp);
    const Addr queueAddr =
        as.alloc(proc, "sssp.queue", 4ull * g.numVertices, thp);
    reserveTrace(t, as, proc, g, lim, 6 * g.numEdges, 3);

    constexpr std::uint32_t Inf = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> dist(g.numVertices, Inf);
    std::vector<std::uint8_t> inQueue(g.numVertices, 0);
    std::vector<std::uint32_t> frontier{source};
    std::vector<std::uint32_t> next;

    dist[source] = 0;
    t.store(queueAddr);

    while (!frontier.empty() && !full(t, lim)) {
        next.clear();
        for (std::size_t i = 0; i < frontier.size() && !full(t, lim);
             i++) {
            const std::uint32_t v = frontier[i];
            inQueue[v] = 0;
            t.load(queueAddr + 4ull * i);
            t.load(g.offAddr(v), true, lim.gap);
            const std::uint64_t begin = g.offsets[v];
            const std::uint64_t end = g.offsets[v + 1];
            rangeLoads(t, g.nbrAddr(begin), 4 * (end - begin), true, 0);
            rangeLoads(t, g.wtAddr(begin), end - begin, false, 0);
            for (std::uint64_t k = begin; k < end; k++) {
                const std::uint32_t u = g.neighbors[k];
                const std::uint32_t cand = dist[v] + g.weights[k];
                t.load(distAddr + 4ull * u, true, lim.gap);
                if (cand < dist[u]) {
                    dist[u] = cand;
                    t.store(distAddr + 4ull * u);
                    if (!inQueue[u]) {
                        inQueue[u] = 1;
                        t.store(queueAddr + 4ull * next.size());
                        next.push_back(u);
                    }
                }
            }
        }
        frontier.swap(next);
    }
    return t;
}

Trace
tcTrace(AddrSpace &as, ProcId proc, CsrGraph &g, const KernelLimits &lim,
        bool thp, std::uint64_t *triangles_out)
{
    (void)thp;
    Trace t;
    t.name = "tc";
    t.proc = proc;
    // Each edge (u, v) with v > u costs at most two loads plus a merge
    // over both rows, and the budget is checked once per such edge.
    reserveTrace(t, as, proc, g, lim,
                 g.numVertices + g.numEdges / 2 * (2 + 2 * g.maxDegree()),
                 2);

    // GAPBS sorts adjacency lists and counts u < v < w triangles by
    // merge-intersection; the graph arrays themselves are the
    // footprint (no auxiliary vertex state).
    std::uint64_t triangles = 0;
    for (std::uint32_t u = 0; u < g.numVertices && !full(t, lim); u++) {
        t.load(g.offAddr(u), false, lim.gap);
        const std::uint64_t ub = g.offsets[u];
        const std::uint64_t ue = g.offsets[u + 1];
        for (std::uint64_t k = ub; k < ue && !full(t, lim); k++) {
            const std::uint32_t v = g.neighbors[k];
            if (v <= u)
                continue;
            t.load(g.nbrAddr(k), true);
            t.load(g.offAddr(v), true, lim.gap);
            // Merge-intersect adj(u) and adj(v) (both sorted),
            // counting common neighbours w < u so each triangle
            // w < u < v is counted exactly once.
            std::uint64_t i = ub, j = g.offsets[v];
            const std::uint64_t je = g.offsets[v + 1];
            while (i < ue && j < je) {
                const std::uint32_t a = g.neighbors[i];
                const std::uint32_t b = g.neighbors[j];
                if (a >= u)
                    break;
                // Each merge step touches one element of either list.
                if (a < b) {
                    t.load(g.nbrAddr(i), false, lim.gap);
                    i++;
                } else if (b < a) {
                    t.load(g.nbrAddr(j), false, lim.gap);
                    j++;
                } else {
                    triangles++;
                    t.load(g.nbrAddr(i), false, lim.gap);
                    i++;
                    j++;
                }
            }
            if (full(t, lim))
                break;
        }
    }
    if (triangles_out)
        *triangles_out = triangles;
    return t;
}

Trace
prTrace(AddrSpace &as, ProcId proc, CsrGraph &g,
        std::uint32_t iterations, const KernelLimits &lim, bool thp)
{
    Trace t;
    t.name = "pr";
    t.proc = proc;

    const std::uint64_t vbytes = 4ull * g.numVertices;
    const Addr rankAddr = as.alloc(proc, "pr.rank", vbytes, thp);
    const Addr nextAddr = as.alloc(proc, "pr.next", vbytes, thp);
    reserveTrace(t, as, proc, g, lim,
                 iterations * (g.numEdges + 2 * g.numVertices), 1);

    std::vector<double> rank(g.numVertices,
                             1.0 / static_cast<double>(g.numVertices));
    std::vector<double> next(g.numVertices, 0.0);
    constexpr double d = 0.85;

    for (std::uint32_t it = 0; it < iterations && !full(t, lim); it++) {
        for (std::uint32_t v = 0; v < g.numVertices && !full(t, lim);
             v++) {
            // Pull model: sum incoming contributions by scanning the
            // (symmetric) adjacency — sequential neighbor loads plus
            // per-neighbor rank gathers.
            t.load(g.offAddr(v), false, lim.gap);
            const std::uint64_t begin = g.offsets[v];
            const std::uint64_t end = g.offsets[v + 1];
            rangeLoads(t, g.nbrAddr(begin), 4 * (end - begin), true, 0);
            double sum = 0.0;
            for (std::uint64_t k = begin; k < end; k++) {
                const std::uint32_t u = g.neighbors[k];
                const std::uint64_t du = g.degree(u);
                // Rank gathers are independent of one another: PR is
                // the latency-tolerant, high-MLP graph kernel.
                t.load(rankAddr + 4ull * u, false, lim.gap);
                if (du > 0)
                    sum += rank[u] / static_cast<double>(du);
            }
            next[v] = (1.0 - d) / static_cast<double>(g.numVertices) +
                      d * sum;
            t.store(nextAddr + 4ull * v);
        }
        rank.swap(next);
    }
    return t;
}

Trace
ccTrace(AddrSpace &as, ProcId proc, CsrGraph &g, const KernelLimits &lim,
        bool thp, std::vector<std::uint32_t> *labels_out)
{
    Trace t;
    t.name = "cc";
    t.proc = proc;

    const Addr labelAddr =
        as.alloc(proc, "cc.labels", 4ull * g.numVertices, thp);
    reserveTrace(t, as, proc, g, lim, 4 * g.numEdges, 1);

    std::vector<std::uint32_t> label(g.numVertices);
    for (std::uint32_t v = 0; v < g.numVertices; v++)
        label[v] = v;

    bool changed = true;
    while (changed && !full(t, lim)) {
        changed = false;
        for (std::uint32_t v = 0; v < g.numVertices && !full(t, lim);
             v++) {
            t.load(g.offAddr(v), false, lim.gap);
            const std::uint64_t begin = g.offsets[v];
            const std::uint64_t end = g.offsets[v + 1];
            rangeLoads(t, g.nbrAddr(begin), 4 * (end - begin), true, 0);
            std::uint32_t best = label[v];
            t.load(labelAddr + 4ull * v, false, lim.gap);
            for (std::uint64_t k = begin; k < end; k++) {
                const std::uint32_t u = g.neighbors[k];
                t.load(labelAddr + 4ull * u, true, lim.gap);
                best = std::min(best, label[u]);
            }
            if (best < label[v]) {
                label[v] = best;
                t.store(labelAddr + 4ull * v);
                changed = true;
            }
        }
    }
    if (labels_out)
        *labels_out = std::move(label);
    return t;
}

} // namespace pact
