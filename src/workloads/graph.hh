/**
 * @file
 * Graph substrate for the GAPBS-style workloads: CSR representation,
 * Kronecker (RMAT) and uniform-random generators, and the simulated-
 * memory layout the kernels emit accesses against. Kronecker and the
 * twitter-like generator produce the skewed degree distributions whose
 * hub vertices give graph workloads their criticality structure
 * (paper §5.2: high-degree hubs -> serialized, high-stall accesses).
 */

#ifndef PACT_WORKLOADS_GRAPH_HH
#define PACT_WORKLOADS_GRAPH_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace pact
{

/** Compressed-sparse-row graph with its simulated-memory layout. */
struct CsrGraph
{
    std::uint32_t numVertices = 0;
    std::uint64_t numEdges = 0;
    /** Host-side CSR (drives the real algorithms). */
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint32_t> neighbors;
    /** Uniform [1,255] edge weights for SSSP. */
    std::vector<std::uint8_t> weights;

    /** Simulated addresses of the graph arrays. */
    Addr offsetsAddr = 0;
    Addr neighborsAddr = 0;
    Addr weightsAddr = 0;

    std::uint64_t degree(std::uint32_t v) const
    {
        return offsets[v + 1] - offsets[v];
    }

    /** Length of the longest row (O(V)). */
    std::uint64_t
    maxDegree() const
    {
        std::uint64_t d = 0;
        for (std::uint32_t v = 0; v < numVertices; v++)
            d = std::max(d, degree(v));
        return d;
    }

    /** Simulated address of offsets[v]. */
    Addr offAddr(std::uint32_t v) const { return offsetsAddr + 8ull * v; }
    /** Simulated address of neighbors[k]. */
    Addr nbrAddr(std::uint64_t k) const { return neighborsAddr + 4 * k; }
    /** Simulated address of weights[k]. */
    Addr wtAddr(std::uint64_t k) const { return weightsAddr + k; }
};

/** RMAT partition probabilities. */
struct RmatParams
{
    double a = 0.57;
    double b = 0.19;
    double c = 0.19;
};

/** Kronecker/RMAT generator (GAPBS -g equivalent). */
CsrGraph buildRmat(std::uint32_t scale, std::uint32_t edge_factor,
                   const RmatParams &p, Rng &rng);

/** Uniform-random generator (GAPBS -u equivalent). */
CsrGraph buildUniform(std::uint32_t scale, std::uint32_t edge_factor,
                      Rng &rng);

/**
 * Twitter-like graph: RMAT with heavier skew, standing in for the
 * paper's sparse Twitter snapshot.
 */
CsrGraph buildTwitterLike(std::uint32_t scale, std::uint32_t edge_factor,
                          Rng &rng);

/** Register the graph arrays in the simulated address space. */
void allocGraph(AddrSpace &as, ProcId proc, const std::string &prefix,
                CsrGraph &g, bool thp, bool with_weights = false);

} // namespace pact

#endif // PACT_WORKLOADS_GRAPH_HH
