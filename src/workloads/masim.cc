#include "workloads/masim.hh"

#include "common/error.hh"
#include "common/logging.hh"
#include "common/pool.hh"

namespace pact
{

namespace
{

/** Per-region generation state. */
struct RegionState
{
    Addr base = 0;
    std::uint64_t lines = 0;
    std::uint64_t seqCursor = 0;
    /** Pointer-chase cycle over 64B slots (lazy; chase only). */
    std::vector<std::uint32_t> chase;
    std::uint32_t chaseCursor = 0;
};

void
emitOne(Trace &trace, const MasimRegion &region, RegionState &st,
        Rng &rng)
{
    Addr a = 0;
    bool dep = false;
    switch (region.pattern) {
      case MasimPattern::Sequential:
        a = st.base + (st.seqCursor % st.lines) * LineBytes;
        st.seqCursor++;
        break;
      case MasimPattern::Random:
        a = st.base + rng.below(st.lines) * LineBytes;
        break;
      case MasimPattern::PointerChase:
        a = st.base + static_cast<Addr>(st.chaseCursor) * LineBytes;
        st.chaseCursor = st.chase[st.chaseCursor];
        dep = true;
        break;
    }
    const bool store =
        region.storeRatio > 0.0 && rng.chance(region.storeRatio);
    if (store)
        trace.store(a, region.gap);
    else
        trace.load(a, dep, region.gap);
}

/**
 * Register every region's backing in the address space (a serial bump
 * allocation; no randomness), returning the per-region generation
 * state the emit phase consumes.
 */
std::vector<RegionState>
allocRegions(AddrSpace &as, ProcId proc, const MasimParams &params,
             bool thp)
{
    throw_workload_if(params.regions.empty(), "masim: no regions");
    std::vector<RegionState> states(params.regions.size());
    for (std::size_t i = 0; i < params.regions.size(); i++) {
        const MasimRegion &r = params.regions[i];
        states[i].base = as.alloc(proc, r.name, r.bytes, thp);
        states[i].lines = r.bytes / LineBytes;
    }
    return states;
}

/**
 * Record the access stream over pre-allocated regions. Reads nothing
 * shared, so traces of a multi-process bundle can emit concurrently,
 * each on its own RNG stream.
 */
Trace
emitMasim(const MasimParams &params, std::vector<RegionState> states,
          ProcId proc, Rng &rng)
{
    Trace trace;
    trace.name = "masim";
    trace.proc = proc;
    trace.ops.reserve(params.ops);

    double totalWeight = 0.0;
    for (std::size_t i = 0; i < params.regions.size(); i++) {
        // Chase cycles are part of the recorded behavior, so they draw
        // from the trace's rng (in region order, as before).
        if (params.regions[i].pattern == MasimPattern::PointerChase)
            states[i].chase = chaseCycle(states[i].lines, rng);
        totalWeight += params.regions[i].weight;
    }

    if (params.phased) {
        // Regions take turns; a region's phase length scales with its
        // weight so weights still control relative access frequency.
        std::size_t active = 0;
        std::uint64_t emitted = 0;
        while (emitted < params.ops) {
            const auto len = static_cast<std::uint64_t>(
                static_cast<double>(params.phaseOps) *
                params.regions[active].weight);
            for (std::uint64_t i = 0; i < len && emitted < params.ops;
                 i++) {
                emitOne(trace, params.regions[active], states[active],
                        rng);
                emitted++;
            }
            active = (active + 1) % params.regions.size();
        }
        return trace;
    }

    for (std::uint64_t i = 0; i < params.ops; i++) {
        // Pick a region by weight.
        double pick = rng.uniform() * totalWeight;
        std::size_t idx = 0;
        for (; idx + 1 < params.regions.size(); idx++) {
            pick -= params.regions[idx].weight;
            if (pick < 0.0)
                break;
        }
        emitOne(trace, params.regions[idx], states[idx], rng);
    }
    return trace;
}

} // namespace

Trace
buildMasim(AddrSpace &as, ProcId proc, const MasimParams &params, Rng &rng,
           bool thp)
{
    return emitMasim(params, allocRegions(as, proc, params, thp), proc,
                     rng);
}

WorkloadBundle
makeMasimDefault(const WorkloadOptions &opt)
{
    WorkloadBundle b;
    b.name = "masim";
    Rng rng(opt.seed);

    MasimParams p;
    MasimRegion seq;
    seq.name = "masim.stream";
    seq.bytes = scaled(32ull << 20, opt.scale, 1 << 20);
    seq.pattern = MasimPattern::Sequential;
    seq.weight = 1.0;
    MasimRegion chase;
    chase.name = "masim.chase";
    chase.bytes = scaled(32ull << 20, opt.scale, 1 << 20);
    chase.pattern = MasimPattern::PointerChase;
    chase.weight = 1.0;
    p.regions = {seq, chase};
    p.ops = scaled(4000000, opt.scale, 100000);

    b.traces.push_back(buildMasim(b.as, 0, p, rng, opt.thp));
    return b;
}

WorkloadBundle
makePacInversion(const WorkloadOptions &opt)
{
    WorkloadBundle b;
    b.name = "pac-inversion";
    Rng rng(opt.seed);

    MasimParams p;
    MasimRegion hot;
    hot.name = "inv.hot-random";
    hot.bytes = scaled(8ull << 20, opt.scale, 1 << 20);
    hot.pattern = MasimPattern::Random;
    hot.weight = 3.0; // frequently accessed, but latency-tolerant
    MasimRegion chase;
    chase.name = "inv.cold-chase";
    chase.bytes = scaled(24ull << 20, opt.scale, 1 << 20);
    chase.pattern = MasimPattern::PointerChase;
    chase.weight = 1.0; // rarely accessed, but latency-critical
    p.regions = {hot, chase};
    p.ops = scaled(4000000, opt.scale, 100000);
    // Time-separated phases keep per-window MLP meaningful.
    p.phased = true;
    p.phaseOps = scaled(250000, opt.scale, 20000);

    b.traces.push_back(buildMasim(b.as, 0, p, rng, opt.thp));
    return b;
}

WorkloadBundle
makeMasimColocation(const WorkloadOptions &opt)
{
    WorkloadBundle b;
    b.name = "masim-coloc";

    // Process 0: streaming over its own 6GB-scaled working set.
    MasimParams seqp;
    MasimRegion seq;
    seq.name = "coloc.stream";
    seq.bytes = scaled(48ull << 20, opt.scale, 1 << 20);
    seq.pattern = MasimPattern::Sequential;
    seqp.regions = {seq};
    seqp.ops = scaled(3000000, opt.scale, 100000);

    // Process 1: pointer-chase random access, same footprint.
    MasimParams rndp;
    MasimRegion rnd;
    rnd.name = "coloc.random";
    rnd.bytes = scaled(48ull << 20, opt.scale, 1 << 20);
    rnd.pattern = MasimPattern::PointerChase;
    rndp.regions = {rnd};
    rndp.ops = scaled(3000000, opt.scale, 100000);

    // Allocations happen serially in a fixed order; each trace then
    // records on its own seed-derived RNG stream, so the two processes
    // emit concurrently with byte-identical output at any PACT_JOBS.
    std::vector<RegionState> st0 = allocRegions(b.as, 0, seqp, opt.thp);
    std::vector<RegionState> st1 = allocRegions(b.as, 1, rndp, opt.thp);
    b.traces.resize(2);
    parallelFor(2, [&](std::size_t i) {
        Rng rng(rngStream(opt.seed, i));
        if (i == 0) {
            b.traces[0] = emitMasim(seqp, std::move(st0), 0, rng);
            b.traces[0].name = "masim-seq";
        } else {
            b.traces[1] = emitMasim(rndp, std::move(st1), 1, rng);
            b.traces[1].name = "masim-rnd";
        }
    });
    return b;
}

WorkloadBundle
makeMasimColocationN(unsigned tenants, const WorkloadOptions &opt)
{
    throw_workload_if(tenants < 2 || tenants > 32,
                      "masim-coloc<N>: tenants must be in [2, 32], got ",
                      tenants);
    WorkloadBundle b;
    b.name = "masim-coloc" + std::to_string(tenants);

    // Process 0 is the latency-critical victim: a serialized pointer
    // chase whose slowdown is the experiment's headline number. The
    // other processes are bandwidth-hungry streamers whose demand
    // traffic contends on the shared tier token buckets.
    std::vector<MasimParams> params(tenants);
    MasimRegion victim;
    victim.name = "coloc.victim";
    victim.bytes = scaled(24ull << 20, opt.scale, 1 << 20);
    victim.pattern = MasimPattern::PointerChase;
    params[0].regions = {victim};
    params[0].ops = scaled(1500000, opt.scale, 50000);
    for (unsigned i = 1; i < tenants; i++) {
        MasimRegion stream;
        stream.name = "coloc.stream" + std::to_string(i);
        stream.bytes = scaled(12ull << 20, opt.scale, 1 << 20);
        stream.pattern = MasimPattern::Sequential;
        params[i].regions = {stream};
        params[i].ops = scaled(1500000, opt.scale, 50000);
    }

    // Serial allocation in process order fixes the address layout;
    // emission then parallelizes over per-process RNG streams, byte-
    // identical at any PACT_JOBS (the makeMasimColocation pattern).
    std::vector<std::vector<RegionState>> states(tenants);
    for (unsigned i = 0; i < tenants; i++)
        states[i] =
            allocRegions(b.as, static_cast<ProcId>(i), params[i], opt.thp);
    b.traces.resize(tenants);
    parallelFor(tenants, [&](std::size_t i) {
        Rng rng(rngStream(opt.seed, i));
        b.traces[i] = emitMasim(params[i], std::move(states[i]),
                                static_cast<ProcId>(i), rng);
        b.traces[i].name =
            i == 0 ? "coloc-victim" : "coloc-stream" + std::to_string(i);
    });
    return b;
}

} // namespace pact
