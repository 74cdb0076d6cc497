/**
 * @file
 * Performance monitoring unit: the counter file the tiering policies
 * read. It exposes exactly the counters the paper's Table 1 relies on —
 * per-tier LLC misses, TOR occupancy (T1), TOR busy cycles (T2) — plus
 * the ground-truth per-tier stall cycles the simulator can observe
 * directly (used only for model validation, never by policies).
 */

#ifndef PACT_SIM_PMU_HH
#define PACT_SIM_PMU_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace pact
{

/** Cumulative hardware counters. Policies consume deltas. */
struct Pmu
{
    /** Retired trace operations (instruction proxy). */
    std::uint64_t instructions = 0;
    /** Demand-load LLC misses per tier. */
    std::array<std::uint64_t, NumTiers> llcLoadMisses = {0, 0};
    /** All demand LLC misses (loads + stores) per tier. */
    std::array<std::uint64_t, NumTiers> llcMisses = {0, 0};
    /** LLC hits. */
    std::uint64_t llcHits = 0;
    /**
     * TOR_OCCUPANCY (T1): integral of outstanding-request count over
     * cycles, per tier.
     */
    std::array<std::uint64_t, NumTiers> torOccupancy = {0, 0};
    /**
     * TOR_OCCUPANCY_COUNTER0 (T2): cycles with at least one
     * outstanding request, per tier.
     */
    std::array<std::uint64_t, NumTiers> torBusy = {0, 0};
    /**
     * Ground-truth stall cycles attributed to waiting on each tier
     * (cycle advances caused by dependence/MSHR/ROB waits on a miss to
     * that tier). Used to validate Equation 1, not by policies.
     */
    std::array<std::uint64_t, NumTiers> stallCycles = {0, 0};
    /** Compute (gap) cycles consumed. */
    std::uint64_t computeCycles = 0;
    /** NUMA hint faults taken. */
    std::uint64_t hintFaults = 0;
    /** Prefetch lines issued. */
    std::uint64_t prefetches = 0;

    /** Per-tier average MLP since the snapshot baseline. */
    static double
    mlp(std::uint64_t d_t1, std::uint64_t d_t2)
    {
        return d_t2 == 0 ? 1.0
                         : static_cast<double>(d_t1) /
                               static_cast<double>(d_t2);
    }
};

/** One row of the Pmu field table: a scalar or a per-tier array. */
struct PmuField
{
    /** Registry leaf name (per-tier fields: "<tier>.<name>"). */
    const char *name;
    const char *desc;
    std::uint64_t Pmu::*scalar;
    std::array<std::uint64_t, NumTiers> Pmu::*perTier;
};

/** Every Pmu field, once: the list each whole-PMU operation walks. */
inline constexpr PmuField PmuFields[] = {
    {"instructions", "retired trace ops", &Pmu::instructions, nullptr},
    {"llc_hits", "LLC hits", &Pmu::llcHits, nullptr},
    {"compute_cycles", "compute (gap) cycles", &Pmu::computeCycles,
     nullptr},
    {"hint_faults", "NUMA hint faults", &Pmu::hintFaults, nullptr},
    {"prefetches", "prefetch lines issued", &Pmu::prefetches, nullptr},
    {"llc_misses", "demand LLC misses", nullptr, &Pmu::llcMisses},
    {"llc_load_misses", "demand-load LLC misses", nullptr,
     &Pmu::llcLoadMisses},
    {"tor_occupancy", "TOR occupancy integral (T1)", nullptr,
     &Pmu::torOccupancy},
    {"tor_busy", "TOR busy cycles (T2)", nullptr, &Pmu::torBusy},
    {"stall_cycles", "ground-truth stall cycles", nullptr,
     &Pmu::stallCycles},
};

/** One counter of a Pmu: a scalar field, or one tier's slot of one. */
struct PmuCounter
{
    const PmuField *field;
    unsigned tier;

    /** Registry leaf name: "<name>", or "fast.<name>" / "slow.<name>". */
    std::string
    name() const
    {
        static const char *const tierName[NumTiers] = {"fast", "slow"};
        return field->scalar ? std::string(field->name)
                             : std::string(tierName[tier]) + "." +
                                   field->name;
    }
    std::uint64_t &
    of(Pmu &p) const
    {
        return field->scalar ? p.*field->scalar : (p.*field->perTier)[tier];
    }
};

/** Call @p fn(PmuCounter) for every counter of a Pmu. */
template <class Fn>
void
forEachPmuCounter(Fn &&fn)
{
    for (const PmuField &f : PmuFields) {
        for (unsigned t = 0; t < (f.scalar ? 1u : NumTiers); t++)
            fn(PmuCounter{&f, t});
    }
}

/** A snapshot of the PMU for delta computation. */
struct PmuSnapshot
{
    Pmu at;

    /** Capture current values. */
    void take(const Pmu &pmu) { at = pmu; }
};

/** Per-window deltas of the counters PACT's Algorithm 1 needs. */
struct PmuWindow
{
    std::uint64_t llcLoadMisses[NumTiers];
    std::uint64_t llcMisses[NumTiers];
    std::uint64_t torOccupancy[NumTiers];
    std::uint64_t torBusy[NumTiers];
    std::uint64_t stallCycles[NumTiers];

    /** MLP = dT1/dT2 for a tier (>= 1 clamp as on hardware). */
    double
    mlp(TierId t) const
    {
        const unsigned i = tierIndex(t);
        const double m = Pmu::mlp(torOccupancy[i], torBusy[i]);
        return m < 1.0 ? 1.0 : m;
    }
};

/** Compute deltas between a snapshot and the current PMU state. */
inline PmuWindow
pmuDelta(const PmuSnapshot &snap, const Pmu &now)
{
    PmuWindow w;
    for (unsigned i = 0; i < NumTiers; i++) {
        w.llcLoadMisses[i] = now.llcLoadMisses[i] - snap.at.llcLoadMisses[i];
        w.llcMisses[i] = now.llcMisses[i] - snap.at.llcMisses[i];
        w.torOccupancy[i] = now.torOccupancy[i] - snap.at.torOccupancy[i];
        w.torBusy[i] = now.torBusy[i] - snap.at.torBusy[i];
        w.stallCycles[i] = now.stallCycles[i] - snap.at.stallCycles[i];
    }
    return w;
}

} // namespace pact

#endif // PACT_SIM_PMU_HH
