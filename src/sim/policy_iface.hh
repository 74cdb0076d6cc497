/**
 * @file
 * The interface between the simulator and tiering policies, plus the
 * SimContext bundle of references a policy daemon operates on.
 */

#ifndef PACT_SIM_POLICY_IFACE_HH
#define PACT_SIM_POLICY_IFACE_HH

#include <array>

#include "common/rng.hh"
#include "common/types.hh"
#include "obs/events.hh"
#include "obs/metrics.hh"
#include "sim/config.hh"
#include "sim/pebs.hh"
#include "sim/pmu.hh"

namespace pact
{

class AddrSpace;
class Chmu;
class FaultPlan;
class LruLists;
class MigrationEngine;
class Tier;
class TierManager;

/** Everything a policy daemon can see and manipulate during a tick. */
struct SimContext
{
    const SimConfig &cfg;
    /** Global simulated time at the tick. */
    Cycles now = 0;
    Pmu &pmu;
    PebsSampler &pebs;
    TierManager &tm;
    LruLists &lru;
    MigrationEngine &mig;
    const AddrSpace &as;
    std::array<Tier *, NumTiers> tiers;
    Rng &rng;
    /** Device-side hotness unit, when SimConfig::chmu.enabled. */
    Chmu *chmu = nullptr;
    /** Live fault-injection plan, when SimConfig::faults enables one. */
    FaultPlan *faults = nullptr;
    /**
     * Opt-in decision provenance journal; policies emit
     * BinAssign/PromoteEnqueue/DemoteEnqueue events into it when
     * non-null (the engine wires it only when an events artifact was
     * requested).
     */
    obs::EventJournal *journal = nullptr;
    /**
     * Index of the tenant this context belongs to. Each tenant's
     * daemon gets its own context whose pmu/pebs views see only that
     * tenant's cores; tm/lru/mig/tiers stay shared (capacity and
     * bandwidth are machine-wide). 0 for single-tenant engines.
     */
    unsigned tenant = 0;
};

/** Receives synchronous access events from the CPU model. */
class AccessListener
{
  public:
    virtual ~AccessListener() = default;

    /**
     * A NUMA hint fault fired: the page had been armed by the policy
     * and was just accessed. The faulting process has already been
     * charged the fault cost.
     */
    virtual void onHintFault(PageId page, ProcId proc) { (void)page;
                                                         (void)proc; }
};

/**
 * A tiering policy: periodically woken (tick) with counter and sample
 * state, optionally trapping hint faults inline.
 */
class TieringPolicy : public AccessListener
{
  public:
    ~TieringPolicy() override = default;

    /** Stable identifier used in result tables. */
    virtual const char *name() const = 0;

    /** Called once before simulation starts. */
    virtual void start(SimContext &ctx) { (void)ctx; }

    /**
     * Register policy-internal stats into the engine's registry
     * (called at engine construction, before start()). Registered
     * sources must be members of the policy, which therefore must
     * outlive the engine.
     */
    virtual void registerStats(obs::StatRegistry &reg) { (void)reg; }

    /** Called every daemon period. */
    virtual void tick(SimContext &ctx) = 0;

    /**
     * Audit policy-internal invariants (SimConfig::audit); called by the
     * engine after every tick. Implementations throw InvariantError
     * with a dump of the violating entity.
     */
    virtual void audit(const SimContext &ctx) const { (void)ctx; }

    /** Called once after the primary workload completes. */
    virtual void finish(SimContext &ctx) { (void)ctx; }
};

} // namespace pact

#endif // PACT_SIM_POLICY_IFACE_HH
