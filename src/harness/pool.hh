/**
 * @file
 * Parallel experiment harness: helpers that use parallelFor to fan
 * independent (bundle, policy, share) runs out across cores. Every
 * run owns its Engine and RNG, so results are bit-identical regardless
 * of worker count; PACT_JOBS controls the default fan-out
 * (hardware_concurrency when unset, 1 preserving fully serial
 * execution).
 */

#ifndef PACT_HARNESS_POOL_HH
#define PACT_HARNESS_POOL_HH

#include <string>
#include <vector>

#include "common/pool.hh"
#include "harness/runner.hh"

namespace pact
{

/** One unit of harness work: a policy on a bundle at a fast share. */
struct RunSpec
{
    /** Bundle to run; must outlive the runMany() call. */
    const WorkloadBundle *bundle = nullptr;
    /** Registry policy name (each run constructs its own instance). */
    std::string policy;
    /** Fast-tier capacity as a fraction of RSS. */
    double share = 0.5;
    /**
     * Run through Runner::runTenants(): every trace becomes a tenant
     * with its own core and policy-daemon instance on the shared
     * tiers, instead of one daemon over all traces.
     */
    bool tenants = false;
    /**
     * Per-spec config overrides (fault plan, seed) layered over the
     * runner's base config — how the chaos harness gives every spec
     * its own randomized-but-seeded fault schedule.
     */
    RunOverrides mods;

    RunSpec() = default;
    RunSpec(const WorkloadBundle *b, std::string p, double s = 0.5,
            bool t = false, RunOverrides m = {})
        : bundle(b), policy(std::move(p)), share(s), tenants(t),
          mods(std::move(m))
    {
    }
};

/**
 * Execute every spec through @p runner, @p jobs at a time (0 selects
 * envJobs()). Results are returned in spec order and are bit-identical
 * for any job count: each run owns its Engine/policy/RNG and the
 * runner's baseline cache is computed exactly once per bundle.
 *
 * A run that throws does not abort the sweep: every other spec still
 * executes, then the error from the lowest-indexed failing spec
 * propagates (parallelFor semantics). Use runManyOutcomes() to capture
 * failures per-run instead of propagating them.
 */
std::vector<RunResult> runMany(Runner &runner,
                               const std::vector<RunSpec> &specs,
                               unsigned jobs = 0);

/** Why a sweep run failed, in manifest-ready form. */
struct RunError
{
    /** SimError::kind(), or "UnknownError" for foreign exceptions. */
    std::string kind;
    std::string message;
};

/** One sweep slot: either a completed result or a captured failure. */
struct RunOutcome
{
    /** The spec this outcome answers (copied for the manifest). */
    RunSpec spec;
    /** The run did not throw (it may still have been truncated; see
     *  RunStats::completed and manifestOutcome()). */
    bool ok = false;
    /** Valid when ok. */
    RunResult result;
    /** Valid when !ok. */
    RunError error;
};

/**
 * Fault-tolerant sweep: like runMany(), but a run that throws SimError
 * (or any std::exception) is captured as a failed RunOutcome in its
 * slot while every other run completes normally. Surviving results are
 * bit-identical to a sweep without the failing spec, at any job count.
 */
std::vector<RunOutcome> runManyOutcomes(Runner &runner,
                                        const std::vector<RunSpec> &specs,
                                        unsigned jobs = 0);

/**
 * Reshape an outcome (success or failure) for the manifest writer. A
 * thrown run and a truncated one both become `ok: false` rows.
 */
obs::ManifestResult manifestOutcome(const RunOutcome &o);

} // namespace pact

#endif // PACT_HARNESS_POOL_HH
