#include "harness/pool.hh"

#include <exception>

#include "common/error.hh"
#include "common/logging.hh"

namespace pact
{

namespace
{

/** Run one spec on the tenant or the single-daemon path it names. */
RunResult
runSpec(Runner &runner, const RunSpec &s)
{
    return s.tenants ? runner.runTenants(*s.bundle, s.policy, s.share,
                                         nullptr, &s.mods)
                     : runner.run(*s.bundle, s.policy, s.share, nullptr,
                                  &s.mods);
}

} // namespace

std::vector<RunResult>
runMany(Runner &runner, const std::vector<RunSpec> &specs, unsigned jobs)
{
    std::vector<RunResult> out(specs.size());
    parallelFor(
        specs.size(),
        [&](std::size_t i) {
            const RunSpec &s = specs[i];
            panic_if(!s.bundle, "runMany: spec without bundle");
            out[i] = runSpec(runner, s);
        },
        jobs);
    return out;
}

std::vector<RunOutcome>
runManyOutcomes(Runner &runner, const std::vector<RunSpec> &specs,
                unsigned jobs)
{
    std::vector<RunOutcome> out(specs.size());
    parallelFor(
        specs.size(),
        [&](std::size_t i) {
            const RunSpec &s = specs[i];
            panic_if(!s.bundle, "runManyOutcomes: spec without bundle");
            RunOutcome &o = out[i];
            o.spec = s;
            try {
                o.result = runSpec(runner, s);
                o.ok = true;
            } catch (const SimError &e) {
                o.error = {e.kind(), e.what()};
            } catch (const std::exception &e) {
                o.error = {"UnknownError", e.what()};
            }
        },
        jobs);
    return out;
}

obs::ManifestResult
manifestOutcome(const RunOutcome &o)
{
    obs::ManifestResult m;
    if (o.ok) {
        m = manifestResult(o.result);
    } else {
        m.workload = o.spec.bundle ? o.spec.bundle->name : "?";
        m.policy = o.spec.policy;
        m.ok = false;
        m.errorKind = o.error.kind;
        m.errorMessage = o.error.message;
    }
    m.fastShare = o.spec.share;
    return m;
}

} // namespace pact
