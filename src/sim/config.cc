#include "sim/config.hh"

#include <cmath>

#include "common/error.hh"
#include "fault/fault.hh"

namespace pact
{

namespace
{

/** A tier's latency/bandwidth parameters must describe real hardware. */
void
validateTier(const char *which, const TierParams &t)
{
    throw_config_if(t.latencyCycles == 0, "SimConfig.", which,
                    ".latencyCycles must be >= 1, got 0");
    throw_config_if(!std::isfinite(t.serviceCycles) || t.serviceCycles <= 0,
                    "SimConfig.", which,
                    ".serviceCycles must be finite and > 0, got ",
                    t.serviceCycles);
}

} // namespace

void
SimConfig::validate() const
{
    validateTier("fast", fast);
    validateTier("slow", slow);

    throw_config_if(cache.sizeBytes < LineBytes,
                    "SimConfig.cache.sizeBytes must be >= one line (",
                    LineBytes, "), got ", cache.sizeBytes);
    throw_config_if(cache.assoc == 0,
                    "SimConfig.cache.assoc must be >= 1, got 0");
    throw_config_if(cache.sizeBytes / LineBytes < cache.assoc,
                    "SimConfig.cache: sizeBytes (", cache.sizeBytes,
                    ") holds fewer lines than assoc (", cache.assoc, ")");
    throw_config_if(cache.prefetch && cache.prefetchDegree == 0,
                    "SimConfig.cache.prefetchDegree must be >= 1 when "
                    "prefetch is enabled, got 0");
    throw_config_if(cache.prefetch && cache.prefetchStreams == 0,
                    "SimConfig.cache.prefetchStreams must be >= 1 when "
                    "prefetch is enabled, got 0");

    throw_config_if(cpu.mshrs == 0,
                    "SimConfig.cpu.mshrs must be >= 1, got 0");
    throw_config_if(cpu.robOps == 0,
                    "SimConfig.cpu.robOps must be >= 1, got 0");

    throw_config_if(pebs.rate == 0,
                    "SimConfig.pebs.rate must be >= 1, got 0");
    throw_config_if(pebs.bufferCap == 0,
                    "SimConfig.pebs.bufferCap must be >= 1, got 0");

    throw_config_if(chmu.enabled && chmu.counterCap == 0,
                    "SimConfig.chmu.counterCap must be >= 1 when the CHMU "
                    "is enabled, got 0");
    throw_config_if(chmu.enabled && chmu.hotListLen == 0,
                    "SimConfig.chmu.hotListLen must be >= 1 when the CHMU "
                    "is enabled, got 0");

    throw_config_if(!std::isfinite(migration.appPenaltyFraction) ||
                        migration.appPenaltyFraction < 0.0 ||
                        migration.appPenaltyFraction > 1.0,
                    "SimConfig.migration.appPenaltyFraction must be in "
                    "[0, 1], got ", migration.appPenaltyFraction);
    throw_config_if(migration.txnMaxRetries > 16,
                    "SimConfig.migration.txnMaxRetries must be <= 16 "
                    "(backoff is txnBackoffCycles << retry), got ",
                    migration.txnMaxRetries);
    throw_config_if(migration.txnBackoffCycles >
                        (Cycles(1) << 40),
                    "SimConfig.migration.txnBackoffCycles is "
                    "implausibly large, got ", migration.txnBackoffCycles);

    throw_config_if(slice == 0,
                    "SimConfig.slice must be >= 1 cycle, got 0");
    // Ticks fire only at slice ends, so a shorter period would run as
    // one window per slice.
    throw_config_if(daemonPeriod < slice,
                    "SimConfig.daemonPeriod must be >= SimConfig.slice (",
                    slice, " cycles), got ", daemonPeriod);
    throw_config_if(maxWallCycles == 0,
                    "SimConfig.maxWallCycles must be >= 1 cycle, got 0");

    // Surface fault-grammar errors at config time rather than deep in
    // Engine construction; parse errors carry the offending clause.
    if (!faults.empty())
        (void)parseFaultSpec(faults);
}

} // namespace pact
