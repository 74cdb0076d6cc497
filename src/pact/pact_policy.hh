/**
 * @file
 * PACT: the paper's criticality-first tiering policy. Every daemon
 * period it (1) estimates slow-tier stalls from LLC misses and TOR-
 * derived per-tier MLP (Equation 1), (2) attributes them to PEBS-
 * sampled pages proportionally to access frequency (Algorithm 1),
 * (3) rebins pages with reservoir-fed Freedman–Diaconis adaptive
 * binning (Algorithm 3), and (4) promotes top-bin pages under the
 * eager-demotion balance rule (Algorithm 2).
 */

#ifndef PACT_PACT_PACT_POLICY_HH
#define PACT_PACT_PACT_POLICY_HH

#include <cstdint>
#include <vector>

#include "common/arena.hh"
#include "pact/binning.hh"
#include "pact/pac_table.hh"
#include "pact/reservoir.hh"
#include "sim/pebs.hh"
#include "sim/policy_iface.hh"

namespace pact
{

/** How candidate pages are ranked for promotion. */
enum class RankMode
{
    /** By accumulated PAC (the paper's design). */
    Criticality,
    /** By accumulated access frequency (the Figure 9 ablation). */
    Frequency,
};

/**
 * Where the per-tier MLP estimate comes from (paper §4.2,
 * "portability across hardware").
 */
enum class MlpSource
{
    /** Intel CHA/TOR occupancy counters: MLP = dT1/dT2 (default). */
    Tor,
    /**
     * AMD-style Little's-law estimate: MLP ~ bandwidth x latency,
     * from lines served per cycle. Overestimates (it includes
     * non-demand traffic) but tracks the temporal trend, which is
     * what attribution needs.
     */
    LittlesLaw,
};

/** Access-sampling backend (paper §4.3.5). */
enum class SamplerSource
{
    /** Host-side PEBS event sampling (default). */
    Pebs,
    /**
     * CXL 3.2 CHMU: device-side per-page access counts. Sees every
     * device access with no host overhead, but provides no latency
     * and requires SimConfig::chmu.enabled.
     */
    Chmu,
};

/** Cooling variants (paper §4.3.4 and Figure 10c). */
enum class CoolingMode
{
    /** alpha = 1.0: pure accumulation (default, most robust). */
    None,
    /** alpha = 0.5: halve PAC when the page goes stale. */
    Halve,
    /** alpha = 0: reset PAC when the page goes stale. */
    Reset,
};

/** PACT configuration. */
struct PactConfig
{
    /**
     * Per-tier stall coefficient k in Equation 1. Zero selects the
     * built-in estimate (the slow tier's unloaded latency), which the
     * paper shows is stable per hardware configuration.
     */
    double k = 0.0;

    RankMode rank = RankMode::Criticality;
    MlpSource mlpSource = MlpSource::Tor;
    SamplerSource sampler = SamplerSource::Pebs;
    CoolingMode cooling = CoolingMode::None;
    /** Sample-count distance after which a page's PAC is cooled. */
    std::uint64_t coolingDistance = 200000;

    BinningConfig binning;

    /** Demotion aggressiveness m in Algorithm 2. */
    std::uint64_t m = 0;

    /** Upper bound on promotion ops per daemon tick. */
    std::uint64_t promoteBatchCap = 2048;

    /**
     * Latency-weighted attribution (paper §4.3.7 future work):
     * S_p = S * A_p*l_p / sum(A_i*l_i) using PEBS-sampled latency.
     * Requires sampler == SamplerSource::Pebs: the CHMU reports
     * counts without latency, so combining the two is a fatal
     * configuration error.
     */
    bool latencyWeighted = false;

    /**
     * Migration quarantine in daemon ticks: a page promoted this
     * recently is neither demoted nor re-promoted, damping
     * promote/demote ping-pong under fast-tier pressure.
     */
    std::uint32_t quarantineTicks = 12;

    /** Profile only: maintain PAC but never migrate (Figure 1). */
    bool profileOnly = false;
};

/** A (time, value) sample for the adaptivity time series (Fig. 8). */
struct TimeSeriesPoint
{
    Cycles now = 0;
    double value = 0.0;
};

/** The PACT tiering policy. */
class PactPolicy : public TieringPolicy
{
  public:
    explicit PactPolicy(const PactConfig &cfg = {});

    const char *name() const override;
    void start(SimContext &ctx) override;
    void tick(SimContext &ctx) override;
    void audit(const SimContext &ctx) const override;
    void registerStats(obs::StatRegistry &reg) override;

    /** The PAC table (post-run inspection by benches/tests). */
    const PacTable &table() const { return table_; }

    /** Current bin width (Fig. 8b). */
    double binWidth() const { return binning_.width(); }

    /** Promotions performed per tick (Fig. 8a / Fig. 9). */
    const std::vector<TimeSeriesPoint> &promotionSeries() const
    {
        return promoSeries_;
    }

    /** Bin width per tick (Fig. 8b). */
    const std::vector<TimeSeriesPoint> &binWidthSeries() const
    {
        return widthSeries_;
    }

    /** Estimated slow-tier stalls per tick (diagnostics). */
    const std::vector<TimeSeriesPoint> &stallSeries() const
    {
        return stallSeries_;
    }

    const PactConfig &config() const { return cfg_; }

  private:
    /** One promotion candidate (selection scratch). */
    struct Cand
    {
        double rank;
        PageId page;
        std::uint32_t bin;
    };

    void attribute(SimContext &ctx);
    void migrate(SimContext &ctx);
    double rankOf(float pac, std::uint32_t freq) const;

    /** table_.find, short-circuited through the [pageLo_, pageHi_]
     *  insert range: pages outside it (on a shared TierManager,
     *  usually other tenants') cannot be tracked, so skip the probe. */
    PacTable::Ref
    findTracked(PageId page)
    {
        if (page < pageLo_ || page > pageHi_)
            return PacTable::Ref();
        return table_.find(page);
    }

    PactConfig cfg_;
    PacTable table_;
    Reservoir reservoir_;
    AdaptiveBinning binning_;
    PmuSnapshot snap_;
    double kEff_ = 0.0;
    /** MLP estimate of the last attribution window (journal events). */
    double lastMlp_ = 0.0;
    Cycles lastTickNow_ = 0;
    std::uint64_t lastSlowLines_ = 0;
    std::uint64_t globalSamples_ = 0;
    std::uint32_t tickNo_ = 0;
    std::uint64_t lastCandidates_ = 1;
    /** Pages whose rank value changed this window. */
    std::vector<PageId> touched_;

    /** Arena backing the per-window attribution scratch map: reset
     *  (not freed) between windows, so after the first few windows
     *  attribution performs zero heap allocations. */
    MonotonicArena scratchArena_;
    /** Reused PEBS drain buffer (capacity stabilizes, no realloc). */
    std::vector<PebsRecord> pebsBuf_;

    /** Inclusive page-id range ever inserted into the table. Pages
     *  outside it cannot be tracked, so findTracked skips the table
     *  probe — on a shared TierManager most LRU victims are other
     *  tenants' pages (disjoint AddrSpace allocations). */
    PageId pageLo_ = ~0ull;
    PageId pageHi_ = 0;

    // Selection scratch, members so capacities persist across windows.
    std::vector<std::pair<double, PageId>> ranked_;
    std::vector<std::uint32_t> bins_;
    std::vector<std::uint32_t> binOrder_;
    std::vector<Cand> cands_;
    std::vector<TimeSeriesPoint> promoSeries_;
    std::vector<TimeSeriesPoint> widthSeries_;
    std::vector<TimeSeriesPoint> stallSeries_;

    // Observability cells (registered via registerStats).
    /** Cumulative estimated slow-tier stall cycles (Equation 1). */
    double stallEstimated_ = 0.0;
    /** Total PAC mass currently held by the table. */
    double pacMass_ = 0.0;
    /** Binning controller updates (Algorithm 3 invocations). */
    obs::Counter rebins_;
    /** Updates that actually changed the bin width. */
    obs::Counter rescales_;
    /** Demotions issued by the Algorithm 2 balance rule. */
    obs::Counter eagerDemotions_;
    /** Demotions issued to free space for a specific promotion. */
    obs::Counter spaceDemotions_;
    /** Promotion candidates skipped while quarantined. */
    obs::Counter quarantineSkips_;
    /** Pages whose PAC was cooled (halved or reset). */
    obs::Counter cooledPages_;
    /** Post-attribution PAC score of every touched page, per window. */
    obs::Distribution pacDist_;

    // Per-phase daemon work counters, in deterministic modeled work
    // units (samples drained, pages classified, tracked pages walked,
    // Algorithm-2 steps, LRU pages examined) — not wall-clock rdtsc,
    // so artifacts stay byte-identical across jobs and the parallel
    // engine. pact.daemon.tick_cycles is defined as their exact sum;
    // validate_artifacts.py asserts that identity.
    /** Attribution-phase work (samples + distinct pages). */
    obs::Counter attributeCycles_;
    /** Selection-phase work (tracked pages walked + candidates). */
    obs::Counter selectCycles_;
    /** Migration-phase work (Algorithm-2 steps + demotion probes). */
    obs::Counter migrateCycles_;
    /** LRU aging work (pages examined by the daemon's scan). */
    obs::Counter lruscanCycles_;
};

} // namespace pact

#endif // PACT_PACT_PACT_POLICY_HH
