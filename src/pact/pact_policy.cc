#include "pact/pact_policy.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/error.hh"
#include "common/logging.hh"
#include "mem/addr_space.hh"
#include "mem/lru.hh"
#include "mem/migration.hh"
#include "mem/tier_manager.hh"
#include "sim/chmu.hh"
#include "sim/tier.hh"

namespace pact
{

PactPolicy::PactPolicy(const PactConfig &cfg)
    : cfg_(cfg), reservoir_(100), binning_(cfg.binning)
{
    // CHMU hot-lists carry access counts only — there is no per-sample
    // latency to weight by (paper §4.3.5 vs §4.3.7).
    throw_config_if(cfg_.sampler == SamplerSource::Chmu &&
                        cfg_.latencyWeighted,
                    "PACT: latencyWeighted attribution requires PEBS "
                    "sampling; the CHMU provides no per-access latency");
}

const char *
PactPolicy::name() const
{
    if (cfg_.rank == RankMode::Frequency)
        return "PACT-freq";
    return cfg_.profileOnly ? "PACT-profile" : "PACT";
}

void
PactPolicy::registerStats(obs::StatRegistry &reg)
{
    using obs::StatKind;
    reg.addFn("pact.ticks", StatKind::Counter,
              [this] { return static_cast<double>(tickNo_); },
              "daemon ticks processed");
    reg.addCounter("pact.samples", &globalSamples_,
                   "access samples consumed");
    reg.addFn("pact.table.pages", StatKind::Gauge,
              [this] { return static_cast<double>(table_.size()); },
              "pages tracked in the PAC table");
    reg.addFn("pact.pac.mass", StatKind::Gauge,
              [this] { return pacMass_; },
              "total PAC mass held by the table");
    reg.addFn("pact.stall.estimated_cycles", StatKind::Counter,
              [this] { return stallEstimated_; },
              "cumulative Equation-1 stall estimate");
    reg.addFn("pact.binning.width", StatKind::Gauge,
              [this] { return binning_.width(); },
              "current adaptive bin width");
    reg.addCounter("pact.binning.rebins", rebins_,
                   "Algorithm-3 controller updates");
    reg.addCounter("pact.binning.rescales", rescales_,
                   "updates that changed the bin width");
    reg.addCounter("pact.demotions.eager", eagerDemotions_,
                   "balance-rule demotions (Algorithm 2)");
    reg.addCounter("pact.demotions.space", spaceDemotions_,
                   "space-gating demotions");
    reg.addCounter("pact.promotions.quarantine_skips", quarantineSkips_,
                   "candidates skipped while quarantined");
    reg.addCounter("pact.cooling.cooled_pages", cooledPages_,
                   "pages whose PAC was cooled");
    reg.addDistribution("pact.dist.pac_score", pacDist_,
                        "post-attribution PAC score per touched page");
    // Per-phase daemon work accounting (deterministic modeled units,
    // see the member doc). tick_cycles is the exact four-phase sum —
    // validate_artifacts.py asserts that identity on every manifest.
    reg.addCounter("pact.daemon.attribute_cycles", attributeCycles_,
                   "attribution-phase daemon work units");
    reg.addCounter("pact.daemon.select_cycles", selectCycles_,
                   "candidate-selection daemon work units");
    reg.addCounter("pact.daemon.migrate_cycles", migrateCycles_,
                   "migration-phase daemon work units");
    reg.addCounter("pact.daemon.lruscan_cycles", lruscanCycles_,
                   "LRU-aging daemon work units");
    reg.addFn("pact.daemon.tick_cycles", StatKind::Counter,
              [this] {
                  return static_cast<double>(
                      attributeCycles_.value() + selectCycles_.value() +
                      migrateCycles_.value() + lruscanCycles_.value());
              },
              "total daemon work units (sum of the four phases)");
}

void
PactPolicy::start(SimContext &ctx)
{
    // k captures the slow tier's latency and architectural constants;
    // the paper shows it is workload-independent per configuration.
    kEff_ = cfg_.k > 0.0
                ? cfg_.k
                : static_cast<double>(
                      ctx.tiers[tierIndex(TierId::Slow)]->latency());
    snap_.take(ctx.pmu);
}

double
PactPolicy::rankOf(float pac, std::uint32_t freq) const
{
    return cfg_.rank == RankMode::Criticality
               ? static_cast<double>(pac)
               : static_cast<double>(freq);
}

void
PactPolicy::attribute(SimContext &ctx)
{
    // --- Algorithm 1: per-window stall estimation + attribution ---
    const PmuWindow w = pmuDelta(snap_, ctx.pmu);
    snap_.take(ctx.pmu);

    double mlp;
    if (cfg_.mlpSource == MlpSource::LittlesLaw) {
        // AMD path: no TOR queues; estimate average outstanding
        // requests as arrival rate x latency over the window.
        const Tier *slow = ctx.tiers[tierIndex(TierId::Slow)];
        const std::uint64_t lines = slow->linesServed();
        const Cycles elapsed =
            ctx.now > lastTickNow_ ? ctx.now - lastTickNow_ : 1;
        // Clamp the window's line count at zero: a counter that moved
        // backwards (wraparound injection, device reset) must degrade
        // to "no traffic observed", not a huge unsigned difference.
        const std::uint64_t served =
            lines >= lastSlowLines_ ? lines - lastSlowLines_ : 0;
        const double rate = static_cast<double>(served) /
                            static_cast<double>(elapsed);
        lastSlowLines_ = lines;
        lastTickNow_ = ctx.now;
        mlp = std::max(1.0,
                       rate * static_cast<double>(slow->latency()));
    } else {
        mlp = w.mlp(TierId::Slow);
    }
    lastMlp_ = mlp;
    const double misses = static_cast<double>(
        w.llcLoadMisses[tierIndex(TierId::Slow)]);
    const double S = kEff_ * misses / mlp;
    stallSeries_.push_back({ctx.now, S});
    stallEstimated_ += S;

    // Aggregate sampled accesses per page: A_p, and optionally the
    // latency-weighted mass A_p * l_p. The map's node and bucket
    // storage comes from the window-reset arena, so steady-state
    // attribution allocates nothing; the allocator does not affect
    // libstdc++'s bucket geometry, so iteration order (and with it the
    // reservoir RNG stream and float accumulation order) is unchanged.
    struct Agg
    {
        std::uint32_t count = 0;
        double latMass = 0.0;
    };
    using AggMap =
        std::unordered_map<PageId, Agg, std::hash<PageId>,
                           std::equal_to<PageId>,
                           ArenaAlloc<std::pair<const PageId, Agg>>>;
    scratchArena_.reset();
    AggMap byPage{AggMap::allocator_type{&scratchArena_}};
    double totalMass = 0.0;
    std::uint64_t sampleCount = 0;

    if (cfg_.sampler == SamplerSource::Chmu) {
        throw_config_if(!ctx.chmu,
                        "PACT configured for CHMU sampling but "
                        "SimConfig::chmu.enabled is false");
        const auto hot = ctx.chmu->readHotList();
        byPage.reserve(hot.size());
        for (const ChmuEntry &e : hot) {
            Agg &a = byPage[e.page];
            a.count += e.count;
            a.latMass += static_cast<double>(e.count);
            totalMass += static_cast<double>(e.count);
            sampleCount += e.count;
        }
    } else {
        ctx.pebs.drainInto(pebsBuf_);
        byPage.reserve(pebsBuf_.size());
        for (const PebsRecord &r : pebsBuf_) {
            Agg &a = byPage[pageOf(r.vaddr)];
            a.count++;
            const double mass = cfg_.latencyWeighted
                                    ? static_cast<double>(r.latency)
                                    : 1.0;
            a.latMass += mass;
            totalMass += mass;
        }
        sampleCount = pebsBuf_.size();
    }
    attributeCycles_.inc(sampleCount + byPage.size());
    if (byPage.empty())
        return;
    // Degenerate window: the latency-weighted total mass A_t can be
    // zero even with samples present (every sampled access reported
    // zero latency, or a CHMU hot list of zero counts). S_p = S *
    // A_p / A_t would then be NaN; fall back to uniform count-based
    // attribution, or treat the window as sampleless when there are
    // no counts either.
    const bool massless = !(totalMass > 0.0);
    if (massless && sampleCount == 0)
        return;
    globalSamples_ += sampleCount;

    touched_.clear();
    for (const auto &[page, agg] : byPage) {
        bool inserted = false;
        PacTable::Ref e = table_.touch(page, &inserted);
        if (inserted) {
            pageLo_ = std::min(pageLo_, page);
            pageHi_ = std::max(pageHi_, page);
        }
        const double pacBefore = static_cast<double>(e.pac());

        // In-place cooling: decay pages that went unsampled for a
        // long sample distance (paper §4.3.4 / Figure 10c). Both rank
        // signals cool together, so RankMode::Frequency forgets stale
        // pages exactly as RankMode::Criticality does.
        if (cfg_.cooling != CoolingMode::None && e.freq() > 0 &&
            globalSamples_ - e.lastSample() > cfg_.coolingDistance) {
            const bool halve = cfg_.cooling == CoolingMode::Halve;
            e.pac() = halve ? e.pac() * 0.5f : 0.0f;
            e.freq() = halve ? e.freq() / 2 : 0;
            cooledPages_++;
        }

        const double share =
            massless ? static_cast<double>(agg.count) /
                           static_cast<double>(sampleCount)
                     : agg.latMass / totalMass;
        e.pac() += static_cast<float>(S * share);
        e.freq() += agg.count;
        e.lastSample() = globalSamples_;
        touched_.push_back(page);
        pacMass_ += static_cast<double>(e.pac()) - pacBefore;
        pacDist_.record(static_cast<double>(e.pac()));

        reservoir_.add(rankOf(e.pac(), e.freq()), ctx.rng);
    }

    // --- Algorithm 3: adapt bin boundaries to the new distribution ---
    const double widthBefore = binning_.width();
    binning_.update(reservoir_, table_.size(), lastCandidates_);
    rebins_++;
    if (binning_.width() != widthBefore)
        rescales_++;
    widthSeries_.push_back({ctx.now, binning_.width()});
}

void
PactPolicy::migrate(SimContext &ctx)
{
    // Bin every tracked slow-tier page; the priority bin is the
    // highest non-empty one. The walk goes in ascending slot order,
    // which fixes the unstable candidate sort's tie permutation below
    // (the golden corpus pins it). Pages the TierManager has not
    // materialized (wrap-fault PEBS strays) are not candidates.
    ranked_.clear();
    bins_.clear();
    std::uint32_t topBin = 0;
    table_.forEachRef([&](PacTable::Ref e) {
        const PageId p = e.page();
        if (!ctx.tm.touched(p) || ctx.tm.tierOf(p) != TierId::Slow)
            return;
        const double rv = rankOf(e.pac(), e.freq());
        const std::uint32_t b = binning_.binOf(rv);
        ranked_.emplace_back(rv, p);
        bins_.push_back(b);
        topBin = std::max(topBin, b);
    });
    selectCycles_.inc(table_.size());
    if (ranked_.empty()) {
        promoSeries_.push_back({ctx.now, 0.0});
        return;
    }

    // The top bin supplies the candidates. When extreme skew leaves it
    // nearly empty (a lone outlier), lower bins top the pool up to a
    // small floor so promotion never starves while the scaling
    // controller (Algorithm 3) hunts for a better width.
    const std::uint64_t floor = 32;
    std::uint64_t inTop = 0;
    for (std::size_t i = 0; i < bins_.size(); i++)
        inTop += bins_[i] == topBin;

    // cutBin = the bin of the floor'th most critical page, so the
    // candidate pool is at least `floor` deep.
    binOrder_ = bins_;
    const std::size_t nth = std::min<std::size_t>(
        floor, binOrder_.size()) - 1;
    std::nth_element(binOrder_.begin(), binOrder_.begin() + nth,
                     binOrder_.end(), std::greater<>());
    const std::uint32_t cutBin = binOrder_[nth];

    cands_.clear();
    for (std::size_t i = 0; i < bins_.size(); i++) {
        if (bins_[i] >= cutBin) {
            cands_.push_back(
                {ranked_[i].first, ranked_[i].second, bins_[i]});
        }
    }
    std::sort(cands_.begin(), cands_.end(),
              [](const Cand &a, const Cand &b) { return a.rank > b.rank; });
    if (cands_.size() > 4096)
        cands_.resize(4096);
    selectCycles_.inc(cands_.size());

    // Provenance: one BinAssign per surviving candidate, carrying the
    // rank value, bin, and the window's MLP input.
    if (ctx.journal) {
        for (const Cand &c : cands_) {
            obs::PageEvent ev;
            ev.now = ctx.now;
            ev.kind = obs::EventKind::BinAssign;
            ev.tenant = ctx.tenant;
            ev.page = c.page;
            ev.window = tickNo_;
            ev.pac = c.rank;
            ev.bin = static_cast<std::int32_t>(c.bin);
            ev.mlp = lastMlp_;
            ctx.journal->emit(ev);
        }
    }

    // Feed the controller the true top-bin population so it keeps
    // hunting: a starved top bin drives the width up; a degenerate
    // single-bin distribution (topBin == 0 after overshoot) reports
    // full collapse, driving the width back down.
    lastCandidates_ = topBin == 0 ? ranked_.size()
                                  : std::max<std::uint64_t>(1, inTop);

    // --- Algorithm 2: eager demotion + promotion ---
    std::uint64_t promoted = 0;
    std::uint64_t algoWork = 0;
    // Eager demotion reclaims only genuinely inactive pages (the
    // kernel's LRU semantics); an empty inactive list is the natural
    // brake that keeps PACT from thrashing when the hot set exceeds
    // the fast tier. Recently promoted pages (at huge-region
    // granularity under THP) are quarantined, and a region most of
    // whose subpages are still referenced is not a demotion victim.
    auto quarantined = [&](PageId page) {
        // LRU victims on a shared TierManager are any tenant's pages;
        // findTracked filters foreign ones without a table probe.
        const bool huge = ctx.tm.meta(page).flags & PageFlags::Huge;
        PacTable::Ref e = findTracked(huge ? hugeBase(page) : page);
        return e && e.lastPromote() != 0 &&
               tickNo_ - e.lastPromote() < cfg_.quarantineTicks;
    };
    auto regionHot = [&](PageId page) {
        if (!(ctx.tm.meta(page).flags & PageFlags::Huge))
            return false;
        // The TierManager maintains the per-region census the old
        // code recomputed here with a 512-subpage loop per probe.
        return ctx.tm.regionReferenced(page) > PagesPerHugePage / 8;
    };
    auto demoteOne = [&](obs::Counter &reason) -> bool {
        algoWork++;
        const auto v = ctx.lru.victims(TierId::Fast, 4, ctx.tm, false);
        for (const PageId victim : v) {
            if (quarantined(victim) || regionHot(victim))
                continue;
            if (ctx.journal) {
                obs::PageEvent ev;
                ev.now = ctx.now;
                ev.kind = obs::EventKind::DemoteEnqueue;
                ev.tenant = ctx.tenant;
                ev.page = victim;
                ev.window = tickNo_;
                PacTable::Ref e = findTracked(victim);
                if (e) {
                    ev.pac = static_cast<double>(e.pac());
                    ev.bin = static_cast<std::int32_t>(
                        binning_.binOf(rankOf(e.pac(), e.freq())));
                }
                ctx.journal->emit(ev);
            }
            if (!ctx.mig.demote(victim))
                return false;
            reason++;
            return true;
        }
        return false;
    };

    const std::uint64_t batchCap = std::min<std::uint64_t>(
        cfg_.promoteBatchCap,
        std::max<std::uint64_t>(64, ctx.tm.fastCapacity() / 8));
    for (const Cand &c : cands_) {
        const PageId page = c.page;
        algoWork++;
        if (promoted >= batchCap)
            break;
        if (quarantined(page)) {
            quarantineSkips_++;
            continue; // region still quarantined from last promotion
        }
        const bool huge = ctx.tm.meta(page).flags & PageFlags::Huge;
        const std::uint64_t needed = huge ? PagesPerHugePage : 1;

        // Balance rule: keep demotions at least m ahead of promotions
        // (proactive headroom, Algorithm 2 line 5).
        std::uint64_t balanceGuard = cfg_.m + 4;
        while (ctx.mig.stats().demotedOps <
                   ctx.mig.stats().promotedOps + cfg_.m &&
               balanceGuard-- > 0) {
            if (!demoteOne(eagerDemotions_))
                break;
        }
        // Space gating: free exactly as much as the promotion needs.
        std::uint64_t guard = 4 * needed + 8;
        while (ctx.tm.freeFast() < needed && guard-- > 0) {
            if (!demoteOne(spaceDemotions_))
                break;
        }
        if (ctx.tm.freeFast() < needed)
            break;
        if (ctx.journal) {
            obs::PageEvent ev;
            ev.now = ctx.now;
            ev.kind = obs::EventKind::PromoteEnqueue;
            ev.tenant = ctx.tenant;
            ev.page = page;
            ev.window = tickNo_;
            ev.pac = c.rank;
            ev.bin = static_cast<std::int32_t>(c.bin);
            ctx.journal->emit(ev);
        }
        if (ctx.mig.promote(page)) {
            promoted += needed; // cap is denominated in 4KB pages
            const bool wasHuge =
                ctx.tm.meta(page).flags & PageFlags::Huge;
            const PageId key = wasHuge ? hugeBase(page) : page;
            bool inserted = false;
            PacTable::Ref e = table_.touch(key, &inserted);
            if (inserted) {
                pageLo_ = std::min(pageLo_, key);
                pageHi_ = std::max(pageHi_, key);
            }
            e.lastPromote() = tickNo_;
        }
    }
    migrateCycles_.inc(algoWork);
    promoSeries_.push_back({ctx.now, static_cast<double>(promoted)});
}

void
PactPolicy::audit(const SimContext &ctx) const
{
    (void)ctx;
    // PAC values are accumulated stall shares: every tracked entry
    // must stay finite and non-negative or ranking is meaningless.
    table_.forEach([&](const PacEntry &e) {
        throw_invariant_if(!std::isfinite(e.pac) || e.pac < 0.0f,
                           "audit: page ", e.page, " has invalid PAC ",
                           e.pac, " (freq=", e.freq, ", lastSample=",
                           e.lastSample, ", lastPromote=", e.lastPromote,
                           ")");
    });
    throw_invariant_if(!std::isfinite(pacMass_) || pacMass_ < 0.0,
                       "audit: total PAC mass is invalid: ", pacMass_,
                       " over ", table_.size(), " tracked pages");

    // Reservoir conservation: the sample never exceeds its capacity or
    // the stream length, and holds only finite values.
    throw_invariant_if(reservoir_.size() > reservoir_.capacity(),
                       "audit: reservoir holds ", reservoir_.size(),
                       " values over capacity ", reservoir_.capacity());
    throw_invariant_if(reservoir_.seen() < reservoir_.size(),
                       "audit: reservoir saw ", reservoir_.seen(),
                       " values but holds ", reservoir_.size());
    for (const double v : reservoir_.values()) {
        throw_invariant_if(!std::isfinite(v) || v < 0.0,
                           "audit: reservoir holds invalid rank value ",
                           v);
    }

    // Bin geometry: a non-finite or non-positive width would fold
    // every page into one bin (or crash binOf).
    throw_invariant_if(!std::isfinite(binning_.width()) ||
                           binning_.width() <= 0.0,
                       "audit: bin width is invalid: ", binning_.width(),
                       " (scale factor ", binning_.scaleFactor(), ")");
}

void
PactPolicy::tick(SimContext &ctx)
{
    tickNo_++;
    attribute(ctx);

    // Keep the kernel LRU aged so eager demotion has fresh victims.
    const std::uint64_t examined = ctx.lru.scan(
        TierId::Fast,
        std::max<std::uint64_t>(512, ctx.tm.fastCapacity() / 4),
        ctx.tm);
    lruscanCycles_.inc(examined);

    if (!cfg_.profileOnly)
        migrate(ctx);
}

} // namespace pact
