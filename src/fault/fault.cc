#include "fault/fault.hh"

#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hh"

namespace pact
{

namespace
{

/** Split @p text on @p sep, skipping empty pieces. */
std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string piece;
    while (std::getline(is, piece, sep)) {
        if (!piece.empty())
            out.push_back(piece);
    }
    return out;
}

/** One clause's comma-separated "key=value" params, consumption-tracked
 *  so unknown keys can be reported after the known ones are taken. */
class ParamSet
{
  public:
    ParamSet(const std::string &clause, const std::string &body)
        : clause_(clause)
    {
        throw_config_if(body.empty(), "fault clause '", clause_,
                        "': expected <name>:<param>=<value>");
        for (const std::string &piece : split(body, ',')) {
            const auto eq = piece.find('=');
            throw_config_if(eq == std::string::npos || eq == 0 ||
                                eq + 1 == piece.size(),
                            "fault clause '", clause_, "': bad parameter '",
                            piece, "' (expected <key>=<value>)");
            const std::string key = piece.substr(0, eq);
            for (const auto &prev : params_)
                throw_config_if(prev.first == key, "fault clause '",
                                clause_, "': duplicate parameter '", key,
                                "'");
            params_.emplace_back(key, piece.substr(eq + 1));
        }
        taken_.assign(params_.size(), false);
    }

    /** Parse a named double in [lo, hi]; @p deflt when absent (only
     *  required params pass required=true). */
    double take(const std::string &key, double lo, double hi,
                bool required, double deflt = 0.0)
    {
        for (std::size_t i = 0; i < params_.size(); i++) {
            if (params_[i].first != key)
                continue;
            taken_[i] = true;
            const std::string &value = params_[i].second;
            char *end = nullptr;
            const double v = std::strtod(value.c_str(), &end);
            throw_config_if(end != value.c_str() + value.size(),
                            "fault clause '", clause_, "': bad number '",
                            value, "' for ", key);
            throw_config_if(v < lo || v > hi, "fault clause '", clause_,
                            "': ", key, " must be in [", lo, ", ", hi,
                            "], got ", v);
            return v;
        }
        throw_config_if(required, "fault clause '", clause_,
                        "': expected ", key, "=<value>");
        return deflt;
    }

    /** take() constrained to an integer value. */
    unsigned takeInt(const std::string &key, double lo, double hi,
                     bool required, unsigned deflt = 0)
    {
        const double v =
            take(key, lo, hi, required, static_cast<double>(deflt));
        throw_config_if(v != static_cast<double>(
                                 static_cast<unsigned long long>(v)),
                        "fault clause '", clause_, "': ", key,
                        " must be an integer");
        return static_cast<unsigned>(v);
    }

    /** Reject any param no take*() call consumed. */
    void finish() const
    {
        for (std::size_t i = 0; i < params_.size(); i++)
            throw_config_if(!taken_[i], "fault clause '", clause_,
                            "': unknown parameter '", params_[i].first,
                            "'");
    }

  private:
    const std::string &clause_;
    std::vector<std::pair<std::string, std::string>> params_;
    std::vector<bool> taken_; ///< parallel to params_: consumed by take*()

};

} // namespace

FaultSpec
parseFaultSpec(const std::string &text)
{
    FaultSpec spec;
    for (const std::string &clause : split(text, ';')) {
        const auto colon = clause.find(':');
        throw_config_if(colon == std::string::npos, "fault clause '",
                        clause, "': expected <name>:<param>=<value>");
        const std::string name = clause.substr(0, colon);
        ParamSet params(clause, clause.substr(colon + 1));
        if (name == "migabort") {
            spec.migAbortP = params.take("p", 0.0, 1.0, true);
        } else if (name == "pebsdrop") {
            spec.pebsDropP = params.take("p", 0.0, 1.0, true);
        } else if (name == "pebsdup") {
            spec.pebsDupP = params.take("p", 0.0, 1.0, true);
        } else if (name == "wrap") {
            spec.wrapBits = params.takeInt("bits", 1.0, 63.0, true);
        } else if (name == "jitter") {
            spec.jitterFrac = params.take("frac", 0.0, 0.99, true);
        } else if (name == "midabort") {
            spec.midAbortP = params.take("p", 0.0, 1.0, true);
            spec.midAbortAt = params.take("at", 0.0, 1.0, false, 0.5);
        } else if (name == "dirty") {
            spec.dirtyP = params.take("p", 0.0, 1.0, true);
        } else if (name == "tierfail") {
            spec.tierFailP = params.take("p", 0.0, 1.0, true);
        } else if (name == "stall") {
            spec.stallP = params.take("p", 0.0, 1.0, true);
            spec.stallPeriods =
                params.takeInt("periods", 1.0, 64.0, false, 1);
        } else if (name == "pebsstarve") {
            spec.starveP = params.take("p", 0.0, 1.0, true);
            spec.starveLen =
                params.takeInt("len", 1.0, 65536.0, false, 32);
        } else {
            throw_config("unknown fault class '", name, "' (expected ",
                         "migabort, midabort, dirty, tierfail, stall, ",
                         "pebsstarve, pebsdrop, pebsdup, wrap, or jitter)");
        }
        params.finish();
    }
    return spec;
}

FaultPlan::FaultPlan(const FaultSpec &spec, std::uint64_t seed)
    : spec_(spec),
      // Decorrelate the fault stream from every other consumer of the
      // run seed (engine RNG is seed ^ 0x5bd1e995). The per-class
      // streams below use fixed odd constants so class schedules are
      // mutually independent.
      rng_(seed ^ 0xfa417ab5u),
      midRng_(seed ^ 0x9e3779b9u),
      dirtyRng_(seed ^ 0x85ebca6bu),
      tierFailRng_(seed ^ 0xc2b2ae35u),
      stallRng_(seed ^ 0x27d4eb2fu),
      starveRng_(seed ^ 0x165667b1u)
{
    if (spec_.wrapBits > 0 && spec_.wrapBits < 64)
        wrapMask_ = (1ull << spec_.wrapBits) - 1;
}

std::unique_ptr<FaultPlan>
FaultPlan::fromSpec(const std::string &text, std::uint64_t seed)
{
    if (text.empty())
        return nullptr;
    const FaultSpec spec = parseFaultSpec(text);
    if (!spec.any())
        return nullptr;
    return std::make_unique<FaultPlan>(spec, seed);
}

bool
FaultPlan::abortMigration(PageId page)
{
    (void)page;
    if (spec_.migAbortP <= 0.0)
        return false;
    if (!rng_.chance(spec_.migAbortP))
        return false;
    counters_.migrationAborts++;
    return true;
}

bool
FaultPlan::dropSample()
{
    if (spec_.pebsDropP <= 0.0)
        return false;
    if (!rng_.chance(spec_.pebsDropP))
        return false;
    counters_.pebsDropped++;
    return true;
}

bool
FaultPlan::duplicateSample()
{
    if (spec_.pebsDupP <= 0.0)
        return false;
    if (!rng_.chance(spec_.pebsDupP))
        return false;
    counters_.pebsDuplicated++;
    return true;
}

Cycles
FaultPlan::jitterPeriod(Cycles nominal)
{
    if (spec_.jitterFrac <= 0.0 || nominal == 0)
        return nominal;
    // Uniform jitter in [-frac, +frac] of the nominal period.
    const double skew = (rng_.uniform() * 2.0 - 1.0) * spec_.jitterFrac;
    const auto jittered = static_cast<std::int64_t>(
        static_cast<double>(nominal) * (1.0 + skew));
    counters_.jitteredWindows++;
    return jittered < 1 ? Cycles(1) : static_cast<Cycles>(jittered);
}

bool
FaultPlan::midCopyAbort()
{
    if (spec_.midAbortP <= 0.0)
        return false;
    if (!midRng_.chance(spec_.midAbortP))
        return false;
    counters_.midCopyAborts++;
    return true;
}

bool
FaultPlan::dirtyDuringCopy()
{
    if (spec_.dirtyP <= 0.0)
        return false;
    if (!dirtyRng_.chance(spec_.dirtyP))
        return false;
    counters_.dirtyConflicts++;
    return true;
}

bool
FaultPlan::tierWriteFailure()
{
    if (spec_.tierFailP <= 0.0)
        return false;
    if (!tierFailRng_.chance(spec_.tierFailP))
        return false;
    counters_.tierWriteFailures++;
    return true;
}

Cycles
FaultPlan::daemonStall(Cycles nominal)
{
    if (spec_.stallP <= 0.0 || nominal == 0)
        return Cycles(0);
    if (!stallRng_.chance(spec_.stallP))
        return Cycles(0);
    counters_.daemonStalls++;
    return static_cast<Cycles>(nominal) *
           static_cast<Cycles>(spec_.stallPeriods);
}

bool
FaultPlan::starveSample()
{
    if (spec_.starveP <= 0.0)
        return false;
    if (starveLeft_ > 0) {
        starveLeft_--;
        counters_.pebsStarved++;
        return true;
    }
    if (!starveRng_.chance(spec_.starveP))
        return false;
    counters_.starveBursts++;
    counters_.pebsStarved++;
    starveLeft_ = spec_.starveLen - 1;
    return true;
}

} // namespace pact
