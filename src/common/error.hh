/**
 * @file
 * Structured, recoverable error reporting. Where logging.hh's fatal()
 * exits the whole process, the SimError hierarchy lets one bad run in
 * a parallel sweep fail in isolation: the harness catches SimError,
 * records a per-run failure (kind + message) in the run manifest, and
 * keeps every other run's results bit-identical.
 *
 * Kinds:
 *  - ConfigError    bad SimConfig / component parameters
 *  - WorkloadError  bad workload name or workload construction input
 *  - PolicyError    bad policy name or policy-level misuse
 *  - InvariantError a --audit consistency audit failed
 *  - TimeoutError   a run exceeded PACT_RUN_TIMEOUT_MS wall time
 *
 * panic() remains the right tool for internal simulator bugs (abort);
 * fatal() is only for the drivers' command-line argument handling
 * (exit): no library code under src/ calls it.
 */

#ifndef PACT_COMMON_ERROR_HH
#define PACT_COMMON_ERROR_HH

#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace pact
{

/** Base of all recoverable simulator errors. */
class SimError : public std::runtime_error
{
  public:
    SimError(std::string kind, const std::string &msg)
        : std::runtime_error(msg), kind_(std::move(kind))
    {
    }

    /** Stable machine-readable kind ("ConfigError", ...). */
    const std::string &kind() const { return kind_; }

  private:
    std::string kind_;
};

/** A SimConfig (or component parameter) that cannot be simulated. */
class ConfigError : public SimError
{
  public:
    explicit ConfigError(const std::string &msg)
        : SimError("ConfigError", msg)
    {
    }
};

/** A workload that cannot be built (unknown name, bad inputs). */
class WorkloadError : public SimError
{
  public:
    explicit WorkloadError(const std::string &msg)
        : SimError("WorkloadError", msg)
    {
    }
};

/** A policy that cannot be built or is misused. */
class PolicyError : public SimError
{
  public:
    explicit PolicyError(const std::string &msg)
        : SimError("PolicyError", msg)
    {
    }
};

/** A periodic audit (SimConfig::audit) found inconsistent state. */
class InvariantError : public SimError
{
  public:
    explicit InvariantError(const std::string &msg)
        : SimError("InvariantError", msg)
    {
    }
};

/** A run exceeded the opt-in PACT_RUN_TIMEOUT_MS wall-clock budget. */
class TimeoutError : public SimError
{
  public:
    explicit TimeoutError(const std::string &msg)
        : SimError("TimeoutError", msg)
    {
    }
};

} // namespace pact

/** Throw a ConfigError built from stream-style arguments. */
#define throw_config(...)                                                   \
    throw ::pact::ConfigError(::pact::detail::buildMessage(__VA_ARGS__))

/** throw_config() when a user-facing precondition does not hold. */
#define throw_config_if(cond, ...)                                         \
    do {                                                                    \
        if (cond)                                                           \
            throw_config(__VA_ARGS__);                                      \
    } while (0)

/** Throw a WorkloadError built from stream-style arguments. */
#define throw_workload(...)                                                 \
    throw ::pact::WorkloadError(::pact::detail::buildMessage(__VA_ARGS__))

#define throw_workload_if(cond, ...)                                        \
    do {                                                                    \
        if (cond)                                                           \
            throw_workload(__VA_ARGS__);                                    \
    } while (0)

/** Throw a PolicyError built from stream-style arguments. */
#define throw_policy(...)                                                   \
    throw ::pact::PolicyError(::pact::detail::buildMessage(__VA_ARGS__))

#define throw_policy_if(cond, ...)                                          \
    do {                                                                    \
        if (cond)                                                           \
            throw_policy(__VA_ARGS__);                                      \
    } while (0)

/** Throw an InvariantError built from stream-style arguments. */
#define throw_invariant(...)                                                \
    throw ::pact::InvariantError(::pact::detail::buildMessage(__VA_ARGS__))

#define throw_invariant_if(cond, ...)                                       \
    do {                                                                    \
        if (cond)                                                           \
            throw_invariant(__VA_ARGS__);                                   \
    } while (0)

#endif // PACT_COMMON_ERROR_HH
