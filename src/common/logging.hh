/**
 * @file
 * gem5-style status/error reporting: panic() for internal invariant
 * violations (aborts), fatal() for user/configuration errors (exits),
 * warn() for non-fatal diagnostics. Every message prints to stderr:
 * there is no switch that hides a warning.
 */

#ifndef PACT_COMMON_LOGGING_HH
#define PACT_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace pact
{

namespace detail
{

/** Append the tail arguments of a log call to a stream. */
inline void
formatInto(std::ostringstream &os)
{
    (void)os;
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &head, const Rest &...rest)
{
    os << head;
    formatInto(os, rest...);
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

/** Build a message string from a variadic argument pack. */
template <typename... Args>
std::string
buildMessage(const Args &...args)
{
    std::ostringstream os;
    formatInto(os, args...);
    return os.str();
}

} // namespace detail

/**
 * Tag every message from the calling thread with "[tag] " —
 * typically a run or worker label, so messages from concurrent runs
 * (PACT_JOBS > 1) stay attributable. Empty string clears the tag.
 * The tag is thread-local; emission itself is serialized by a mutex,
 * so interleaved messages never tear mid-line.
 */
void setLogTag(const std::string &tag);

/** The calling thread's current log tag (empty when unset). */
const std::string &logTag();

} // namespace pact

/**
 * Report an internal simulator bug and abort. Use for conditions that
 * can never happen regardless of user input.
 */
#define panic(...)                                                          \
    ::pact::detail::panicImpl(__FILE__, __LINE__,                           \
                              ::pact::detail::buildMessage(__VA_ARGS__))

/**
 * Report an unrecoverable user/configuration error and exit(1). Use for
 * bad arguments or impossible configurations, not simulator bugs.
 */
#define fatal(...)                                                          \
    ::pact::detail::fatalImpl(__FILE__, __LINE__,                           \
                              ::pact::detail::buildMessage(__VA_ARGS__))

/** Report a suspicious but survivable condition. */
#define warn(...)                                                           \
    ::pact::detail::warnImpl(::pact::detail::buildMessage(__VA_ARGS__))

/** panic() when a required invariant does not hold. */
#define panic_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond)                                                           \
            panic(__VA_ARGS__);                                             \
    } while (0)

/** fatal() when a required user-facing precondition does not hold. */
#define fatal_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond)                                                           \
            fatal(__VA_ARGS__);                                             \
    } while (0)

#endif // PACT_COMMON_LOGGING_HH
