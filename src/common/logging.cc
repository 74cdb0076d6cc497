#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace pact
{

namespace
{

/** Serializes message emission across threads (line atomicity). */
std::mutex &
logMutex()
{
    static std::mutex m;
    return m;
}

thread_local std::string threadTag;

/** Print "<kind>: [tag] msg" as one line under the log mutex. */
void
emit(const char *kind, const std::string &msg)
{
    const std::string tag =
        threadTag.empty() ? std::string() : "[" + threadTag + "] ";
    std::lock_guard<std::mutex> lock(logMutex());
    std::fprintf(stderr, "%s: %s%s\n", kind, tag.c_str(), msg.c_str());
}

/** msg followed by " (file:line)", for panic/fatal. */
std::string
located(const char *file, int line, const std::string &msg)
{
    return msg + " (" + file + ":" + std::to_string(line) + ")";
}

} // namespace

void
setLogTag(const std::string &tag)
{
    threadTag = tag;
}

const std::string &
logTag()
{
    return threadTag;
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    emit("panic", located(file, line, msg));
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    emit("fatal", located(file, line, msg));
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    emit("warn", msg);
}

} // namespace detail

} // namespace pact
