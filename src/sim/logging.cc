#include "sim/logging.hh"

#include <atomic>
#include <mutex>
#include <stdexcept>

namespace strand
{

namespace
{

std::atomic<LogLevel> globalLevel{LogLevel::Normal};

/** Serializes multi-part stderr writes from concurrent sweep cells. */
std::mutex &
stderrMutex()
{
    static std::mutex mutex;
    return mutex;
}

thread_local std::string cellLabel;

void
emit(const char *channel, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(stderrMutex());
    if (!cellLabel.empty())
        std::cerr << '[' << cellLabel << "] ";
    std::cerr << channel << ": " << msg << '\n';
}

} // namespace

LogLevel
logLevel()
{
    return globalLevel.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    globalLevel.store(level, std::memory_order_relaxed);
}

void
setLogCellLabel(std::string label)
{
    cellLabel = std::move(label);
}

namespace detail
{

void
panicImpl(std::string_view where, const std::string &msg)
{
    // Throw rather than abort so that library users and tests can
    // observe invariant violations; unhandled, it still terminates.
    // The sweep scheduler catches these per cell, tags them with the
    // cell label, and keeps draining the remaining cells.
    throw std::logic_error(std::string(where) + ": " + msg);
}

void
fatalImpl(const std::string &msg)
{
    throw std::invalid_argument("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() != LogLevel::Quiet)
        emit("warn", msg);
}

void
informImpl(const std::string &msg)
{
    if (logLevel() == LogLevel::Verbose)
        emit("info", msg);
}

} // namespace detail

} // namespace strand
