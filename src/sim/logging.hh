/**
 * @file
 * Error and status reporting, mirroring gem5's logging idioms.
 *
 * panic()  — an internal simulator invariant was violated; aborts.
 * fatal()  — the user asked for something the simulator cannot do
 *            (bad configuration); exits with an error code.
 * warn()   — functionality may be approximate; simulation continues.
 * inform() — status messages with no connotation of misbehaviour.
 */

#ifndef SIM_LOGGING_HH
#define SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "sim/format.hh"

namespace strand
{

/**
 * Verbosity control for the informational channels. Errors always
 * print.
 */
enum class LogLevel
{
    Quiet,  ///< Suppress warn() and inform().
    Normal, ///< Print warnings only.
    Verbose ///< Print warnings and informational messages.
};

/**
 * Global log level; benches set Quiet to keep output clean. Reads
 * and writes are atomic, so sweep worker threads may consult the
 * level while another thread adjusts it.
 */
LogLevel logLevel();
void setLogLevel(LogLevel level);

/**
 * Tag this thread's warn()/inform() output with a sweep-cell label
 * (e.g. "queue/strandweaver/sfr") so interleaved stderr from
 * parallel cells stays attributable. Empty clears the tag. The label
 * is thread-local; each sweep worker sets it per cell.
 */
void setLogCellLabel(std::string label);

namespace detail
{

[[noreturn]] void panicImpl(std::string_view where, const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/**
 * Abort the simulation due to an internal error that should never
 * happen regardless of user input.
 */
template <typename... Args>
[[noreturn]] void
panic(std::string_view fmt, Args &&...args)
{
    detail::panicImpl("panic", sformat(fmt, args...));
}

/**
 * Terminate the simulation due to a user error such as an invalid
 * configuration.
 */
template <typename... Args>
[[noreturn]] void
fatal(std::string_view fmt, Args &&...args)
{
    detail::fatalImpl(sformat(fmt, args...));
}

/** Alert the user that behaviour may be approximate. */
template <typename... Args>
void
warn(std::string_view fmt, Args &&...args)
{
    detail::warnImpl(sformat(fmt, args...));
}

/** Print an informational status message. */
template <typename... Args>
void
inform(std::string_view fmt, Args &&...args)
{
    detail::informImpl(sformat(fmt, args...));
}

/**
 * Assert a simulator invariant; on failure, panic with the given
 * message. Active in all build types, unlike assert().
 */
template <typename... Args>
void
panicIf(bool condition, std::string_view fmt, Args &&...args)
{
    if (condition) {
        detail::panicImpl("panic",
                          sformat(fmt, args...));
    }
}

/** Terminate on a user-caused error condition. */
template <typename... Args>
void
fatalIf(bool condition, std::string_view fmt, Args &&...args)
{
    if (condition)
        detail::fatalImpl(sformat(fmt, args...));
}

} // namespace strand

#endif // SIM_LOGGING_HH
