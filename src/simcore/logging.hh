/**
 * @file
 * Error-reporting and diagnostic helpers shared by every module.
 *
 * Follows the gem5 convention: fatal() is for conditions caused by the
 * user (bad configuration, impossible parameters) and exits cleanly;
 * panic() is for violated internal invariants (a bug in this library)
 * and aborts so a debugger or core dump can capture the state.
 */

#ifndef QOSERVE_SIMCORE_LOGGING_HH
#define QOSERVE_SIMCORE_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace qoserve {

namespace detail {

/** Stream-compose a message from variadic parts. */
template <typename... Args>
std::string
composeMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

[[noreturn]] void fatalExit(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void panicAbort(const char *file, int line,
                             const std::string &msg);
void warnPrint(const std::string &msg);

} // namespace detail

/**
 * Terminate because of a user-caused error (bad config, bad input).
 * Exits with status 1; does not dump core.
 */
#define QOSERVE_FATAL(...)                                                  \
    ::qoserve::detail::fatalExit(                                           \
        __FILE__, __LINE__, ::qoserve::detail::composeMessage(__VA_ARGS__))

/**
 * Terminate because an internal invariant was violated (library bug).
 * Calls abort() so the failure is debuggable.
 */
#define QOSERVE_PANIC(...)                                                  \
    ::qoserve::detail::panicAbort(                                          \
        __FILE__, __LINE__, ::qoserve::detail::composeMessage(__VA_ARGS__))

/** Check an internal invariant; panic with the message when it fails. */
#define QOSERVE_ASSERT(cond, ...)                                           \
    do {                                                                    \
        if (!(cond)) {                                                      \
            QOSERVE_PANIC("assertion failed: " #cond " ", __VA_ARGS__);     \
        }                                                                   \
    } while (0)

/** Non-fatal warning to stderr. */
#define QOSERVE_WARN(...)                                                   \
    ::qoserve::detail::warnPrint(::qoserve::detail::composeMessage(__VA_ARGS__))

} // namespace qoserve

#endif // QOSERVE_SIMCORE_LOGGING_HH
