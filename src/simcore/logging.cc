/**
 * @file
 * Implementation of the error-reporting helpers.
 */

#include "simcore/logging.hh"

#include <cstdio>

namespace qoserve {
namespace detail {

void
fatalExit(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
panicAbort(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
warnPrint(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace detail
} // namespace qoserve
