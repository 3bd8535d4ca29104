/**
 * @file
 * Fixture: the one file allowed to name chars_format, the home of
 * the formatter's fallback (one-float-format must stay silent).
 */

#ifndef QOSERVE_FIXTURE_CSV_HH
#define QOSERVE_FIXTURE_CSV_HH

#include <charconv>

namespace fixture {

inline char *
fallback(char *first, char *last, double v)
{
    return std::to_chars(first, last, v, std::chars_format::general, 6).ptr;
}

} // namespace fixture

#endif // QOSERVE_FIXTURE_CSV_HH
