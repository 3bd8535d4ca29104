/**
 * @file
 * Fixture: a second floating-point formatter in library code. The
 * chars_format mention must be flagged (one-float-format).
 */

#include <charconv>

namespace fixture {

char *
render(char *first, char *last, double v)
{
    return std::to_chars(first, last, v, std::chars_format::general, 6).ptr;
}

} // namespace fixture
