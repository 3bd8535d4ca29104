/**
 * @file
 * Fixture: a test that sets an option; tests do not count as setters.
 */

#include "core/option_structs.hh"

namespace fixture {

void
pinForTest(WidgetConfig &w)
{
    w.setOnlyInTests = 40;
}

} // namespace fixture
