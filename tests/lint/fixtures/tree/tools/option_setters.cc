/**
 * @file
 * Fixture: a program that sets options every way unset-option counts.
 */

#include "core/option_structs.hh"

#define F(member) (&member)

namespace fixture {

int
configure(WidgetConfig &w, WidgetConfig *p)
{
    w.setByAssignment = 10;
    p->setByCompound += 1;
    w.inner.depth = 3;
    PairParams pair = PairParams{1};
    bool same = w.setOnlyInTests == 4 && w.neverSet <= 5;
    (void)F(w.setByFlagTable);
    return pair.first + (same ? 1 : 0);
}

} // namespace fixture
