/**
 * @file
 * Pass 6: suppression markers that no longer suppress anything.
 *
 * Every `allow(rule)` suppression marker is a standing exception
 * to a rule, and exceptions rot: the flagged code gets rewritten,
 * the marker stays, and the next reader inherits a license to
 * violate the rule where none is needed. allowed() (lint.hh)
 * records which (marker, rule) pairs actually suppressed a finding
 * during passes 1-5; this pass turns every unconsumed pair into an
 * error so markers are deleted the moment they stop earning their
 * keep. A typo in the rule name fails the same way, since a
 * misspelled rule can never match.
 */

#include "lint/passes.hh"

namespace qoserve_lint {

void
staleSuppressionPass(std::vector<SourceFile> &files,
                     std::vector<Finding> &out)
{
    for (SourceFile &f : files) {
        for (const auto &entry : f.markers) {
            const AllowMarker &m = entry.second;
            for (const std::string &rule : m.rules) {
                if (m.used.count(rule) == 0) {
                    out.push_back(
                        {f.path, m.line, "stale-suppression",
                         "suppression `allow(" + rule +
                             ")` no longer suppresses anything "
                             "(nothing on this or the next line "
                             "violates `" + rule +
                             "`); delete the marker, or fix the rule "
                             "name if it is misspelled"});
                }
            }
        }
    }
}

} // namespace qoserve_lint
