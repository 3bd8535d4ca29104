/**
 * @file
 * The lint's analysis passes.
 *
 * Pass order (the driver runs them in this sequence):
 *
 *  1. tokenRulesPass      — determinism/style rules over the shared
 *                           token stream (wall clocks, global RNG,
 *                           unordered iteration, raw stdio in
 *                           library code, header guards, @file).
 *  2. layeringPass        — the include graph of src/ checked against
 *                           the declared module DAG
 *                           (tools/layering.manifest).
 *  3. exhaustiveSwitchPass — a defaultless switch over a project enum
 *                           must name every enumerator.
 *  4. rawUnitPass         — public src/ headers must not pass
 *                           simulated time as a bare `double` or
 *                           token counts as a bare `int`; use the
 *                           core/units.hh strong types.
 *  5. unsetOptionPass     — a field of a src/ option struct (a
 *                           *Config, *Options, *Params, *Policy,
 *                           *Grid, *Search or *Criteria) must be set
 *                           somewhere outside tests/; otherwise it is
 *                           a constant.
 *  6. staleSuppressionPass — every `allow(...)` marker must have
 *                           suppressed something in passes 1-5.
 *
 * Passes that need cross-file state (unordered container names,
 * project enums, option setters) take the whole corpus; the rest run
 * per file. All suppression goes through report()/allowed() in
 * lint.hh so pass 6 sees exact usage.
 */

#ifndef QOSERVE_TOOLS_LINT_PASSES_HH
#define QOSERVE_TOOLS_LINT_PASSES_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lint.hh"

namespace qoserve_lint {

/** Declared module-layering DAG: module -> allowed dependencies. */
struct LayeringManifest
{
    std::map<std::string, std::set<std::string>> deps;

    /**
     * Parse the manifest format: one `module: dep dep ...` line per
     * module, `#` comments. Returns false (with @p error set) on
     * unreadable files, undeclared dependencies, or a cyclic
     * declaration.
     */
    bool load(const std::string &path, std::string &error);
};

/** Pass 1: determinism and style token rules. */
void tokenRulesPass(std::vector<SourceFile> &files,
                    std::vector<Finding> &out);

/** Pass 2: include-graph edges vs. the declared layering DAG. */
void layeringPass(std::vector<SourceFile> &files,
                  const LayeringManifest &manifest,
                  std::vector<Finding> &out);

/** Project enums collected from src/ headers: name -> enumerators. */
using EnumTable = std::map<std::string, std::vector<std::string>>;

/** Collect `enum class` declarations from library headers. */
EnumTable collectProjectEnums(const std::vector<SourceFile> &files);

/** Pass 3: defaultless switches over project enums are exhaustive. */
void exhaustiveSwitchPass(std::vector<SourceFile> &files,
                          const EnumTable &enums,
                          std::vector<Finding> &out);

/** Pass 4: raw time/token scalars in src/ header parameter lists. */
void rawUnitPass(std::vector<SourceFile> &files,
                 std::vector<Finding> &out);

/** Pass 5: option-struct fields that no file outside tests/ sets. */
void unsetOptionPass(std::vector<SourceFile> &files,
                     std::vector<Finding> &out);

/** Pass 6: markers whose rules never suppressed anything. */
void staleSuppressionPass(std::vector<SourceFile> &files,
                          std::vector<Finding> &out);

} // namespace qoserve_lint

#endif // QOSERVE_TOOLS_LINT_PASSES_HH
