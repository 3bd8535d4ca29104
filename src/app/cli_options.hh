/**
 * @file
 * The qoserve_sim flag table and everything built from it.
 *
 * Each flag is one FlagRow. One loop parses argv against the table,
 * one printer renders cliUsage(), Scenario::validate() checks every
 * row's range, and toFlagLine() prints a Scenario back as the flag
 * line that reproduces it (DESIGN.md §16).
 */

#ifndef QOSERVE_APP_CLI_OPTIONS_HH
#define QOSERVE_APP_CLI_OPTIONS_HH

#include <span>
#include <string>
#include <variant>
#include <vector>

#include "app/scenario.hh"

namespace qoserve {

/** Count is an int >= 0; List is comma-separated doubles. */
enum class FlagKind { Switch, Double, Count, Int, U64, Path, List, Choice };

/** The Scenario field a flag sets. */
using FlagField =
    std::variant<bool *, double *, int *, std::uint64_t *,
                 std::optional<std::string> *, std::vector<double> *,
                 Policy *, ReplicaHwConfig *, LoadBalancePolicy *,
                 Dataset *, TierTable *>;

/** An interval of allowed values; NaN lies in none. */
struct FlagRange
{
    double lo, hi;
    bool loOpen, hiOpen;
    const char *text; ///< "positive", "in (0, 1]", ...

    bool
    contains(double v) const
    {
        return (loOpen ? v > lo : v >= lo) && (hiOpen ? v < hi : v <= hi);
    }
};

/** One flag: everything about it is written here and nowhere else. */
struct FlagRow
{
    const char *section;
    const char *flag;
    const char *metavar; ///< "" for switches.
    FlagKind kind;
    FlagField (*field)(Scenario &); ///< Null for --help.
    const char *help;               ///< Usage lines, '\n'-separated.
    const FlagRange *range = nullptr;
    const char *gate = nullptr;    ///< Range applies when this flag is set.
    const char *enabler = nullptr; ///< Flag that must be given too.
    const char *alias = nullptr;

    /** The field of a const scenario, for reading. */
    FlagField fieldOf(const Scenario &sc) const;
    /** True when the field differs from a default Scenario's. */
    bool isSet(const Scenario &sc) const;
    /** Fatal, naming the flag, when the field is out of range. */
    void checkRange(const Scenario &sc) const;
};

/** Every flag, in usage order. */
std::span<const FlagRow> flagTable();

/** Apply @p row given @p value (ignored for switches) to @p sc.
 *  Malformed or non-finite values are fatal. */
void applyFlag(const FlagRow &row, Scenario &sc, const std::string &value);

/** Parsed qoserve_sim invocation: the scenario its flags describe. */
struct CliOptions : Scenario
{
    bool helpRequested = false;
};

/**
 * Parse argv (without argv[0]) into options. Unknown flags, missing,
 * malformed, non-finite or out-of-range values, a scenario that fails
 * Scenario::validate() and a tuning flag given without its enabler
 * are fatal (user) errors naming the flag.
 */
CliOptions parseCliOptions(const std::vector<std::string> &args);

/** Usage text for --help. */
std::string cliUsage();

/**
 * The flags that turn a default Scenario into @p sc, in table order:
 * every row whose field differs from the default, doubles in shortest
 * round-trip form, values shell-quoted where needed. A scenario no
 * flag line expresses (requestCount > 0, a value outside a choice
 * list, a tuning flag without its enabler) is a programming error.
 */
std::string toFlagLine(const Scenario &sc);

} // namespace qoserve

#endif // QOSERVE_APP_CLI_OPTIONS_HH
