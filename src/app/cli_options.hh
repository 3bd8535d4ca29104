/**
 * @file
 * Command-line configuration for the qoserve_sim driver.
 *
 * Parses the flag set of the standalone simulator binary into a
 * Scenario. Kept in the library (rather than the tool's main) so the
 * parsing rules are unit-testable and reusable by downstream drivers.
 */

#ifndef QOSERVE_APP_CLI_OPTIONS_HH
#define QOSERVE_APP_CLI_OPTIONS_HH

#include <string>
#include <vector>

#include "app/scenario.hh"

namespace qoserve {

/**
 * Parsed qoserve_sim invocation: the scenario its flags describe.
 */
struct CliOptions : Scenario
{
    /** True when --help was requested. */
    bool helpRequested = false;
};

/**
 * Parse argv into options.
 *
 * Unknown flags, missing values, malformed or out-of-range numbers
 * and a scenario that fails Scenario::validate() are fatal (user)
 * errors with a message naming the offending flag.
 *
 * @param args Arguments excluding argv[0].
 */
CliOptions parseCliOptions(const std::vector<std::string> &args);

/** Usage text for --help. */
std::string cliUsage();

/** Parse a policy name ("qoserve", "fcfs", "edf", ...). Fatal on
 *  unknown names. */
Policy parsePolicyName(const std::string &name);

/** Parse a hardware preset name ("llama3-8b-a100-tp1", ...). */
ReplicaHwConfig parseHwName(const std::string &name);

} // namespace qoserve

#endif // QOSERVE_APP_CLI_OPTIONS_HH
