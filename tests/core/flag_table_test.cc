/**
 * @file
 * Tests of the qoserve_sim flag table as a whole: every row is in the
 * usage text once, every double row rejects non-finite values, and
 * toFlagLine() round-trips random scenarios through the parser.
 */

#include "app/cli_options.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "simcore/rng.hh"

namespace qoserve {
namespace {

const FlagRow &
row(const std::string &flag)
{
    for (const FlagRow &r : flagTable()) {
        if (flag == r.flag)
            return r;
    }
    ADD_FAILURE() << "no row " << flag;
    return flagTable().front();
}

/** Split a flag line into words the way a POSIX shell does for the
 *  quoting toFlagLine() emits: bare words and '...' strings. */
std::vector<std::string>
shellSplit(const std::string &line)
{
    std::vector<std::string> words;
    std::string word;
    bool inWord = false;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '\'')
                quoted = false;
            else
                word += c;
        } else if (c == '\'') {
            quoted = inWord = true;
        } else if (c == '\\' && i + 1 < line.size()) {
            word += line[++i];
            inWord = true;
        } else if (c == ' ') {
            if (inWord)
                words.push_back(word);
            word.clear();
            inWord = false;
        } else {
            word += c;
            inWord = true;
        }
    }
    if (inWord)
        words.push_back(word);
    return words;
}

/** The names a choice row's help lists: "a | b | c (default a)". */
std::vector<std::string>
listedNames(const FlagRow &r)
{
    std::vector<std::string> names;
    std::istringstream words(r.help);
    for (std::string w; words >> w && w[0] != '(';) {
        if (w != "|")
            names.push_back(w);
    }
    return names;
}

TEST(FlagTable, EveryRowAppearsOnceInTheUsageText)
{
    const std::string usage = cliUsage();
    for (const FlagRow &r : flagTable()) {
        const std::string head = std::string("\n  ") + r.flag + " ";
        std::size_t count = 0;
        for (std::size_t at = usage.find(head); at != std::string::npos;
             at = usage.find(head, at + 1))
            ++count;
        EXPECT_EQ(count, 1u) << r.flag;
    }
}

TEST(FlagTable, FlagsAreUniqueAndGatesAndEnablersNameRows)
{
    std::vector<std::string> flags;
    for (const FlagRow &r : flagTable())
        flags.push_back(r.flag);
    std::sort(flags.begin(), flags.end());
    EXPECT_EQ(std::adjacent_find(flags.begin(), flags.end()), flags.end());
    for (const FlagRow &r : flagTable()) {
        for (const char *named : {r.gate, r.enabler}) {
            if (named) {
                EXPECT_TRUE(std::binary_search(flags.begin(), flags.end(),
                                               std::string(named)))
                    << r.flag << " names " << named;
            }
        }
    }
}

TEST(FlagTable, ChoiceNamesInTheHelpParseAndPrintBack)
{
    for (const FlagRow &r : flagTable()) {
        if (r.kind != FlagKind::Choice)
            continue;
        const std::vector<std::string> names = listedNames(r);
        EXPECT_GE(names.size(), 2u) << r.flag;
        for (const std::string &name : names) {
            // The first name is the default, which prints as nothing.
            const std::string want =
                name == names.front() ? "" : r.flag + (" " + name);
            EXPECT_EQ(toFlagLine(parseCliOptions({r.flag, name})), want);
        }
    }
}

TEST(FlagTable, NonFiniteValuesAreFatal)
{
    for (const FlagRow &r : flagTable()) {
        if (r.kind != FlagKind::Double)
            continue;
        for (const char *value : {"nan", "inf", "-inf"}) {
            EXPECT_EXIT(parseCliOptions({r.flag, value}),
                        testing::ExitedWithCode(1),
                        std::string("fatal: flag ") + r.flag +
                            ": not a finite number")
                << r.flag << " " << value;
        }
    }
    EXPECT_EXIT(parseCliOptions({"--mix", "0.5,nan,0.5"}),
                testing::ExitedWithCode(1), "fatal: flag --mix");
}

TEST(FlagTable, CodeBuiltScenariosGetTheRowRanges)
{
    Scenario sc;
    sc.qps = std::nan("");
    EXPECT_DEATH(sc.validate(), "--qps must be positive, got nan");
    sc = Scenario{};
    sc.fault.crashMtbf = 10.0;
    sc.fault.crashMttr = std::nan("");
    EXPECT_DEATH(sc.validate(),
                 "--fault-mttr must be positive with --fault-mtbf set");
    // The same value is fine while the feature is off.
    sc.fault.crashMtbf = 0.0;
    sc.validate();
}

TEST(FlagTable, FlagLineOfTheDefaultIsEmpty)
{
    EXPECT_EQ(toFlagLine(Scenario{}), "");
    // Aliases print as the list's first name for the value.
    EXPECT_EQ(toFlagLine(parseCliOptions({"--lb", "shortest-queue"})),
              "--lb jsq");
    EXPECT_EQ(toFlagLine(parseCliOptions({"--trace-out", "a b'c"})),
              "--trace-out 'a b'\\''c'");
}

TEST(FlagTable, FlagLineRefusesWhatNoFlagExpresses)
{
    Scenario counted;
    counted.requestCount = 10;
    EXPECT_DEATH(toFlagLine(counted), "requestCount");
    Scenario custom;
    custom.dataset.name = "custom";
    EXPECT_DEATH(toFlagLine(custom), "--dataset value has no name");
}

/** A value in @p r's range (in (0, 1] when it has none). */
double
drawDouble(const FlagRow &r, Rng &rng)
{
    for (;;) {
        double v = 1.0 - rng.uniform();
        if (r.range && std::isinf(r.range->hi))
            v = r.range->lo +
                rng.uniform() * std::pow(10.0, rng.uniformInt(-3, 6));
        else if (r.range)
            v = rng.uniform(r.range->lo, r.range->hi);
        if (!r.range || r.range->contains(v))
            return v;
    }
}

/** Set @p r to a random value in its range. */
void
drawRow(const FlagRow &r, Scenario &sc, Rng &rng)
{
    static const char *const kPaths[] = {"/tmp/out.csv", "rel/x.json",
                                         "with space.csv", "it's.csv", ""};
    const FlagField field = r.field(sc);
    switch (r.kind) {
    case FlagKind::Switch:
        applyFlag(r, sc, "");
        break;
    case FlagKind::Double:
        *std::get<double *>(field) = drawDouble(r, rng);
        break;
    case FlagKind::Count:
    case FlagKind::Int: {
        const std::int64_t lo =
            r.range ? static_cast<std::int64_t>(r.range->lo) +
                          (r.range->loOpen ? 1 : 0)
                    : 0;
        *std::get<int *>(field) =
            static_cast<int>(rng.uniformInt(lo, lo + 5000));
        break;
    }
    case FlagKind::U64:
        *std::get<std::uint64_t *>(field) = rng.nextU64();
        break;
    case FlagKind::Path:
        *std::get<std::optional<std::string> *>(field) =
            kPaths[rng.uniformInt(0, 4)];
        break;
    case FlagKind::List: {
        std::vector<double> &list = *std::get<std::vector<double> *>(field);
        list.resize(static_cast<std::size_t>(rng.uniformInt(1, 4)));
        for (double &v : list)
            v = rng.normal() * std::pow(10.0, rng.uniformInt(-5, 5));
        break;
    }
    case FlagKind::Choice: {
        const std::vector<std::string> names = listedNames(r);
        applyFlag(r, sc,
                  names[static_cast<std::size_t>(rng.uniformInt(
                      0, static_cast<std::int64_t>(names.size()) - 1))]);
        break;
    }
    }
}

/** Bring a random draw inside the rules that relate fields: the
 *  cross-field checks of Scenario::validate(), the config structs'
 *  own checks, and the enabler of every tuning flag. */
void
repair(Scenario &sc)
{
    sc.domains.zones = std::min(sc.domains.zones, sc.serving.numReplicas);
    if (sc.domains.zoneMtbf > 0.0 && sc.domains.zones == 0)
        sc.domains.zones = 1;
    if (sc.brownout.exitBacklog >= sc.brownout.enterBacklog)
        sc.brownout.exitBacklog = sc.brownout.enterBacklog / 2.0;
    sc.brownout.shedTier = std::min(
        sc.brownout.shedTier, static_cast<int>(sc.tiers.size()) - 1);
    if (sc.sloAlert.shortWindow > sc.sloAlert.longWindow)
        std::swap(sc.sloAlert.shortWindow, sc.sloAlert.longWindow);
    sc.serving.qoserve.maxChunkTokens = std::max(
        sc.serving.qoserve.maxChunkTokens, QoServeConfig::kMinChunkTokens);
    sc.sharedPrefix.numPools = std::max(sc.sharedPrefix.numPools, 1);
    if (sc.sloAlertsOut)
        sc.sloMonitor = true;
    if (sc.serving.cacheAffinityRouting)
        sc.serving.prefixCache.enabled = true;
    for (const FlagRow &r : flagTable()) {
        if (r.enabler && r.isSet(sc) && !row(r.enabler).isSet(sc))
            applyFlag(row(r.enabler), sc, "/tmp/enabled.csv");
    }
}

TEST(FlagTable, FlagLineRoundTripsRandomScenarios)
{
    Rng rng(20261017);
    for (int draw = 0; draw < 1000; ++draw) {
        Scenario sc;
        for (const FlagRow &r : flagTable()) {
            if (r.field && rng.bernoulli(0.5))
                drawRow(r, sc, rng);
        }
        repair(sc);

        const std::string line = toFlagLine(sc);
        CliOptions back = parseCliOptions(shellSplit(line));
        for (const FlagRow &r : flagTable()) {
            if (!r.field)
                continue;
            const FlagField got = r.field(back);
            std::visit(
                [&](auto *want) {
                    EXPECT_TRUE(*want == *std::get<decltype(want)>(got))
                        << r.flag << " in draw " << draw << ": " << line;
                },
                r.field(sc));
        }
        EXPECT_EQ(toFlagLine(back), line);
    }
}

} // namespace
} // namespace qoserve
