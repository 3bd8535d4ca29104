/**
 * @file
 * Unit tests for the qoserve_lint passes, driven over the deliberate
 * good/bad fixture pairs in tests/lint/fixtures. Each pass gets a
 * seeded violation that must be caught and a clean counterpart that
 * must stay silent; the self-hosting zero-findings gate over the real
 * tree is the separate `qoserve_lint` ctest registered in
 * tools/CMakeLists.txt.
 *
 * QOSERVE_LINT_FIXTURE_DIR is injected by the build as the absolute
 * path of the fixture directory.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint.hh"
#include "lint/passes.hh"
#include "lint/sarif.hh"
#include "lint/tokenizer.hh"

namespace {

using namespace qoserve_lint;

std::string
fixture(const std::string &rel)
{
    return std::string(QOSERVE_LINT_FIXTURE_DIR) + "/" + rel;
}

SourceFile
load(const std::string &rel)
{
    SourceFile f;
    EXPECT_TRUE(loadSourceFile(fixture(rel), f))
        << "unreadable fixture " << rel;
    return f;
}

/** Findings whose rule matches, for focused assertions. */
std::vector<Finding>
withRule(const std::vector<Finding> &all, const std::string &rule)
{
    std::vector<Finding> out;
    for (const Finding &f : all) {
        if (f.rule == rule)
            out.push_back(f);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Tokenizer.

TEST(Tokenizer, FusesScopeAndTracksLines)
{
    std::vector<Token> toks = tokenize("std::mt19937 x;\nint y = 42;");
    ASSERT_GE(toks.size(), 8u);
    EXPECT_TRUE(toks[0].ident("std"));
    EXPECT_TRUE(toks[1].is("::"));
    EXPECT_TRUE(toks[2].ident("mt19937"));
    EXPECT_EQ(toks[0].line, 1u);
    // `int` opens line 2.
    EXPECT_TRUE(toks[5].ident("int"));
    EXPECT_EQ(toks[5].line, 2u);
    EXPECT_EQ(toks[7].kind, TokenKind::Punct); // '='
    EXPECT_EQ(toks[8].kind, TokenKind::Number);
    EXPECT_EQ(toks[8].text, "42");
}

TEST(Tokenizer, MatchBracketSkipsNesting)
{
    std::vector<Token> toks = tokenize("f(a, (b, c), d) g");
    ASSERT_TRUE(toks[1].is("("));
    std::size_t close = matchBracket(toks, 1, "(", ")");
    ASSERT_LT(close, toks.size());
    EXPECT_TRUE(toks[close].is(")"));
    EXPECT_TRUE(toks[close + 1].ident("g"));

    std::vector<Token> open = tokenize("f(a, (b");
    EXPECT_EQ(matchBracket(open, 1, "(", ")"), open.size());
}

// ---------------------------------------------------------------------------
// Source views and suppression markers.

TEST(SourceFile, ViewsAndModule)
{
    SourceFile f = load("tree/src/sched/good_layered.hh");
    EXPECT_TRUE(f.isHeader());
    EXPECT_TRUE(f.inLibrary());
    EXPECT_EQ(f.module(), "sched");
    // The commented-out include is blanked in both derived views.
    EXPECT_NE(f.raw.find("cluster/replica.hh"), std::string::npos);
    EXPECT_EQ(f.noComments.find("cluster/replica.hh"),
              std::string::npos);
    EXPECT_EQ(f.code.find("cluster/replica.hh"), std::string::npos);
    // Blanking preserves line structure byte-for-byte.
    EXPECT_EQ(f.raw.size(), f.noComments.size());
    EXPECT_EQ(f.raw.size(), f.code.size());
}

TEST(SourceFile, MarkerInCommentCollected)
{
    SourceFile f = load("tree/src/core/used_marker.cc");
    ASSERT_EQ(f.markers.size(), 1u);
    const AllowMarker &m = f.markers.begin()->second;
    EXPECT_EQ(m.rules.count("no-std-rand"), 1u);
    EXPECT_TRUE(m.used.empty());
}

TEST(SourceFile, MarkerInStringIgnored)
{
    SourceFile f = load("tree/src/core/string_marker.cc");
    EXPECT_TRUE(f.markers.empty());
}

TEST(SourceFile, AllowedCoversMarkerLineAndNext)
{
    SourceFile f = load("tree/src/core/used_marker.cc");
    std::size_t markerLine = f.markers.begin()->first;
    EXPECT_TRUE(allowed(f, markerLine, "no-std-rand"));
    EXPECT_TRUE(allowed(f, markerLine + 1, "no-std-rand"));
    EXPECT_FALSE(allowed(f, markerLine + 2, "no-std-rand"));
    EXPECT_FALSE(allowed(f, markerLine, "no-wall-clock"));
    EXPECT_EQ(f.markers.begin()->second.used.count("no-std-rand"), 1u);
}

// ---------------------------------------------------------------------------
// Pass 1 + pass 6: token rules and stale-suppression accounting.

TEST(TokenRules, FlagsRngAndHonorsSuppression)
{
    std::vector<SourceFile> files = {
        load("tree/src/core/bad_rand.cc"),
        load("tree/src/core/used_marker.cc"),
        load("tree/src/core/stale_marker.cc"),
    };
    std::vector<Finding> findings;
    tokenRulesPass(files, findings);

    // bad_rand: mt19937, random_device, and the rand() call.
    std::vector<Finding> rng = withRule(findings, "no-std-rand");
    ASSERT_EQ(rng.size(), 3u);
    for (const Finding &f : rng)
        EXPECT_NE(f.file.find("bad_rand.cc"), std::string::npos)
            << f.file << ":" << f.line;
    EXPECT_TRUE(withRule(findings, "no-wall-clock").empty());
    EXPECT_EQ(findings.size(), rng.size())
        << "suppressed/clean fixtures produced extra findings";

    // Stale accounting: used_marker's tag suppressed a finding,
    // stale_marker's did not.
    std::vector<Finding> stale;
    staleSuppressionPass(files, stale);
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_EQ(stale[0].rule, "stale-suppression");
    EXPECT_NE(stale[0].file.find("stale_marker.cc"), std::string::npos);
    EXPECT_NE(stale[0].message.find("no-std-rand"), std::string::npos);
}

TEST(TokenRules, FlagsCharsFormatOutsideTheFormatterHome)
{
    // src/core/csv.hh is the formatter's home and may name
    // chars_format; any other library file may not.
    std::vector<SourceFile> files = {
        load("tree/src/core/bad_float_format.cc"),
        load("tree/src/core/csv.hh"),
    };
    std::vector<Finding> findings;
    tokenRulesPass(files, findings);

    std::vector<Finding> fmt = withRule(findings, "one-float-format");
    ASSERT_EQ(fmt.size(), 1u);
    EXPECT_NE(fmt[0].file.find("bad_float_format.cc"), std::string::npos);
    EXPECT_EQ(fmt[0].line, 14);
    EXPECT_EQ(findings.size(), fmt.size())
        << "the exempt header produced findings";
}

TEST(TokenRules, FlagsTraceEventVectorsOutsideTheStreamHome)
{
    // src/obs/trace_sink.* is the stream type's home; a vector of
    // TraceEvents anywhere else in src/ or tools/ is flagged, qualified
    // or not, and a vector of anything else is not.
    std::vector<SourceFile> files = {
        load("tree/tools/bad_event_stream.cc"),
        load("tree/src/obs/trace_sink.hh"),
    };
    std::vector<Finding> findings;
    tokenRulesPass(files, findings);

    std::vector<Finding> streams = withRule(findings, "one-event-stream");
    ASSERT_EQ(streams.size(), 2u);
    for (const Finding &f : streams)
        EXPECT_NE(f.file.find("bad_event_stream.cc"), std::string::npos);
    EXPECT_EQ(streams[0].line, 17);
    EXPECT_EQ(streams[1].line, 19);
    EXPECT_EQ(findings.size(), streams.size())
        << "the exempt header produced findings";
}

// ---------------------------------------------------------------------------
// Pass 2: layering manifest and include-graph checks.

TEST(Layering, ManifestLoadsAndValidates)
{
    LayeringManifest m;
    std::string err;
    ASSERT_TRUE(m.load(fixture("layering.manifest"), err)) << err;
    EXPECT_EQ(m.deps.size(), 3u);
    EXPECT_TRUE(m.deps.at("simcore").empty());
    EXPECT_EQ(m.deps.at("sched").count("core"), 1u);

    LayeringManifest cyc;
    EXPECT_FALSE(cyc.load(fixture("cycle.manifest"), err));
    EXPECT_NE(err.find("cycle"), std::string::npos) << err;

    LayeringManifest und;
    EXPECT_FALSE(und.load(fixture("undeclared.manifest"), err));
    EXPECT_NE(err.find("undeclared"), std::string::npos) << err;

    LayeringManifest missing;
    EXPECT_FALSE(missing.load(fixture("no_such.manifest"), err));
}

TEST(Layering, FlagsUpwardEdgeAndUndeclaredModule)
{
    LayeringManifest m;
    std::string err;
    ASSERT_TRUE(m.load(fixture("layering.manifest"), err)) << err;

    std::vector<SourceFile> files = {
        load("tree/src/simcore/bad_upward.hh"),
        load("tree/src/sched/good_layered.hh"),
        load("tree/src/mystery/rogue.hh"),
    };
    std::vector<Finding> findings;
    layeringPass(files, m, findings);
    ASSERT_EQ(findings.size(), 2u);

    // The upward include, reported at the #include line.
    const Finding &up = findings[0].file.find("bad_upward") !=
                                std::string::npos
                            ? findings[0]
                            : findings[1];
    EXPECT_EQ(up.rule, "layering");
    EXPECT_NE(up.message.find("sched/scheduler.hh"), std::string::npos);
    EXPECT_EQ(up.line, 11u);

    // The module missing from the manifest.
    const Finding &rogue =
        &up == &findings[0] ? findings[1] : findings[0];
    EXPECT_NE(rogue.file.find("rogue.hh"), std::string::npos);
    EXPECT_NE(rogue.message.find("not declared"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pass 3: exhaustive switches over project enums.

TEST(ExhaustiveSwitch, CollectsEnumsFromLibraryHeaders)
{
    std::vector<SourceFile> files = {load("tree/src/core/color.hh")};
    EnumTable enums = collectProjectEnums(files);
    ASSERT_EQ(enums.count("Color"), 1u);
    EXPECT_EQ(enums.at("Color"),
              (std::vector<std::string>{"Red", "Green", "Blue"}));
    ASSERT_EQ(enums.count("Phase"), 1u);
    EXPECT_EQ(enums.at("Phase"),
              (std::vector<std::string>{"Prefill", "Decode"}));
}

TEST(ExhaustiveSwitch, FlagsMissingEnumeratorOnly)
{
    std::vector<SourceFile> corpus = {
        load("tree/src/core/color.hh"),
        load("tree/src/core/bad_switch.cc"),
        load("tree/src/core/good_switch.cc"),
    };
    EnumTable enums = collectProjectEnums(corpus);
    std::vector<Finding> findings;
    exhaustiveSwitchPass(corpus, enums, findings);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "exhaustive-switch");
    EXPECT_NE(findings[0].file.find("bad_switch.cc"),
              std::string::npos);
    EXPECT_NE(findings[0].message.find("Blue"), std::string::npos);
    EXPECT_EQ(findings[0].message.find("Red"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pass 4: raw unit scalars in library headers.

TEST(RawUnit, FlagsTimeAndTokenScalars)
{
    std::vector<SourceFile> files = {
        load("tree/src/core/bad_units.hh"),
        load("tree/src/core/good_units.hh"),
    };
    std::vector<Finding> findings;
    rawUnitPass(files, findings);
    ASSERT_EQ(findings.size(), 2u);
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, "raw-unit");
        EXPECT_NE(f.file.find("bad_units.hh"), std::string::npos);
    }
    EXPECT_NE(findings[0].message.find("SimTime"), std::string::npos);
    EXPECT_NE(findings[1].message.find("TokenCount"),
              std::string::npos);
}

TEST(RawUnit, IgnoresImplementationFiles)
{
    // The same signatures in a .cc must not be flagged: the rule
    // guards public interfaces, and implementations convert to raw
    // scalars at entry to keep arithmetic byte-identical.
    SourceFile f = load("tree/src/core/bad_units.hh");
    f.path = "src/core/bad_units.cc";
    std::vector<SourceFile> files = {f};
    std::vector<Finding> findings;
    rawUnitPass(files, findings);
    EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// Pass 5: option-struct fields that no program sets.

TEST(UnsetOption, FlagsFieldsOnlyTestsSet)
{
    // Setters outside tests/ count: an assignment, a compound
    // assignment through ->, a nested .a.b chain, an aggregate
    // Type{...} and a flag-table F(...) path. Comparisons and the
    // test file's assignment do not.
    std::vector<SourceFile> files = {
        load("tree/src/core/option_structs.hh"),
        load("tree/tools/option_setters.cc"),
        load("tree/tests/option_setters_test.cc"),
    };
    std::vector<Finding> findings;
    unsetOptionPass(files, findings);

    std::vector<std::string> flagged;
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, "unset-option");
        EXPECT_NE(f.file.find("option_structs.hh"), std::string::npos);
        flagged.push_back(f.message.substr(0, f.message.find(' ')));
    }
    EXPECT_EQ(flagged, (std::vector<std::string>{
                           "WidgetConfig::setOnlyInTests",
                           "WidgetConfig::neverSet",
                           "PairParams::second",
                           "Holder::Options::nestedField",
                       }));
    ASSERT_EQ(findings.size(), 4u);
    EXPECT_EQ(findings[1].line, 25u);

    // The reasoned marker suppressed its finding, so it is not stale.
    std::vector<Finding> stale;
    staleSuppressionPass(files, stale);
    EXPECT_TRUE(stale.empty());
}

TEST(UnsetOption, EverySetterIsNeeded)
{
    // Without the program, every field is unset except the one the
    // marker covers.
    std::vector<SourceFile> files = {
        load("tree/src/core/option_structs.hh"),
        load("tree/tests/option_setters_test.cc"),
    };
    std::vector<Finding> findings;
    unsetOptionPass(files, findings);
    EXPECT_EQ(findings.size(), 10u);
}

// ---------------------------------------------------------------------------
// SARIF output.

TEST(Sarif, EmitsRulesAndResults)
{
    std::vector<Finding> findings = {
        {"src/core/a.hh", 12, "raw-unit", "message \"quoted\""},
        {"src/core/b.cc", 3, "no-std-rand", "plain"},
    };
    std::ostringstream out;
    writeSarif(findings, out);
    const std::string s = out.str();
    EXPECT_NE(s.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(s.find("\"name\": \"qoserve_lint\""), std::string::npos);
    EXPECT_NE(s.find("\"ruleId\": \"raw-unit\""), std::string::npos);
    EXPECT_NE(s.find("\"ruleId\": \"no-std-rand\""),
              std::string::npos);
    EXPECT_NE(s.find("\"uri\": \"src/core/a.hh\""), std::string::npos);
    EXPECT_NE(s.find("\"startLine\": 12"), std::string::npos);
    // JSON string escaping.
    EXPECT_NE(s.find("message \\\"quoted\\\""), std::string::npos);

    std::ostringstream empty;
    writeSarif({}, empty);
    EXPECT_NE(empty.str().find("\"results\": []"), std::string::npos);
}

} // namespace
