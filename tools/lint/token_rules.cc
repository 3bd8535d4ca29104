/**
 * @file
 * Pass 1: determinism and style rules over the shared token stream.
 *
 * The simulator's contract (DESIGN.md §6) is that results are a pure
 * function of (seed, config) — never of wall-clock time, global RNG
 * state, or heap addresses. This pass enforces the source-level half
 * of that contract plus the repo's file conventions:
 *
 *  - no-wall-clock:   std::chrono system/steady clocks, time(),
 *                     clock(), gettimeofday() in simulation code;
 *  - no-std-rand:     std::rand/srand, random_device,
 *                     random_shuffle, *rand48, mt19937,
 *                     default_random_engine, minstd_rand (use the
 *                     seeded simcore Rng);
 *  - unordered-iter:  range-for over an unordered_map/unordered_set
 *                     — iteration order is hash/address dependent;
 *  - no-raw-io:       printf/fprintf/puts and std::cout/std::cerr in
 *                     library code (src/): diagnostics go through
 *                     simcore/logging;
 *  - one-float-format: std::chars_format in library code outside
 *                     src/core/csv.hh: artefact numbers go through
 *                     formatDecimal, the one floating-point formatter;
 *  - one-event-stream: a vector of TraceEvents in src/ or tools/
 *                     outside src/obs/trace_sink.*: trace consumers
 *                     read the one stream type, TraceLog;
 *  - header-guard:    every .hh carries a QOSERVE_-prefixed guard;
 *  - doxygen-file:    every file opens with a Doxygen @file comment.
 */

#include <cctype>

#include "lint/passes.hh"
#include "lint/tokenizer.hh"

namespace qoserve_lint {

namespace {

const char kClockMsg[] =
    "wall-clock time in simulation code: results must be a function "
    "of (seed, config) only - use the EventQueue clock";
const char kRandMsg[] =
    "global/non-deterministic RNG in simulation code: use the seeded "
    "simcore Rng so runs reproduce";

/** Identifiers banned outright, with their rule and message. */
struct BannedIdent
{
    const char *ident;
    const char *rule;
    const char *message;
};

const BannedIdent kBannedIdents[] = {
    {"system_clock", "no-wall-clock", kClockMsg},
    {"steady_clock", "no-wall-clock", kClockMsg},
    {"high_resolution_clock", "no-wall-clock", kClockMsg},
    {"gettimeofday", "no-wall-clock", kClockMsg},
    {"random_device", "no-std-rand", kRandMsg},
    {"random_shuffle", "no-std-rand", kRandMsg},
    {"drand48", "no-std-rand", kRandMsg},
    {"lrand48", "no-std-rand", kRandMsg},
    {"mt19937", "no-std-rand", kRandMsg},
    {"default_random_engine", "no-std-rand", kRandMsg},
    {"minstd_rand", "no-std-rand", kRandMsg},
};

/** Identifiers banned only when called (followed by `(`). */
const BannedIdent kBannedCalls[] = {
    {"time", "no-wall-clock", kClockMsg},
    {"clock", "no-wall-clock", kClockMsg},
    {"rand", "no-std-rand", kRandMsg},
    {"srand", "no-std-rand", kRandMsg},
};

bool
isWordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/** Bounded token search in plain text (for range expressions). */
bool
containsToken(const std::string &text, const std::string &token)
{
    std::size_t pos = 0;
    while ((pos = text.find(token, pos)) != std::string::npos) {
        bool okBefore = pos == 0 || !isWordChar(text[pos - 1]);
        std::size_t after = pos + token.size();
        bool okAfter = after >= text.size() || !isWordChar(text[after]);
        if (okBefore && okAfter)
            return true;
        pos = after;
    }
    return false;
}

/**
 * Collect, across every scanned file, the names of variables and
 * accessor functions declared with an unordered_map/unordered_set
 * type. Range-fors whose range expression mentions one of these
 * names are then flagged file-independently, so iterating a
 * container through an accessor does not dodge the rule.
 */
void
collectUnorderedNames(const SourceFile &f, std::set<std::string> &names)
{
    for (const char *marker : {"unordered_map<", "unordered_set<"}) {
        std::size_t pos = 0;
        const std::string tok(marker);
        while ((pos = f.code.find(tok, pos)) != std::string::npos) {
            // Bracket-match the template argument list.
            std::size_t i = pos + tok.size();
            int depth = 1;
            while (i < f.code.size() && depth > 0) {
                if (f.code[i] == '<')
                    ++depth;
                else if (f.code[i] == '>')
                    --depth;
                ++i;
            }
            // Skip reference/pointer decoration and whitespace (the
            // declared name may start on the next line).
            while (i < f.code.size() &&
                   (std::isspace(static_cast<unsigned char>(
                        f.code[i])) != 0 ||
                    f.code[i] == '&' || f.code[i] == '*')) {
                ++i;
            }
            if (f.code.compare(i, 6, "const ") == 0)
                i += 6;
            std::size_t start = i;
            while (i < f.code.size() && isWordChar(f.code[i]))
                ++i;
            if (i > start) {
                std::string name = f.code.substr(start, i - start);
                if (name != "iterator" && name != "const_iterator")
                    names.insert(name);
            }
            pos += tok.size();
        }
    }
}

/**
 * Flag range-based for loops whose range expression names an
 * unordered container (declared anywhere in the scanned set) or an
 * unordered type directly. Runs on the blanked text: the range
 * expression is free-form, so bracket matching beats token walking
 * here.
 */
void
unorderedIterRule(SourceFile &f, const std::set<std::string> &names,
                  std::vector<Finding> &out)
{
    const std::string rule = "unordered-iter";
    std::size_t pos = 0;
    while ((pos = f.code.find("for", pos)) != std::string::npos) {
        std::size_t at = pos;
        pos += 3;
        bool okBefore = at == 0 || !isWordChar(f.code[at - 1]);
        if (!okBefore || (at + 3 < f.code.size() &&
                          isWordChar(f.code[at + 3])))
            continue;
        std::size_t i = at + 3;
        while (i < f.code.size() &&
               std::isspace(static_cast<unsigned char>(f.code[i])) != 0)
            ++i;
        if (i >= f.code.size() || f.code[i] != '(')
            continue;
        // Bracket-match the for header; note any top-level ':' that
        // is not part of a '::'.
        int depth = 0;
        std::size_t colon = std::string::npos;
        for (; i < f.code.size(); ++i) {
            char c = f.code[i];
            if (c == '(' || c == '[' || c == '{')
                ++depth;
            else if (c == ')' || c == ']' || c == '}') {
                --depth;
                if (depth == 0)
                    break;
            } else if (c == ':' && depth == 1 &&
                       colon == std::string::npos) {
                bool scoped = (i > 0 && f.code[i - 1] == ':') ||
                              (i + 1 < f.code.size() &&
                               f.code[i + 1] == ':');
                if (!scoped)
                    colon = i;
            }
        }
        if (colon == std::string::npos || i >= f.code.size())
            continue; // Classic for loop (or unterminated header).
        std::string range = f.code.substr(colon + 1, i - colon - 1);
        bool hit = range.find("unordered_") != std::string::npos;
        for (const auto &name : names) {
            if (hit)
                break;
            if (containsToken(range, name))
                hit = true;
        }
        if (!hit)
            continue;
        report(f, lineOf(f.code, at), rule,
               "range-for over an unordered container: iteration "
               "order depends on hashing (and, for pointer keys, heap "
               "addresses), so order-sensitive consumers break the "
               "determinism contract; iterate a sorted snapshot or "
               "impose a total order, then suppress with "
               "qoserve-lint: allow(unordered-iter)",
               out);
    }
}

/**
 * Library code must not write to the standard streams directly;
 * diagnostics route through simcore/logging (QOSERVE_FATAL / _WARN /
 * _INFO), which is itself the one exempt file. Bounded token matching
 * keeps snprintf-into-buffer formatting legal.
 */
void
rawIoRule(SourceFile &f, const std::vector<Token> &toks,
          std::vector<Finding> &out)
{
    if (!f.inLibrary() ||
        f.path.find("simcore/logging.") != std::string::npos)
        return;
    const std::string msg =
        "raw stdio/iostream output in library code: route diagnostics "
        "through simcore/logging (QOSERVE_FATAL/QOSERVE_WARN/"
        "QOSERVE_INFO) so severity and formatting stay uniform";
    for (const Token &t : toks) {
        if (t.kind != TokenKind::Identifier)
            continue;
        for (const char *banned :
             {"printf", "fprintf", "puts", "cerr", "cout"}) {
            if (t.text == banned)
                report(f, t.line, "no-raw-io", msg, out);
        }
    }
}

/**
 * Every floating-point number the library writes goes through
 * formatDecimal (src/core/csv.hh), whose only std::to_chars call on a
 * double is its fallback. Naming std::chars_format anywhere else in
 * src/ would open a second formatting path whose bytes nothing pins.
 */
void
oneFloatFormatRule(SourceFile &f, const std::vector<Token> &toks,
                   std::vector<Finding> &out)
{
    const std::string kHome = "src/core/csv.hh";
    if (!f.inLibrary() ||
        (f.path.size() >= kHome.size() &&
         f.path.compare(f.path.size() - kHome.size(), kHome.size(),
                        kHome) == 0))
        return;
    for (const Token &t : toks) {
        if (t.kind == TokenKind::Identifier && t.text == "chars_format") {
            report(f, t.line, "one-float-format",
                   "std::chars_format outside src/core/csv.hh: format "
                   "doubles with formatDecimal (or RowWriter) so every "
                   "artefact number has one byte contract",
                   out);
        }
    }
}

/**
 * Every trace consumer reads the one event-stream type, TraceLog
 * (src/obs/trace_sink.hh). A `vector<TraceEvent>` in src/ or tools/
 * would be a second, uncompacted representation of the stream. The
 * element may be qualified (`vector<qoserve::TraceEvent>`).
 */
void
oneEventStreamRule(SourceFile &f, const std::vector<Token> &toks,
                   std::vector<Finding> &out)
{
    const bool inTools = f.path.rfind("tools/", 0) == 0 ||
                         f.path.find("/tools/") != std::string::npos;
    if ((!f.inLibrary() && !inTools) ||
        f.path.find("src/obs/trace_sink.") != std::string::npos)
        return;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].ident("vector") || !toks[i + 1].is("<"))
            continue;
        std::size_t j = i + 2;
        while (j + 1 < toks.size() &&
               (toks[j].is("::") ||
                (toks[j].kind == TokenKind::Identifier &&
                 toks[j + 1].is("::"))))
            ++j;
        if (j + 1 < toks.size() && toks[j].ident("TraceEvent") &&
            (toks[j + 1].is(">") || toks[j + 1].is(","))) {
            report(f, toks[i].line, "one-event-stream",
                   "vector of TraceEvents outside src/obs/trace_sink.*: "
                   "hold and pass trace streams as a TraceLog so every "
                   "consumer reads one compact representation",
                   out);
        }
    }
}

/** Every header carries an include guard with the repo prefix. */
void
headerGuardRule(SourceFile &f, std::vector<Finding> &out)
{
    if (!f.isHeader())
        return;
    bool ifndef = f.raw.find("#ifndef QOSERVE_") != std::string::npos;
    bool define = f.raw.find("#define QOSERVE_") != std::string::npos;
    if (!ifndef || !define) {
        report(f, 1, "header-guard",
               "header lacks a QOSERVE_-prefixed include guard "
               "(#ifndef QOSERVE_... / #define QOSERVE_...)",
               out);
    }
}

/** Every source file opens with a Doxygen @file comment. */
void
doxygenFileRule(SourceFile &f, std::vector<Finding> &out)
{
    std::size_t i = 0;
    while (i < f.raw.size() &&
           std::isspace(static_cast<unsigned char>(f.raw[i])) != 0)
        ++i;
    bool opensDoc = f.raw.compare(i, 3, "/**") == 0;
    std::size_t end = opensDoc ? f.raw.find("*/", i) : std::string::npos;
    bool hasFileTag =
        opensDoc && end != std::string::npos &&
        f.raw.substr(i, end - i).find("@file") != std::string::npos;
    if (!opensDoc || !hasFileTag) {
        report(f, 1, "doxygen-file",
               "file does not start with a Doxygen /** @file */ "
               "comment describing its purpose",
               out);
    }
}

} // namespace

void
tokenRulesPass(std::vector<SourceFile> &files, std::vector<Finding> &out)
{
    std::set<std::string> unorderedNames;
    for (const SourceFile &f : files)
        collectUnorderedNames(f, unorderedNames);

    for (SourceFile &f : files) {
        std::vector<Token> toks = tokenize(f.code);
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind != TokenKind::Identifier)
                continue;
            for (const BannedIdent &b : kBannedIdents) {
                if (t.text == b.ident)
                    report(f, t.line, b.rule, b.message, out);
            }
            bool called =
                i + 1 < toks.size() && toks[i + 1].is("(");
            if (called) {
                for (const BannedIdent &b : kBannedCalls) {
                    if (t.text == b.ident)
                        report(f, t.line, b.rule, b.message, out);
                }
            }
        }
        unorderedIterRule(f, unorderedNames, out);
        rawIoRule(f, toks, out);
        oneFloatFormatRule(f, toks, out);
        oneEventStreamRule(f, toks, out);
        headerGuardRule(f, out);
        doxygenFileRule(f, out);
    }
}

} // namespace qoserve_lint
