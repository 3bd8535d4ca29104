/**
 * @file
 * Pass 5: options that no program sets (unset-option).
 *
 * A field of a configuration struct is a promise that some program
 * needs a second value. When nothing outside the tests ever sets it,
 * the promise is empty: the field is a constant spelled as an option,
 * and every branch that only another value reaches is dead code. The
 * pass flags such a field so it becomes a named `static constexpr`.
 *
 * It is a cross-file pass. It collects the data members of every
 * library struct whose name ends in Config, Options, Params, Policy,
 * Grid, Search or Criteria, then the member names that code outside
 * the tests sets:
 *
 *  - an assignment through a member access: `.f =`, `->f =`, a
 *    compound assignment (`.f +=`, `.f <<=`, ...), `.f++`, or a nested
 *    `.f.g =`, which sets both f and g;
 *  - a flag-table row `F(a.b.c)`, which sets every name on the path.
 *
 * Names match by spelling alone, so a field shares its setters with
 * every same-named field; the pass under-reports rather than guessing
 * types. The corpus must hold every tree that may set an option, as
 * the clean-tree gate's does. A file's tree is the innermost src/,
 * tools/, tests/, bench/ or examples/ directory on its path, so the
 * fixture trees under tests/lint/fixtures read as repos of their own.
 */

#include <array>
#include <map>
#include <set>
#include <utility>

#include "lint/passes.hh"
#include "lint/tokenizer.hh"

namespace qoserve_lint {

namespace {

const std::array<const char *, 7> kOptionSuffixes = {
    "Config", "Options", "Params", "Policy", "Grid", "Search", "Criteria",
};

/** The innermost top-level directory on @p path, or "" for none. */
std::string
treeOf(const std::string &path)
{
    std::string tree;
    std::size_t best = 0;
    for (const char *dir : {"src", "tools", "tests", "bench", "examples"}) {
        const std::string d(dir);
        if (path.rfind(d + "/", 0) == 0 && tree.empty())
            tree = d;
        std::size_t pos = path.rfind("/" + d + "/");
        if (pos != std::string::npos && pos + 1 >= best) {
            best = pos + 1;
            tree = d;
        }
    }
    return tree;
}

bool
isOptionStruct(const std::string &name)
{
    for (const char *suffix : kOptionSuffixes) {
        const std::string s(suffix);
        if (name.size() >= s.size() &&
            name.compare(name.size() - s.size(), s.size(), s) == 0)
            return true;
    }
    return false;
}

/** A data member of an option struct. */
struct Member
{
    std::size_t file = 0;
    std::size_t line = 0;
    std::string owner; ///< Qualified struct name, e.g. Outer::Options.
    std::string type;  ///< The struct's own name, e.g. Options.
    std::string name;
};

bool
startsDeclarationToSkip(const Token &t)
{
    for (const char *kw : {"static", "using", "typedef", "friend", "enum",
                           "struct", "class", "union", "template",
                           "static_assert"}) {
        if (t.ident(kw))
            return true;
    }
    return false;
}

/**
 * The member a declaration [s, e) introduces, or npos for a function,
 * a static or nested type, or anything else that is not a settable
 * field. The name is the identifier before the first top-level `=`,
 * `{`, `[` or the end.
 */
std::size_t
declaredMember(const std::vector<Token> &toks, std::size_t s, std::size_t e)
{
    if (s >= e || startsDeclarationToSkip(toks[s]))
        return std::string::npos;
    int angle = 0;
    for (std::size_t i = s; i < e; ++i) {
        const Token &t = toks[i];
        if (t.is("<")) {
            ++angle;
        } else if (t.is(">")) {
            --angle;
        } else if ((t.is("(") && angle == 0) || t.ident("operator")) {
            return std::string::npos; // a function or operator
        } else if (angle == 0 && (t.is("=") || t.is("{") || t.is("["))) {
            e = i;
            break;
        }
    }
    if (e == s || toks[e - 1].kind != TokenKind::Identifier)
        return std::string::npos;
    return e - 1;
}

/** Collect the data members of the struct body (open, close). */
void
collectMembers(const std::vector<Token> &toks, std::size_t open,
               std::size_t close, std::size_t file,
               const std::string &owner, const std::string &type,
               std::vector<Member> &out)
{
    std::size_t s = open + 1;
    bool signature = false; // a `(` before any `=`: a function
    bool assigned = false;
    for (std::size_t i = s; i < close; ++i) {
        const Token &t = toks[i];
        if ((t.ident("public") || t.ident("private") ||
             t.ident("protected")) &&
            i + 1 < close && toks[i + 1].is(":")) {
            s = i + 2;
            ++i;
        } else if (t.is("(")) {
            signature = signature || !assigned;
            i = matchBracket(toks, i, "(", ")");
        } else if (t.is("=")) {
            assigned = true;
        } else if (t.is("{")) {
            i = matchBracket(toks, i, "{", "}");
            if (signature && !assigned) {
                // A function body ends its declaration without a `;`.
                s = i + 1;
                signature = false;
            }
        } else if (t.is(";")) {
            std::size_t name = declaredMember(toks, s, i);
            if (name != std::string::npos)
                out.push_back(
                    {file, toks[name].line, owner, type, toks[name].text});
            s = i + 1;
            signature = false;
            assigned = false;
        }
    }
}

/** True when the tokens at @p i start an assignment operator. */
bool
assignsAt(const std::vector<Token> &toks, std::size_t i)
{
    auto at = [&](std::size_t k, const char *text) {
        return k < toks.size() && toks[k].is(text);
    };
    if (at(i, "="))
        return !at(i + 1, "=");
    for (const char *op : {"+", "-", "*", "/", "%", "|", "&", "^"}) {
        if (at(i, op) && at(i + 1, "="))
            return true;
    }
    if ((at(i, "<") && at(i + 1, "<")) || (at(i, ">") && at(i + 1, ">")))
        return at(i + 2, "=");
    return (at(i, "+") && at(i + 1, "+")) || (at(i, "-") && at(i + 1, "-"));
}

/** Add every member name that @p toks sets to @p set. */
void
collectSetNames(const std::vector<Token> &toks, std::set<std::string> &set)
{
    auto accessAt = [&](std::size_t k) -> std::size_t {
        if (k < toks.size() && toks[k].is("."))
            return 1;
        if (k + 1 < toks.size() && toks[k].is("-") && toks[k + 1].is(">"))
            return 2;
        return 0;
    };
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].ident("F") && i + 1 < toks.size() &&
            toks[i + 1].is("(")) {
            std::size_t close = matchBracket(toks, i + 1, "(", ")");
            for (std::size_t k = i + 2; k < close && k < toks.size(); ++k) {
                if (toks[k].kind == TokenKind::Identifier)
                    set.insert(toks[k].text);
            }
            continue;
        }
        std::size_t step = accessAt(i);
        if (step == 0 || i + step >= toks.size() ||
            toks[i + step].kind != TokenKind::Identifier)
            continue;
        // Walk the member chain .a[..].b->c, then look for the
        // assignment after it.
        std::vector<std::string> chain;
        std::size_t k = i;
        while ((step = accessAt(k)) != 0 && k + step < toks.size() &&
               toks[k + step].kind == TokenKind::Identifier) {
            chain.push_back(toks[k + step].text);
            k += step + 1;
            while (k < toks.size() && toks[k].is("["))
                k = matchBracket(toks, k, "[", "]") + 1;
        }
        if (assignsAt(toks, k))
            set.insert(chain.begin(), chain.end());
        i = k - 1;
    }
}

/** Collect the members of every option struct a src/ file defines. */
void
collectOptionMembers(const std::vector<Token> &toks, std::size_t file,
                     std::vector<Member> &out)
{
    // Enclosing class and struct scopes, innermost last, so a nested
    // `Options` reports as `Outer::Options`.
    std::vector<std::pair<std::string, std::size_t>> scopes;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        while (!scopes.empty() && i > scopes.back().second)
            scopes.pop_back();
        if (!(toks[i].ident("struct") || toks[i].ident("class")) ||
            toks[i + 1].kind != TokenKind::Identifier)
            continue;
        std::size_t open = i + 2;
        while (open < toks.size() && !toks[open].is("{") &&
               !toks[open].is(";") && !toks[open].is("(") &&
               !toks[open].is(")"))
            ++open;
        if (open >= toks.size() || !toks[open].is("{"))
            continue;
        std::size_t close = matchBracket(toks, open, "{", "}");
        const std::string &type = toks[i + 1].text;
        std::string owner;
        for (const auto &scope : scopes)
            owner += scope.first + "::";
        owner += type;
        scopes.emplace_back(type, close);
        if (toks[i].ident("struct") && isOptionStruct(type))
            collectMembers(toks, open, close, file, owner, type, out);
    }
}

/**
 * Add the members an aggregate initialisation `Type{a, b, ...}` sets:
 * the first as many fields of every option struct named Type as the
 * braces hold values.
 */
void
collectAggregateSets(const std::vector<Token> &toks,
                     const std::vector<Member> &members,
                     std::set<std::string> &set)
{
    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Identifier || !toks[i + 1].is("{") ||
            !isOptionStruct(toks[i].text) || toks[i - 1].ident("struct"))
            continue;
        std::size_t close = matchBracket(toks, i + 1, "{", "}");
        std::size_t values = 0;
        for (std::size_t k = i + 2; k < close && k < toks.size(); ++k) {
            if (values == 0)
                values = 1;
            if (toks[k].is("(") || toks[k].is("{") || toks[k].is("["))
                k = matchBracket(toks, k, toks[k].text.c_str(),
                                 toks[k].is("(")   ? ")"
                                 : toks[k].is("{") ? "}"
                                                   : "]");
            else if (toks[k].is(",") && k + 1 < close)
                ++values;
        }
        std::map<std::string, std::size_t> seen;
        for (const Member &m : members) {
            if (m.type == toks[i].text && seen[m.owner]++ < values)
                set.insert(m.name);
        }
    }
}

} // namespace

void
unsetOptionPass(std::vector<SourceFile> &files, std::vector<Finding> &out)
{
    std::vector<std::vector<Token>> toks(files.size());
    std::vector<Member> members;
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        toks[fi] = tokenize(files[fi].code);
        if (treeOf(files[fi].path) == "src")
            collectOptionMembers(toks[fi], fi, members);
    }
    std::set<std::string> set;
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        if (treeOf(files[fi].path) == "tests")
            continue;
        collectSetNames(toks[fi], set);
        collectAggregateSets(toks[fi], members, set);
    }
    for (const Member &m : members) {
        if (set.count(m.name) != 0)
            continue;
        report(files[m.file], m.line, "unset-option",
               m.owner + "::" + m.name +
                   " is an option that no program outside tests/ "
                   "sets: make it a named static constexpr constant, "
                   "or set it where a program needs another value",
               out);
    }
}

} // namespace qoserve_lint
