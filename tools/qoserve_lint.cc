/**
 * @file
 * Driver for the qoserve multi-pass static analyzer.
 *
 * Loads every .hh/.cc under the given paths, then runs the pass
 * sequence from tools/lint/passes.hh: determinism/style token rules,
 * the include-graph layering check (when a manifest is given), the
 * exhaustive-switch, raw-unit and unset-option semantic passes, and
 * finally the stale-suppression accounting. Findings go to stderr in
 * `file:line: [rule] message` form and, with --json, to a SARIF
 * 2.1.0 log for CI annotation.
 *
 * Usage:
 *   qoserve_lint [--manifest FILE] [--json FILE|-]
 *                [--exclude SUBSTR]... <file-or-directory>...
 *
 * --manifest enables the layering pass (tools/layering.manifest);
 * --exclude drops any loaded path containing SUBSTR (used to skip
 * the deliberate-violation fixtures under tests/lint). Exits 1 when
 * any violation is found, 2 on usage errors.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint/lint.hh"
#include "lint/passes.hh"
#include "lint/sarif.hh"

namespace {

namespace fs = std::filesystem;

int
usage()
{
    std::cerr << "usage: qoserve_lint [--manifest FILE] "
                 "[--json FILE|-] [--exclude SUBSTR]... "
                 "<file-or-directory>...\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qoserve_lint;

    std::string manifestPath;
    std::string jsonPath;
    std::vector<std::string> excludes;
    std::vector<std::string> roots;
    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        if (arg == "--manifest" && a + 1 < argc) {
            manifestPath = argv[++a];
        } else if (arg == "--json" && a + 1 < argc) {
            jsonPath = argv[++a];
        } else if (arg == "--exclude" && a + 1 < argc) {
            excludes.push_back(argv[++a]);
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            roots.push_back(arg);
        }
    }
    if (roots.empty())
        return usage();

    auto excluded = [&excludes](const std::string &path) {
        return std::any_of(excludes.begin(), excludes.end(),
                           [&path](const std::string &pat) {
                               return path.find(pat) !=
                                      std::string::npos;
                           });
    };

    std::vector<SourceFile> files;
    for (const std::string &rootArg : roots) {
        fs::path root(rootArg);
        std::error_code ec;
        if (fs::is_directory(root, ec)) {
            for (const auto &entry :
                 fs::recursive_directory_iterator(root)) {
                if (!entry.is_regular_file())
                    continue;
                auto ext = entry.path().extension().string();
                if (ext != ".hh" && ext != ".cc")
                    continue;
                std::string path = entry.path().generic_string();
                SourceFile f;
                if (!excluded(path) && loadSourceFile(path, f))
                    files.push_back(std::move(f));
            }
        } else if (fs::is_regular_file(root, ec)) {
            SourceFile f;
            if (excluded(rootArg))
                continue;
            if (!loadSourceFile(rootArg, f)) {
                std::cerr << "qoserve_lint: cannot read " << rootArg
                          << "\n";
                return 2;
            }
            files.push_back(std::move(f));
        } else {
            std::cerr << "qoserve_lint: cannot read " << root << "\n";
            return 2;
        }
    }
    std::sort(files.begin(), files.end(),
              [](const SourceFile &a, const SourceFile &b) {
                  return a.path < b.path;
              });

    LayeringManifest manifest;
    bool haveManifest = false;
    if (!manifestPath.empty()) {
        std::string error;
        if (!manifest.load(manifestPath, error)) {
            std::cerr << "qoserve_lint: " << error << "\n";
            return 2;
        }
        haveManifest = true;
    }

    std::vector<Finding> findings;
    tokenRulesPass(files, findings);
    if (haveManifest)
        layeringPass(files, manifest, findings);
    EnumTable enums = collectProjectEnums(files);
    exhaustiveSwitchPass(files, enums, findings);
    rawUnitPass(files, findings);
    unsetOptionPass(files, findings);
    staleSuppressionPass(files, findings);

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });

    if (!jsonPath.empty()) {
        if (jsonPath == "-") {
            writeSarif(findings, std::cout);
        } else {
            std::ofstream out(jsonPath, std::ios::binary);
            if (!out) {
                std::cerr << "qoserve_lint: cannot write " << jsonPath
                          << "\n";
                return 2;
            }
            writeSarif(findings, out);
        }
    }

    for (const Finding &v : findings) {
        std::cerr << v.file << ":" << v.line << ": [" << v.rule << "] "
                  << v.message << "\n";
    }
    if (!findings.empty()) {
        std::cerr << "qoserve_lint: " << findings.size()
                  << " violation(s) in " << files.size()
                  << " file(s)\n";
        return 1;
    }
    std::cout << "qoserve_lint: " << files.size() << " file(s) clean\n";
    return 0;
}
