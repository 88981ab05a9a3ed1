// qre_lint — project-invariant linter (standard library only).
//
// Checks the cross-file invariants that neither the compiler nor clang-tidy
// can see, because each one spans source, docs, and tests:
//
//   1. Job kinds. The canonical kind table (api::job_kinds in
//      src/api/schema.cpp: "items", "sweep", "frontier") must be handled by
//      the validator, described in docs/schema_v2.md, and exercised by at
//      least one test — adding a kind to the table without teaching all
//      three layers fails the lint.
//   2. Diagnostic codes. The code table in src/common/diagnostics.hpp's
//      header comment is the registry: codes must be unique, every code
//      referenced from a diagnostics/error-response call site must exist in
//      the registry or the server error-code docs, and every registry code
//      must be documented in docs/schema_v2.md.
//   3. Header hygiene. Every header under src/ must start include-guarding
//      with `#pragma once` (whether each header actually compiles
//      standalone is the separate `header_self_containment` ctest target).
//   4. CLI flags. Every long flag in the qre::flags::Flag tables of
//      tools/qre_cli.cpp and tools/qre_serve.cpp (rows `{"--x", ...`) must
//      appear in README.md or docs/. --help is generated from the same
//      rows; scripts/check_cli_help.sh checks it against the built
//      binaries at test time.
//   5. Failpoints. Every QRE_FAILPOINT("name") site in src/ must use a
//      unique name (one site per seam — a spec term arms exactly one
//      place), and every name must be catalogued with a backticked entry
//      in docs/robustness.md; conversely every catalogued name must still
//      exist in the code.
//   6. Observability names. The trace span/instant names instrumented in
//      src/ (QRE_TRACE_SPAN, QRE_TRACE_INSTANT, record_span, PhaseTimer)
//      and the /metrics → Prometheus rows of the metrics registry
//      (src/server/metrics_registry.cpp) must each appear in the matching table
//      of docs/observability.md, and every name the doc tables carry must
//      still exist in the code — both directions, so the doc is the
//      registry and can never silently rot.
//
// Usage: qre_lint <repo-root>       (exit 0 clean, 1 findings, 2 usage/IO)
//
// Run via `ctest -R qre_lint`, `scripts/qre_lint.sh`, or the CI
// static-analysis job. Conventions: docs/static_analysis.md.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

int g_findings = 0;

void finding(const std::string& where, const std::string& message) {
  std::fprintf(stderr, "qre_lint: %s: %s\n", where.c_str(), message.c_str());
  ++g_findings;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    finding(path.string(), "cannot read file");
    return {};
  }
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<fs::path> collect(const fs::path& root, const std::string& extension) {
  std::vector<fs::path> out;
  if (!fs::exists(root)) return out;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file() && entry.path().extension() == extension) {
      out.push_back(entry.path());
    }
  }
  return out;
}

/// All capture-group-1 matches of `re` in `text`.
std::vector<std::string> find_all(const std::string& text, const std::regex& re) {
  std::vector<std::string> out;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
       it != std::sregex_iterator(); ++it) {
    out.push_back((*it)[1].str());
  }
  return out;
}

// ---------------------------------------------------------------------------
// 1. Job kinds: table parsed from schema.cpp; each kind must reach the
//    validator, the schema docs, and the tests.

std::vector<std::string> parse_job_kinds(const std::string& schema_cpp,
                                         const std::string& where) {
  // Matches the body of: kKinds = {"items", "sweep", "frontier"};
  const std::regex table_re(R"(kKinds\s*=\s*\{([^}]*)\})");
  std::smatch m;
  if (!std::regex_search(schema_cpp, m, table_re)) {
    finding(where, "cannot locate the kKinds job-kind table (job_kinds())");
    return {};
  }
  const std::string body = m[1].str();
  std::vector<std::string> kinds = find_all(body, std::regex(R"#("([a-z]+)")#"));
  if (kinds.empty()) finding(where, "job-kind table parsed empty");
  return kinds;
}

void check_job_kinds(const fs::path& root) {
  const fs::path schema_path = root / "src/api/schema.cpp";
  const std::string schema_cpp = read_file(schema_path);
  const std::vector<std::string> kinds = parse_job_kinds(schema_cpp, schema_path.string());

  const std::string schema_docs = read_file(root / "docs/schema_v2.md");
  std::string all_tests;
  for (const fs::path& test : collect(root / "tests", ".cpp")) all_tests += read_file(test);

  for (const std::string& kind : kinds) {
    const std::string quoted = "\"" + kind + "\"";
    // Validator rule: validate_job must look the section up by name
    // (find("kind")) somewhere beyond the table itself.
    const std::regex lookup_re("find\\(\"" + kind + "\"\\)");
    if (!std::regex_search(schema_cpp, lookup_re)) {
      finding(schema_path.string(),
              "job kind '" + kind + "' has no validator lookup (find(" + quoted + "))");
    }
    if (schema_docs.find("`" + kind + "`") == std::string::npos &&
        schema_docs.find(quoted) == std::string::npos) {
      finding("docs/schema_v2.md", "job kind '" + kind + "' is not documented");
    }
    if (all_tests.find(quoted) == std::string::npos) {
      finding("tests/", "job kind '" + kind + "' appears in no test");
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Diagnostic codes: registry in diagnostics.hpp's header comment; call
//    sites must reference registered (or server-documented) codes only.

std::vector<std::string> parse_code_registry(const std::string& header,
                                             const std::string& where) {
  // Table rows look like: "//   required-missing     a mandatory field ..."
  const std::regex row_re(R"(//   ([a-z][a-z-]*[a-z])\s{2,}\S)");
  std::vector<std::string> codes = find_all(header, row_re);
  if (codes.empty()) {
    finding(where, "cannot parse the diagnostic-code table from the header comment");
  }
  return codes;
}

void check_error_codes(const fs::path& root) {
  const fs::path registry_path = root / "src/common/diagnostics.hpp";
  const std::vector<std::string> registry =
      parse_code_registry(read_file(registry_path), registry_path.string());

  std::set<std::string> known;
  for (const std::string& code : registry) {
    if (!known.insert(code).second) {
      finding(registry_path.string(), "duplicate diagnostic code '" + code + "'");
    }
  }

  // The HTTP layer has its own (documented) code namespace on top of the
  // diagnostics registry: accept codes listed in docs/server.md too.
  const std::string server_docs = read_file(root / "docs/server.md");
  const std::string schema_docs = read_file(root / "docs/schema_v2.md");

  // Literal-code call sites. Multi-line calls are handled by matching the
  // whole file content (\s* spans newlines).
  const std::vector<std::regex> site_res = {
      std::regex(R"#((?:\.|->)(?:error|warning)\(\s*"([a-z][a-z-]*)")#"),
      std::regex(R"#(item_error\(\s*"([a-z][a-z-]*)")#"),
      std::regex(R"#(error_response\(\s*[0-9]+\s*,\s*"([a-z][a-z-]*)")#"),
      std::regex(R"#(error_document\(\s*"([a-z][a-z-]*)")#"),
  };

  std::set<std::string> referenced;
  for (const fs::path& dir : {root / "src", root / "tools"}) {
    for (const fs::path& source : collect(dir, ".cpp")) {
      const std::string text = read_file(source);
      for (const std::regex& re : site_res) {
        for (const std::string& code : find_all(text, re)) {
          referenced.insert(code);
          if (known.count(code) == 0 &&
              server_docs.find("`" + code + "`") == std::string::npos) {
            finding(source.string(),
                    "diagnostic code '" + code +
                        "' is neither in the diagnostics.hpp table nor documented "
                        "in docs/server.md");
          }
        }
      }
    }
  }

  for (const std::string& code : registry) {
    if (schema_docs.find("`" + code + "`") == std::string::npos) {
      finding("docs/schema_v2.md", "registered code '" + code + "' is not documented");
    }
    if (referenced.count(code) == 0) {
      finding(registry_path.string(),
              "registered code '" + code + "' is emitted by no call site (dead code?)");
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Header hygiene: #pragma once in every src/ header.

void check_headers(const fs::path& root) {
  for (const fs::path& header : collect(root / "src", ".hpp")) {
    if (read_file(header).find("#pragma once") == std::string::npos) {
      finding(header.string(), "missing #pragma once");
    }
  }
}

// ---------------------------------------------------------------------------
// 4. CLI flags: every flag-table row => in README/docs.

void check_cli_flags(const fs::path& root) {
  std::string docs = read_file(root / "README.md");
  for (const fs::path& doc : collect(root / "docs", ".md")) docs += read_file(doc);

  const std::regex row_re(R"#(\{"(--[a-z][a-z0-9-]*)",)#");
  for (const char* tool : {"tools/qre_cli.cpp", "tools/qre_serve.cpp"}) {
    const fs::path tool_path = root / tool;
    std::set<std::string> flags;
    for (const std::string& flag : find_all(read_file(tool_path), row_re)) flags.insert(flag);
    if (flags.empty()) {
      finding(tool_path.string(), "no flag-table rows found ({\"--x\", idiom moved?)");
    }
    for (const std::string& flag : flags) {
      if (docs.find(flag) == std::string::npos) {
        finding(tool_path.string(),
                "flag " + flag + " is accepted but appears in neither README.md nor docs/");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 5. Failpoints: QRE_FAILPOINT sites unique and catalogued in
//    docs/robustness.md; no stale catalog entries.

void check_failpoints(const fs::path& root) {
  const std::regex site_re(R"#(QRE_FAILPOINT\(\s*"([a-z0-9_.]+)"\s*\))#");
  std::set<std::string> sites;
  for (const fs::path& source : collect(root / "src", ".cpp")) {
    const std::string text = read_file(source);
    for (const std::string& name : find_all(text, site_re)) {
      if (!sites.insert(name).second) {
        finding(source.string(),
                "failpoint '" + name + "' is defined at more than one site "
                "(names must map to exactly one seam)");
      }
    }
  }

  const fs::path catalog_path = root / "docs/robustness.md";
  const std::string catalog = read_file(catalog_path);
  // Catalogued names lead a markdown table row (| `store.persist...` | ...),
  // which keeps backticked filenames elsewhere in the doc out of the parse.
  const std::regex doc_re(R"#(\|\s*`([a-z0-9_]+(?:\.[a-z0-9_]+)+)`)#");
  std::set<std::string> documented;
  for (const std::string& name : find_all(catalog, doc_re)) documented.insert(name);

  for (const std::string& name : sites) {
    if (documented.count(name) == 0) {
      finding(catalog_path.string(),
              "failpoint '" + name + "' exists in the code but is not catalogued");
    }
  }
  for (const std::string& name : documented) {
    if (sites.count(name) == 0) {
      finding(catalog_path.string(),
              "catalogued failpoint '" + name + "' matches no QRE_FAILPOINT site");
    }
  }
}

// ---------------------------------------------------------------------------
// 6. Observability names: trace spans and Prometheus catalog rows ↔
//    docs/observability.md, both directions.

void check_observability(const fs::path& root) {
  const fs::path doc_path = root / "docs/observability.md";
  const std::string doc = read_file(doc_path);

  // -- trace span/instant names instrumented anywhere under src/ ----------
  const std::vector<std::regex> span_res = {
      std::regex(R"#(QRE_TRACE_SPAN\(\s*"([a-z0-9_.]+)"\s*\))#"),
      std::regex(R"#(QRE_TRACE_INSTANT\(\s*"([a-z0-9_.]+)"\s*\))#"),
      std::regex(R"#(record_span\(\s*"([a-z0-9_.]+)")#"),
      std::regex(R"#(PhaseTimer\s+\w+\(\s*\w+,\s*"([a-z0-9_.]+)")#"),
  };
  std::set<std::string> spans;
  for (const fs::path& source : collect(root / "src", ".cpp")) {
    const std::string text = read_file(source);
    for (const std::regex& re : span_res) {
      for (const std::string& name : find_all(text, re)) spans.insert(name);
    }
  }
  if (spans.empty()) {
    finding("src/", "no trace span names found (instrumentation idiom moved?)");
  }

  // -- metrics registry rows: {"json.path", "qre_family", ...} ------------
  const fs::path catalog_path = root / "src/server/metrics_registry.cpp";
  const std::string catalog_cpp = read_file(catalog_path);
  const std::regex row_re(R"#(\{\s*"([A-Za-z0-9_.]+)",\s*"(qre_[a-z_]+)")#");
  std::set<std::string> catalog_paths;
  std::set<std::string> catalog_families;
  std::set<std::string> catalog_pairs;
  for (auto it = std::sregex_iterator(catalog_cpp.begin(), catalog_cpp.end(), row_re);
       it != std::sregex_iterator(); ++it) {
    catalog_paths.insert((*it)[1].str());
    catalog_families.insert((*it)[2].str());
    catalog_pairs.insert((*it)[1].str() + " -> " + (*it)[2].str());
  }
  if (catalog_pairs.empty()) {
    finding(catalog_path.string(), "cannot parse any metrics registry row");
  }

  // -- the doc's tables ----------------------------------------------------
  // Dotted names leading a table row cover both the span taxonomy and the
  // JSON-path column of the Prometheus mapping (same anchor as the
  // failpoint catalog, so backticked filenames in prose stay out).
  const std::regex doc_dotted_re(R"#(\|\s*`([a-z0-9_]+(?:\.[a-z0-9_]+)+)`)#");
  std::set<std::string> doc_dotted;
  for (const std::string& name : find_all(doc, doc_dotted_re)) doc_dotted.insert(name);
  // Mapping rows pair the path cell with the family cell.
  const std::regex doc_pair_re(R"#(`([A-Za-z0-9_.]+)`\s*\|\s*`(qre_[a-z_]+)`)#");
  std::set<std::string> doc_pairs;
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), doc_pair_re);
       it != std::sregex_iterator(); ++it) {
    doc_pairs.insert((*it)[1].str() + " -> " + (*it)[2].str());
  }

  for (const std::string& name : spans) {
    if (doc_dotted.count(name) == 0) {
      finding(doc_path.string(),
              "trace span '" + name + "' is instrumented but not in the span table");
    }
  }
  for (const std::string& pair : catalog_pairs) {
    if (doc_pairs.count(pair) == 0) {
      finding(doc_path.string(),
              "metrics mapping '" + pair + "' is in the metrics registry but not in the "
              "Prometheus table");
    }
  }
  for (const std::string& pair : doc_pairs) {
    if (catalog_pairs.count(pair) == 0) {
      finding(doc_path.string(),
              "documented metrics mapping '" + pair + "' matches no metrics registry row");
    }
  }
  for (const std::string& name : doc_dotted) {
    if (spans.count(name) == 0 && catalog_paths.count(name) == 0) {
      finding(doc_path.string(),
              "documented name '" + name + "' is neither an instrumented span nor a "
              "metrics registry JSON path");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: qre_lint <repo-root>\n");
    return 2;
  }
  const fs::path root = argv[1];
  if (!fs::exists(root / "src") || !fs::exists(root / "docs")) {
    std::fprintf(stderr, "qre_lint: %s does not look like the repo root\n", argv[1]);
    return 2;
  }

  check_job_kinds(root);
  check_error_codes(root);
  check_headers(root);
  check_cli_flags(root);
  check_failpoints(root);
  check_observability(root);

  if (g_findings != 0) {
    std::fprintf(stderr, "qre_lint: %d finding(s)\n", g_findings);
    return 1;
  }
  std::printf("qre_lint: clean\n");
  return 0;
}
