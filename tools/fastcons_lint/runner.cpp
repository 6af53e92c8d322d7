// Tree-scan runner: loads src/** sources, runs the selected rules, applies
// the allowlist, prints diagnostics with call chains, and enforces
// allowlist staleness.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fastcons_lint/lint.hpp"

namespace fastcons::lint {
namespace {

namespace fs = std::filesystem;

bool has(const std::vector<std::string>& rules, const std::string& rule) {
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

std::string default_path(const std::string& configured, const fs::path& root,
                         const char* fallback) {
  if (!configured.empty()) return configured;
  return (root / fallback).string();
}

bool load_allowlist(const std::string& path, Allowlist& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open allowlist " << path << "\n";
    return false;
  }
  std::string err;
  if (!parse_allowlist(in, out, err)) {
    std::cerr << err;
    return false;
  }
  return true;
}

void print_violation(const Violation& v) {
  std::cout << v.file << ":" << v.line << ": " << v.rule << ": " << v.message
            << "\n";
  for (const std::string& step : v.chain) {
    std::cout << "    " << step << "\n";
  }
}

/// True when the rule an entry serves ran, so an unused entry is stale
/// rather than merely idle. Determinism findings carry their check name
/// (wall-clock, unordered-container, ...), which is not a rule name; "*"
/// serves every rule.
bool entry_rule_ran(const AllowEntry& e, const std::vector<std::string>& rules) {
  if (e.rule == "*") return rules.size() == all_rules().size();
  if (has(all_rules(), e.rule)) return has(rules, e.rule);
  return has(rules, kRuleDeterminism);
}

int report_stale(const Allowlist& allow, const std::vector<std::string>& rules) {
  int status = 0;
  for (const AllowEntry& e : allow.entries) {
    if (!e.used && entry_rule_ran(e, rules)) {
      std::cout << "stale allowlist entry (matched nothing): " << e.path << ":"
                << e.rule << "\n";
      status = 1;
    }
  }
  return status;
}

}  // namespace

int run_lint(const RunOptions& options) {
  const fs::path root = options.root;
  const std::vector<std::string> rules =
      options.rules.empty() ? all_rules() : options.rules;
  for (const std::string& rule : rules) {
    if (!has(all_rules(), rule)) {
      std::cerr << "unknown rule '" << rule << "'\n";
      return 2;
    }
  }

  // Every layer the determinism rule scans must exist — a renamed layer
  // must be renamed in determinism_layers() too.
  if (has(rules, kRuleDeterminism)) {
    for (const std::string& layer : determinism_layers()) {
      if (!fs::exists(root / "src" / layer)) {
        std::cerr << "scanned layer missing: " << (root / "src" / layer)
                  << "\n";
        return 2;
      }
    }
  }

  const fs::path src_dir = root / "src";
  if (!fs::exists(src_dir)) {
    std::cerr << "no src/ under root " << root << "\n";
    return 2;
  }
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(src_dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".hpp" || ext == ".cpp") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> sources;
  sources.reserve(paths.size());
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot read " << path << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    sources.push_back(
        {fs::relative(path, root).generic_string(), buffer.str()});
  }

  // Structural rules (everything but determinism) share the program index.
  const bool structural = has(rules, kRuleBlocking) || has(rules, kRuleLayers) ||
                          has(rules, kRuleThrow) || has(rules, kRuleDigest);
  Allowlist allow;
  if (!load_allowlist(default_path(options.allowlist_path, root,
                                   "tools/fastcons_lint/allowlist.txt"),
                      allow)) {
    return 2;
  }

  LayerGraph graph;
  if (has(rules, kRuleLayers)) {
    const std::string path = default_path(options.layers_path, root,
                                          "tools/fastcons_lint/layers.txt");
    std::ifstream in(path);
    std::string err;
    if (!in) {
      std::cerr << "cannot open layer graph " << path << "\n";
      return 2;
    }
    if (!parse_layer_graph(in, graph, err)) {
      std::cerr << err << "\n";
      return 2;
    }
  }
  std::vector<ThrowContract> contracts;
  if (has(rules, kRuleThrow)) {
    const std::string path = default_path(options.contracts_path, root,
                                          "tools/fastcons_lint/nothrow.txt");
    std::ifstream in(path);
    std::string err;
    if (!in) {
      std::cerr << "cannot open throw contracts " << path << "\n";
      return 2;
    }
    if (!parse_contracts(in, contracts, err)) {
      std::cerr << err << "\n";
      return 2;
    }
  }

  ProgramIndex index;
  if (structural) index = index_sources(sources);

  std::vector<Violation> violations;
  if (has(rules, kRuleBlocking)) {
    rule_blocking_under_lock(index, options.mutex, violations);
  }
  if (has(rules, kRuleLayers)) {
    rule_layer_dag(index, graph, violations);
  }
  if (has(rules, kRuleThrow)) {
    rule_throw_contracts(index, contracts, violations);
  }
  if (has(rules, kRuleDeterminism)) {
    rule_determinism(sources, violations);
  }
  if (has(rules, kRuleDigest)) {
    rule_digest_purity(index, violations);
  }

  int status = 0;
  std::set<std::string> printed;  // dedup identical findings (e.g. two
                                  // chains to the same sink line)
  for (const Violation& v : violations) {
    if (allow.allowed(v)) continue;
    std::ostringstream key;
    key << v.file << ":" << v.line << ":" << v.rule << ":" << v.message;
    if (!printed.insert(key.str()).second) continue;
    print_violation(v);
    status = 1;
  }
  status |= report_stale(allow, rules);

  if (status == 0) {
    std::cout << "fastcons_lint: " << sources.size() << " files clean (";
    for (std::size_t i = 0; i < rules.size(); ++i) {
      std::cout << (i ? ", " : "") << rules[i];
    }
    std::cout << ")\n";
  }
  return status;
}

}  // namespace fastcons::lint
