// fastcons_lint CLI. See lint.hpp for the rule catalogue.
//
//   fastcons_lint --root DIR [--rule NAME]... [flag overrides]
//   fastcons_lint --self-test [RULE]
//
// Exit status: 0 clean, 1 violations or stale allowlist entries, 2 usage or
// I/O errors.
#include <algorithm>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "fastcons_lint/lint.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: fastcons_lint --root DIR [--rule NAME]... [options]\n"
         "       fastcons_lint --self-test [RULE]\n"
         "rules:";
  for (const std::string& rule : fastcons::lint::all_rules()) {
    std::cerr << " " << rule;
  }
  std::cerr
      << "\noptions (defaults live under <root>/tools/):\n"
         "  --allowlist FILE   fastcons_lint/allowlist.txt\n"
         "  --layers FILE      fastcons_lint/layers.txt\n"
         "  --contracts FILE   fastcons_lint/nothrow.txt\n"
         "  --mutex NAME       engine_mutex_\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using fastcons::lint::all_rules;
  fastcons::lint::RunOptions options;
  bool self_test = false;
  std::string self_test_rule;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--self-test") {
      self_test = true;
      // Optional rule operand: consume the next arg when it names a rule.
      if (i + 1 < argc &&
          std::find(all_rules().begin(), all_rules().end(),
                    std::string(argv[i + 1])) != all_rules().end()) {
        self_test_rule = argv[++i];
      }
    } else if (arg == "--root") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.root = v;
    } else if (arg == "--rule") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.rules.emplace_back(v);
    } else if (arg == "--allowlist") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.allowlist_path = v;
    } else if (arg == "--layers") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.layers_path = v;
    } else if (arg == "--contracts") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.contracts_path = v;
    } else if (arg == "--mutex") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.mutex = v;
    } else {
      return usage();
    }
  }
  if (self_test) return fastcons::lint::run_self_test(self_test_rule);
  if (options.root.empty()) {
    std::cerr << "fastcons_lint: --root is required (or --self-test)\n";
    return 2;
  }
  return fastcons::lint::run_lint(options);
}
