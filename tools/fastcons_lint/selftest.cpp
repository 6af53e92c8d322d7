// Embedded self-test corpus: every rule must catch its seeded violation and
// stay quiet on the adjacent negative case, and the shared machinery
// (lexer, allowlist, config parsers) must hold its documented edge cases.
// Registered per-rule as ctest cases so a regression names the rule that
// broke.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fastcons_lint/lint.hpp"

namespace fastcons::lint {
namespace {

struct Tally {
  int failures = 0;
  int checks = 0;
  void expect(bool ok, const std::string& rule, const std::string& name,
              const std::string& detail) {
    ++checks;
    if (!ok) {
      ++failures;
      std::cerr << "self-test FAIL [" << rule << "/" << name << "]: " << detail
                << "\n";
    }
  }
};

bool has_rule(const std::vector<Violation>& vs, const std::string& rule) {
  return std::any_of(vs.begin(), vs.end(),
                     [&](const Violation& v) { return v.rule == rule; });
}

// ------------------------------------------------------------- machinery

void test_machinery(Tally& t) {
  const std::string rule = "machinery";
  {
    // Raw strings (with prefix) blank fully, newlines preserved.
    const std::string src =
        "auto s = R\"(rand( time( ::send)\";\n"
        "auto u = u8R\"x(std::unordered_map)x\";\nint v;\n";
    const StrippedSource out = strip_source(src);
    t.expect(out.text.find("rand") == std::string::npos, rule, "raw-string",
             "raw string content not blanked");
    t.expect(out.text.find("unordered_map") == std::string::npos, rule,
             "raw-string-prefix", "u8R raw string content not blanked");
    t.expect(std::count(out.text.begin(), out.text.end(), '\n') == 3, rule,
             "raw-string-newlines", "newline count changed");
  }
  {
    // Digit separators are not char literals.
    const StrippedSource out =
        strip_source("int n = 1'000'000; int m = rand();\n");
    t.expect(out.text.find("rand") != std::string::npos, rule,
             "digit-separator", "code after digit separator was blanked");
  }
  {
    // Block comments blank across lines; line comments to end of line.
    const StrippedSource out = strip_source(
        "/* rand(\n   time( */ int x; // random_device\nint y;\n");
    t.expect(out.text.find("rand") == std::string::npos &&
                 out.text.find("random_device") == std::string::npos,
             rule, "comments", "comment content not blanked");
    t.expect(out.text.find("int x") != std::string::npos, rule,
             "comments-keep-code", "code after block comment lost");
  }
  {
    // #include targets extracted; directives (with continuations) blanked.
    const StrippedSource out = strip_source(
        "#include <vector>\n"
        "#include \"common/log.hpp\"\n"
        "#define BAD rand() \\\n"
        "    time(nullptr)\n"
        "int z;\n");
    t.expect(out.includes.size() == 2, rule, "include-count",
             "expected 2 includes, got " + std::to_string(out.includes.size()));
    if (out.includes.size() == 2) {
      t.expect(out.includes[0].target == "vector" &&
                   out.includes[0].line == 1,
               rule, "include-angle", "angle include target/line wrong");
      t.expect(out.includes[1].target == "common/log.hpp" &&
                   out.includes[1].line == 2,
               rule, "include-quote", "quoted include target/line wrong");
    }
    t.expect(out.text.find("rand") == std::string::npos, rule,
             "directive-continuation",
             "continued #define body leaked into code text");
    t.expect(out.text.find("int z") != std::string::npos, rule,
             "directive-end", "code after directive lost");
  }
  {
    // Call-graph construction: definitions indexed with scopes, call sites
    // resolved by last name, lock regions and try regions attached.
    const std::vector<SourceFile> sources = {
        {"src/net/server.hpp",
         "namespace fastcons {\n"
         "class Server {\n"
         " public:\n"
         "  void pump() {\n"
         "    MutexLock lock(engine_mutex_);\n"
         "    step_engine();\n"
         "  }\n"
         "  void step_engine() { try { decode(); } catch (...) {} }\n"
         "};\n"
         "}\n"}};
    const ProgramIndex index = index_sources(sources);
    t.expect(index.functions.size() == 2, rule, "index-count",
             "expected 2 functions, got " +
                 std::to_string(index.functions.size()));
    const auto it = index.by_name.find("pump");
    t.expect(it != index.by_name.end(), rule, "index-by-name",
             "pump not resolvable by name");
    if (it != index.by_name.end()) {
      const Function& pump = index.functions[it->second.front()];
      t.expect(pump.qualified == "fastcons::Server::pump", rule,
               "index-qualified",
               "qualified name was " + pump.qualified);
      t.expect(pump.calls.size() == 1 && pump.calls[0].name == "step_engine",
               rule, "index-calls", "pump call sites wrong");
      t.expect(!pump.calls.empty() &&
                   pump.calls[0].locked ==
                       std::vector<std::string>{"engine_mutex_"},
               rule, "index-lock-region", "lock region not attached");
    }
    const auto se = index.by_name.find("decode");
    t.expect(se == index.by_name.end(), rule, "index-no-phantom",
             "call-only name indexed as a function");
    const auto step = index.by_name.find("step_engine");
    if (step != index.by_name.end()) {
      const Function& fn = index.functions[step->second.front()];
      t.expect(fn.calls.size() == 1 && fn.calls[0].in_try, rule,
               "index-try-region", "try region not attached to call");
    }
  }
}

// ------------------------------------------------- R1: blocking under lock

void test_blocking(Tally& t) {
  const std::string rule = kRuleBlocking;
  const auto run = [](const std::vector<SourceFile>& sources) {
    std::vector<Violation> out;
    rule_blocking_under_lock(index_sources(sources), "engine_mutex_", out);
    return out;
  };
  t.expect(has_rule(run({{"src/net/server.hpp",
                          "void flush() {\n"
                          "  MutexLock lock(engine_mutex_);\n"
                          "  ::send(fd_, buf, len, 0);\n"
                          "}\n"}}),
                    rule),
           rule, "direct-send", "::send under lock not flagged");
  const std::vector<Violation> indirect =
      run({{"src/net/server.hpp",
            "void persist() { ::fsync(fd_); }\n"
            "void tick() { MutexLock l(engine_mutex_); persist(); }\n"}});
  t.expect(has_rule(indirect, rule), rule, "indirect-fsync",
           "::fsync reachable under lock not flagged");
  t.expect(!indirect.empty() && !indirect.front().chain.empty(), rule,
           "indirect-chain", "call chain missing from indirect finding");
  t.expect(has_rule(run({{"src/net/server.hpp",
                          "void drain() REQUIRES(engine_mutex_) {\n"
                          "  ::write(fd_, p, n);\n"
                          "}\n"}}),
                    rule),
           rule, "requires-annotation",
           "REQUIRES(engine_mutex_) body with ::write not flagged");
  t.expect(has_rule(run({{"src/net/server.hpp",
                          "void nap() { MutexLock l(engine_mutex_);\n"
                          "  std::this_thread::sleep_for(d); }\n"}}),
                    rule),
           rule, "sleep", "sleep_for under lock not flagged");
  t.expect(run({{"src/net/server.hpp",
                 "void tick() {\n"
                 "  { MutexLock l(engine_mutex_); state_ += 1; }\n"
                 "  ::send(fd_, buf, len, 0);\n"
                 "}\n"}})
               .empty(),
           rule, "scope-release", "::send after lock scope ended flagged");
  t.expect(run({{"src/net/server.hpp",
                 "void tick() { MutexLock l(net_mutex_);\n"
                 "  ::send(fd_, buf, len, 0); }\n"}})
               .empty(),
           rule, "other-mutex", "::send under a different mutex flagged");
}

// ----------------------------------------------------------- R2: layer DAG

void test_layers(Tally& t) {
  const std::string rule = kRuleLayers;
  LayerGraph graph;
  std::string err;
  {
    std::istringstream in("common:\ncore: common\nnet: core\n");
    t.expect(parse_layer_graph(in, graph, err), rule, "parse", err);
  }
  const auto run = [&](const std::vector<SourceFile>& sources) {
    std::vector<Violation> out;
    rule_layer_dag(index_sources(sources), graph, out);
    return out;
  };
  t.expect(run({{"src/net/a.cpp", "#include \"core/x.hpp\"\n"}}).empty(), rule,
           "direct-dep", "declared dep flagged");
  t.expect(run({{"src/net/a.cpp", "#include \"common/y.hpp\"\n"}}).empty(),
           rule, "transitive-dep", "transitive dep (closure) flagged");
  t.expect(has_rule(run({{"src/core/b.cpp", "#include \"net/server.hpp\"\n"}}),
                    rule),
           rule, "downward-ref", "core including net not flagged");
  t.expect(has_rule(run({{"src/rogue/c.cpp", "int x;\n"}}), rule), rule,
           "undeclared-layer", "undeclared layer not flagged");
  t.expect(run({{"src/core/d.cpp", "#include <vector>\n"}}).empty(), rule,
           "system-header", "system header flagged");
  {
    LayerGraph bad;
    std::istringstream in("core: common\ncommon:\n");
    t.expect(!parse_layer_graph(in, bad, err), rule, "forward-dep",
             "forward-declared dep accepted (cycles would be expressible)");
  }
  {
    LayerGraph bad;
    std::istringstream in("common:\ncommon:\n");
    t.expect(!parse_layer_graph(in, bad, err), rule, "duplicate",
             "duplicate layer accepted");
  }
}

// ------------------------------------------------------ R3: throw contracts

void test_throw(Tally& t) {
  const std::string rule = kRuleThrow;
  const auto run = [](const std::vector<SourceFile>& sources,
                      const std::string& contract_line) {
    std::vector<ThrowContract> contracts;
    std::string err;
    std::istringstream in(contract_line);
    if (!parse_contracts(in, contracts, err)) return std::vector<Violation>();
    std::vector<Violation> out;
    rule_throw_contracts(index_sources(sources), contracts, out);
    return out;
  };
  t.expect(has_rule(run({{"src/durability/wal.cpp",
                          "void scan_wal() { throw CodecError(\"x\"); }\n"}},
                        "scan_wal\n"),
                    rule),
           rule, "direct-throw", "throw in nothrow function not flagged");
  t.expect(has_rule(run({{"src/durability/wal.cpp",
                          "int pick(const V& v) { return v.at(3); }\n"
                          "void scan_wal() { pick(tbl_); }\n"}},
                        "scan_wal\n"),
                    rule),
           rule, "reachable-at",
           "unguarded .at() reachable from nothrow function not flagged");
  t.expect(run({{"src/durability/wal.cpp",
                 "void scan_wal() {\n"
                 "  try { decode_record(); } catch (...) { }\n"
                 "}\n"
                 "void decode_record() { throw CodecError(\"bad\"); }\n"}},
               "scan_wal\n")
               .empty(),
           rule, "try-guard", "try-guarded call treated as reachable");
  t.expect(run({{"src/net/wire.cpp",
                 "Body decode_body() { throw CodecError(\"bad\"); }\n"}},
               "decode_body throws=CodecError\n")
               .empty(),
           rule, "allowed-type", "contracted exception type flagged");
  t.expect(has_rule(run({{"src/net/wire.cpp",
                          "Body decode_body() {\n"
                          "  throw std::runtime_error(\"bad\");\n"
                          "}\n"}},
                        "decode_body throws=CodecError\n"),
                    rule),
           rule, "wrong-type", "off-contract exception type not flagged");
  t.expect(has_rule(run({{"src/durability/wal.cpp", "void scan_wal() { }\n"}},
                        "scan_wal\nno_such_function\n"),
                    rule),
           rule, "stale-contract", "contract naming nothing not flagged");
  t.expect(has_rule(run({{"src/net/wire.hpp",
                          "struct FrameReader {\n"
                          "  void feed(const B& b) {\n"
                          "    Object o = cast_to(dynamic_cast<T&>(b));\n"
                          "  }\n"
                          "};\n"}},
                        "FrameReader::feed\n"),
                    rule),
           rule, "throwing-cast", "dynamic_cast in nothrow path not flagged");
}

// ---------------------------------------------------- R4: determinism port

// The determinism self-corpus. Every case sits in a scanned layer: the rule
// filters by layer itself.
struct DetCase {
  const char* name;
  const char* source;
  const char* expect_rule;  // nullptr = must be clean
};

const DetCase kDetCases[] = {
    {"unordered_map iteration",
     "#include <unordered_map>\n"
     "std::unordered_map<int, double> t;\n"
     "double sum() { double s = 0; for (auto& [k, v] : t) s += v; return s; }\n",
     "unordered-container"},
    {"unordered_set", "std::unordered_set<int> seen;\n", "unordered-container"},
    {"c rand", "int draw() { return rand() % 6; }\n", "c-rand"},
    {"std::rand", "int draw() { return std::rand(); }\n", "c-rand"},
    {"c time", "long stamp() { return time(nullptr); }\n", "c-time"},
    {"random_device", "std::random_device rd;\n", "random-device"},
    {"steady_clock now",
     "auto t0 = std::chrono::steady_clock::now();\n", "wall-clock"},
    {"system_clock now",
     "auto t0 = std::chrono::system_clock::now();\n", "wall-clock"},
    {"pointer-keyed map", "std::map<Node*, int> order;\n", "pointer-keyed"},
    {"pointer-keyed set", "std::set<const Event*> live;\n", "pointer-keyed"},
    {"comment mention is fine",
     "// we replaced std::unordered_map with sorted vectors\n"
     "/* rand() would break digests */\n"
     "int x = 0;\n",
     nullptr},
    {"string mention is fine",
     "const char* msg = \"do not use time() here\";\n", nullptr},
    {"operand is not rand", "int operand(int a); int y = operand(2);\n",
     nullptr},
    {"value-keyed map is fine", "std::map<int, char*> names;\n", nullptr},
    {"runtime_error is fine",
     "throw std::runtime_error(\"boom\");\n", nullptr},
};

void test_determinism(Tally& t) {
  const std::string rule = kRuleDeterminism;
  for (const DetCase& c : kDetCases) {
    std::vector<Violation> found;
    rule_determinism({{"src/core/self_test.cpp", c.source}}, found);
    if (c.expect_rule == nullptr) {
      t.expect(found.empty(), rule, c.name,
               "expected clean, got " +
                   (found.empty() ? std::string() : found.front().rule));
    } else {
      t.expect(has_rule(found, c.expect_rule), rule, c.name,
               std::string("rule ") + c.expect_rule + " not triggered");
    }
  }
  // Files outside the determinism layer set are not scanned.
  {
    std::vector<Violation> found;
    rule_determinism({{"src/net/live.cpp", "int d() { return rand(); }\n"}},
                     found);
    t.expect(found.empty(), rule, "net-excluded",
             "src/net scanned by the determinism rule");
  }
  // Allowlist machinery: suppression works, stale entries are detected.
  {
    std::istringstream allow_src(
        "src/core/self_test.cpp:unordered-container # lookup-only, proven\n"
        "other.cpp:c-rand # never matches\n");
    Allowlist allow;
    std::string err;
    const bool ok = parse_allowlist(allow_src, allow, err);
    t.expect(ok && allow.entries.size() == 2, rule, "allowlist-parse", err);
    if (ok && allow.entries.size() == 2) {
      const Violation v{"src/core/self_test.cpp", 1, "unordered-container",
                        "...", {}, ""};
      t.expect(allow.allowed(v), rule, "allowlist-suppression",
               "matching entry did not suppress");
      t.expect(!allow.entries[1].used, rule, "allowlist-stale",
               "stale entry marked used");
    }
  }
  {
    std::istringstream allow_src("self_test.cpp:c-rand\n");
    Allowlist allow;
    std::string err;
    t.expect(!parse_allowlist(allow_src, allow, err), rule,
             "allowlist-reason-mandatory", "reason-less entry accepted");
  }
  // Sink-file matching: reachability findings may be suppressed at either
  // end of the chain.
  {
    std::istringstream allow_src("src/common/log.cpp:digest-purity # sink\n");
    Allowlist allow;
    std::string err;
    parse_allowlist(allow_src, allow, err);
    const Violation v{"src/core/engine.cpp", 7, kRuleDigest, "...", {},
                      "src/common/log.cpp"};
    t.expect(allow.allowed(v), rule, "allowlist-sink-match",
             "sink-file entry did not suppress");
  }
}

// ------------------------------------------------------- R5: digest purity

void test_digest(Tally& t) {
  const std::string rule = kRuleDigest;
  const auto run = [](const std::vector<SourceFile>& sources) {
    std::vector<Violation> out;
    rule_digest_purity(index_sources(sources), out);
    return out;
  };
  t.expect(has_rule(run({{"src/core/engine.cpp",
                          "void tick() {\n"
                          "  auto t0 = std::chrono::steady_clock::now();\n"
                          "}\n"}}),
                    rule),
           rule, "wall-clock", "steady_clock::now in core not flagged");
  t.expect(has_rule(run({{"src/core/engine.cpp",
                          "void dump() { std::ofstream out(path_); }\n"}}),
                    rule),
           rule, "ofstream", "ofstream in core not flagged");
  t.expect(has_rule(run({{"src/harness/run.cpp", "void run_live() { }\n"},
                         {"src/core/engine.cpp",
                          "void tick() { run_live(); }\n"}}),
                    rule),
           rule, "boundary-cross",
           "core call resolving into harness not flagged");
  t.expect(run({{"src/net/server.cpp",
                 "void pump() {\n"
                 "  auto t0 = std::chrono::steady_clock::now();\n"
                 "  std::ofstream out(path_);\n"
                 "}\n"}})
               .empty(),
           rule, "net-excluded", "src/net scanned by digest-purity");
  t.expect(run({{"src/core/engine.cpp",
                 "void tick() { advance(state_); }\n"
                 "void advance(State& s) { s.step += 1; }\n"}})
               .empty(),
           rule, "pure-clean", "pure core code flagged");
}

}  // namespace

int run_self_test(const std::string& rule) {
  if (!rule.empty() &&
      std::find(all_rules().begin(), all_rules().end(), rule) ==
          all_rules().end()) {
    std::cerr << "unknown rule '" << rule << "' — rules are:";
    for (const std::string& r : all_rules()) std::cerr << " " << r;
    std::cerr << "\n";
    return 2;
  }
  Tally t;
  const bool all = rule.empty();
  if (all) test_machinery(t);
  if (all || rule == kRuleBlocking) test_blocking(t);
  if (all || rule == kRuleLayers) test_layers(t);
  if (all || rule == kRuleThrow) test_throw(t);
  if (all || rule == kRuleDeterminism) test_determinism(t);
  if (all || rule == kRuleDigest) test_digest(t);
  if (t.failures == 0) {
    std::cout << "fastcons_lint self-test (" << (all ? "all" : rule) << "): "
              << t.checks << " checks passed\n";
    return 0;
  }
  std::cerr << "fastcons_lint self-test: " << t.failures << " of " << t.checks
            << " checks FAILED\n";
  return 1;
}

}  // namespace fastcons::lint
