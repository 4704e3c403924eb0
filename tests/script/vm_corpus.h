// Shared program corpus for the VM-vs-oracle tests (ctest -L vm) and the
// analyzer cross-validation (analysis_crossval_test.cpp):
//
//  * the conformance corpus: every handler of every clean example script
//    (examples/scripts/*.edc) and of the six recipe extensions
//    (recipes/scripts.h), each with scenarios over a deterministic object
//    store covering success paths, script-level errors and empty state;
//  * the seeded random-program generators: ProgramGen (lets, shadowing lets
//    whose initializers read the shadowed name, assigns, ifs,
//    foreach over literals and capped host collections, host mutations,
//    nondeterministic calls) and SplitGen (nested foreach over split() of
//    worst-case host strings, the 2PC shape).

#ifndef EDC_TESTS_SCRIPT_VM_CORPUS_H_
#define EDC_TESTS_SCRIPT_VM_CORPUS_H_

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "edc/common/rng.h"
#include "edc/recipes/scripts.h"
#include "edc/script/value.h"
#include "edc/script/vm/compiler.h"
#include "edc/script/vm/vm.h"
#include "tests/oracle/interpreter.h"
#include "tools/lint/lint.h"

namespace edc {

// ---- Conformance corpus ----

// Deterministic object store mirroring the sandbox host surface the recipes
// use. ctime is assigned by insertion order so min_by("ctime") is stable.
class StoreHost : public ScriptHost {
 public:
  using Store = std::map<std::string, std::pair<std::string, int64_t>>;

  explicit StoreHost(Store store) : store_(std::move(store)) {
    for (const auto& [path, entry] : store_) {
      next_ctime_ = std::max(next_ctime_, entry.second + 1);
    }
  }

  const Store& store() const { return store_; }
  const std::vector<std::string>& trace() const { return trace_; }

  bool HasFunction(const std::string& name) const override {
    for (const char* fn : {"read_object", "exists", "create", "update",
                           "delete_object", "sub_objects", "children", "block",
                           "monitor"}) {
      if (name == fn) {
        return true;
      }
    }
    return false;
  }

  Result<Value> Call(const std::string& name, std::vector<Value>& args) override {
    std::string entry = name;
    for (const Value& a : args) {
      entry += "|" + a.ToString();
    }
    trace_.push_back(std::move(entry));

    if (name == "read_object") {
      auto it = store_.find(args[0].AsStr());
      return it == store_.end() ? Value() : ObjectOf(it);
    }
    if (name == "exists") {
      return Value(store_.count(args[0].AsStr()) > 0);
    }
    if (name == "create") {
      store_[args[0].AsStr()] = {args.size() > 1 ? args[1].ToString() : "",
                                 next_ctime_++};
      return Value(true);
    }
    if (name == "update") {
      auto it = store_.find(args[0].AsStr());
      if (it == store_.end()) {
        store_[args[0].AsStr()] = {args[1].ToString(), next_ctime_++};
      } else {
        it->second.first = args[1].ToString();
      }
      return Value(true);
    }
    if (name == "delete_object") {
      store_.erase(args[0].AsStr());
      return Value(true);
    }
    if (name == "sub_objects") {
      std::string prefix = args[0].AsStr() + "/";
      ValueList objs;
      for (auto it = store_.begin(); it != store_.end(); ++it) {
        if (it->first.compare(0, prefix.size(), prefix) == 0) {
          objs.push_back(ObjectOf(it));
        }
      }
      return Value::List(std::move(objs));
    }
    if (name == "children") {
      std::string prefix = args[0].AsStr() + "/";
      ValueList names;
      for (const auto& [path, e] : store_) {
        if (path.compare(0, prefix.size(), prefix) == 0) {
          names.emplace_back(path.substr(prefix.size()));
        }
      }
      return Value::List(std::move(names));
    }
    // block / monitor: side-effect-free acknowledgments in this fake.
    return Value(true);
  }

 private:
  Value ObjectOf(Store::const_iterator it) const {
    return Value::Map({{"path", Value(it->first)},
                       {"data", Value(it->second.first)},
                       {"ctime", Value(it->second.second)}});
  }

  Store store_;
  std::vector<std::string> trace_;
  int64_t next_ctime_ = 1;
};

struct Scenario {
  const char* label;
  std::string handler;
  std::vector<Value> args;
  StoreHost::Store store;
};

struct CorpusUnit {
  std::string name;
  std::string source;
  std::vector<Scenario> scenarios;
};

inline std::string ReadExampleScript(const std::string& name) {
  std::ifstream in(std::string(EDC_SOURCE_DIR) + "/examples/scripts/" + name);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

inline StoreHost::Store QueueStore() {
  return {{"/queue/a", {"first", 1}},
          {"/queue/b", {"second", 2}},
          {"/queue/c", {"third", 3}}};
}

inline std::vector<CorpusUnit> ConformanceCorpus() {
  StoreHost::Store barrier_incomplete = {{"/barrier-size", {"3", 1}},
                                         {"/barrier/c0", {"", 2}}};
  StoreHost::Store barrier_complete = {{"/barrier-size", {"2", 1}},
                                       {"/barrier/c0", {"", 2}},
                                       {"/barrier/c1", {"", 3}}};
  StoreHost::Store clients = {{"/clients/a", {"", 1}}, {"/clients/b", {"", 2}}};
  StoreHost::Store with_leader = {{"/clients/a", {"", 1}},
                                  {"/clients/b", {"", 2}},
                                  {"/leader/a", {"", 3}}};
  StoreHost::Store tree = {{"/dir", {"root", 1}},
                           {"/dir/x", {"vx", 2}},
                           {"/dir/y", {"vy", 3}}};
  StoreHost::Store clash = {{"/dir", {"root", 1}}, {"/moved", {"", 2}}};
  StoreHost::Store staged = {{"/2pc-locks", {"", 1}},
                             {"/2pc-stage", {"", 2}},
                             {"/2pc-stage/t1", {"c:/a:va;d:/b", 3}},
                             {"/2pc-locks/_a", {"t1", 4}},
                             {"/2pc-locks/_b", {"t1", 5}},
                             {"/b", {"old", 6}}};
  StoreHost::Store locked = {{"/2pc-locks", {"", 1}},
                             {"/2pc-stage", {"", 2}},
                             {"/2pc-locks/_a", {"other", 3}}};
  return {
      {"recipe_counter",
       kCounterExtension,
       {{"increments", "read", {Value("/ctr-increment")}, {{"/ctr", {"41", 1}}}},
        {"missing counter errors", "read", {Value("/ctr-increment")}, {}},
        {"non-numeric data", "read", {Value("/ctr-increment")}, {{"/ctr", {"zzz", 1}}}}}},
      {"recipe_queue",
       kQueueExtension,
       {{"removes oldest", "read", {Value("/queue/head")}, QueueStore()},
        {"empty queue errors", "read", {Value("/queue/head")}, {}}}},
      {"recipe_barrier",
       kBarrierExtension,
       {{"first entrant blocks", "block", {Value("/enter/c1")}, barrier_incomplete},
        {"group complete releases", "block", {Value("/enter/c1")}, barrier_complete},
        {"missing size errors", "block", {Value("/enter/c1")}, {}}}},
      {"recipe_election",
       kElectionExtension,
       {{"appoints first client", "block", {Value("/leader/a")}, clients},
        {"non-leader blocks", "block", {Value("/leader/b")}, with_leader},
        {"successor on deletion", "on_deleted", {Value("/clients/a")}, with_leader},
        {"deletion with no clients", "on_deleted", {Value("/clients/a")}, {}}}},
      {"recipe_rename",
       kRenameExtension,
       {{"renames subtree", "update", {Value("/scfs-rename"), Value("/dir|/moved")}, tree},
        {"bad spec errors", "update", {Value("/scfs-rename"), Value("nosep")}, {}},
        {"missing source errors", "update", {Value("/scfs-rename"), Value("/gone|/moved")},
         {}},
        {"existing target errors", "update", {Value("/scfs-rename"), Value("/dir|/moved")},
         clash}}},
      {"recipe_two_phase",
       kTwoPhaseExtension,
       {{"prepare stages ops", "update",
         {Value("/2pc-prepare0"), Value("t1|c:/a:va;u:/b:vb")}, {}},
        {"conflicting lock rejects", "update",
         {Value("/2pc-prepare0"), Value("t1|c:/a:va")}, locked},
        {"commit applies and unlocks", "update", {Value("/2pc-commit0"), Value("t1")},
         staged},
        {"abort drops stage", "update", {Value("/2pc-abort0"), Value("t1")}, staged},
        {"idempotent commit", "update", {Value("/2pc-commit0"), Value("t9")}, {}},
        {"bad spec errors", "update", {Value("/2pc-prepare0"), Value("nosep")}, {}}}},
      {"audit_count.edc",
       ReadExampleScript("audit_count.edc"),
       {{"first job", "on_created", {Value("/jobs/j1")}, {}},
        {"increments count", "on_created", {Value("/jobs/j2")},
         {{"/jobs-count", {"7", 1}}}}}},
      {"queue_remove.edc",
       ReadExampleScript("queue_remove.edc"),
       {{"removes oldest", "read", {Value("/queue/head")}, QueueStore()},
        {"empty queue errors", "read", {Value("/queue/head")}, {}}}},
  };
}

inline CorpusUnit CorpusUnitNamed(const std::string& name) {
  for (CorpusUnit& unit : ConformanceCorpus()) {
    if (unit.name == name) {
      return std::move(unit);
    }
  }
  return CorpusUnit{name, "", {}};
}

// One scenario run on one engine: everything the VM and the oracle must
// agree on.
struct ScenarioRun {
  bool ok = false;
  std::string status;  // code + message rendering
  std::string result;
  int64_t steps = 0;
  std::vector<std::string> trace;
  StoreHost::Store store;

  bool operator==(const ScenarioRun&) const = default;
};

inline ScenarioRun FinishScenario(const Result<Value>& out, int64_t steps,
                                  const StoreHost& host) {
  ScenarioRun r;
  r.ok = out.ok();
  r.status = out.ok() ? "OK" : out.status().ToString();
  r.result = out.ok() ? out->ToString() : "";
  r.steps = steps;
  r.trace = host.trace();
  r.store = host.store();
  return r;
}

inline ScenarioRun RunScenarioOnOracle(const Program& program, const Scenario& sc,
                                       ExecBudget budget) {
  StoreHost host(sc.store);
  Interpreter interp(&program, &host, budget);
  auto out = interp.Invoke(sc.handler, sc.args);
  return FinishScenario(out, interp.stats().steps_used, host);
}

inline ScenarioRun RunScenarioOnVm(const CompiledModule& module, const Scenario& sc,
                                   ExecBudget budget) {
  StoreHost host(sc.store);
  Vm vm(&module, &host, budget);
  auto out = vm.Invoke(sc.handler, sc.args);
  return FinishScenario(out, vm.stats().steps_used, host);
}

// ---- ProgramGen: the cross-validation generator ----

inline constexpr size_t kGenCollectionCap = 4;

// The analyzer's sandbox for ProgramGen programs: EZK-style (permissive) or,
// with `deterministic`, EDS-style (nondeterminism reaching a sink rejected).
inline VerifierConfig CrossValConfig(bool deterministic) {
  VerifierConfig cfg;
  cfg.allowed_functions = CoreAllowedFunctions();
  for (const char* fn : {"children", "update", "create"}) {
    cfg.allowed_functions[fn] = true;
  }
  cfg.allowed_functions["now"] = false;
  cfg.allowed_functions["random"] = false;
  cfg.require_deterministic = deterministic;
  cfg.collection_functions = {"children"};
  cfg.budget.max_collection_items = kGenCollectionCap;
  return cfg;
}

// Host mirroring the sandbox contract: collections capped at
// kGenCollectionCap, mutations logged, nondeterminism parameterized so two
// "replicas" can be fed different environments.
class CrossValHost : public ScriptHost {
 public:
  CrossValHost(int64_t now_value, uint64_t random_seed)
      : now_value_(now_value), rng_(random_seed) {}

  const std::vector<std::string>& mutations() const { return mutations_; }

  bool HasFunction(const std::string& name) const override {
    return name == "children" || name == "update" || name == "create" ||
           name == "now" || name == "random";
  }

  Result<Value> Call(const std::string& name, std::vector<Value>& args) override {
    if (name == "now") {
      return Value(now_value_);
    }
    if (name == "random") {
      int64_t bound = !args.empty() && args[0].is_int() ? args[0].AsInt() : 8;
      return Value(static_cast<int64_t>(rng_.UniformU64(
          static_cast<uint64_t>(bound > 0 ? bound : 8))));
    }
    if (name == "children") {
      ValueList names;
      for (size_t i = 0; i < kGenCollectionCap; ++i) {
        names.emplace_back("c" + std::to_string(i));
      }
      return Value::List(std::move(names));
    }
    // update / create: replicated-state effects, logged for divergence
    // comparison.
    std::string entry = name;
    for (const Value& a : args) {
      entry += "|" + a.ToString();
    }
    mutations_.push_back(std::move(entry));
    return Value(true);
  }

 private:
  int64_t now_value_;
  Rng rng_;
  std::vector<std::string> mutations_;
};

class ProgramGen {
 public:
  explicit ProgramGen(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    src_ = "extension gen {\n  on op read \"/x\";\n  fn read(oid) {\n";
    vars_ = {"oid_len"};
    if (rng_.UniformU64(4) == 0) {
      src_ += "    let oid = oid + \"/x\";\n";  // shadows the parameter
    }
    src_ += "    let oid_len = len(oid);\n";
    size_t n = 2 + rng_.UniformU64(5);
    for (size_t i = 0; i < n; ++i) {
      EmitStmt(2, 0);
    }
    if (rng_.UniformU64(2) == 0) {
      src_ += "    return " + IntExpr(0) + ";\n";
    }
    src_ += "  }\n}\n";
    return src_;
  }

 private:
  void Indent(int depth) { src_ += std::string(static_cast<size_t>(depth) * 2, ' '); }

  std::string NewVar() {
    std::string name = "v" + std::to_string(var_counter_++);
    vars_.push_back(name);
    return name;
  }

  std::string PickVar() { return vars_[rng_.UniformU64(vars_.size())]; }

  // Integer-typed expression. Depth-limited so programs stay small.
  std::string IntExpr(int depth) {
    switch (rng_.UniformU64(depth >= 2 ? 4 : 6)) {
      case 0:
        return std::to_string(rng_.UniformU64(10));
      case 1:
      case 2:
        return PickVar();
      case 3:
        return rng_.UniformU64(2) == 0 ? "now()" : "random(8)";
      case 4:
        return "(" + IntExpr(depth + 1) + " + " + IntExpr(depth + 1) + ")";
      default:
        return "(" + IntExpr(depth + 1) + " * " + IntExpr(depth + 1) + ")";
    }
  }

  std::string CondExpr() {
    return IntExpr(1) + (rng_.UniformU64(2) == 0 ? " < " : " == ") + IntExpr(1);
  }

  void EmitBlock(int depth, int nest) {
    size_t saved = vars_.size();
    size_t n = 1 + rng_.UniformU64(2);
    for (size_t i = 0; i < n; ++i) {
      EmitStmt(depth, nest);
    }
    vars_.resize(saved);  // block scoping
  }

  void EmitStmt(int depth, int nest) {
    uint64_t pick = rng_.UniformU64(nest >= 2 ? 4 : 6);
    switch (pick) {
      case 0: {
        Indent(depth);
        if (nest > 0 && rng_.UniformU64(2) == 0) {
          // Shadows a visible name (an outer local or a loop variable; a
          // re-let when declared in this block) with an initializer that
          // reads the binding it shadows.
          std::string name = PickVar();
          src_ += "let " + name + " = (" + name + " + " + IntExpr(1) + ");\n";
          return;
        }
        src_ += "let " + NewVar() + " = " + IntExpr(0) + ";\n";
        return;
      }
      case 1: {
        Indent(depth);
        src_ += PickVar() + " = " + IntExpr(0) + ";\n";
        return;
      }
      case 2: {
        Indent(depth);
        src_ += "update(\"/sink\", str(" + IntExpr(0) + "));\n";
        return;
      }
      case 3: {
        Indent(depth);
        src_ += "create(\"/out/" + std::to_string(rng_.UniformU64(4)) +
                "\", str(" + IntExpr(0) + "));\n";
        return;
      }
      case 4: {
        Indent(depth);
        src_ += "if (" + CondExpr() + ") {\n";
        EmitBlock(depth + 1, nest + 1);
        Indent(depth);
        if (rng_.UniformU64(2) == 0) {
          src_ += "} else {\n";
          EmitBlock(depth + 1, nest + 1);
          Indent(depth);
        }
        src_ += "}\n";
        return;
      }
      default: {
        Indent(depth);
        std::string loop_var = "it" + std::to_string(var_counter_++);
        if (rng_.UniformU64(2) == 0) {
          size_t len = rng_.UniformU64(4);
          std::string lit = "[";
          for (size_t i = 0; i < len; ++i) {
            lit += (i > 0 ? ", " : "") + std::to_string(rng_.UniformU64(10));
          }
          lit += "]";
          src_ += "foreach (" + loop_var + " in " + lit + ") {\n";
          vars_.push_back(loop_var);  // int-typed loop variable
        } else {
          src_ += "foreach (" + loop_var + " in children(\"/dir\")) {\n";
          // String-typed loop variable: not added to the int-var pool.
        }
        EmitBlock(depth + 1, nest + 1);
        vars_.erase(std::remove(vars_.begin(), vars_.end(), loop_var), vars_.end());
        Indent(depth);
        src_ += "}\n";
        return;
      }
    }
  }

  Rng rng_;
  std::string src_;
  std::vector<std::string> vars_;
  int var_counter_ = 0;
};

// ---- SplitGen: the split()-heavy arm ----

inline constexpr size_t kSplitCap = 64;        // builtin collection cap for this arm
inline constexpr size_t kSplitInputCap = 512;  // host-result ingest cap for this arm

inline ExecBudget SplitArmBudget() {
  ExecBudget budget;
  budget.max_collection_items = kSplitCap;
  budget.max_input_bytes = kSplitInputCap;
  return budget;
}

// The analyzer's sandbox for SplitGen programs: the same caps.
inline VerifierConfig SplitArmConfig() {
  VerifierConfig cfg;
  cfg.allowed_functions = CoreAllowedFunctions();
  cfg.allowed_functions["fetch"] = true;
  cfg.allowed_functions["update"] = true;
  cfg.budget = SplitArmBudget();
  return cfg;
}

// Host whose fetch() returns a deterministic pseudo-random string (seeded, so
// VM and oracle replays see the identical sequence) with separator
// characters mixed in. Lengths push against the ingest cap; the Value header
// overhead (16 bytes) is left as headroom.
class SplitHost : public ScriptHost {
 public:
  explicit SplitHost(uint64_t seed) : rng_(seed) {}

  const std::vector<std::string>& mutations() const { return mutations_; }

  bool HasFunction(const std::string& name) const override {
    return name == "fetch" || name == "update";
  }

  Result<Value> Call(const std::string& name, std::vector<Value>& args) override {
    if (name == "fetch") {
      static constexpr char kAlphabet[] = "abcdefgh;:./";
      size_t len = 32 + rng_.UniformU64(kSplitInputCap - 64);
      std::string s;
      s.reserve(len);
      for (size_t i = 0; i < len; ++i) {
        s += kAlphabet[rng_.UniformU64(sizeof(kAlphabet) - 1)];
      }
      return Value(std::move(s));
    }
    std::string entry = name;
    for (const Value& a : args) {
      entry += "|" + a.ToString();
    }
    mutations_.push_back(std::move(entry));
    return Value(true);
  }

 private:
  Rng rng_;
  std::vector<std::string> mutations_;
};

class SplitGen {
 public:
  explicit SplitGen(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    src_ =
        "extension sgen {\n  on op read \"/x\";\n  fn read(oid) {\n"
        "    let total = 0;\n"
        "    let blob = fetch(\"/blob\");\n";
    size_t n = 1 + rng_.UniformU64(3);
    for (size_t i = 0; i < n; ++i) {
      EmitSplitLoop(2, 0, i == 0 ? "blob" : StrSource());
    }
    src_ += "    return total;\n  }\n}\n";
    return src_;
  }

 private:
  void Indent(int depth) { src_ += std::string(static_cast<size_t>(depth) * 2, ' '); }

  std::string Sep() {
    static constexpr const char* kSeps[] = {"\";\"", "\":\"", "\".\"", "\"/\""};
    return kSeps[rng_.UniformU64(4)];
  }

  std::string StrSource() {
    switch (rng_.UniformU64(3)) {
      case 0:
        return "oid";
      case 1:
        return "blob";
      default:
        return "substr(blob, 0, " + std::to_string(8 + rng_.UniformU64(200)) + ")";
    }
  }

  void EmitSplitLoop(int depth, int nest, const std::string& source) {
    std::string v = "p" + std::to_string(var_counter_++);
    Indent(depth);
    src_ += "foreach (" + v + " in split(" + source + ", " + Sep() + ")) {\n";
    size_t n = 1 + rng_.UniformU64(2);
    for (size_t i = 0; i < n; ++i) {
      EmitBodyStmt(depth + 1, nest, v);
    }
    Indent(depth);
    src_ += "}\n";
  }

  void EmitBodyStmt(int depth, int nest, const std::string& piece) {
    uint64_t pick = rng_.UniformU64(nest >= 1 ? 4 : 5);
    switch (pick) {
      case 0:
        Indent(depth);
        src_ += "total = total + len(" + piece + ");\n";
        return;
      case 1:
        Indent(depth);
        src_ += "if (len(" + piece + ") > " + std::to_string(rng_.UniformU64(8)) +
                ") {\n";
        Indent(depth + 1);
        src_ += "total = total + 1;\n";
        Indent(depth);
        src_ += "}\n";
        return;
      case 2:
        Indent(depth);
        src_ += "update(\"/sink\", " + piece + ");\n";
        return;
      case 3: {
        // Guarded get(): index provably in range after the len() check, so
        // this must never trip EDC-W008 or a runtime OOB.
        std::string parts = "q" + std::to_string(var_counter_++);
        size_t idx = rng_.UniformU64(3);
        Indent(depth);
        src_ += "let " + parts + " = split(" + piece + ", " + Sep() + ");\n";
        Indent(depth);
        src_ += "if (len(" + parts + ") > " + std::to_string(idx) + ") {\n";
        Indent(depth + 1);
        src_ += "total = total + len(get(" + parts + ", " + std::to_string(idx) +
                "));\n";
        Indent(depth);
        src_ += "}\n";
        return;
      }
      default:
        // Nested foreach over a split of the current piece: the amortized
        // (total-length) accounting is what keeps this certifiable.
        EmitSplitLoop(depth, nest + 1, piece);
        return;
    }
  }

  Rng rng_;
  std::string src_;
  int var_counter_ = 0;
};

}  // namespace edc

#endif  // EDC_TESTS_SCRIPT_VM_CORPUS_H_
