// Ablation: cost of the sandbox's per-step metering and value-size
// accounting (§4.1.2). Every handler runs on the bytecode VM
// (docs/bytecode_vm.md), metered: one step add and one limit compare per
// instruction, certified or not. BM_Vm* run compute-heavy scripts under the
// default budget; BM_BudgetExhaustion pins what hitting the step limit
// costs.

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench/gbench_json.h"
#include "edc/script/parser.h"
#include "edc/script/vm/compiler.h"
#include "edc/script/vm/vm.h"

namespace edc {
namespace {

class NullHost : public ScriptHost {
 public:
  bool HasFunction(const std::string&) const override { return false; }
  Result<Value> Call(const std::string&, std::vector<Value>&) override {
    return Status(ErrorCode::kExtensionError, "no host");
  }
};

constexpr char kComputeScript[] = R"(
extension compute {
  on op read "/x";
  fn read(oid) {
    let sum = 0;
    foreach (a in [1,2,3,4,5,6,7,8,9,10]) {
      foreach (b in [1,2,3,4,5,6,7,8,9,10]) {
        sum = sum + a * b - (a % (b + 1));
      }
    }
    return sum;
  }
}
)";

constexpr char kStringScript[] = R"(
extension strings {
  on op read "/x";
  fn read(oid) {
    let out = "";
    foreach (i in [1,2,3,4,5,6,7,8]) {
      out = out + "segment-" + i + ";";
    }
    return len(out);
  }
}
)";

// Compiles the handlers of `source` as registration does; aborts if the
// compiler refuses (the bench scripts are all verified shapes).
CompiledModule CompileBenchModule(const char* source) {
  auto program = ParseProgram(source);
  auto module = CompileProgram(**program);
  if (!module.ok()) {
    std::abort();
  }
  return std::move(*module);
}

// Runs handler `read` of `module` under `budget` for the benchmark loop.
void RunVm(benchmark::State& state, const CompiledModule& module, ExecBudget budget) {
  NullHost host;
  int64_t steps = 0;
  for (auto _ : state) {
    Vm vm(&module, &host, budget);
    auto out = vm.Invoke("read", {Value("/x")});
    benchmark::DoNotOptimize(out);
    steps += vm.stats().steps_used;
  }
  state.counters["steps_per_s"] =
      benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}

void BM_VmArithmetic(benchmark::State& state) {
  RunVm(state, CompileBenchModule(kComputeScript), ExecBudget{});
}
BENCHMARK(BM_VmArithmetic);

void BM_VmStrings(benchmark::State& state) {
  RunVm(state, CompileBenchModule(kStringScript), ExecBudget{});
}
BENCHMARK(BM_VmStrings);

void BM_BudgetExhaustion(benchmark::State& state) {
  // Hitting the step limit must be cheap (it is the defense, not the attack).
  CompiledModule module = CompileBenchModule(kComputeScript);
  NullHost host;
  ExecBudget tight;
  tight.max_steps = state.range(0);
  for (auto _ : state) {
    Vm vm(&module, &host, tight);
    auto out = vm.Invoke("read", {Value("/x")});
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BudgetExhaustion)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace edc

int main(int argc, char** argv) { return edc::GBenchMainWithJson("abl_sandbox", argc, argv); }
