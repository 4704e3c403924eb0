// Register bytecode for verified CoordScript handlers (paper §4.2).
//
// CoordScript's semantics are those of a tree walk over the AST
// (docs/coordscript.md): every AST node evaluated costs one ExecBudget step,
// charged before the node runs. Registration compiles every verified handler
// once into a flat register machine that keeps those semantics exactly:
//
//   * Step accounting is node-for-node identical to the tree walk. Every
//     instruction carries the number of steps the tree walk would have
//     charged by the time it reaches the same point (its own AST node plus
//     any parent nodes folded into it), charged *before* the instruction
//     executes — so steps_used agrees with the tree walk at every observable
//     exit: normal return, runtime error, value-size abort. Replica digests
//     and simulated timing cannot move.
//   * The step limit is exact. charge_lines records, per folded charge, the
//     line of its AST node, so an exhausted budget stops at max_steps + 1
//     and names the node the tree walk would have stopped on.
//   * Error Status codes, messages and line attribution are byte for byte
//     those of the tree walk. The test-only oracle in tests/oracle/ is that
//     tree walk; the vm-labelled tests compare the two.
//   * Compilation is compile-or-reject: a handler the compiler cannot lower
//     faithfully fails the registration (kExtensionRejected). Verified code
//     never does — undeclared names are verifier errors EDC-E010/E011.
//
// See docs/bytecode_vm.md for the instruction-set walkthrough and the
// step-accounting equivalence argument.

#ifndef EDC_SCRIPT_VM_BYTECODE_H_
#define EDC_SCRIPT_VM_BYTECODE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "edc/script/value.h"

namespace edc {

enum class OpCode : uint8_t {
  // dst = constants[aux]
  kLoadConst,
  // dst = constants[aux], then value-size check (a folded string concat or
  // list literal, whose tree-walk counterpart checks the value size).
  kLoadConstChecked,
  // dst = reg[a]  (variable reads; charges the kVar node's step)
  kMove,
  // dst = -reg[a] (unsigned-wrap negation; type-checked) / !Truthy(reg[a])
  kNeg,
  kNot,
  // dst = reg[a] <op> reg[b], with the tree walk's exact type checks,
  // wrap-around arithmetic and division/modulo guards. kAdd also handles
  // string concatenation (+ size check).
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  // dst = Truthy(reg[a]) as bool (closes short-circuit lowering).
  kTruthy,
  // pc = aux
  kJump,
  // if !Truthy(reg[a]) pc = aux
  kJumpIfFalse,
  // if Truthy(reg[a]) pc = aux
  kJumpIfTrue,
  // dst = reg[a][reg[b]] (list / map / string indexing and checks)
  kIndex,
  // dst = list(reg[a] .. reg[a + b - 1]), then value-size check
  kMakeList,
  // dst = builtins-by-index[aux](reg[a] .. reg[a + b - 1]), then size check.
  // The registry index is resolved at compile time: no per-call map lookup.
  kCallBuiltin,
  // dst = host->Call(host_names[aux], reg[a] .. reg[a + b - 1]), then size
  // check — host results obey max_value_bytes exactly like builtin results.
  kCallHost,
  // foreach header: type-check reg[a] as a list and snapshot it into
  // iterator slot b (cached data pointer + length; the snapshot keeps the
  // shared list alive even if the body rebinds the source variable).
  kIterInit,
  // As kIterInit but the compiler proved reg[a] is a list (it was built by a
  // list literal), so the runtime type check is elided.
  kIterInitList,
  // if slot b has items left: dst = next element, fall through; else pc = aux
  kIterNext,
  // return reg[a] / return null (handler falls off the end or bare return)
  kReturn,
  kReturnNull,
};

struct Instruction {
  OpCode op;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint32_t aux = 0;    // constant index / jump target / builtin index
  uint32_t steps = 0;  // ExecBudget steps charged before executing
  int32_t line = 0;    // source line for error attribution
};

struct CompiledHandler {
  std::string name;
  uint16_t num_params = 0;
  uint16_t num_registers = 0;
  uint16_t num_iter_slots = 0;
  std::vector<Instruction> code;
  std::vector<Value> constants;
  std::vector<std::string> host_names;  // kCallHost targets, by aux index
  // Source line of every step charge, in code order: code[i]'s charges are
  // the code[i].steps entries after those of code[0..i). Read only when the
  // step limit fires.
  std::vector<int32_t> charge_lines;
};

// Every handler of one verified extension, compiled at registration.
struct CompiledModule {
  std::map<std::string, CompiledHandler> handlers;

  const CompiledHandler* Find(const std::string& name) const {
    auto it = handlers.find(name);
    return it == handlers.end() ? nullptr : &it->second;
  }
};

}  // namespace edc

#endif  // EDC_SCRIPT_VM_BYTECODE_H_
