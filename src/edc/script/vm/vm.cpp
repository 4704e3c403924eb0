#include "edc/script/vm/vm.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "edc/script/builtins.h"

namespace edc {

namespace {

Status RuntimeError(int line, const std::string& what) {
  return Status(ErrorCode::kExtensionError,
                "runtime error at line " + std::to_string(line) + ": " + what);
}

Status LimitError(int line, const std::string& what) {
  return Status(ErrorCode::kExtensionLimit,
                what + " at line " + std::to_string(line));
}

// Cached foreach iteration state. The snapshot Value keeps the shared list
// alive even if the loop body rebinds the source variable (lists are
// immutable, so iterating the snapshot is always safe).
struct IterSlot {
  Value snapshot;
  const ValueList* items = nullptr;
  size_t next = 0;
};

}  // namespace

Vm::Vm(const CompiledModule* module, ScriptHost* host, ExecBudget budget)
    : module_(module),
      host_(host),
      budget_(budget),
      // A negative budget stops at the first charge, exactly like a zero one.
      step_limit_(std::max<int64_t>(budget.max_steps, 0)) {}

Result<Value> Vm::Invoke(const std::string& name, std::vector<Value> args) {
  const CompiledHandler* found = module_->Find(name);
  if (found == nullptr) {
    return Status(ErrorCode::kExtensionError, "no handler '" + name + "'");
  }
  const CompiledHandler& handler = *found;
  std::vector<Value> regs(handler.num_registers);
  for (size_t i = 0; i < handler.num_params; ++i) {
    regs[i] = i < args.size() ? std::move(args[i]) : Value();
  }
  std::vector<IterSlot> iters(handler.num_iter_slots);
  const Instruction* code = handler.code.data();

  for (uint32_t pc = 0;; ++pc) {
    const Instruction& insn = code[pc];
    stats_.steps_used += insn.steps;
    if (stats_.steps_used > step_limit_) [[unlikely]] {
      return StepLimitError(handler, pc, stats_.steps_used - insn.steps);
    }
    switch (insn.op) {
      case OpCode::kLoadConst:
        regs[insn.dst] = handler.constants[insn.aux];
        break;
      case OpCode::kLoadConstChecked: {
        const Value& v = handler.constants[insn.aux];
        if (v.ApproxSize() > budget_.max_value_bytes) {
          return LimitError(insn.line, "value size limit exceeded");
        }
        regs[insn.dst] = v;
        break;
      }
      case OpCode::kMove: {
        Value v = regs[insn.a];
        regs[insn.dst] = std::move(v);
        break;
      }
      case OpCode::kNeg: {
        const Value& v = regs[insn.a];
        if (!v.is_int()) {
          return RuntimeError(insn.line, "unary '-' on non-int");
        }
        regs[insn.dst] =
            Value(static_cast<int64_t>(0 - static_cast<uint64_t>(v.AsInt())));
        break;
      }
      case OpCode::kNot:
        regs[insn.dst] = Value(!regs[insn.a].Truthy());
        break;
      case OpCode::kAdd: {
        const Value& a = regs[insn.a];
        const Value& b = regs[insn.b];
        if (a.is_str() || b.is_str()) {
          Value out(a.ToString() + b.ToString());
          if (out.ApproxSize() > budget_.max_value_bytes) {
            return LimitError(insn.line, "value size limit exceeded");
          }
          regs[insn.dst] = std::move(out);
          break;
        }
        if (a.is_int() && b.is_int()) {
          regs[insn.dst] =
              Value(static_cast<int64_t>(static_cast<uint64_t>(a.AsInt()) +
                                         static_cast<uint64_t>(b.AsInt())));
          break;
        }
        return RuntimeError(insn.line, "'+' needs int+int or str operands");
      }
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv:
      case OpCode::kMod: {
        const Value& a = regs[insn.a];
        const Value& b = regs[insn.b];
        if (!a.is_int() || !b.is_int()) {
          return RuntimeError(insn.line, "arithmetic on non-int operands");
        }
        uint64_t ua = static_cast<uint64_t>(a.AsInt());
        uint64_t ub = static_cast<uint64_t>(b.AsInt());
        if (insn.op == OpCode::kSub) {
          regs[insn.dst] = Value(static_cast<int64_t>(ua - ub));
          break;
        }
        if (insn.op == OpCode::kMul) {
          regs[insn.dst] = Value(static_cast<int64_t>(ua * ub));
          break;
        }
        if (insn.op == OpCode::kDiv) {
          if (b.AsInt() == 0) {
            return RuntimeError(insn.line, "division by zero");
          }
          if (a.AsInt() == INT64_MIN && b.AsInt() == -1) {
            return RuntimeError(insn.line, "division overflow");
          }
          regs[insn.dst] = Value(a.AsInt() / b.AsInt());
          break;
        }
        if (b.AsInt() == 0) {
          return RuntimeError(insn.line, "modulo by zero");
        }
        if (a.AsInt() == INT64_MIN && b.AsInt() == -1) {
          return RuntimeError(insn.line, "modulo overflow");
        }
        regs[insn.dst] = Value(a.AsInt() % b.AsInt());
        break;
      }
      case OpCode::kEq:
        regs[insn.dst] = Value(regs[insn.a].Equals(regs[insn.b]));
        break;
      case OpCode::kNe:
        regs[insn.dst] = Value(!regs[insn.a].Equals(regs[insn.b]));
        break;
      case OpCode::kLt:
      case OpCode::kLe:
      case OpCode::kGt:
      case OpCode::kGe: {
        const Value& a = regs[insn.a];
        const Value& b = regs[insn.b];
        int cmp = 0;
        if (a.is_int() && b.is_int()) {
          cmp = a.AsInt() < b.AsInt() ? -1 : (a.AsInt() > b.AsInt() ? 1 : 0);
        } else if (a.is_str() && b.is_str()) {
          int c = a.AsStr().compare(b.AsStr());
          cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
        } else {
          return RuntimeError(insn.line, "ordering comparison on mixed types");
        }
        bool out = insn.op == OpCode::kLt   ? cmp < 0
                   : insn.op == OpCode::kLe ? cmp <= 0
                   : insn.op == OpCode::kGt ? cmp > 0
                                            : cmp >= 0;
        regs[insn.dst] = Value(out);
        break;
      }
      case OpCode::kTruthy:
        regs[insn.dst] = Value(regs[insn.a].Truthy());
        break;
      case OpCode::kJump:
        pc = insn.aux - 1;  // ++pc lands on the target
        break;
      case OpCode::kJumpIfFalse:
        if (!regs[insn.a].Truthy()) {
          pc = insn.aux - 1;
        }
        break;
      case OpCode::kJumpIfTrue:
        if (regs[insn.a].Truthy()) {
          pc = insn.aux - 1;
        }
        break;
      case OpCode::kIndex: {
        const Value& base = regs[insn.a];
        const Value& idx = regs[insn.b];
        if (base.is_list()) {
          if (!idx.is_int()) {
            return RuntimeError(insn.line, "list index must be int");
          }
          int64_t i = idx.AsInt();
          const ValueList& list = base.AsList();
          if (i < 0 || static_cast<size_t>(i) >= list.size()) {
            return RuntimeError(insn.line, "list index out of range");
          }
          Value out = list[static_cast<size_t>(i)];
          regs[insn.dst] = std::move(out);
          break;
        }
        if (base.is_map()) {
          if (!idx.is_str()) {
            return RuntimeError(insn.line, "map key must be str");
          }
          auto it = base.AsMap().find(idx.AsStr());
          Value out = it == base.AsMap().end() ? Value() : it->second;
          regs[insn.dst] = std::move(out);
          break;
        }
        if (base.is_str()) {
          if (!idx.is_int()) {
            return RuntimeError(insn.line, "string index must be int");
          }
          int64_t i = idx.AsInt();
          const std::string& s = base.AsStr();
          if (i < 0 || static_cast<size_t>(i) >= s.size()) {
            return RuntimeError(insn.line, "string index out of range");
          }
          regs[insn.dst] = Value(std::string(1, s[static_cast<size_t>(i)]));
          break;
        }
        return RuntimeError(insn.line, "indexing non-collection value");
      }
      case OpCode::kMakeList: {
        ValueList items;
        items.reserve(insn.b);
        for (uint16_t i = 0; i < insn.b; ++i) {
          items.push_back(std::move(regs[insn.a + i]));
        }
        Value out = Value::List(std::move(items));
        if (out.ApproxSize() > budget_.max_value_bytes) {
          return LimitError(insn.line, "value size limit exceeded");
        }
        regs[insn.dst] = std::move(out);
        break;
      }
      case OpCode::kCallBuiltin:
      case OpCode::kCallHost: {
        std::vector<Value> call_args;
        call_args.reserve(insn.b);
        for (uint16_t i = 0; i < insn.b; ++i) {
          call_args.push_back(std::move(regs[insn.a + i]));
        }
        Result<Value> out = [&]() -> Result<Value> {
          if (insn.op == OpCode::kCallBuiltin) {
            return BuiltinsByIndex()[insn.aux]->fn(call_args);
          }
          const std::string& fn = handler.host_names[insn.aux];
          if (host_ == nullptr || !host_->HasFunction(fn)) {
            return RuntimeError(insn.line, "unknown function '" + fn + "'");
          }
          return host_->Call(fn, call_args);
        }();
        if (!out.ok()) {
          return out;
        }
        // Builtin and host results alike obey max_value_bytes.
        if (out->ApproxSize() > budget_.max_value_bytes) {
          return LimitError(insn.line, "value size limit exceeded");
        }
        if (insn.op == OpCode::kCallBuiltin) {
          // Builtin list results obey the collection cap — the runtime
          // contract behind the analyzer's split()/append cardinality
          // transfer functions (analysis/domains.cpp).
          if (out->is_list() && out->AsList().size() > budget_.max_collection_items) {
            return LimitError(insn.line, "collection size limit exceeded");
          }
        } else {
          // Host results additionally obey the element-wise ingest cap
          // (max_input_bytes): the runtime contract behind the analyzer's
          // input seeding (docs/static_analysis.md) — without it no
          // split()-heavy loop could ever have a finite certified bound.
          if (out->is_list()) {
            for (const Value& item : out->AsList()) {
              if (item.ApproxSize() > budget_.max_input_bytes) {
                return LimitError(insn.line, "value size limit exceeded");
              }
            }
          } else if (out->ApproxSize() > budget_.max_input_bytes) {
            return LimitError(insn.line, "value size limit exceeded");
          }
        }
        regs[insn.dst] = std::move(*out);
        break;
      }
      case OpCode::kIterInit:
      case OpCode::kIterInitList: {
        if (insn.op == OpCode::kIterInit && !regs[insn.a].is_list()) {
          return RuntimeError(insn.line, "foreach over non-list value");
        }
        IterSlot& slot = iters[insn.b];
        slot.snapshot = regs[insn.a];
        slot.items = &slot.snapshot.AsList();
        slot.next = 0;
        break;
      }
      case OpCode::kIterNext: {
        IterSlot& slot = iters[insn.b];
        if (slot.next < slot.items->size()) {
          Value out = (*slot.items)[slot.next++];
          regs[insn.dst] = std::move(out);
        } else {
          pc = insn.aux - 1;
        }
        break;
      }
      case OpCode::kReturn:
        return std::move(regs[insn.a]);
      case OpCode::kReturnNull:
        return Value();
    }
  }
}

Status Vm::StepLimitError(const CompiledHandler& handler, uint32_t pc, int64_t charged) {
  // code[pc]'s charges start at this offset of the side table: the tree walk
  // order of every AST node charge is the instruction order, then the order
  // within each instruction.
  size_t first = 0;
  for (uint32_t i = 0; i < pc; ++i) {
    first += handler.code[i].steps;
  }
  // The earlier instructions fit, so charges [0, fit) of this one do too and
  // charge `fit` is the one that crosses the limit.
  int64_t fit = step_limit_ - charged;
  stats_.steps_used = charged + fit + 1;
  return LimitError(handler.charge_lines[first + static_cast<size_t>(fit)],
                    "step budget exceeded");
}

}  // namespace edc
