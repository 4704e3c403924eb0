#include "edc/script/vm/compiler.h"

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "edc/script/analysis/names.h"
#include "edc/script/builtins.h"

namespace edc {

namespace {

// Result of folding a pure literal subtree. `lines` holds one entry per
// ExecBudget step the tree walk charges to evaluate the subtree, in charge
// order, each the line of the charged node — the *dynamic* count, so a
// short-circuited right operand contributes nothing. `checked` marks values
// the tree walk passes through its size check (string concatenation, list
// literals); such folds must re-run the size check at runtime against the
// actual budget, and are not reusable as operands of a further fold (an
// enclosing fold would skip their check point, diverging under a small
// max_value_bytes).
struct Fold {
  Value value;
  std::vector<int32_t> lines;
  bool checked = false;
};

// The charge of `expr` itself followed by those of its folded operands.
std::vector<int32_t> Charges(const Expr& expr, std::initializer_list<const Fold*> operands) {
  std::vector<int32_t> lines{expr.line};
  for (const Fold* f : operands) {
    lines.insert(lines.end(), f->lines.begin(), f->lines.end());
  }
  return lines;
}

std::optional<Fold> TryFold(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return Fold{expr.literal, {expr.line}, false};
    case Expr::Kind::kUnary: {
      auto v = TryFold(*expr.lhs);
      if (!v || v->checked) {
        return std::nullopt;
      }
      if (expr.unary_op == UnaryOp::kNot) {
        return Fold{Value(!v->value.Truthy()), Charges(expr, {&*v}), false};
      }
      if (!v->value.is_int()) {
        return std::nullopt;  // runtime type error; leave it to execution
      }
      return Fold{Value(static_cast<int64_t>(
                      0 - static_cast<uint64_t>(v->value.AsInt()))),
                  Charges(expr, {&*v}), false};
    }
    case Expr::Kind::kBinary: {
      // Short-circuit operators fold even with an unfoldable right operand
      // when the left decides the result — as in the tree walk, the right
      // side then contributes no steps.
      if (expr.binary_op == BinaryOp::kAnd || expr.binary_op == BinaryOp::kOr) {
        auto l = TryFold(*expr.lhs);
        if (!l || l->checked) {
          return std::nullopt;
        }
        bool lt = l->value.Truthy();
        if (expr.binary_op == BinaryOp::kAnd && !lt) {
          return Fold{Value(false), Charges(expr, {&*l}), false};
        }
        if (expr.binary_op == BinaryOp::kOr && lt) {
          return Fold{Value(true), Charges(expr, {&*l}), false};
        }
        auto r = TryFold(*expr.rhs);
        if (!r || r->checked) {
          return std::nullopt;
        }
        return Fold{Value(r->value.Truthy()), Charges(expr, {&*l, &*r}), false};
      }
      auto l = TryFold(*expr.lhs);
      auto r = TryFold(*expr.rhs);
      if (!l || !r || l->checked || r->checked) {
        return std::nullopt;
      }
      const Value& a = l->value;
      const Value& b = r->value;
      std::vector<int32_t> lines = Charges(expr, {&*l, &*r});
      switch (expr.binary_op) {
        case BinaryOp::kAdd:
          if (a.is_str() || b.is_str()) {
            return Fold{Value(a.ToString() + b.ToString()), lines, true};
          }
          if (a.is_int() && b.is_int()) {
            return Fold{Value(static_cast<int64_t>(static_cast<uint64_t>(a.AsInt()) +
                                                   static_cast<uint64_t>(b.AsInt()))),
                        lines, false};
          }
          return std::nullopt;
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod: {
          if (!a.is_int() || !b.is_int()) {
            return std::nullopt;
          }
          uint64_t ua = static_cast<uint64_t>(a.AsInt());
          uint64_t ub = static_cast<uint64_t>(b.AsInt());
          if (expr.binary_op == BinaryOp::kSub) {
            return Fold{Value(static_cast<int64_t>(ua - ub)), lines, false};
          }
          if (expr.binary_op == BinaryOp::kMul) {
            return Fold{Value(static_cast<int64_t>(ua * ub)), lines, false};
          }
          // Division / modulo: fold only when the operation would succeed.
          if (b.AsInt() == 0 || (a.AsInt() == INT64_MIN && b.AsInt() == -1)) {
            return std::nullopt;
          }
          return Fold{Value(expr.binary_op == BinaryOp::kDiv ? a.AsInt() / b.AsInt()
                                                             : a.AsInt() % b.AsInt()),
                      lines, false};
        }
        case BinaryOp::kEq:
          return Fold{Value(a.Equals(b)), lines, false};
        case BinaryOp::kNe:
          return Fold{Value(!a.Equals(b)), lines, false};
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          int cmp = 0;
          if (a.is_int() && b.is_int()) {
            cmp = a.AsInt() < b.AsInt() ? -1 : (a.AsInt() > b.AsInt() ? 1 : 0);
          } else if (a.is_str() && b.is_str()) {
            int c = a.AsStr().compare(b.AsStr());
            cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
          } else {
            return std::nullopt;
          }
          bool out = expr.binary_op == BinaryOp::kLt   ? cmp < 0
                     : expr.binary_op == BinaryOp::kLe ? cmp <= 0
                     : expr.binary_op == BinaryOp::kGt ? cmp > 0
                                                       : cmp >= 0;
          return Fold{Value(out), lines, false};
        }
        default:
          return std::nullopt;
      }
    }
    case Expr::Kind::kListLit: {
      std::vector<int32_t> lines{expr.line};
      ValueList items;
      items.reserve(expr.args.size());
      for (const ExprPtr& item : expr.args) {
        auto v = TryFold(*item);
        if (!v || v->checked) {
          return std::nullopt;
        }
        lines.insert(lines.end(), v->lines.begin(), v->lines.end());
        items.push_back(v->value);
      }
      return Fold{Value::List(std::move(items)), lines, true};
    }
    default:
      return std::nullopt;
  }
}

class HandlerCompiler {
 public:
  bool Compile(const Handler& handler, CompiledHandler* out) {
    names_ = ResolveNames(handler);
    // An undeclared name: a tree walk reports it lazily at runtime (only if
    // the statement executes); refuse to compile rather than change when the
    // error surfaces.
    if (!names_.diags.empty() || names_.vars.size() >= UINT16_MAX) {
      return false;
    }
    out_ = out;
    out_->name = handler.name;
    out_->num_params = static_cast<uint16_t>(handler.params.size());
    next_reg_ = max_reg_ = static_cast<uint16_t>(names_.vars.size());
    CompileBlock(handler.body);
    // Falling off the end returns null without charging a step (Invoke's
    // kNormal flow).
    Emit(OpCode::kReturnNull, 0, 0, 0, 0, handler.line);
    out_->num_registers = max_reg_;
    out_->num_iter_slots = max_iter_;
    return ok_;
  }

 private:
  // ---- machine-state helpers ----

  uint16_t Alloc() {
    if (next_reg_ >= UINT16_MAX) {
      ok_ = false;
      return 0;
    }
    uint16_t r = next_reg_++;
    if (next_reg_ > max_reg_) {
      max_reg_ = next_reg_;
    }
    return r;
  }

  // Charges the step of the AST node on `line`: it lands on the next emitted
  // instruction.
  void Charge(int line) { pending_.push_back(line); }

  // Emits with the pending step charges folded in. Charges always land on
  // the earliest instruction executed at or after the point where the tree
  // walk charges them, in the tree walk's order; nothing observable (an
  // abort, or the handler returning) can occur in between, so steps_used
  // agrees with the tree walk at every exit from the handler, and the side
  // table names the node at which any budget runs out.
  void Emit(OpCode op, uint16_t dst, uint16_t a, uint16_t b, uint32_t aux, int line) {
    Instruction insn;
    insn.op = op;
    insn.dst = dst;
    insn.a = a;
    insn.b = b;
    insn.aux = aux;
    insn.steps = static_cast<uint32_t>(pending_.size());
    insn.line = line;
    out_->charge_lines.insert(out_->charge_lines.end(), pending_.begin(), pending_.end());
    pending_.clear();
    out_->code.push_back(insn);
  }

  uint32_t Here() const { return static_cast<uint32_t>(out_->code.size()); }

  uint32_t AddConst(Value v) {
    out_->constants.push_back(std::move(v));
    return static_cast<uint32_t>(out_->constants.size() - 1);
  }

  // Variable id i lives in register i (ResolveNames numbers the parameters
  // first, matching the VM's argument placement).
  uint16_t UseReg(const Expr& expr) const {
    return static_cast<uint16_t>(names_.use_ids.at(&expr));
  }
  uint16_t DefReg(const Stmt& stmt) const {
    return static_cast<uint16_t>(names_.def_ids.at(&stmt));
  }

  // ---- statements ----

  void CompileBlock(const Block& block) {
    for (const StmtPtr& stmt : block) {
      CompileStmt(*stmt);
      if (!ok_) {
        return;
      }
    }
  }

  void CompileStmt(const Stmt& stmt) {
    uint16_t saved = next_reg_;
    Charge(stmt.line);  // every statement costs a step
    switch (stmt.kind) {
      case Stmt::Kind::kLet:
      case Stmt::Kind::kAssign:
        CompileExprInto(stmt.expr.get(), DefReg(stmt));
        break;
      case Stmt::Kind::kIf: {
        uint16_t cond = CompileOperand(*stmt.expr);
        Emit(OpCode::kJumpIfFalse, 0, cond, 0, 0, stmt.line);
        size_t jf_at = out_->code.size() - 1;
        next_reg_ = saved;  // condition temp dies before the branches
        CompileBlock(stmt.body);
        if (stmt.else_body.empty()) {
          out_->code[jf_at].aux = Here();
        } else {
          Emit(OpCode::kJump, 0, 0, 0, 0, stmt.line);
          size_t j_at = out_->code.size() - 1;
          out_->code[jf_at].aux = Here();
          CompileBlock(stmt.else_body);
          out_->code[j_at].aux = Here();
        }
        break;
      }
      case Stmt::Kind::kForEach:
        CompileForEach(stmt);
        break;
      case Stmt::Kind::kReturn: {
        if (stmt.expr) {
          uint16_t r = CompileOperand(*stmt.expr);
          Emit(OpCode::kReturn, 0, r, 0, 0, stmt.line);
        } else {
          Emit(OpCode::kReturnNull, 0, 0, 0, 0, stmt.line);
        }
        break;
      }
      case Stmt::Kind::kExpr: {
        // Result discarded; compile into a dead temp. (Forces emission, so
        // the statement's step charge cannot be left dangling.)
        uint16_t t = Alloc();
        CompileExprInto(stmt.expr.get(), t);
        break;
      }
    }
    next_reg_ = saved;
  }

  void CompileForEach(const Stmt& stmt) {
    uint16_t saved = next_reg_;
    uint16_t list = CompileOperand(*stmt.expr);
    if (next_iter_ >= UINT16_MAX) {
      ok_ = false;
      return;
    }
    uint16_t slot = next_iter_++;
    if (next_iter_ > max_iter_) {
      max_iter_ = next_iter_;
    }
    // A list literal (folded or built by kMakeList) is a list by
    // construction: elide the runtime type check.
    bool proven_list = stmt.expr->kind == Expr::Kind::kListLit;
    Emit(proven_list ? OpCode::kIterInitList : OpCode::kIterInit, 0, list, slot, 0,
         stmt.line);
    next_reg_ = saved;  // the source temp is snapshotted into the slot

    uint32_t head = Here();
    Emit(OpCode::kIterNext, DefReg(stmt), 0, slot, 0, stmt.line);
    size_t next_at = out_->code.size() - 1;
    CompileBlock(stmt.body);
    Emit(OpCode::kJump, 0, 0, 0, head, stmt.line);
    out_->code[next_at].aux = Here();
    next_iter_--;
  }

  // ---- expressions ----

  // Compiles `expr` for use as an operand. Plain variable references are
  // read in place — no Move — with their step charge deferred onto the next
  // emitted instruction (which executes before anything can abort).
  uint16_t CompileOperand(const Expr& expr) {
    if (expr.kind == Expr::Kind::kVar) {
      Charge(expr.line);
      return UseReg(expr);
    }
    uint16_t t = Alloc();
    CompileExprInto(&expr, t);
    return t;
  }

  // Compiles `expr` into caller-allocated `dst`, releasing every internal
  // temporary on exit. Keeping the watermark tight is what makes sibling
  // call arguments land in contiguous registers (kCallBuiltin/kCallHost
  // moves take reg[a]..reg[a+b-1]).
  void CompileExprInto(const Expr* expr, uint16_t dst) {
    uint16_t mark = next_reg_;
    CompileExprIntoImpl(expr, dst);
    next_reg_ = mark;
  }

  void CompileExprIntoImpl(const Expr* expr, uint16_t dst) {
    if (expr == nullptr) {
      ok_ = false;
      return;
    }
    if (auto fold = TryFold(*expr)) {
      pending_.insert(pending_.end(), fold->lines.begin(), fold->lines.end());
      Emit(fold->checked ? OpCode::kLoadConstChecked : OpCode::kLoadConst, dst, 0, 0,
           AddConst(std::move(fold->value)), expr->line);
      return;
    }
    switch (expr->kind) {
      case Expr::Kind::kLiteral:
        // Handled by TryFold; kept as a safety net.
        Charge(expr->line);
        Emit(OpCode::kLoadConst, dst, 0, 0, AddConst(expr->literal), expr->line);
        return;
      case Expr::Kind::kVar:
        Charge(expr->line);
        Emit(OpCode::kMove, dst, UseReg(*expr), 0, 0, expr->line);
        return;
      case Expr::Kind::kUnary: {
        Charge(expr->line);
        uint16_t v = CompileOperand(*expr->lhs);
        Emit(expr->unary_op == UnaryOp::kNot ? OpCode::kNot : OpCode::kNeg, dst, v, 0,
             0, expr->line);
        return;
      }
      case Expr::Kind::kBinary:
        CompileBinaryInto(*expr, dst);
        return;
      case Expr::Kind::kIndex: {
        Charge(expr->line);
        uint16_t base = CompileOperand(*expr->lhs);
        uint16_t idx = CompileOperand(*expr->rhs);
        Emit(OpCode::kIndex, dst, base, idx, 0, expr->line);
        return;
      }
      case Expr::Kind::kCall: {
        Charge(expr->line);
        // Arguments live in a contiguous temp block so the VM can move them
        // straight into the callee's argument vector.
        uint16_t base = next_reg_;
        for (const ExprPtr& arg : expr->args) {
          uint16_t t = Alloc();
          CompileExprInto(arg.get(), t);
        }
        uint16_t argc = static_cast<uint16_t>(expr->args.size());
        int builtin = BuiltinIndexOf(expr->name);
        if (builtin >= 0) {
          Emit(OpCode::kCallBuiltin, dst, base, argc,
               static_cast<uint32_t>(builtin), expr->line);
        } else {
          uint32_t name_idx = static_cast<uint32_t>(out_->host_names.size());
          out_->host_names.push_back(expr->name);
          Emit(OpCode::kCallHost, dst, base, argc, name_idx, expr->line);
        }
        return;
      }
      case Expr::Kind::kListLit: {
        Charge(expr->line);
        uint16_t base = next_reg_;
        for (const ExprPtr& item : expr->args) {
          uint16_t t = Alloc();
          CompileExprInto(item.get(), t);
        }
        Emit(OpCode::kMakeList, dst, base, static_cast<uint16_t>(expr->args.size()),
             0, expr->line);
        return;
      }
    }
    ok_ = false;
  }

  void CompileBinaryInto(const Expr& expr, uint16_t dst) {
    Charge(expr.line);
    if (expr.binary_op == BinaryOp::kAnd || expr.binary_op == BinaryOp::kOr) {
      bool is_and = expr.binary_op == BinaryOp::kAnd;
      uint16_t l = CompileOperand(*expr.lhs);
      Emit(is_and ? OpCode::kJumpIfFalse : OpCode::kJumpIfTrue, 0, l, 0, 0,
           expr.line);
      size_t shortcut_at = out_->code.size() - 1;
      uint16_t r = CompileOperand(*expr.rhs);
      Emit(OpCode::kTruthy, dst, r, 0, 0, expr.line);
      Emit(OpCode::kJump, 0, 0, 0, 0, expr.line);
      size_t end_at = out_->code.size() - 1;
      out_->code[shortcut_at].aux = Here();
      Emit(OpCode::kLoadConst, dst, 0, 0, AddConst(Value(!is_and)), expr.line);
      out_->code[end_at].aux = Here();
      return;
    }
    uint16_t l = CompileOperand(*expr.lhs);
    uint16_t r = CompileOperand(*expr.rhs);
    OpCode op;
    switch (expr.binary_op) {
      case BinaryOp::kAdd:
        op = OpCode::kAdd;
        break;
      case BinaryOp::kSub:
        op = OpCode::kSub;
        break;
      case BinaryOp::kMul:
        op = OpCode::kMul;
        break;
      case BinaryOp::kDiv:
        op = OpCode::kDiv;
        break;
      case BinaryOp::kMod:
        op = OpCode::kMod;
        break;
      case BinaryOp::kEq:
        op = OpCode::kEq;
        break;
      case BinaryOp::kNe:
        op = OpCode::kNe;
        break;
      case BinaryOp::kLt:
        op = OpCode::kLt;
        break;
      case BinaryOp::kLe:
        op = OpCode::kLe;
        break;
      case BinaryOp::kGt:
        op = OpCode::kGt;
        break;
      case BinaryOp::kGe:
        op = OpCode::kGe;
        break;
      default:
        ok_ = false;
        return;
    }
    Emit(op, dst, l, r, 0, expr.line);
  }

  ResolvedNames names_;
  CompiledHandler* out_ = nullptr;
  uint16_t next_reg_ = 0;
  uint16_t max_reg_ = 0;
  uint16_t next_iter_ = 0;
  uint16_t max_iter_ = 0;
  std::vector<int32_t> pending_;  // lines of the charges not yet emitted
  bool ok_ = true;
};

}  // namespace

bool CompileHandler(const Handler& handler, CompiledHandler* out) {
  HandlerCompiler compiler;
  return compiler.Compile(handler, out);
}

Result<CompiledModule> CompileProgram(const Program& program) {
  CompiledModule module;
  for (const auto& [name, handler] : program.handlers) {
    CompiledHandler compiled;
    if (!CompileHandler(handler, &compiled)) {
      return Status(ErrorCode::kExtensionRejected,
                    "handler '" + name + "' could not be compiled");
    }
    module.handlers.emplace(name, std::move(compiled));
  }
  return module;
}

}  // namespace edc
