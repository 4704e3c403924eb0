#include "edc/script/analysis/cost.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "edc/script/analysis/domains.h"
#include "edc/script/builtins.h"

namespace edc {

namespace {

// 1 = provably truthy, 0 = provably falsy, -1 = unknown. Mirrors
// Value::Truthy(): null/false/0/""/empty-collection are falsy.
int DefiniteTruth(const AbsValue& v) {
  if (v.Only(kTNull)) {
    return 0;
  }
  if (v.Only(kTBool | kTInt) && !v.num.IsTop()) {
    if (v.num.lo > 0 || v.num.hi < 0) {
      return 1;
    }
    if (v.num.lo == 0 && v.num.hi == 0) {
      return 0;
    }
  }
  if (v.Only(kTStr) && v.str_len == AffBound::Const(0)) {
    return 0;
  }
  if (v.Only(kTList | kTMap) && v.card == AffBound::Const(0)) {
    return 0;
  }
  return -1;
}

// One abstract value per variable id (ResolveNames).
class AbsEnv {
 public:
  explicit AbsEnv(size_t num_vars) : vals_(num_vars, AbsValue::Any()) {}

  AbsValue& operator[](int id) { return vals_[id]; }

  static AbsEnv Join(const AbsEnv& a, const AbsEnv& b) {
    AbsEnv out = a;
    for (size_t i = 0; i < out.vals_.size(); ++i) {
      out.vals_[i] = AbsValue::Join(a.vals_[i], b.vals_[i]);
    }
    return out;
  }

  // Widens every variable whose value changed across a loop-body pass to the
  // widening target. Returns true if the environment still differs from
  // `before` afterwards (i.e. another fixpoint iteration is needed).
  bool WidenAgainst(const AbsEnv& before, const AbsValue& widened) {
    bool changed = false;
    for (size_t i = 0; i < vals_.size(); ++i) {
      if (vals_[i] != before.vals_[i]) {
        vals_[i] = widened;
        changed = changed || widened != before.vals_[i];
      }
    }
    return changed;
  }

 private:
  std::vector<AbsValue> vals_;
};

struct ExprResult {
  AffBound cost;
  AbsValue val;
};

class CostAnalyzer {
 public:
  CostAnalyzer(const ResolvedNames& names, const VerifierConfig& config,
               std::vector<Diagnostic>* precision)
      : names_(names), env_(names.vars.size()), precision_(precision) {
    dom_.max_value_bytes = static_cast<int64_t>(config.budget.max_value_bytes);
    dom_.max_input_bytes = static_cast<int64_t>(config.budget.max_input_bytes);
    dom_.collection_cap = static_cast<int64_t>(config.budget.max_collection_items);
    dom_.collection_functions = &config.collection_functions;
  }

  CostResult Run(const Handler& handler) {
    handler_ = handler.name;
    for (int id : names_.param_ids) {
      env_[id] = SeedParam(dom_);
    }
    bounded_ = true;
    diags_on_ = precision_ != nullptr;
    AffBound total = BlockCost(handler.body);
    CostResult out;
    out.bounded = bounded_ && !total.IsInf();
    out.steps = out.bounded ? total.EvalAt(0) : 0;
    if (precision_ != nullptr) {
      SortDiagnostics(&diags_);
      precision_->insert(precision_->end(), diags_.begin(), diags_.end());
    }
    return out;
  }

 private:
  void Emit(const char* code, int line, int col, const std::string& message) {
    if (!diags_on_) {
      return;
    }
    std::string key = std::string(code) + "|" + std::to_string(line) + "|" +
                      std::to_string(col) + "|" + message;
    if (!emitted_.insert(key).second) {
      return;
    }
    Diagnostic d;
    d.code = code;
    d.severity = Severity::kWarning;
    d.line = line;
    d.col = col;
    d.handler = handler_;
    d.message = message;
    diags_.push_back(std::move(d));
  }

  // True iff executing the block always exits the handler via return.
  static bool AlwaysReturns(const Block& block) {
    for (const StmtPtr& stmt : block) {
      if (stmt->kind == Stmt::Kind::kReturn) {
        return true;
      }
      if (stmt->kind == Stmt::Kind::kIf && !stmt->else_body.empty() &&
          AlwaysReturns(stmt->body) && AlwaysReturns(stmt->else_body)) {
        return true;
      }
    }
    return false;
  }

  // Cost of block[i..]; splits guard-style statements — `if (c) { ...return }`
  // with no else — into max(then, rest) instead of then + rest: when the
  // then-branch runs it returns, so the rest of the block never executes.
  // two_phase's three trigger branches would otherwise be *summed*.
  AffBound BlockCost(const Block& block, size_t i = 0) {
    if (i >= block.size()) {
      return AffBound::Const(0);
    }
    const Stmt& stmt = *block[i];
    if (stmt.kind == Stmt::Kind::kIf && stmt.else_body.empty() &&
        AlwaysReturns(stmt.body)) {
      ExprResult cond = ExprCost(*stmt.expr);
      CheckDeadBranch(stmt, cond.val);
      AbsEnv base = env_;
      AffBound then_cost = BlockCost(stmt.body);
      env_ = base;  // the then-branch returned; the rest sees the guard-false env
      AffBound rest = BlockCost(block, i + 1);
      return AffBound::Add(AffBound::AddConst(cond.cost, 1),
                           AffBound::Max(then_cost, rest));
    }
    AffBound c = StmtCost(stmt);
    return AffBound::Add(c, BlockCost(block, i + 1));
  }

  void CheckDeadBranch(const Stmt& stmt, const AbsValue& cond) {
    int truth = DefiniteTruth(cond);
    if (truth == 0 && !stmt.body.empty()) {
      const Stmt& first = *stmt.body.front();
      Emit(kDiagDeadBranch, first.line, first.col,
           "condition at line " + std::to_string(stmt.line) +
               " is provably false; this branch is dead");
    }
    if (truth == 1 && !stmt.else_body.empty()) {
      const Stmt& first = *stmt.else_body.front();
      Emit(kDiagDeadBranch, first.line, first.col,
           "condition at line " + std::to_string(stmt.line) +
               " is provably true; the else branch is dead");
    }
  }

  AffBound StmtCost(const Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kLet:
      case Stmt::Kind::kAssign: {
        ExprResult r = ExprCost(*stmt.expr);
        env_[names_.def_ids.at(&stmt)] = r.val;
        return AffBound::AddConst(r.cost, 1);
      }
      case Stmt::Kind::kIf: {
        ExprResult cond = ExprCost(*stmt.expr);
        CheckDeadBranch(stmt, cond.val);
        AbsEnv base = env_;
        AffBound then_cost = BlockCost(stmt.body);
        AbsEnv then_env = env_;
        env_ = base;
        AffBound else_cost = BlockCost(stmt.else_body);
        env_ = AbsEnv::Join(then_env, env_);
        return AffBound::Add(AffBound::AddConst(cond.cost, 1),
                             AffBound::Max(then_cost, else_cost));
      }
      case Stmt::Kind::kForEach:
        return ForEachCost(stmt);
      case Stmt::Kind::kReturn: {
        if (!stmt.expr) {
          return AffBound::Const(1);
        }
        return AffBound::AddConst(ExprCost(*stmt.expr).cost, 1);
      }
      case Stmt::Kind::kExpr:
        return AffBound::AddConst(ExprCost(*stmt.expr).cost, 1);
    }
    return AffBound::Const(1);
  }

  // Runs the loop body to a fixpoint with widening under element value
  // `elem`, leaving env_ at the stable post-loop state. Returns the body
  // cost derived from the final (conservative) environment.
  AffBound LoopBodyFixpoint(const Stmt& stmt, const AbsValue& elem) {
    AffBound body_cost = AffBound::Const(0);
    AbsValue widened = AbsValue::Widened(dom_.max_value_bytes);
    for (int iter = 0; iter < 64; ++iter) {
      AbsEnv before = env_;
      env_[names_.def_ids.at(&stmt)] = elem;
      body_cost = BlockCost(stmt.body);
      if (!env_.WidenAgainst(before, widened)) {
        break;
      }
    }
    return body_cost;
  }

  AffBound ForEachCost(const Stmt& stmt) {
    ExprResult list = ExprCost(*stmt.expr);
    const AbsValue& lv = list.val;
    if (lv.card.IsInf()) {
      bounded_ = false;
    }

    // All candidate passes run diagnostics-off: intermediate fixpoint
    // iterations see not-yet-widened environments and would report
    // spuriously. A final pass over the stable environment re-enables them.
    bool outer_diags = diags_on_;
    diags_on_ = false;

    // Candidate A (concrete): N iterations, each costing the body bound under
    // the element's concrete length bound.
    AbsValue elem = ElementOf(lv, dom_, /*symbolic=*/false);
    AffBound body_a = LoopBodyFixpoint(stmt, elem);
    AffBound cost_a = AffBound::Mul(lv.card, body_a);

    // Candidate B (amortized): re-derive the body cost as an affine form
    // c + k*len(element) in the element length symbol and charge
    // Sum_i (c + k*len_i) <= N*c + k*total_len. Only one amortization symbol
    // can be live at a time — inner loops inside an active pass contribute
    // affine forms to candidate A of the *outer* loop instead.
    AffBound cost_b = AffBound::Inf();
    if (!sym_active_ && lv.card.IsConst() && !lv.total_len.IsInf()) {
      sym_active_ = true;
      AbsEnv stable = env_;
      AffBound body_b = LoopBodyFixpoint(stmt, ElementOf(lv, dom_, /*symbolic=*/true));
      env_ = stable;
      sym_active_ = false;
      if (!body_b.IsInf() && lv.total_len.IsConst()) {
        cost_b = AffBound::Const(AbsSatAdd(AbsSatMul(lv.card.c, body_b.c),
                                           AbsSatMul(body_b.k, lv.total_len.c)));
      }
    }

    // Final diagnostics pass over the stable environment (cost discarded).
    if (outer_diags) {
      diags_on_ = true;
      AbsEnv stable = env_;
      env_[names_.def_ids.at(&stmt)] = elem;
      (void)BlockCost(stmt.body);
      env_ = stable;
    }
    diags_on_ = outer_diags;

    AffBound iterations_cost =
        AffBound::PickMin(cost_a, cost_b, dom_.max_input_bytes);
    return AffBound::Add(AffBound::AddConst(list.cost, 1), iterations_cost);
  }

  ExprResult ExprCost(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kLiteral:
        return {AffBound::Const(1), AbsValue::OfLiteral(expr.literal)};
      case Expr::Kind::kVar:
        return {AffBound::Const(1), env_[names_.use_ids.at(&expr)]};
      case Expr::Kind::kUnary: {
        ExprResult r = ExprCost(*expr.lhs);
        AffBound cost = AffBound::AddConst(r.cost, 1);
        if (expr.unary_op == UnaryOp::kNot) {
          int truth = DefiniteTruth(r.val);
          if (truth >= 0) {
            return {cost, AbsValue::BoolExact(truth == 0)};
          }
          return {cost, AbsValue::Bool()};
        }
        if (r.val.Only(kTInt)) {
          return {cost, AbsValue::Int(Interval::Neg(r.val.num))};
        }
        return {cost, AbsValue::Int(Interval::Top())};
      }
      case Expr::Kind::kBinary:
        return BinaryCost(expr);
      case Expr::Kind::kIndex: {
        ExprResult base = ExprCost(*expr.lhs);
        ExprResult idx = ExprCost(*expr.rhs);
        AffBound cost = AffBound::AddConst(AffBound::Add(base.cost, idx.cost), 1);
        CheckIndexRange(base.val, idx.val, expr.line, expr.col);
        return {cost, IndexValue(base.val, idx.val)};
      }
      case Expr::Kind::kListLit: {
        AffBound cost = AffBound::Const(1);
        AbsValue v = AbsValue::OfType(kTList);
        v.card = AffBound::Const(static_cast<int64_t>(expr.args.size()));
        AffBound elem_len = AffBound::Const(0);
        AffBound total = AffBound::Const(0);
        for (const ExprPtr& item : expr.args) {
          ExprResult r = ExprCost(*item);
          cost = AffBound::Add(cost, r.cost);
          AffBound il = ItemStrBound(r.val);
          elem_len = AffBound::Max(elem_len, il);
          total = AffBound::Add(total, il);
        }
        v.elem_len = elem_len;
        v.total_len = total;
        return {cost, ClampResult(v, dom_)};
      }
      case Expr::Kind::kCall: {
        AffBound cost = AffBound::Const(1);
        std::vector<AbsValue> arg_vals;
        arg_vals.reserve(expr.args.size());
        for (const ExprPtr& arg : expr.args) {
          ExprResult r = ExprCost(*arg);
          cost = AffBound::Add(cost, r.cost);
          arg_vals.push_back(std::move(r.val));
        }
        AbsValue out;
        if (BuiltinIndexOf(expr.name) >= 0) {
          if (expr.name == "get" && arg_vals.size() == 2) {
            CheckIndexRange(arg_vals[0], arg_vals[1], expr.line, expr.col);
          }
          out = TransferBuiltin(expr.name, arg_vals, dom_);
        } else {
          out = TransferHost(expr.name, dom_);
        }
        return {cost, out};
      }
    }
    return {AffBound::Const(1), AbsValue::Any()};
  }

  // Upper bound on any string reachable in a value used as a list item.
  static AffBound ItemStrBound(const AbsValue& v) {
    AffBound out = AffBound::Const(0);
    if (v.May(kTStr)) {
      out = AffBound::Max(out, v.str_len);
    }
    if (v.May(kTList) || v.May(kTMap)) {
      out = AffBound::Max(out, v.elem_len);
    }
    return out;
  }

  AbsValue IndexValue(const AbsValue& base, const AbsValue& idx) {
    AbsValue out;
    bool first = true;
    auto accumulate = [&](const AbsValue& v) {
      out = first ? v : AbsValue::Join(out, v);
      first = false;
    };
    if (base.May(kTList)) {
      accumulate(ElementOf(base, dom_, /*symbolic=*/false));
    }
    if (base.May(kTMap)) {
      AbsValue v = ElementOf(base, dom_, /*symbolic=*/false);
      v.types |= kTNull;  // missing key yields null
      accumulate(v);
    }
    if (base.May(kTStr)) {
      accumulate(AbsValue::Str(AffBound::Const(1)));
    }
    (void)idx;
    return first ? AbsValue::Any() : out;
  }

  // EDC-W008: a list access whose index interval provably misses the list.
  void CheckIndexRange(const AbsValue& base, const AbsValue& idx, int line, int col) {
    if (!base.Only(kTList) || !idx.Only(kTInt) || idx.num.IsTop()) {
      return;
    }
    if (idx.num.hi < 0) {
      Emit(kDiagIndexOutOfRange, line, col,
           "index is provably negative (at most " + std::to_string(idx.num.hi) +
               ")");
      return;
    }
    if (base.card.IsConst() && idx.num.lo >= base.card.c) {
      Emit(kDiagIndexOutOfRange, line, col,
           "index is provably out of range (at least " +
               std::to_string(idx.num.lo) + ", list has at most " +
               std::to_string(base.card.c) + " item(s))");
    }
  }

  ExprResult BinaryCost(const Expr& expr) {
    ExprResult l = ExprCost(*expr.lhs);
    ExprResult r = ExprCost(*expr.rhs);
    AffBound cost = AffBound::AddConst(AffBound::Add(l.cost, r.cost), 1);
    const AbsValue& a = l.val;
    const AbsValue& b = r.val;

    switch (expr.binary_op) {
      case BinaryOp::kAnd:
      case BinaryOp::kOr:
        // Short-circuiting only ever evaluates fewer nodes than charged.
        return {cost, AbsValue::Bool()};
      case BinaryOp::kAdd: {
        bool may_int = a.May(kTInt) && b.May(kTInt);
        bool may_str = a.May(kTStr) || b.May(kTStr);
        AbsValue out;
        out.types = (may_int ? kTInt : 0u) | (may_str ? kTStr : 0u);
        if (out.types == 0) {
          out.types = kTInt | kTStr;  // error-only path; stay conservative
        }
        out.num = Interval::Add(a.num, b.num);
        out.str_len = AffBound::MinConst(
            AffBound::Add(StrishLen(a, dom_), StrishLen(b, dom_)),
            dom_.max_value_bytes);
        out.card = AffBound::Inf();
        out.elem_len = AffBound::Inf();
        out.total_len = AffBound::Inf();
        if (out.types == kTInt) {
          return {cost, AbsValue::Int(out.num)};
        }
        if (out.types == kTStr) {
          return {cost, AbsValue::Str(out.str_len)};
        }
        return {cost, out};
      }
      case BinaryOp::kSub:
        return {cost, AbsValue::Int(Interval::Sub(a.num, b.num))};
      case BinaryOp::kMul:
        return {cost, AbsValue::Int(Interval::Mul(a.num, b.num))};
      case BinaryOp::kDiv:
      case BinaryOp::kMod: {
        // EDC-W007: the divisor's interval is known and admits zero. A top
        // interval stays quiet — parse_int()/host results would otherwise
        // flag every division.
        if (b.May(kTInt) && !b.num.IsTop() && b.num.Contains(0)) {
          Emit(kDiagDivByZero, expr.line, expr.col,
               std::string(expr.binary_op == BinaryOp::kDiv ? "division" : "modulo") +
                   " by zero: divisor is in [" + std::to_string(b.num.lo) + ", " +
                   std::to_string(b.num.hi) + "]");
        }
        Interval iv = expr.binary_op == BinaryOp::kDiv ? Interval::Div(a.num, b.num)
                                                       : Interval::Mod(a.num, b.num);
        return {cost, AbsValue::Int(iv)};
      }
      case BinaryOp::kEq:
      case BinaryOp::kNe: {
        if (a.Only(kTInt) && b.Only(kTInt) && !a.num.IsTop() && !b.num.IsTop()) {
          bool eq = expr.binary_op == BinaryOp::kEq;
          if (a.num.IsExact() && b.num.IsExact() && a.num.lo == b.num.lo) {
            return {cost, AbsValue::BoolExact(eq)};
          }
          if (a.num.hi < b.num.lo || b.num.hi < a.num.lo) {
            return {cost, AbsValue::BoolExact(!eq)};
          }
        }
        return {cost, AbsValue::Bool()};
      }
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        if (a.Only(kTInt) && b.Only(kTInt) && !a.num.IsTop() && !b.num.IsTop()) {
          bool definitely = false;
          bool never = false;
          switch (expr.binary_op) {
            case BinaryOp::kLt:
              definitely = a.num.hi < b.num.lo;
              never = a.num.lo >= b.num.hi;
              break;
            case BinaryOp::kLe:
              definitely = a.num.hi <= b.num.lo;
              never = a.num.lo > b.num.hi;
              break;
            case BinaryOp::kGt:
              definitely = a.num.lo > b.num.hi;
              never = a.num.hi <= b.num.lo;
              break;
            default:  // kGe
              definitely = a.num.lo >= b.num.hi;
              never = a.num.hi < b.num.lo;
              break;
          }
          if (definitely) {
            return {cost, AbsValue::BoolExact(true)};
          }
          if (never) {
            return {cost, AbsValue::BoolExact(false)};
          }
        }
        return {cost, AbsValue::Bool()};
      }
    }
    return {cost, AbsValue::Any()};
  }

  const ResolvedNames& names_;
  DomainContext dom_;
  AbsEnv env_;
  bool bounded_ = true;
  bool sym_active_ = false;
  bool diags_on_ = true;
  std::string handler_;
  std::vector<Diagnostic>* precision_;
  std::vector<Diagnostic> diags_;
  std::set<std::string> emitted_;
};

}  // namespace

CostResult BoundHandlerCost(const Handler& handler, const ResolvedNames& names,
                            const VerifierConfig& config,
                            std::vector<Diagnostic>* precision) {
  CostAnalyzer analyzer(names, config, precision);
  return analyzer.Run(handler);
}

}  // namespace edc
