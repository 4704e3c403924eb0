#include "edc/script/analysis/determinism.h"

#include <string>
#include <utility>
#include <vector>

#include "edc/script/builtins.h"
#include "edc/script/host_api.h"

namespace edc {

namespace {

class TaintAnalyzer {
 public:
  TaintAnalyzer(const ResolvedNames& names, const VerifierConfig& config,
                const std::string& handler_name)
      : names_(names), config_(config), handler_(handler_name) {}

  DeterminismResult Run(const Handler& handler) {
    // One taint bit per variable id (true = possibly nondeterministic).
    // Handler arguments are part of the replicated request: deterministic.
    env_.assign(names_.vars.size(), false);
    WalkBlock(handler.body, /*control_tainted=*/false);
    DeterminismResult out;
    out.deterministic = diags_.empty() && !tainted_sink_;
    out.diags = std::move(diags_);
    return out;
  }

 private:
  void WalkBlock(const Block& block, bool control_tainted) {
    for (const StmtPtr& stmt : block) {
      WalkStmt(*stmt, control_tainted);
    }
  }

  // Joins `other` into env_ (taint is a may-property: OR).
  void JoinFrom(const std::vector<bool>& other) {
    for (size_t i = 0; i < env_.size(); ++i) {
      env_[i] = env_[i] || other[i];
    }
  }

  void WalkStmt(const Stmt& stmt, bool control_tainted) {
    switch (stmt.kind) {
      case Stmt::Kind::kLet:
      case Stmt::Kind::kAssign: {
        bool t = ExprTaint(*stmt.expr, control_tainted);
        env_[names_.def_ids.at(&stmt)] = t || control_tainted;
        return;
      }
      case Stmt::Kind::kIf: {
        bool cond = ExprTaint(*stmt.expr, control_tainted);
        bool inner_control = control_tainted || cond;
        std::vector<bool> base = env_;
        WalkBlock(stmt.body, inner_control);
        std::vector<bool> then_env = env_;
        env_ = base;
        WalkBlock(stmt.else_body, inner_control);
        JoinFrom(then_env);
        return;
      }
      case Stmt::Kind::kForEach: {
        bool list_taint = ExprTaint(*stmt.expr, control_tainted);
        bool inner_control = control_tainted || list_taint;
        // Fixpoint: taint can flow between iterations through assignments to
        // outer variables. Iterate silently until the environment stabilizes
        // (the lattice is finite and monotone), then do one reporting pass.
        suppress_ += 1;
        for (int iter = 0; iter < 64; ++iter) {
          std::vector<bool> before = env_;
          WalkLoopBody(stmt, inner_control, list_taint);
          JoinFrom(before);
          if (env_ == before) {
            break;
          }
        }
        suppress_ -= 1;
        WalkLoopBody(stmt, inner_control, list_taint);
        return;
      }
      case Stmt::Kind::kReturn: {
        bool t = stmt.expr ? ExprTaint(*stmt.expr, control_tainted) : false;
        if (t || control_tainted) {
          Sink(stmt.line, stmt.col,
               "nondeterministic value reaches the handler's return value");
        }
        return;
      }
      case Stmt::Kind::kExpr:
        // Result discarded: only sinks inside the expression matter, which
        // ExprTaint reports itself. This is the flow-sensitivity win over the
        // legacy call-site check.
        (void)ExprTaint(*stmt.expr, control_tainted);
        return;
    }
  }

  void WalkLoopBody(const Stmt& stmt, bool inner_control, bool list_taint) {
    env_[names_.def_ids.at(&stmt)] = list_taint || inner_control;
    WalkBlock(stmt.body, inner_control);
  }

  bool ExprTaint(const Expr& expr, bool control_tainted) {
    switch (expr.kind) {
      case Expr::Kind::kLiteral:
        return false;
      case Expr::Kind::kVar:
        return env_[names_.use_ids.at(&expr)];
      case Expr::Kind::kUnary:
        return ExprTaint(*expr.lhs, control_tainted);
      case Expr::Kind::kBinary:
      case Expr::Kind::kIndex: {
        bool l = ExprTaint(*expr.lhs, control_tainted);
        bool r = ExprTaint(*expr.rhs, control_tainted);
        return l || r;
      }
      case Expr::Kind::kListLit: {
        bool t = false;
        for (const ExprPtr& item : expr.args) {
          t = ExprTaint(*item, control_tainted) || t;
        }
        return t;
      }
      case Expr::Kind::kCall: {
        bool arg_taint = false;
        for (const ExprPtr& arg : expr.args) {
          arg_taint = ExprTaint(*arg, control_tainted) || arg_taint;
        }
        auto it = config_.allowed_functions.find(expr.name);
        bool source = it != config_.allowed_functions.end() && !it->second;
        if (IsMutatingHostFn(expr.name) && (arg_taint || control_tainted)) {
          Sink(expr.line, expr.col,
               arg_taint
                   ? "nondeterministic value flows into state-mutating function '" +
                         expr.name + "'"
                   : "state-mutating function '" + expr.name +
                         "' called under a nondeterministic condition");
        }
        return source || arg_taint;
      }
    }
    return false;
  }

  // The host table's taint sinks. A whitelisted function it does not list
  // (a test's own host) is assumed to mutate replicated state.
  bool IsMutatingHostFn(const std::string& name) const {
    if (config_.allowed_functions.count(name) == 0) {
      return false;  // not whitelisted: rejected elsewhere (EDC-E012)
    }
    if (CoreBuiltins().count(name) > 0) {
      return false;  // pure builtins have no state effects
    }
    const HostSpec* spec = FindHostFn(name);
    return spec == nullptr || (spec->flags & kTaintSink) != 0;
  }

  void Sink(int line, int col, const std::string& what) {
    tainted_sink_ = true;
    if (!config_.require_deterministic || suppress_ > 0) {
      return;
    }
    // Dedupe: the reporting pass after a loop fixpoint can re-visit a site.
    for (const Diagnostic& d : diags_) {
      if (d.line == line && d.col == col) {
        return;
      }
    }
    diags_.push_back(Diagnostic{
        kDiagNondeterminism, Severity::kError, line, col, handler_,
        what + " in handler '" + handler_ + "' (forbidden under active replication)"});
  }

  const ResolvedNames& names_;
  const VerifierConfig& config_;
  std::string handler_;
  std::vector<bool> env_;
  std::vector<Diagnostic> diags_;
  bool tainted_sink_ = false;
  int suppress_ = 0;
};

}  // namespace

DeterminismResult CheckDeterminism(const Handler& handler, const ResolvedNames& names,
                                   const VerifierConfig& config) {
  TaintAnalyzer analyzer(names, config, handler.name);
  return analyzer.Run(handler);
}

}  // namespace edc
