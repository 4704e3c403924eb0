#include "edc/script/analysis/names.h"

#include <map>
#include <string>
#include <vector>

namespace edc {

namespace {

class Resolver {
 public:
  explicit Resolver(ResolvedNames* out) : out_(out) {}

  void Run(const Handler& handler) {
    scopes_.emplace_back();
    for (const std::string& param : handler.params) {
      int id = NewVar(param, /*is_param=*/true, /*is_loop=*/false,
                      handler.line, handler.col);
      scopes_.back()[param] = id;
      out_->param_ids.push_back(id);
    }
    WalkBlock(handler.body, handler.name);
    scopes_.pop_back();
  }

 private:
  void WalkBlock(const Block& block, const std::string& handler_name) {
    scopes_.emplace_back();
    for (const StmtPtr& stmt : block) {
      WalkStmt(*stmt, handler_name);
    }
    scopes_.pop_back();
  }

  void WalkStmt(const Stmt& stmt, const std::string& handler_name) {
    switch (stmt.kind) {
      case Stmt::Kind::kLet: {
        WalkExpr(*stmt.expr, handler_name);
        int id = NewVar(stmt.name, false, false, stmt.line, stmt.col);
        scopes_.back()[stmt.name] = id;
        out_->def_ids[&stmt] = id;
        return;
      }
      case Stmt::Kind::kAssign: {
        WalkExpr(*stmt.expr, handler_name);
        int id = Lookup(stmt.name);
        if (id < 0) {
          out_->diags.push_back(Diagnostic{
              kDiagAssignUndeclared, Severity::kError, stmt.line, stmt.col,
              handler_name,
              "assignment to undeclared variable '" + stmt.name + "' in handler '" +
                  handler_name + "'"});
          id = NewVar(stmt.name, false, false, stmt.line, stmt.col);
          scopes_.back()[stmt.name] = id;
        }
        out_->def_ids[&stmt] = id;
        return;
      }
      case Stmt::Kind::kIf: {
        WalkExpr(*stmt.expr, handler_name);
        WalkBlock(stmt.body, handler_name);
        WalkBlock(stmt.else_body, handler_name);
        return;
      }
      case Stmt::Kind::kForEach: {
        WalkExpr(*stmt.expr, handler_name);
        scopes_.emplace_back();
        int id = NewVar(stmt.name, false, /*is_loop=*/true, stmt.line, stmt.col);
        scopes_.back()[stmt.name] = id;
        out_->def_ids[&stmt] = id;
        WalkBlock(stmt.body, handler_name);
        scopes_.pop_back();
        return;
      }
      case Stmt::Kind::kReturn:
        if (stmt.expr) {
          WalkExpr(*stmt.expr, handler_name);
        }
        return;
      case Stmt::Kind::kExpr:
        WalkExpr(*stmt.expr, handler_name);
        return;
    }
  }

  void WalkExpr(const Expr& expr, const std::string& handler_name) {
    switch (expr.kind) {
      case Expr::Kind::kLiteral:
        return;
      case Expr::Kind::kVar: {
        int id = Lookup(expr.name);
        if (id < 0) {
          out_->diags.push_back(Diagnostic{
              kDiagUseUndeclared, Severity::kError, expr.line, expr.col,
              handler_name,
              "use of undeclared variable '" + expr.name + "' in handler '" +
                  handler_name + "'"});
          id = NewVar(expr.name, false, false, expr.line, expr.col);
          scopes_.back()[expr.name] = id;
        }
        out_->use_ids[&expr] = id;
        return;
      }
      case Expr::Kind::kUnary:
        WalkExpr(*expr.lhs, handler_name);
        return;
      case Expr::Kind::kBinary:
      case Expr::Kind::kIndex:
        WalkExpr(*expr.lhs, handler_name);
        WalkExpr(*expr.rhs, handler_name);
        return;
      case Expr::Kind::kCall:
      case Expr::Kind::kListLit:
        for (const ExprPtr& arg : expr.args) {
          WalkExpr(*arg, handler_name);
        }
        return;
    }
  }

  int NewVar(const std::string& name, bool is_param, bool is_loop, int line, int col) {
    out_->vars.push_back(VarInfo{name, is_param, is_loop, line, col});
    return static_cast<int>(out_->vars.size()) - 1;
  }

  int Lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) {
        return found->second;
      }
    }
    return -1;
  }

  ResolvedNames* out_;
  std::vector<std::map<std::string, int>> scopes_;
};

}  // namespace

ResolvedNames ResolveNames(const Handler& handler) {
  ResolvedNames out;
  Resolver resolver(&out);
  resolver.Run(handler);
  return out;
}

}  // namespace edc
