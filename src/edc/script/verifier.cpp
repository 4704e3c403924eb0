#include "edc/script/verifier.h"

#include <algorithm>
#include <utility>

#include "edc/common/strings.h"
#include "edc/script/analysis/cost.h"
#include "edc/script/analysis/determinism.h"
#include "edc/script/analysis/names.h"
#include "edc/script/builtins.h"

namespace edc {

namespace {

constexpr EntryPoint kEntryPoints[] = {
    {false, "read", "read"},
    {false, "create", "create"},
    {false, "update", "update"},
    {false, "delete", "delete"},
    {false, "cas", "cas"},
    {false, "block", "block"},
    {false, nullptr, "handle_op"},
    {true, "created", "on_created"},
    {true, "deleted", "on_deleted"},
    {true, "changed", "on_changed"},
    {true, "unblocked", "on_unblocked"},
    {true, nullptr, "handle_event"},
};

// The entry point for `kind`, else the catch-all.
const EntryPoint& EntryForKind(bool is_event, const std::string& kind) {
  const EntryPoint* catch_all = nullptr;
  for (const EntryPoint& e : kEntryPoints) {
    if (e.is_event != is_event) {
      continue;
    }
    if (e.kind == nullptr) {
      catch_all = &e;
    } else if (kind == e.kind) {
      return e;
    }
  }
  return *catch_all;
}

bool IsEntryPoint(bool is_event, const std::string& name) {
  return std::any_of(std::begin(kEntryPoints), std::end(kEntryPoints),
                     [&](const EntryPoint& e) {
                       return e.is_event == is_event && name == e.handler;
                     });
}

void Add(std::vector<Diagnostic>* diags, const char* code, int line, int col,
         const std::string& handler, std::string message) {
  diags->push_back(
      Diagnostic{code, Severity::kError, line, col, handler, std::move(message)});
}

// Structural walk: statement budget (shared across handlers), nesting depth,
// and the callable white list. Reports real source positions (a nesting
// violation on an empty block points at the enclosing statement, not line
// 0) and accumulates instead of stopping.
class StructureChecker {
 public:
  StructureChecker(const VerifierConfig& config, size_t* statement_count,
                   std::vector<Diagnostic>* diags)
      : config_(config), statement_count_(statement_count), diags_(diags) {}

  void CheckHandler(const Handler& handler) {
    handler_ = handler.name;
    CheckBlock(handler.body, 1, handler.line, handler.col);
  }

 private:
  void CheckBlock(const Block& block, size_t depth, int at_line, int at_col) {
    if (depth > config_.max_nesting_depth) {
      int line = block.empty() ? at_line : block.front()->line;
      int col = block.empty() ? at_col : block.front()->col;
      Add(diags_, kDiagNestingTooDeep, line, col, handler_,
          "nesting too deep (max " + std::to_string(config_.max_nesting_depth) +
              ") in handler '" + handler_ + "'");
      return;  // no point walking deeper
    }
    for (const StmtPtr& stmt : block) {
      CheckStmt(*stmt, depth);
    }
  }

  void CheckStmt(const Stmt& stmt, size_t depth) {
    ++*statement_count_;
    if (*statement_count_ == config_.max_statements + 1) {
      Add(diags_, kDiagTooManyStatements, stmt.line, stmt.col, handler_,
          "too many statements (max " + std::to_string(config_.max_statements) +
              ") in handler '" + handler_ + "'");
    }
    switch (stmt.kind) {
      case Stmt::Kind::kLet:
      case Stmt::Kind::kAssign:
      case Stmt::Kind::kExpr:
        CheckExpr(*stmt.expr);
        return;
      case Stmt::Kind::kReturn:
        if (stmt.expr) {
          CheckExpr(*stmt.expr);
        }
        return;
      case Stmt::Kind::kIf:
        CheckExpr(*stmt.expr);
        CheckBlock(stmt.body, depth + 1, stmt.line, stmt.col);
        CheckBlock(stmt.else_body, depth + 1, stmt.line, stmt.col);
        return;
      case Stmt::Kind::kForEach:
        CheckExpr(*stmt.expr);
        CheckBlock(stmt.body, depth + 1, stmt.line, stmt.col);
        return;
    }
  }

  void CheckExpr(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kLiteral:
      case Expr::Kind::kVar:
        return;
      case Expr::Kind::kUnary:
        CheckExpr(*expr.lhs);
        return;
      case Expr::Kind::kBinary:
      case Expr::Kind::kIndex:
        CheckExpr(*expr.lhs);
        CheckExpr(*expr.rhs);
        return;
      case Expr::Kind::kCall: {
        if (config_.allowed_functions.count(expr.name) == 0) {
          Add(diags_, kDiagNotWhitelisted, expr.line, expr.col, handler_,
              "call to function '" + expr.name + "' outside the white list in handler '" +
                  handler_ + "'");
        }
        for (const ExprPtr& arg : expr.args) {
          CheckExpr(*arg);
        }
        return;
      }
      case Expr::Kind::kListLit:
        for (const ExprPtr& item : expr.args) {
          CheckExpr(*item);
        }
        return;
    }
  }

  const VerifierConfig& config_;
  size_t* statement_count_;
  std::vector<Diagnostic>* diags_;
  std::string handler_;
};

int LastHandlerLine(const Program& program) {
  int line = 1;
  for (const auto& [name, handler] : program.handlers) {
    line = std::max(line, handler.line);
  }
  return line;
}

}  // namespace

bool IsKnownOpHandler(const std::string& name) { return IsEntryPoint(false, name); }
bool IsKnownEventHandler(const std::string& name) { return IsEntryPoint(true, name); }
bool IsKnownOpKind(const std::string& kind) {
  return kind == "any" || EntryForKind(false, kind).kind != nullptr;
}
bool IsKnownEventKind(const std::string& kind) { return EntryForKind(true, kind).kind != nullptr; }

const EntryPoint& EntryPointFor(const Program& program, bool is_event,
                                const std::string& kind) {
  const EntryPoint& entry = EntryForKind(is_event, kind);
  return program.handlers.count(entry.handler) > 0 ? entry : EntryForKind(is_event, "");
}

std::map<std::string, bool> CoreAllowedFunctions() {
  std::map<std::string, bool> allowed;
  for (const auto& [name, info] : CoreBuiltins()) {
    allowed[name] = info.deterministic;
  }
  return allowed;
}

Status Rejection(const Diagnostic& error) {
  return Status(ErrorCode::kExtensionRejected,
                "verification failed at line " + std::to_string(error.line) + ": " +
                    error.message + " [" + error.code + "]");
}

Admission VerifyProgram(const Program& program, const VerifierConfig& config) {
  Admission out;
  std::vector<Diagnostic>& diags = out.errors;

  // ---- Program-level structure ----
  if (program.source_bytes > config.max_source_bytes) {
    Add(&diags, kDiagSourceTooLarge, 1, 1, "",
        "source exceeds " + std::to_string(config.max_source_bytes) + " bytes");
  }
  if (program.handlers.size() > config.max_handlers) {
    Add(&diags, kDiagTooManyHandlers, LastHandlerLine(program), 1, "",
        "too many handlers (max " + std::to_string(config.max_handlers) + ")");
  }
  if (program.subscriptions.size() > config.max_subscriptions) {
    const Subscription& last = program.subscriptions.back();
    Add(&diags, kDiagTooManySubscriptions, last.line, last.col, "",
        "too many subscriptions (max " + std::to_string(config.max_subscriptions) + ")");
  }
  if (program.subscriptions.empty()) {
    Add(&diags, kDiagNoSubscriptions, 1, 1, "", "extension declares no subscriptions");
  }
  for (const Subscription& sub : program.subscriptions) {
    if (sub.is_event ? !IsKnownEventKind(sub.kind) : !IsKnownOpKind(sub.kind)) {
      Add(&diags, kDiagUnknownKind, sub.line, sub.col, "",
          "unknown " + std::string(sub.is_event ? "event" : "op") + " kind '" +
              sub.kind + "'");
    }
    const std::string& p = sub.pattern;
    if (p != "/" && !ValidatePath(p).ok()) {
      Add(&diags, kDiagBadPattern, sub.line, sub.col, "",
          "invalid subscription pattern '" + p + "'");
    }
  }

  // ---- Per-handler passes ----
  size_t statements = 0;
  bool has_op_handler = false;
  bool has_event_handler = false;
  for (const auto& [name, handler] : program.handlers) {
    has_op_handler = has_op_handler || IsKnownOpHandler(name);
    has_event_handler = has_event_handler || IsKnownEventHandler(name);
    if (!IsKnownOpHandler(name) && !IsKnownEventHandler(name)) {
      Add(&diags, kDiagUnknownEntryPoint, handler.line, handler.col, name,
          "unknown handler entry point '" + name + "'");
    }

    StructureChecker structure(config, &statements, &diags);
    structure.CheckHandler(handler);

    ResolvedNames names = ResolveNames(handler);
    diags.insert(diags.end(), names.diags.begin(), names.diags.end());

    HandlerReport hr;
    CostResult cost = BoundHandlerCost(handler, names, config);
    hr.cost_bounded = cost.bounded;
    hr.step_bound = cost.steps;
    hr.certified = cost.bounded && cost.steps <= config.budget.max_steps;

    DeterminismResult det = CheckDeterminism(handler, names, config);
    hr.deterministic = det.deterministic;
    diags.insert(diags.end(), det.diags.begin(), det.diags.end());

    out.handlers.emplace(name, hr);
  }

  // ---- Subscriptions need a handler able to serve them ----
  for (const Subscription& sub : program.subscriptions) {
    if (sub.is_event && !has_event_handler) {
      Add(&diags, kDiagSubWithoutHandler, sub.line, sub.col, "",
          "event subscription ('" + sub.kind + "' on '" + sub.pattern +
              "') without an event handler");
    }
    if (!sub.is_event && !has_op_handler) {
      Add(&diags, kDiagSubWithoutHandler, sub.line, sub.col, "",
          "op subscription ('" + sub.kind + "' on '" + sub.pattern +
              "') without an op handler");
    }
  }

  SortDiagnostics(&diags);
  out.status = diags.empty() ? Status::Ok() : Rejection(diags.front());
  return out;
}

}  // namespace edc
