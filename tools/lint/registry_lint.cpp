#include "tools/lint/registry_lint.h"

#include <algorithm>
#include <map>
#include <utility>

#include "edc/common/strings.h"
#include "edc/script/host_api.h"

namespace edc {

namespace {

bool IsStringPrefixOf(const std::string& prefix, const std::string& s) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

// Every op kind `narrow` triggers on is covered by `wide` ("any" is the op
// wildcard; event kinds have no wildcard).
bool KindCovers(const Subscription& wide, const Subscription& narrow) {
  if (wide.kind == narrow.kind) {
    return true;
  }
  return !wide.is_event && !narrow.is_event && wide.kind == "any";
}

std::string Describe(const Subscription& sub) {
  std::string pattern = sub.pattern;
  if (sub.prefix) {
    pattern += sub.subtree ? "/*" : "*";
  }
  return "'" + sub.kind + "' on '" + pattern + "'";
}

void Add(std::vector<Diagnostic>* diags, const char* code, int line, int col,
         const std::string& extension, std::string message) {
  Diagnostic d;
  d.code = code;
  d.severity = Severity::kWarning;
  d.line = line;
  d.col = col;
  d.handler = extension;
  d.message = std::move(message);
  diags->push_back(std::move(d));
}

// ---- EDC-W012: conflicting-type literal writes ----

struct LiteralWrite {
  std::string extension;
  std::string handler;
  Value::Type type = Value::Type::kNull;
  int line = 0;
  int col = 0;
};

const Expr* LiteralArg(const Expr& call, size_t i) {
  if (i >= call.args.size() || call.args[i]->kind != Expr::Kind::kLiteral) {
    return nullptr;
  }
  return call.args[i].get();
}

void CollectWrites(const Expr& expr, const RegistryLintUnit& unit,
                   const std::string& handler,
                   std::map<std::string, std::vector<LiteralWrite>>* writes) {
  if (expr.kind == Expr::Kind::kCall) {
    // The value written is the last argument (cas's second is only compared).
    const HostSpec* spec = FindHostFn(expr.name);
    const bool typed = spec != nullptr && (spec->flags & kTypedWrite) != 0;
    const Expr* path = typed ? LiteralArg(expr, spec->path_arg) : nullptr;
    const Expr* value = typed ? LiteralArg(expr, spec->arity - 1) : nullptr;
    if (path != nullptr && value != nullptr && path->literal.is_str()) {
      LiteralWrite w;
      w.extension = unit.extension;
      w.handler = handler;
      w.type = value->literal.type();
      w.line = expr.line;
      w.col = expr.col;
      (*writes)[path->literal.AsStr()].push_back(std::move(w));
    }
  }
  if (expr.lhs) {
    CollectWrites(*expr.lhs, unit, handler, writes);
  }
  if (expr.rhs) {
    CollectWrites(*expr.rhs, unit, handler, writes);
  }
  for (const ExprPtr& arg : expr.args) {
    CollectWrites(*arg, unit, handler, writes);
  }
}

void CollectWrites(const Block& block, const RegistryLintUnit& unit,
                   const std::string& handler,
                   std::map<std::string, std::vector<LiteralWrite>>* writes) {
  for (const StmtPtr& stmt : block) {
    if (stmt->expr) {
      CollectWrites(*stmt->expr, unit, handler, writes);
    }
    CollectWrites(stmt->body, unit, handler, writes);
    CollectWrites(stmt->else_body, unit, handler, writes);
  }
}

}  // namespace

bool SubscriptionCovers(const Subscription& wide, const Subscription& narrow) {
  if (wide.is_event != narrow.is_event || !KindCovers(wide, narrow)) {
    return false;
  }
  if (!wide.prefix) {
    // Exact patterns cover exactly themselves.
    return !narrow.prefix && wide.pattern == narrow.pattern;
  }
  if (!wide.subtree) {
    // "/x*": plain string prefix. Covers any narrower pattern whose every
    // match starts with the prefix — exact, prefix, and subtree alike reduce
    // to a string-prefix test on the narrow pattern.
    return IsStringPrefixOf(wide.pattern, narrow.pattern);
  }
  // "/x/*": path subtree. Matches narrow.pattern's subtree only when the
  // narrow root sits inside (or at) the wide root *as a path*.
  if (!narrow.prefix || narrow.subtree) {
    return PathIsUnder(narrow.pattern, wide.pattern);
  }
  // narrow is a plain string prefix ("/y*"): it also matches siblings such
  // as /y1, which live outside the subtree unless the narrow pattern is
  // already strictly below the wide root (then any "/y..." completion is).
  if (wide.pattern == "/") {
    return true;
  }
  return narrow.pattern.size() > wide.pattern.size() &&
         IsStringPrefixOf(wide.pattern, narrow.pattern) &&
         narrow.pattern[wide.pattern.size()] == '/';
}

std::vector<Diagnostic> LintRegistry(const std::vector<RegistryLintUnit>& units) {
  std::vector<Diagnostic> diags;

  // ---- EDC-W011: within-extension redundancy ----
  for (const RegistryLintUnit& unit : units) {
    const auto& subs = unit.program->subscriptions;
    for (size_t j = 0; j < subs.size(); ++j) {
      for (size_t i = 0; i < j; ++i) {
        if (SubscriptionCovers(subs[i], subs[j])) {
          Add(&diags, kDiagUnmatchableSubscription, subs[j].line, subs[j].col,
              unit.extension,
              "subscription " + Describe(subs[j]) +
                  " is redundant: already covered by the subscription at line " +
                  std::to_string(subs[i].line));
          break;
        }
      }
    }
  }

  // ---- EDC-W010: cross-extension op shadowing (last registration wins) ----
  for (const RegistryLintUnit& unit : units) {
    for (const Subscription& sub : unit.program->subscriptions) {
      if (sub.is_event) {
        continue;  // every matching extension sees events; no shadowing
      }
      for (const RegistryLintUnit& other : units) {
        if (other.reg_order <= unit.reg_order) {
          continue;
        }
        const Subscription* winner = nullptr;
        for (const Subscription& cand : other.program->subscriptions) {
          if (SubscriptionCovers(cand, sub)) {
            winner = &cand;
            break;
          }
        }
        if (winner != nullptr) {
          Add(&diags, kDiagShadowedSubscription, sub.line, sub.col, unit.extension,
              "op subscription " + Describe(sub) +
                  " is shadowed by later-registered extension '" + other.extension +
                  "' (" + Describe(*winner) +
                  "); op dispatch is last-registration-wins");
          break;
        }
      }
    }
  }

  // ---- EDC-W012: conflicting-type literal writes to the same key ----
  std::map<std::string, std::vector<LiteralWrite>> writes;
  for (const RegistryLintUnit& unit : units) {
    for (const auto& [name, handler] : unit.program->handlers) {
      CollectWrites(handler.body, unit, name, &writes);
    }
  }
  for (const auto& [path, sites] : writes) {
    for (size_t j = 1; j < sites.size(); ++j) {
      if (sites[j].type != sites[0].type) {
        Add(&diags, kDiagConflictingWrites, sites[j].line, sites[j].col,
            sites[j].extension,
            "write of " + std::string(Value::TypeName(sites[j].type)) + " to '" +
                path + "' conflicts with the " +
                std::string(Value::TypeName(sites[0].type)) + " written by " +
                sites[0].extension + "/" + sites[0].handler + " at line " +
                std::to_string(sites[0].line));
        break;  // one report per key is enough
      }
    }
  }

  SortDiagnostics(&diags);
  return diags;
}

}  // namespace edc
