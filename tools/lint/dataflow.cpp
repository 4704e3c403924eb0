#include "tools/lint/dataflow.h"

#include <set>
#include <string>

namespace edc {

namespace {

void CollectUses(const Expr& expr, const ResolvedNames& names, std::set<int>* out) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return;
    case Expr::Kind::kVar: {
      auto it = names.use_ids.find(&expr);
      if (it != names.use_ids.end()) {
        out->insert(it->second);
      }
      return;
    }
    case Expr::Kind::kUnary:
      CollectUses(*expr.lhs, names, out);
      return;
    case Expr::Kind::kBinary:
    case Expr::Kind::kIndex:
      CollectUses(*expr.lhs, names, out);
      CollectUses(*expr.rhs, names, out);
      return;
    case Expr::Kind::kCall:
    case Expr::Kind::kListLit:
      for (const ExprPtr& arg : expr.args) {
        CollectUses(*arg, names, out);
      }
      return;
  }
}

struct NodeFacts {
  std::set<int> uses;  // variable ids read by this node
  int def = -1;        // variable id written by this node, -1 if none
};

NodeFacts FactsFor(const CfgNode& node, const ResolvedNames& names) {
  NodeFacts facts;
  if (node.stmt == nullptr) {
    return facts;
  }
  const Stmt& stmt = *node.stmt;
  if (stmt.expr) {
    CollectUses(*stmt.expr, names, &facts.uses);
  }
  if (stmt.kind == Stmt::Kind::kLet || stmt.kind == Stmt::Kind::kAssign ||
      stmt.kind == Stmt::Kind::kForEach) {
    auto it = names.def_ids.find(&stmt);
    if (it != names.def_ids.end()) {
      facts.def = it->second;
    }
  }
  return facts;
}

}  // namespace

void RunDataflowChecks(const Handler& handler, const Cfg& cfg,
                       const ResolvedNames& names, std::vector<Diagnostic>* diags) {
  const size_t n = cfg.nodes.size();
  const size_t nvars = names.vars.size();
  std::vector<NodeFacts> facts(n);
  for (size_t i = 0; i < n; ++i) {
    facts[i] = FactsFor(cfg.nodes[i], names);
  }

  // ---- Liveness (backward may-analysis) ----
  std::vector<std::vector<bool>> live_in(n, std::vector<bool>(nvars, false));
  std::vector<std::vector<bool>> live_out(n, std::vector<bool>(nvars, false));
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = n; i-- > 0;) {
      std::vector<bool> out(nvars, false);
      for (int s : cfg.nodes[i].succs) {
        for (size_t v = 0; v < nvars; ++v) {
          if (live_in[static_cast<size_t>(s)][v]) {
            out[v] = true;
          }
        }
      }
      std::vector<bool> in = out;
      if (facts[i].def >= 0) {
        in[static_cast<size_t>(facts[i].def)] = false;
      }
      for (int v : facts[i].uses) {
        in[static_cast<size_t>(v)] = true;
      }
      if (in != live_in[i] || out != live_out[i]) {
        live_in[i] = std::move(in);
        live_out[i] = std::move(out);
        changed = true;
      }
    }
  }

  // ---- Reaching definitions (forward may-analysis) ----
  // Def sites: each defining node, plus the entry node for parameters.
  struct DefSite {
    size_t node;
    int var;
  };
  std::vector<DefSite> sites;
  std::vector<std::vector<size_t>> sites_of_var(nvars);
  for (int p : names.param_ids) {
    sites_of_var[static_cast<size_t>(p)].push_back(sites.size());
    sites.push_back(DefSite{static_cast<size_t>(cfg.entry), p});
  }
  for (size_t i = 0; i < n; ++i) {
    if (facts[i].def >= 0) {
      sites_of_var[static_cast<size_t>(facts[i].def)].push_back(sites.size());
      sites.push_back(DefSite{i, facts[i].def});
    }
  }
  const size_t nsites = sites.size();
  std::vector<std::vector<bool>> reach_in(n, std::vector<bool>(nsites, false));
  std::vector<std::vector<bool>> reach_out(n, std::vector<bool>(nsites, false));
  changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      std::vector<bool> in(nsites, false);
      for (int p : cfg.nodes[i].preds) {
        for (size_t s = 0; s < nsites; ++s) {
          if (reach_out[static_cast<size_t>(p)][s]) {
            in[s] = true;
          }
        }
      }
      std::vector<bool> out = in;
      int def = facts[i].def;
      if (i == static_cast<size_t>(cfg.entry)) {
        for (int p : names.param_ids) {
          for (size_t s : sites_of_var[static_cast<size_t>(p)]) {
            if (sites[s].node == i) {
              out[s] = true;
            }
          }
        }
      }
      if (def >= 0) {
        for (size_t s : sites_of_var[static_cast<size_t>(def)]) {
          out[s] = sites[s].node == i;
        }
      }
      if (in != reach_in[i] || out != reach_out[i]) {
        reach_in[i] = std::move(in);
        reach_out[i] = std::move(out);
        changed = true;
      }
    }
  }

  // ---- Derived checks ----
  std::vector<bool> used_anywhere(nvars, false);
  for (const auto& [expr, id] : names.use_ids) {
    (void)expr;
    used_anywhere[static_cast<size_t>(id)] = true;
  }

  // Unused variable (EDC-W001): a let-bound variable never read. Parameters
  // and loop variables are exempt (ignoring them is idiomatic).
  std::vector<bool> reported_unused(nvars, false);
  for (size_t i = 0; i < n; ++i) {
    const CfgNode& node = cfg.nodes[i];
    if (node.stmt == nullptr || node.stmt->kind != Stmt::Kind::kLet ||
        !cfg.reachable[i]) {
      continue;
    }
    int v = facts[i].def;
    if (v < 0 || used_anywhere[static_cast<size_t>(v)] ||
        reported_unused[static_cast<size_t>(v)]) {
      continue;
    }
    reported_unused[static_cast<size_t>(v)] = true;
    diags->push_back(Diagnostic{
        kDiagUnusedVariable, Severity::kWarning, node.stmt->line, node.stmt->col,
        handler.name,
        "unused variable '" + names.vars[static_cast<size_t>(v)].name +
            "' in handler '" + handler.name + "'"});
  }

  // Dead store (EDC-W002): a write to a variable that is read somewhere but
  // never after this particular store.
  for (size_t i = 0; i < n; ++i) {
    const CfgNode& node = cfg.nodes[i];
    if (node.stmt == nullptr || !cfg.reachable[i]) {
      continue;
    }
    if (node.stmt->kind != Stmt::Kind::kLet && node.stmt->kind != Stmt::Kind::kAssign) {
      continue;
    }
    int v = facts[i].def;
    if (v < 0 || reported_unused[static_cast<size_t>(v)] ||
        !used_anywhere[static_cast<size_t>(v)] || live_out[i][static_cast<size_t>(v)]) {
      continue;
    }
    diags->push_back(Diagnostic{
        kDiagDeadStore, Severity::kWarning, node.stmt->line, node.stmt->col,
        handler.name,
        "value stored to '" + names.vars[static_cast<size_t>(v)].name +
            "' is never read in handler '" + handler.name + "'"});
  }

  // Use before definite initialization (EDC-W004), defense in depth: a use
  // with no reaching definition on any path.
  for (size_t i = 0; i < n; ++i) {
    if (!cfg.reachable[i] || cfg.nodes[i].stmt == nullptr) {
      continue;
    }
    for (int v : facts[i].uses) {
      bool reached = false;
      for (size_t s : sites_of_var[static_cast<size_t>(v)]) {
        if (reach_in[i][s] || sites[s].node == i) {
          reached = true;
          break;
        }
      }
      if (!reached) {
        diags->push_back(Diagnostic{
            kDiagUseBeforeDef, Severity::kWarning, cfg.nodes[i].stmt->line,
            cfg.nodes[i].stmt->col, handler.name,
            "variable '" + names.vars[static_cast<size_t>(v)].name +
                "' may be used before initialization in handler '" + handler.name +
                "'"});
      }
    }
  }
}

}  // namespace edc
