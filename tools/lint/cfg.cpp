#include "tools/lint/cfg.h"

#include <utility>
#include <vector>

namespace edc {

namespace {

class CfgBuilder {
 public:
  explicit CfgBuilder(Cfg* cfg, const std::string& handler_name)
      : cfg_(cfg), handler_(handler_name) {
    cfg_->nodes.push_back(CfgNode{CfgNode::Kind::kEntry, nullptr, {}, {}});
    cfg_->nodes.push_back(CfgNode{CfgNode::Kind::kExit, nullptr, {}, {}});
  }

  void Run(const Block& body) {
    std::vector<int> frontier = BuildBlock(body, {cfg_->entry});
    for (int n : frontier) {
      Edge(n, cfg_->exit);
    }
    ComputeReachability();
  }

 private:
  // Builds nodes for `block` with control entering from `frontier`; returns
  // the nodes whose control falls out the bottom (empty if all paths return).
  std::vector<int> BuildBlock(const Block& block, std::vector<int> frontier) {
    bool dead_reported = false;
    for (const StmtPtr& stmt_ptr : block) {
      const Stmt& stmt = *stmt_ptr;
      if (frontier.empty() && !dead_reported) {
        cfg_->diags.push_back(Diagnostic{
            kDiagUnreachableCode, Severity::kWarning, stmt.line, stmt.col, handler_,
            "unreachable code after return in handler '" + handler_ + "'"});
        dead_reported = true;
      }
      switch (stmt.kind) {
        case Stmt::Kind::kLet:
        case Stmt::Kind::kAssign:
        case Stmt::Kind::kExpr: {
          int n = NewNode(CfgNode::Kind::kStmt, &stmt);
          Link(frontier, n);
          frontier = {n};
          break;
        }
        case Stmt::Kind::kReturn: {
          int n = NewNode(CfgNode::Kind::kStmt, &stmt);
          Link(frontier, n);
          Edge(n, cfg_->exit);
          frontier.clear();
          break;
        }
        case Stmt::Kind::kIf: {
          int branch = NewNode(CfgNode::Kind::kBranch, &stmt);
          Link(frontier, branch);
          std::vector<int> out = BuildBlock(stmt.body, {branch});
          if (stmt.else_body.empty()) {
            out.push_back(branch);  // condition false falls through
          } else {
            std::vector<int> eout = BuildBlock(stmt.else_body, {branch});
            out.insert(out.end(), eout.begin(), eout.end());
          }
          frontier = std::move(out);
          break;
        }
        case Stmt::Kind::kForEach: {
          int head = NewNode(CfgNode::Kind::kLoopHead, &stmt);
          Link(frontier, head);
          std::vector<int> body_out = BuildBlock(stmt.body, {head});
          for (int n : body_out) {
            Edge(n, head);  // back edge
          }
          frontier = {head};  // zero or more iterations exit from the head
          break;
        }
      }
    }
    return frontier;
  }

  int NewNode(CfgNode::Kind kind, const Stmt* stmt) {
    cfg_->nodes.push_back(CfgNode{kind, stmt, {}, {}});
    return static_cast<int>(cfg_->nodes.size()) - 1;
  }

  void Edge(int from, int to) {
    cfg_->nodes[from].succs.push_back(to);
    cfg_->nodes[to].preds.push_back(from);
  }

  void Link(const std::vector<int>& frontier, int to) {
    for (int n : frontier) {
      Edge(n, to);
    }
  }

  void ComputeReachability() {
    cfg_->reachable.assign(cfg_->nodes.size(), false);
    std::vector<int> stack{cfg_->entry};
    cfg_->reachable[cfg_->entry] = true;
    while (!stack.empty()) {
      int n = stack.back();
      stack.pop_back();
      for (int s : cfg_->nodes[n].succs) {
        if (!cfg_->reachable[s]) {
          cfg_->reachable[s] = true;
          stack.push_back(s);
        }
      }
    }
  }

  Cfg* cfg_;
  std::string handler_;
};

}  // namespace

Cfg BuildCfg(const Handler& handler) {
  Cfg cfg;
  CfgBuilder builder(&cfg, handler.name);
  builder.Run(handler.body);
  return cfg;
}

}  // namespace edc
