#include "edc/zk/prep.h"

#include <algorithm>
#include <utility>

#include "edc/common/strings.h"

namespace edc {

PrepSession::PrepSession(const DataTree* tree, const std::deque<PendingDelta>* outstanding,
                         uint64_t session, uint64_t req_id, SimTime now)
    : tree_(tree), outstanding_(outstanding), session_(session), now_(now) {
  delta_.session = session;
  delta_.req_id = req_id;
}

const PendingDelta::NodeState* PrepSession::OverlayNode(const std::string& path) const {
  auto it = delta_.nodes.find(path);
  if (it != delta_.nodes.end()) {
    return &it->second;
  }
  for (auto d = outstanding_->rbegin(); d != outstanding_->rend(); ++d) {
    auto found = d->nodes.find(path);
    if (found != d->nodes.end()) {
      return &found->second;
    }
  }
  return nullptr;
}

bool PrepSession::Exists(const std::string& path) const {
  const PendingDelta::NodeState* overlay = OverlayNode(path);
  if (overlay != nullptr) {
    return overlay->exists;
  }
  return tree_->Exists(path);
}

Result<PrepNode> PrepSession::Get(const std::string& path) const {
  const PendingDelta::NodeState* overlay = OverlayNode(path);
  if (overlay != nullptr) {
    if (!overlay->exists) {
      return Status(ErrorCode::kNoNode, path);
    }
    return PrepNode{overlay->data, overlay->version, overlay->ephemeral_owner, overlay->ctime};
  }
  auto view = tree_->Get(path);
  if (!view.ok()) {
    return view.status();
  }
  return PrepNode{view->data, view->stat.version, view->stat.ephemeral_owner,
                  view->stat.ctime};
}

Result<std::vector<std::string>> PrepSession::Children(const std::string& path) const {
  if (!Exists(path)) {
    return Status(ErrorCode::kNoNode, path);
  }
  std::set<std::string> names;
  auto from_tree = tree_->GetChildren(path);
  if (from_tree.ok()) {
    names.insert(from_tree->begin(), from_tree->end());
  }
  auto apply = [&names, &path](const PendingDelta& d) {
    auto added = d.children_added.find(path);
    if (added != d.children_added.end()) {
      names.insert(added->second.begin(), added->second.end());
    }
    auto removed = d.children_removed.find(path);
    if (removed != d.children_removed.end()) {
      for (const std::string& n : removed->second) {
        names.erase(n);
      }
    }
  };
  for (const PendingDelta& d : *outstanding_) {
    apply(d);
  }
  apply(delta_);
  return std::vector<std::string>(names.begin(), names.end());
}

Status PrepSession::Apply(const ZkOp& op, std::string* created) {
  switch (op.type) {
    case ZkOpType::kCreate: {
      auto actual = Create(op.path, op.data, op.ephemeral, op.sequential);
      if (actual.ok() && created != nullptr) {
        *created = std::move(*actual);
      }
      return actual.status();
    }
    case ZkOpType::kDelete:
      return Delete(op.path, op.version);
    case ZkOpType::kSetData:
      return SetData(op.path, op.data, op.version);
    default:
      return Status(ErrorCode::kInvalidArgument, "bad op in multi");
  }
}

Result<std::string> PrepSession::Create(const std::string& path, const std::string& data,
                                        bool ephemeral, bool sequential) {
  ++state_ops_;
  if (auto s = ValidatePath(path); !s.ok()) {
    return s;
  }
  if (path == "/") {
    return Status(ErrorCode::kNodeExists, "/");
  }
  std::string parent = ParentPath(path);
  if (!Exists(parent)) {
    return Status(ErrorCode::kNoNode, parent);
  }
  auto parent_node = Get(parent);
  if (parent_node.ok() && parent_node->ephemeral_owner != 0) {
    return Status(ErrorCode::kNoChildrenForEphemerals, parent);
  }
  std::string actual = path;
  if (sequential) {
    // Sequence counter: current delta -> outstanding (newest first) -> tree.
    uint64_t seq = 0;
    bool found = false;
    auto in_delta = delta_.next_seq.find(parent);
    if (in_delta != delta_.next_seq.end()) {
      seq = in_delta->second;
      found = true;
    }
    if (!found) {
      for (auto d = outstanding_->rbegin(); d != outstanding_->rend(); ++d) {
        auto it = d->next_seq.find(parent);
        if (it != d->next_seq.end()) {
          seq = it->second;
          found = true;
          break;
        }
      }
    }
    if (!found) {
      auto from_tree = tree_->NextSequence(parent);
      seq = from_tree.ok() ? *from_tree : 0;
    }
    actual = path + SequenceSuffix(seq);
    delta_.next_seq[parent] = seq + 1;
  }
  if (Exists(actual)) {
    return Status(ErrorCode::kNodeExists, actual);
  }

  PendingDelta::NodeState node;
  node.exists = true;
  node.data = data;
  node.version = 0;
  node.ephemeral_owner = ephemeral ? session_ : 0;
  node.ctime = now_;
  delta_.nodes[actual] = std::move(node);
  delta_.children_added[parent].insert(BaseName(actual));
  delta_.children_removed[parent].erase(BaseName(actual));

  ZkTxnOp op;
  op.type = ZkTxnOpType::kCreate;
  op.path = actual;
  op.data = data;
  op.ephemeral_owner = ephemeral ? session_ : 0;
  ops_.push_back(std::move(op));
  return actual;
}

Status PrepSession::Delete(const std::string& path, int32_t version) {
  ++state_ops_;
  auto node = Get(path);
  if (!node.ok()) {
    return node.status();
  }
  if (version != -1 && node->version != version) {
    return Status(ErrorCode::kBadVersion, path);
  }
  auto children = Children(path);
  if (children.ok() && !children->empty()) {
    return Status(ErrorCode::kNotEmpty, path);
  }
  PendingDelta::NodeState gone;
  gone.exists = false;
  delta_.nodes[path] = gone;
  std::string parent = ParentPath(path);
  delta_.children_removed[parent].insert(BaseName(path));
  delta_.children_added[parent].erase(BaseName(path));

  ZkTxnOp op;
  op.type = ZkTxnOpType::kDelete;
  op.path = path;
  ops_.push_back(std::move(op));
  return Status::Ok();
}

Status PrepSession::SetData(const std::string& path, const std::string& data,
                            int32_t version) {
  ++state_ops_;
  auto node = Get(path);
  if (!node.ok()) {
    return node.status();
  }
  if (version != -1 && node->version != version) {
    return Status(ErrorCode::kBadVersion, path + ": expected " + std::to_string(version) +
                                              ", have " + std::to_string(node->version));
  }
  PendingDelta::NodeState next;
  next.exists = true;
  next.data = data;
  next.version = node->version + 1;
  next.ephemeral_owner = node->ephemeral_owner;
  next.ctime = node->ctime;
  delta_.nodes[path] = std::move(next);

  ZkTxnOp op;
  op.type = ZkTxnOpType::kSetData;
  op.path = path;
  op.data = data;
  ops_.push_back(std::move(op));
  return Status::Ok();
}

void PrepSession::Block(const std::string& path) {
  ++state_ops_;
  ZkTxnOp op;
  op.type = ZkTxnOpType::kBlock;
  op.path = path;
  op.session = delta_.session;
  op.req_id = delta_.req_id;
  ops_.push_back(std::move(op));
}

void PrepSession::CreateSession(uint64_t session, uint32_t owner_replica, Duration timeout) {
  ZkTxnOp op;
  op.type = ZkTxnOpType::kCreateSession;
  op.session = session;
  op.session_owner = owner_replica;
  op.req_id = static_cast<uint64_t>(timeout);  // timeout rides in req_id
  ops_.push_back(std::move(op));
}

void PrepSession::CloseSession(uint64_t session) {
  ZkTxnOp op;
  op.type = ZkTxnOpType::kCloseSession;
  op.session = session;
  ops_.push_back(std::move(op));
  // Ephemerals of the session disappear; reflect that in the overlay so
  // later preps in the pipeline do not see ghosts.
  for (const std::string& path : tree_->EphemeralsOf(session)) {
    PendingDelta::NodeState gone;
    gone.exists = false;
    delta_.nodes[path] = gone;
    delta_.children_removed[ParentPath(path)].insert(BaseName(path));
  }
  // Ephemerals created by still-outstanding txns of this session.
  for (const PendingDelta& d : *outstanding_) {
    for (const auto& [path, node] : d.nodes) {
      if (node.exists && node.ephemeral_owner == session) {
        PendingDelta::NodeState gone;
        gone.exists = false;
        delta_.nodes[path] = gone;
        delta_.children_removed[ParentPath(path)].insert(BaseName(path));
      }
    }
  }
}

PendingDelta PrepSession::TakeDelta() { return std::move(delta_); }

}  // namespace edc
