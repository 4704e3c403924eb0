#include "edc/check/zk_model.h"

#include "edc/common/strings.h"

namespace edc {

ZkModel::ZkModel() {
  nodes_["/"] = ZkModelNode{};
  (void)CreateNode(kEmRoot, "", 0, 0, 0);
}

const ZkModelNode* ZkModel::Get(const std::string& path) const {
  auto it = nodes_.find(path);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::vector<std::string> ZkModel::Children(const std::string& path) const {
  std::vector<std::string> names;
  std::string prefix = path == "/" ? "/" : path + "/";
  for (auto it = nodes_.upper_bound(prefix); it != nodes_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    std::string rest = it->first.substr(prefix.size());
    if (rest.find('/') == std::string::npos) {
      names.push_back(std::move(rest));
    }
  }
  return names;
}

Status ZkModel::CreateNode(const std::string& path, const std::string& data,
                           uint64_t ephemeral_owner, uint64_t zxid, SimTime time) {
  if (auto s = ValidatePath(path); !s.ok()) {
    return s;
  }
  if (path == "/") {
    return Status(ErrorCode::kNodeExists, "/");
  }
  std::string parent_path = ParentPath(path);
  auto parent = nodes_.find(parent_path);
  if (parent == nodes_.end()) {
    return Status(ErrorCode::kNoNode, "parent of " + path);
  }
  if (parent->second.stat.ephemeral_owner != 0) {
    return Status(ErrorCode::kNoChildrenForEphemerals, parent_path);
  }
  if (nodes_.count(path) > 0) {
    return Status(ErrorCode::kNodeExists, path);
  }
  ZkModelNode node;
  node.data = data;
  node.stat.czxid = zxid;
  node.stat.mzxid = zxid;
  node.stat.ctime = time;
  node.stat.mtime = time;
  node.stat.ephemeral_owner = ephemeral_owner;
  nodes_.emplace(path, std::move(node));
  parent->second.stat.cversion += 1;
  parent->second.stat.pzxid = zxid;
  parent->second.stat.num_children = static_cast<uint32_t>(Children(parent_path).size());
  return Status::Ok();
}

Status ZkModel::DeleteNode(const std::string& path, uint64_t zxid) {
  if (path == "/") {
    return Status(ErrorCode::kInvalidArgument, "cannot delete root");
  }
  auto it = nodes_.find(path);
  if (it == nodes_.end()) {
    return Status(ErrorCode::kNoNode, path);
  }
  if (!Children(path).empty()) {
    return Status(ErrorCode::kNotEmpty, path);
  }
  nodes_.erase(it);
  std::string parent_path = ParentPath(path);
  auto parent = nodes_.find(parent_path);
  if (parent != nodes_.end()) {
    parent->second.stat.cversion += 1;
    parent->second.stat.pzxid = zxid;
    parent->second.stat.num_children = static_cast<uint32_t>(Children(parent_path).size());
  }
  return Status::Ok();
}

Status ZkModel::SetNodeData(const std::string& path, const std::string& data, uint64_t zxid,
                            SimTime time) {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) {
    return Status(ErrorCode::kNoNode, path);
  }
  it->second.data = data;
  it->second.stat.version += 1;
  it->second.stat.mzxid = zxid;
  it->second.stat.mtime = time;
  return Status::Ok();
}

void ZkModel::CollectEphemerals(const std::string& path, uint64_t session,
                                std::vector<std::string>* out) const {
  for (const std::string& name : Children(path)) {
    std::string child_path = path == "/" ? "/" + name : path + "/" + name;
    const ZkModelNode* child = Get(child_path);
    if (child != nullptr && child->stat.ephemeral_owner == session) {
      out->push_back(child_path);
    }
    CollectEphemerals(child_path, session, out);
  }
}

ZkModelApplyResult ZkModel::Apply(uint64_t zxid, const ZkTxn& txn) {
  ZkModelApplyResult result;
  auto touch = [&result](const std::string& path) { result.touched.push_back(path); };
  for (const ZkTxnOp& op : txn.ops) {
    switch (op.type) {
      case ZkTxnOpType::kCreate: {
        Status s = CreateNode(op.path, op.data, op.ephemeral_owner, zxid, txn.time);
        if (!s.ok()) {
          result.failures.push_back("create " + op.path + ": " + s.ToString());
          break;
        }
        touch(op.path);
        touch(ParentPath(op.path));
        break;
      }
      case ZkTxnOpType::kDelete: {
        Status s = DeleteNode(op.path, zxid);
        if (!s.ok()) {
          result.failures.push_back("delete " + op.path + ": " + s.ToString());
          break;
        }
        touch(op.path);
        touch(ParentPath(op.path));
        break;
      }
      case ZkTxnOpType::kSetData: {
        Status s = SetNodeData(op.path, op.data, zxid, txn.time);
        if (!s.ok()) {
          result.failures.push_back("setData " + op.path + ": " + s.ToString());
          break;
        }
        touch(op.path);
        break;
      }
      case ZkTxnOpType::kCreateSession:
        sessions_[op.session] = op.session_owner;
        break;
      case ZkTxnOpType::kCloseSession: {
        std::vector<std::string> ephemerals;
        CollectEphemerals("/", op.session, &ephemerals);
        for (const std::string& path : ephemerals) {
          // The server skips failed cleanup deletes silently; mirror that.
          if (DeleteNode(path, zxid).ok()) {
            touch(path);
            touch(ParentPath(path));
          }
        }
        sessions_.erase(op.session);
        break;
      }
      case ZkTxnOpType::kBlock:
        break;  // block-table bookkeeping only, no tree effect
    }
  }
  return result;
}

}  // namespace edc
