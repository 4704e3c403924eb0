#include "edc/zk/api.h"

#include <utility>

namespace edc {

Status ZkApi::StatusOf(const ZkReplyMsg& reply) {
  if (reply.code == ErrorCode::kOk) {
    return Status::Ok();
  }
  return Status(reply.code, reply.value);
}

namespace {

ZkOp PathOp(ZkOpType type, const std::string& path) {
  ZkOp op;
  op.type = type;
  op.path = path;
  return op;
}

// Replies whose only content is their status.
ZkApi::ReplyCb StatusReply(ZkApi::VoidCb done) {
  return [done = std::move(done)](const ZkReplyMsg& reply) { done(ZkApi::StatusOf(reply)); };
}

// Replies carrying a value on success: `decode` turns an OK reply into it.
template <typename T, typename Decode>
ZkApi::ReplyCb ValueReply(ResultCb<T> done, Decode decode) {
  return [done = std::move(done), decode](const ZkReplyMsg& reply) {
    if (reply.code != ErrorCode::kOk) {
      done(ZkApi::StatusOf(reply));
      return;
    }
    done(decode(reply));
  };
}

}  // namespace

void ZkApi::Create(const std::string& path, const std::string& data, bool ephemeral,
                   bool sequential, StringCb done) {
  ZkOp op = PathOp(ZkOpType::kCreate, path);
  op.data = data;
  op.ephemeral = ephemeral;
  op.sequential = sequential;
  Submit(std::move(op), ValueReply<std::string>(std::move(done), [](const ZkReplyMsg& reply) {
           return reply.value;
         }));
}

void ZkApi::Delete(const std::string& path, int32_t version, VoidCb done) {
  ZkOp op = PathOp(ZkOpType::kDelete, path);
  op.version = version;
  Submit(std::move(op), StatusReply(std::move(done)));
}

void ZkApi::Exists(const std::string& path, bool watch, ExistsCb done) {
  ZkOp op = PathOp(ZkOpType::kExists, path);
  op.watch = watch;
  Submit(std::move(op), ValueReply<ExistsResult>(std::move(done), [](const ZkReplyMsg& reply) {
           ExistsResult result;
           result.exists = reply.value == "1";
           if (reply.has_stat) {
             result.stat = reply.stat;
           }
           return result;
         }));
}

void ZkApi::GetData(const std::string& path, bool watch, NodeCb done) {
  ZkOp op = PathOp(ZkOpType::kGetData, path);
  op.watch = watch;
  Submit(std::move(op), ValueReply<NodeResult>(std::move(done), [](const ZkReplyMsg& reply) {
           return NodeResult{reply.value, reply.stat};
         }));
}

void ZkApi::SetData(const std::string& path, const std::string& data, int32_t version,
                    VoidCb done) {
  ZkOp op = PathOp(ZkOpType::kSetData, path);
  op.data = data;
  op.version = version;
  Submit(std::move(op), StatusReply(std::move(done)));
}

void ZkApi::GetChildren(const std::string& path, bool watch, ChildrenCb done) {
  ZkOp op = PathOp(ZkOpType::kGetChildren, path);
  op.watch = watch;
  Submit(std::move(op),
         ValueReply<std::vector<std::string>>(
             std::move(done), [](const ZkReplyMsg& reply) { return reply.children; }));
}

void ZkApi::Multi(std::vector<ZkOp> ops, VoidCb done) {
  ZkOp op;
  op.type = ZkOpType::kMulti;
  op.ops = std::move(ops);
  Submit(std::move(op), StatusReply(std::move(done)));
}

void ZkApi::CallExtension(const std::string& trigger_path, const std::string& args,
                          ExtensionCb done) {
  // The invocation is an exists-with-watch on the trigger object; a matching
  // acknowledged extension intercepts it server-side and its result rides
  // back on the reply (§5.1.2). Without one, the reply is the plain exists
  // answer and the creation watch stays armed as the traditional fallback.
  ZkOp op = PathOp(ZkOpType::kExists, trigger_path);
  op.data = args;
  op.watch = true;
  Submit(std::move(op), ValueReply<ExtensionResult>(std::move(done), [](const ZkReplyMsg& reply) {
           ExtensionResult result;
           if (reply.has_stat && reply.value == "1") {
             result.exists = true;  // plain answer: trigger object present
           } else if (!reply.has_stat && reply.value == "0") {
             result.exists = false;  // plain answer: absent, watch armed
           } else {
             result.intercepted = true;
             result.value = reply.value;
           }
           return result;
         }));
}

}  // namespace edc
