// Abstract client-side surface of the ZooKeeper-like service.
//
// Everything above the transport — recipes, the extension conveniences, the
// conformance harness — programs against this interface. Two implementations
// exist: ZkClient (one session against one replica ensemble) and
// ZkShardRouter (edc/route), which routes the same surface over a
// ShardMap's worth of per-shard ZkClients. Keeping the surface abstract is
// what lets a recipe run unchanged on a standalone ensemble and on a sharded
// deployment.
//
// Every data operation goes through one virtual entry point, Submit: the
// typed calls below build a ZkOp, submit it and decode the raw reply, and
// are written once for both implementations. What stays virtual is what
// really differs per implementation: the session, its handlers and the /em
// conveniences (a router fans those out to every shard).

#ifndef EDC_ZK_API_H_
#define EDC_ZK_API_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "edc/common/client_api.h"
#include "edc/zk/types.h"

namespace edc {

class ZkApi {
 public:
  struct NodeResult {
    std::string data;
    ZkStat stat;
  };
  struct ExistsResult {
    bool exists = false;
    ZkStat stat;
  };

  using ReplyCb = std::function<void(const ZkReplyMsg&)>;
  using VoidCb = StatusCb;
  using StringCb = StringResultCb;
  using NodeCb = ResultCb<NodeResult>;
  using ExistsCb = ResultCb<ExistsResult>;
  using ChildrenCb = ResultCb<std::vector<std::string>>;
  using WatchCb = std::function<void(const ZkWatchEventMsg&)>;

  virtual ~ZkApi() = default;

  virtual void Connect(VoidCb done) = 0;
  virtual void Close(VoidCb done) = 0;

  // The request entry point: sends `op` on this client's session and hands
  // the raw reply to `done`. A router routes it by the op's path.
  virtual void Submit(ZkOp op, ReplyCb done) = 0;

  void Create(const std::string& path, const std::string& data, bool ephemeral,
              bool sequential, StringCb done);
  void Delete(const std::string& path, int32_t version, VoidCb done);
  void Exists(const std::string& path, bool watch, ExistsCb done);
  void GetData(const std::string& path, bool watch, NodeCb done);
  void SetData(const std::string& path, const std::string& data, int32_t version,
               VoidCb done);
  void GetChildren(const std::string& path, bool watch, ChildrenCb done);
  // Atomic multi-transaction. A router requires all ops to live on one shard
  // (kInvalidArgument otherwise); cross-shard atomicity is the TwoPhaseMulti
  // recipe's job (docs/sharding.md).
  void Multi(std::vector<ZkOp> ops, VoidCb done);
  // Invokes the extension listening on `trigger_path` (§5.1.2): one RPC that
  // either returns the extension's result (intercepted) or, when no
  // acknowledged extension matches, a plain exists answer with a creation
  // watch armed on the trigger object (the traditional fallback).
  void CallExtension(const std::string& trigger_path, const std::string& args,
                     ExtensionCb done);

  virtual void RegisterExtension(const std::string& name, const std::string& code,
                                 VoidCb done) = 0;
  virtual void DeregisterExtension(const std::string& name, VoidCb done) = 0;
  // Acknowledges as this client's own session (each sub-session, on a router).
  virtual void AcknowledgeExtension(const std::string& name, VoidCb done) = 0;

  virtual void SetWatchHandler(WatchCb handler) = 0;
  virtual void SetSessionEventHandler(SessionEventCb handler) = 0;

  virtual bool connected() const = 0;
  // A stable session identity for path construction (recipes tag ephemeral
  // paths with it). Routers report their primary sub-session.
  virtual uint64_t session() const = 0;
  virtual NodeId id() const = 0;

  // A reply's outcome: OK, or its error code with the reply's message.
  static Status StatusOf(const ZkReplyMsg& reply);
};

}  // namespace edc

#endif  // EDC_ZK_API_H_
