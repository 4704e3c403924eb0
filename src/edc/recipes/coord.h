// Abstract coordination-service API (paper Table 2) and its two concrete
// mappings.
//
// The recipes in recipes.h are written once against CoordClient; the
// ZkCoordClient and DsCoordClient adapters implement each method with the
// exact operation sequences of Table 2 (e.g. cas = read-version + setData on
// ZooKeeper, content-pinned replace on DepSpace; block = exists-watch + wait
// on ZooKeeper, blocking rd on DepSpace; monitor = ephemeral node vs lease
// tuple). That keeps the traditional/extension comparison apples-to-apples
// across the two systems, exactly like the paper's §6.1.

#ifndef EDC_RECIPES_COORD_H_
#define EDC_RECIPES_COORD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "edc/ds/api.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/time.h"
#include "edc/zk/api.h"

namespace edc {

struct CoordObject {
  std::string path;
  std::string data;
  SimTime ctime = 0;
};

class CoordClient {
 public:
  using Cb = std::function<void(Status)>;
  using ValueCb = std::function<void(Result<std::string>)>;
  using ListCb = std::function<void(Result<std::vector<CoordObject>>)>;

  virtual ~CoordClient() = default;

  virtual void Create(const std::string& path, const std::string& data, ValueCb done) = 0;
  virtual void Delete(const std::string& path, Cb done) = 0;
  virtual void Read(const std::string& path, ValueCb done) = 0;
  virtual void Update(const std::string& path, const std::string& data, Cb done) = 0;
  // Conditional update: succeeds only if the current content is `expected`
  // (kBadVersion / kNoNode otherwise). On ZooKeeper this uses the version
  // observed by the last Read of `path` (Table 2).
  virtual void Cas(const std::string& path, const std::string& expected,
                   const std::string& next, Cb done) = 0;
  virtual void SubObjects(const std::string& path, ListCb done) = 0;
  // Completes once `path` exists (immediately if it already does). The value
  // is the object's data.
  virtual void Block(const std::string& path, ValueCb done) = 0;
  // Creates `path` tied to this client's liveness: the service removes it if
  // the client terminates or fails.
  virtual void Monitor(const std::string& path, Cb done) = 0;
  // One-shot: runs `fired` when `path` disappears (ZooKeeper: watch;
  // DepSpace: poll — it has no deletion notifications).
  virtual void OnDeleted(const std::string& path, std::function<void()> fired) = 0;

  // Hint that server-side monitors may exist for this client: DepSpace
  // clients start renewing all lease tuples they own (ZooKeeper sessions are
  // already kept alive by pings).
  virtual void EnsureLivenessRenewal() {}

  virtual void RegisterExtension(const std::string& name, const std::string& code,
                                 Cb done) = 0;
  virtual void AcknowledgeExtension(const std::string& name, Cb done) = 0;

  // Unique client tag for path construction, and the network node id for
  // byte accounting.
  virtual std::string tag() const = 0;
  virtual NodeId node() const = 0;
};

// ---------------------------------------------------------------------- ZK

class ZkCoordClient : public CoordClient {
 public:
  // `ext_mode` tells Block() that a server-side extension will hold the
  // request (single RPC) instead of the exists-watch protocol. The client
  // may be a plain ZkClient or a ZkShardRouter (edc/route) — recipes are
  // topology-blind.
  ZkCoordClient(ZkApi* client, bool ext_mode);

  void Create(const std::string& path, const std::string& data, ValueCb done) override;
  void Delete(const std::string& path, Cb done) override;
  void Read(const std::string& path, ValueCb done) override;
  void Update(const std::string& path, const std::string& data, Cb done) override;
  void Cas(const std::string& path, const std::string& expected, const std::string& next,
           Cb done) override;
  void SubObjects(const std::string& path, ListCb done) override;
  void Block(const std::string& path, ValueCb done) override;
  void Monitor(const std::string& path, Cb done) override;
  void OnDeleted(const std::string& path, std::function<void()> fired) override;
  void RegisterExtension(const std::string& name, const std::string& code, Cb done) override;
  void AcknowledgeExtension(const std::string& name, Cb done) override;
  std::string tag() const override;
  NodeId node() const override { return client_->id(); }

  ZkApi* raw() { return client_; }

 private:
  void DispatchWatchEvent(const ZkWatchEventMsg& event);
  void FireDeletionWaiters(const std::string& path);
  // Acknowledgments belong to a session (§3.6): after a failover, the first
  // call waits while the new session acknowledges again every extension
  // this client registered or acknowledged. Calls made meanwhile wait too.
  template <typename Call>
  void AfterAcks(Call call) {
    Reacknowledge();
    if (reacks_in_flight_ == 0) {
      call();
      return;
    }
    deferred_.emplace_back(std::move(call));
  }
  // Re-sends the acknowledgments the current session has not made.
  void Reacknowledge();

  ZkApi* client_;
  bool ext_mode_;
  std::map<std::string, uint64_t> acked_;  // extension -> session when (re)acknowledged
  int reacks_in_flight_ = 0;
  std::vector<std::function<void()>> deferred_;
  std::map<std::string, int32_t> last_read_version_;
  std::map<std::string, std::vector<ValueCb>> block_waiters_;
  std::map<std::string, std::vector<std::function<void()>>> deletion_waiters_;
};

// ---------------------------------------------------------------------- DS

class DsCoordClient : public CoordClient {
 public:
  DsCoordClient(EventLoop* loop, DsApi* client);

  void Create(const std::string& path, const std::string& data, ValueCb done) override;
  void Delete(const std::string& path, Cb done) override;
  void Read(const std::string& path, ValueCb done) override;
  void Update(const std::string& path, const std::string& data, Cb done) override;
  void Cas(const std::string& path, const std::string& expected, const std::string& next,
           Cb done) override;
  void SubObjects(const std::string& path, ListCb done) override;
  void Block(const std::string& path, ValueCb done) override;
  void Monitor(const std::string& path, Cb done) override;
  void OnDeleted(const std::string& path, std::function<void()> fired) override;
  void RegisterExtension(const std::string& name, const std::string& code, Cb done) override;
  void AcknowledgeExtension(const std::string& name, Cb done) override;
  void EnsureLivenessRenewal() override { client_->EnableAutoRenewAll(); }
  std::string tag() const override { return std::to_string(client_->id()); }
  NodeId node() const override { return client_->id(); }

  DsApi* raw() { return client_; }

  // DepSpace has no deletion notifications; OnDeleted polls at this period.
  static constexpr Duration kDeletionPollInterval = Millis(50);

 private:
  EventLoop* loop_;
  DsApi* client_;
};

}  // namespace edc

#endif  // EDC_RECIPES_COORD_H_
