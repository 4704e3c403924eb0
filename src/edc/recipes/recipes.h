// The four coordination recipes of the paper's evaluation (§6.1), each in a
// traditional (client-side, multi-RPC) and an extension-based (single-RPC)
// variant, written against the abstract CoordClient so the same code runs on
// both the ZooKeeper-like and the DepSpace-like service.

#ifndef EDC_RECIPES_RECIPES_H_
#define EDC_RECIPES_RECIPES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "edc/recipes/coord.h"

namespace edc {

// Namespace support for sharded deployments (docs/sharding.md): a recipe
// constructed with prefix "/g0" keeps all of its objects — including the
// extension trigger — inside the "/g0" subtree, so the whole recipe stays on
// one shard. The extension name is prefixed too ("g0_ctr_increment") because
// every namespace registers its own rewritten copy of the script.
std::string PrefixedExtensionName(const std::string& prefix, const std::string& base);
// Rewrites a CoordScript source for a namespace: renames the extension
// declaration and prepends `prefix` to every path literal (`"/...` ->
// `"<prefix>/...`). Only valid for scripts without hardcoded path lengths
// (counter, queue — not barrier/election, see scripts.h).
std::string NamespacedScript(const std::string& script, const std::string& old_name,
                             const std::string& new_name, const std::string& prefix);

// What the recipes share: the client, the variant, and the extension the
// owner registers in Setup and every other client acknowledges in Attach
// (extension mode only).
class ExtensionRecipe {
 public:
  // Non-owners in extension mode: acknowledge the owner's extension.
  void Attach(CoordClient::Cb done);

 protected:
  ExtensionRecipe(CoordClient* client, bool use_extension, std::string ext_name)
      : client_(client), use_extension_(use_extension), ext_name_(std::move(ext_name)) {}

  CoordClient* client_;
  bool use_extension_;
  std::string ext_name_;
};

// Fig. 5: shared counter.
class SharedCounter : public ExtensionRecipe {
 public:
  using IntCb = std::function<void(Result<int64_t>)>;

  SharedCounter(CoordClient* client, bool use_extension, std::string prefix = "")
      : ExtensionRecipe(client, use_extension, PrefixedExtensionName(prefix, "ctr_increment")),
        prefix_(std::move(prefix)) {}

  // Owner: creates /ctr (and registers the extension).
  void Setup(CoordClient::Cb done);
  void Increment(IntCb done);

  int64_t retries() const { return retries_; }

 private:
  void TryIncrement(std::shared_ptr<IntCb> done);

  std::string prefix_;
  int64_t retries_ = 0;
};

// Fig. 7: distributed queue.
class DistributedQueue : public ExtensionRecipe {
 public:
  using ValueCb = CoordClient::ValueCb;

  DistributedQueue(CoordClient* client, bool use_extension, std::string prefix = "")
      : ExtensionRecipe(client, use_extension, PrefixedExtensionName(prefix, "queue_remove")),
        prefix_(std::move(prefix)) {}

  void Setup(CoordClient::Cb done);
  void Add(const std::string& element_id, const std::string& data, CoordClient::Cb done);
  void Remove(ValueCb done);

  int64_t retries() const { return retries_; }

 private:
  void TryRemove(std::shared_ptr<ValueCb> done, int attempts);

  std::string prefix_;
  int64_t retries_ = 0;
};

// Fig. 9: distributed barrier for `size` participants.
class DistributedBarrier : public ExtensionRecipe {
 public:
  DistributedBarrier(CoordClient* client, bool use_extension, int size)
      : ExtensionRecipe(client, use_extension, "barrier_enter"), size_(size) {}

  void Setup(CoordClient::Cb done);
  // Completes once all `size` participants entered.
  void Enter(CoordClient::Cb done);
  // Clears barrier state for the next round (driven by the harness).
  void Reset(CoordClient::Cb done);

 private:
  int size_;
};

// Fig. 11: leader election.
class LeaderElection : public ExtensionRecipe {
 public:
  LeaderElection(CoordClient* client, bool use_extension)
      : ExtensionRecipe(client, use_extension, "leader_elect") {}

  void Setup(CoordClient::Cb done);
  // Completes when this client becomes leader.
  void BecomeLeader(CoordClient::Cb done);
  // Steps down (deletes the id object); triggers the next election round.
  void Abdicate(CoordClient::Cb done);

 private:
  void CheckLeader(std::shared_ptr<CoordClient::Cb> done);

  // Traditional variant: unique id object per candidacy round. Reusing the
  // same name across rounds would let deletion observers miss the
  // delete/recreate pair entirely (ABA) — the reason real recipes use
  // sequential nodes.
  int round_ = 0;
  std::string my_path_;
};

}  // namespace edc

#endif  // EDC_RECIPES_RECIPES_H_
