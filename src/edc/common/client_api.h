// Shared client-side API surface for the two coordination clients.
//
// ZkClient and DsClient historically grew their own callback aliases,
// connection bookkeeping and reply decoding; everything a recipe or a
// failover layer needs from "a coordination client" now lives here once:
// Result<T>-based callback aliases, the typed ErrorCode (common/result.h)
// that travels unchanged from server internals to these callbacks, the
// server-list + reconnect policy both clients consume, and the typed
// extension-invocation result that replaces raw reply-struct poking.

#ifndef EDC_COMMON_CLIENT_API_H_
#define EDC_COMMON_CLIENT_API_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "edc/common/result.h"
#include "edc/common/rng.h"
#include "edc/sim/network.h"
#include "edc/sim/time.h"

namespace edc {

// Callback alias set. All client completions are Result<T>-based; errors are
// always a typed ErrorCode (never a raw reply integer).
using StatusCb = std::function<void(Status)>;
template <typename T>
using ResultCb = std::function<void(Result<T>)>;
using StringResultCb = ResultCb<std::string>;

// The replica ensemble a client may talk to. ZooKeeper-family clients hold a
// session against one replica at a time and fail over along this list;
// DepSpace-family clients multicast to the whole list.
struct ServerList {
  std::vector<NodeId> servers;
  size_t preferred = 0;  // index of the replica to try first

  ServerList() = default;
  explicit ServerList(std::vector<NodeId> s, size_t pref = 0)
      : servers(std::move(s)), preferred(pref) {}
  ServerList(std::initializer_list<NodeId> s) : servers(s) {}

  bool empty() const { return servers.empty(); }
  size_t size() const { return servers.size(); }
  NodeId at(size_t i) const { return servers[i % servers.size()]; }
};

// Reconnect/failover policy shared by both clients: exponential backoff
// between attempts, rotating through the ServerList.
struct ReconnectOptions {
  Duration initial_backoff = Millis(200);
  Duration max_backoff = Seconds(2);
  // 0 = retry forever. Counted per disconnect, reset on success.
  int max_attempts = 0;
  // Deterministic, seeded jitter: each backoff delay is shortened by a
  // uniform draw from [0, backoff_jitter * delay]. Without it the simulator's
  // determinism makes every client disconnected by the same fault retry in
  // perfect lockstep, hammering the recovering replica with synchronized
  // bursts. 0 disables jitter (tests that pin exact timings use this). Each
  // client seeds its private stream from its own node id (JitterSeedFor), so
  // runs stay replayable while clients decorrelate.
  double backoff_jitter = 0.5;
};

// Seeds a client's private jitter stream from its node id (splitmix-style
// odd-constant multiply, never 0) so distinct clients draw distinct, stable
// jitter streams.
inline uint64_t JitterSeedFor(NodeId id) {
  return 0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(id) + 1);
}

// One step of both clients' retry schedule: returns `*backoff` shortened by
// one draw from [0, backoff_jitter * *backoff], and doubles `*backoff` up to
// max_backoff (0 steps to initial_backoff).
inline Duration NextBackoff(const ReconnectOptions& options, Duration* backoff, Rng* rng) {
  Duration delay = *backoff;
  *backoff = *backoff == 0 ? options.initial_backoff
                           : std::min(*backoff * 2, options.max_backoff);
  if (options.backoff_jitter > 0.0 && delay > 0) {
    auto span = static_cast<uint64_t>(options.backoff_jitter * static_cast<double>(delay));
    if (span > 0) {
      delay -= static_cast<Duration>(rng->UniformU64(span + 1));
    }
  }
  return delay;
}

// Session lifecycle notifications a failover-aware application (or recipe
// layer) subscribes to. kSessionLost means volatile per-session server state
// (watches, in-flight replies) is gone; after kReconnected the application
// must re-arm watches and re-issue unacknowledged requests.
enum class SessionEvent : uint8_t {
  kConnected = 0,    // first session established
  kDisconnected = 1, // replica unreachable; failover in progress
  kSessionLost = 2,  // old session is dead (expired or replica lost it)
  kReconnected = 3,  // new session established on a (possibly new) replica
  // The ensemble reconfigured: the client refreshed its ServerList from the
  // replica's membership push, so future failovers target live members.
  kMembershipChanged = 4,
};

using SessionEventCb = std::function<void(SessionEvent)>;

// Typed result of invoking a server-side extension through its trigger
// object (§5.1.2 / §5.2.2). Replaces interpreting raw reply structs.
struct ExtensionResult {
  // True when a registered+acknowledged extension intercepted the call; the
  // extension's payload is in `value`. False = no extension fired and the
  // fields below describe the plain-operation fallback answer.
  bool intercepted = false;
  // Fallback only: whether the trigger object currently exists. When it does
  // not, ZooKeeper-family clients have armed a creation watch on it.
  bool exists = false;
  std::string value;
};

using ExtensionCb = ResultCb<ExtensionResult>;

}  // namespace edc

#endif  // EDC_COMMON_CLIENT_API_H_
