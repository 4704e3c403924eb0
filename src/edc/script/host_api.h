// The sandbox's host API (the state-proxy interface of Fig. 2), written once.
//
// One table lists every service function an extension may call: its
// determinism, the host sets exposing it, its arity, which argument is the
// path, and its effects. The sandbox host (ext/core.cpp) dispatches and
// checks calls from it; the verifier's white list and capped collections,
// the taint pass's sinks (analysis/determinism.cpp) and the registry lint's
// write sites are all read from it.

#ifndef EDC_SCRIPT_HOST_API_H_
#define EDC_SCRIPT_HOST_API_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "edc/script/verifier.h"

namespace edc {

// Host-function sets a sandbox can expose (bit mask over the host table).
enum HostSet : uint8_t {
  kEzkHost = 1,       // primary-backup: adds now/random/create_sequential
  kEdsHost = 2,       // active replication: deterministic functions only
  kReadOnlyHost = 4,  // EDS on_unblocked vetoes: reads and client_id
};

enum class HostFn {
  kClientId, kNow, kRandom, kRead, kExists, kChildren, kSubObjects, kBlock,
  kCreate, kDelete, kUpdate, kCas,
};

// Effect flags of a host function.
inline constexpr uint16_t kStateOp = 1;     // subject to the state-op budget
inline constexpr uint16_t kWrites = 2;      // mutating: subject to the /em guard
inline constexpr uint16_t kCreates = 4;     // subject to the object-creation budget
inline constexpr uint16_t kEphemeral = 8;
inline constexpr uint16_t kSequential = 16;
inline constexpr uint16_t kTaintSink = 32;  // nondeterminism reaching it diverges replicas
inline constexpr uint16_t kCollection = 64;  // returns a list capped at max_collection_items
// A write of its last argument to its literal path that the registry lint
// compares across extensions (EDC-W012).
inline constexpr uint16_t kTypedWrite = 128;

struct HostSpec {
  HostFn fn;
  bool deterministic;
  uint8_t sets;  // HostSet bits exposing the function
  size_t arity;
  int path_arg;  // index of the str path argument, -1 = none
  uint16_t flags;
};

const std::map<std::string, HostSpec>& HostTable();

// The entry for `name` if a set in `sets` exposes it, else nullptr.
const HostSpec* FindHostFn(const std::string& name,
                           uint8_t sets = kEzkHost | kEdsHost | kReadOnlyHost);

// The white list of a sandbox exposing `sets`: the core builtins plus those
// host functions with their determinism, and the collections among them.
VerifierConfig SandboxVerifierConfig(uint8_t sets);

}  // namespace edc

#endif  // EDC_SCRIPT_HOST_API_H_
