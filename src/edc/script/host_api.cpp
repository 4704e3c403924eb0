#include "edc/script/host_api.h"

namespace edc {

namespace {

constexpr uint16_t kMutation = kStateOp | kWrites | kTaintSink;
constexpr uint16_t kCreation = kMutation | kCreates;

constexpr uint8_t kBoth = kEzkHost | kEdsHost;
constexpr uint8_t kReads = kBoth | kReadOnlyHost;

}  // namespace

const std::map<std::string, HostSpec>& HostTable() {
  static const auto* kTable = new std::map<std::string, HostSpec>{
      {"client_id", {HostFn::kClientId, true, kReads, 0, -1, 0}},
      {"now", {HostFn::kNow, false, kEzkHost, 0, -1, 0}},
      {"random", {HostFn::kRandom, false, kEzkHost, 1, -1, 0}},
      {"read_object", {HostFn::kRead, true, kReads, 1, 0, kStateOp}},
      {"exists", {HostFn::kExists, true, kReads, 1, 0, kStateOp}},
      {"children", {HostFn::kChildren, true, kReads, 1, 0, kStateOp | kCollection}},
      {"sub_objects", {HostFn::kSubObjects, true, kReads, 1, 0, kStateOp | kCollection}},
      // block writes nothing, but the wait it registers is replicated state.
      {"block", {HostFn::kBlock, true, kBoth, 1, 0, kStateOp | kTaintSink}},
      {"create", {HostFn::kCreate, true, kBoth, 2, 0, kCreation | kTypedWrite}},
      {"create_ephemeral",
       {HostFn::kCreate, true, kBoth, 2, 0, kCreation | kEphemeral | kTypedWrite}},
      {"create_sequential",
       {HostFn::kCreate, true, kEzkHost, 2, 0, kCreation | kSequential | kTypedWrite}},
      // monitor(data, path): an ephemeral tied to the invoking client.
      {"monitor", {HostFn::kCreate, true, kBoth, 2, 1, kCreation | kEphemeral}},
      {"delete_object", {HostFn::kDelete, true, kBoth, 1, 0, kMutation}},
      {"update", {HostFn::kUpdate, true, kBoth, 2, 0, kMutation | kTypedWrite}},
      // cas(path, expected, next) writes `next`; `expected` is only compared.
      {"cas", {HostFn::kCas, true, kBoth, 3, 0, kMutation | kTypedWrite}},
  };
  return *kTable;
}

const HostSpec* FindHostFn(const std::string& name, uint8_t sets) {
  auto it = HostTable().find(name);
  return it != HostTable().end() && (it->second.sets & sets) != 0 ? &it->second : nullptr;
}

VerifierConfig SandboxVerifierConfig(uint8_t sets) {
  VerifierConfig config;
  config.allowed_functions = CoreAllowedFunctions();
  for (const auto& [name, spec] : HostTable()) {
    if ((spec.sets & sets) != 0) {
      config.allowed_functions[name] = spec.deterministic;
      if ((spec.flags & kCollection) != 0) {
        config.collection_functions.insert(name);
      }
    }
  }
  return config;
}

}  // namespace edc
