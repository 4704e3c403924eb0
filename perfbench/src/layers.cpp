#include "layers.h"

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "edc/common/rng.h"
#include "edc/ext/ds_binding.h"
#include "edc/ext/registry.h"
#include "edc/ext/zk_binding.h"
#include "edc/recipes/scripts.h"
#include "edc/script/verifier.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/network.h"
#include "workloads.h"

namespace perfbench {

using edc::Value;

double ReplayScheduleRunNs(size_t pending, int64_t events) {
  edc::EventLoop loop;
  const edc::SimTime far = edc::Seconds(1000000);
  for (size_t i = 0; i < pending; ++i) {
    loop.ScheduleAt(far + static_cast<edc::SimTime>(i), []() {});
  }
  double start = CpuSeconds();
  for (int64_t i = 0; i < events; ++i) {
    loop.Schedule(1 + (i * 7919) % 1000, []() {});
    if (i % 64 == 63) {
      loop.RunUntil(loop.now() + 1000);
    }
  }
  loop.RunUntil(loop.now() + 1000);
  return (CpuSeconds() - start) * 1e9 / static_cast<double>(events);
}

double ReplayCancelNs(int64_t timers) {
  edc::EventLoop loop;
  std::vector<edc::TimerId> ids;
  ids.reserve(static_cast<size_t>(timers));
  for (int64_t i = 0; i < timers; ++i) {
    ids.push_back(loop.Schedule(1 + i, []() {}));
  }
  double start = CpuSeconds();
  for (edc::TimerId id : ids) {
    loop.Cancel(id);
  }
  loop.Run();
  return (CpuSeconds() - start) * 1e9 / static_cast<double>(timers);
}

namespace {

class SinkNode : public edc::NetworkNode {
 public:
  void HandlePacket(edc::Packet&& pkt) override { bytes += pkt.payload.size(); }
  size_t bytes = 0;
};

}  // namespace

double ReplayNetworkSendNs(size_t payload_bytes, int64_t packets) {
  edc::EventLoop loop;
  edc::Network net(&loop, edc::Rng(1), edc::LinkParams{});
  SinkNode a;
  SinkNode b;
  net.Register(1, &a);
  net.Register(2, &b);
  double start = CpuSeconds();
  for (int64_t i = 0; i < packets; ++i) {
    edc::Packet pkt;
    pkt.src = i % 2 == 0 ? 1 : 2;
    pkt.dst = i % 2 == 0 ? 2 : 1;
    pkt.type = 1;
    pkt.payload.assign(payload_bytes, static_cast<uint8_t>(i));
    net.Send(std::move(pkt));
    if (i % 64 == 63) {
      loop.RunUntil(loop.now() + edc::Micros(10));
    }
  }
  loop.Run();
  return (CpuSeconds() - start) * 1e9 / static_cast<double>(packets);
}

SnapshotReplay ReplaySnapshot(edc::DsServer& server, int reps) {
  SnapshotReplay out;
  double start = CpuSeconds();
  for (int i = 0; i < reps; ++i) {
    out.bytes = static_cast<double>(server.TakeSnapshot().size());
  }
  out.host_us = (CpuSeconds() - start) * 1e6 / reps;
  return out;
}

namespace {

// The state proxy of the replay: one counter object and one queue, held in
// memory. Removing an element appends a fresh one so every invocation sees
// the same queue length.
class ReplayHost : public edc::ScriptHost {
 public:
  explicit ReplayHost(size_t queue_len) {
    for (size_t i = 0; i < queue_len; ++i) {
      Append();
    }
  }

  bool HasFunction(const std::string& name) const override {
    return name == "read_object" || name == "update" || name == "sub_objects" ||
           name == "delete_object";
  }

  edc::Result<Value> Call(const std::string& name, std::vector<Value>& args) override {
    if (name == "read_object") {
      return Value::Map({{"path", args[0]}, {"data", Value(std::to_string(counter_))}});
    }
    if (name == "update") {
      counter_ = std::stoll(args[1].AsStr());
      return Value(true);
    }
    if (name == "sub_objects") {
      edc::ValueList objs;
      for (const auto& [path, ctime] : queue_) {
        objs.push_back(Value::Map({{"path", Value(path)},
                                   {"data", Value(path.substr(7))},
                                   {"ctime", Value(ctime)}}));
      }
      return Value::List(std::move(objs));
    }
    // delete_object: the handler removes the oldest element.
    queue_.pop_front();
    Append();
    return Value(true);
  }

 private:
  void Append() {
    queue_.emplace_back("/queue/e" + std::to_string(next_), next_);
    ++next_;
  }

  int64_t counter_ = 0;
  int64_t next_ = 1;
  std::deque<std::pair<std::string, int64_t>> queue_;
};

// The verifier settings of the binding the run used: its host-function
// white list, determinism rule and limits, read from an extension manager
// attached to a replica that is never started.
edc::VerifierConfig BindingVerifierConfig(const edc::FixtureOptions& options) {
  edc::EventLoop loop;
  edc::Network net(&loop, edc::Rng(1), edc::LinkParams{});
  if (edc::IsZkFamily(options.system)) {
    edc::ZkServer server(&loop, &net, 1, {1, 2, 3}, options.costs, options.zk_server);
    return edc::ZkExtensionManager(&server, options.limits).verifier_config();
  }
  edc::DsServer server(&loop, &net, 1, {1, 2, 3, 4}, options.costs, options.ds_server);
  return edc::DsExtensionManager(&server, options.limits).verifier_config();
}

}  // namespace

ExtensionReplay ReplayExtension(Handler handler, size_t queue_len, int64_t invocations,
                                const edc::FixtureOptions& options) {
  ExtensionReplay out;
  const bool counter = handler == Handler::kCounter;
  const edc::ExtensionLimits& limits = options.limits;
  edc::ExtensionRegistry registry;
  edc::Status loaded =
      registry.Load("replay", 1, counter ? edc::kCounterExtension : edc::kQueueExtension,
                    BindingVerifierConfig(options));
  if (!loaded.ok()) {
    return out;
  }
  const edc::LoadedExtension& ext = *registry.Find("replay");
  ReplayHost host(queue_len);
  const std::string trigger = counter ? "/ctr-increment" : "/queue/head";
  out.vm = true;
  double start = CpuSeconds();
  for (int64_t i = 0; i < invocations; ++i) {
    edc::HandlerRun run = edc::RunExtensionHandler(ext, "read", {Value(trigger)}, &host, limits);
    out.vm = out.vm && run.vm_dispatched && run.result.ok();
  }
  out.host_ns = (CpuSeconds() - start) * 1e9 / static_cast<double>(invocations);
  return out;
}

}  // namespace perfbench
