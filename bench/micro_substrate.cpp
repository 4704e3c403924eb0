// Microbenchmarks of the substrate data structures (real CPU time, via
// google-benchmark): data-tree operations, tuple matching, one EDS queue
// handler invocation, the wire codec, the log store, the event loop and the
// network. These are the hot paths under every simulated request.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/gbench_json.h"
#include "edc/common/codec.h"
#include "edc/ds/server.h"
#include "edc/ds/tuple_space.h"
#include "edc/ext/ds_binding.h"
#include "edc/logstore/logstore.h"
#include "edc/recipes/scripts.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/network.h"
#include "edc/zab/messages.h"
#include "edc/zk/data_tree.h"

namespace edc {
namespace {

void BM_DataTreeCreateDelete(benchmark::State& state) {
  DataTree tree;
  (void)tree.Create("/bench", "", 0, false, 1, 0);
  uint64_t zxid = 2;
  for (auto _ : state) {
    auto path = tree.Create("/bench/node", "payload", 0, false, zxid++, 0);
    benchmark::DoNotOptimize(path);
    (void)tree.Delete("/bench/node", -1, zxid++);
  }
}
BENCHMARK(BM_DataTreeCreateDelete);

void BM_DataTreeGetDeep(benchmark::State& state) {
  DataTree tree;
  std::string path;
  for (int depth = 0; depth < state.range(0); ++depth) {
    path += "/d" + std::to_string(depth);
    (void)tree.Create(path, "x", 0, false, 1, 0);
  }
  for (auto _ : state) {
    auto node = tree.Get(path);
    benchmark::DoNotOptimize(node);
  }
}
BENCHMARK(BM_DataTreeGetDeep)->Arg(2)->Arg(8)->Arg(32);

void BM_DataTreeGetChildren(benchmark::State& state) {
  DataTree tree;
  (void)tree.Create("/q", "", 0, false, 1, 0);
  for (int i = 0; i < state.range(0); ++i) {
    (void)tree.Create("/q/e" + std::to_string(i), "", 0, false, 2, 0);
  }
  for (auto _ : state) {
    auto children = tree.GetChildren("/q");
    benchmark::DoNotOptimize(children);
  }
}
BENCHMARK(BM_DataTreeGetChildren)->Arg(10)->Arg(100)->Arg(1000);

void BM_TreeSerialize(benchmark::State& state) {
  DataTree tree;
  (void)tree.Create("/s", "", 0, false, 1, 0);
  for (int i = 0; i < state.range(0); ++i) {
    (void)tree.Create("/s/n" + std::to_string(i), std::string(64, 'x'), 0, false, 2, 0);
  }
  for (auto _ : state) {
    auto bytes = tree.Serialize();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tree.Serialize().size()));
}
BENCHMARK(BM_TreeSerialize)->Arg(100)->Arg(1000);

// Exact-path lookup of one object among range(0) tuples: the index visits
// only the tuples with that path, so the cost should not grow with the space.
void BM_TupleExactMatch(benchmark::State& state) {
  TupleSpace space;
  for (int i = 0; i < state.range(0); ++i) {
    space.Out(ObjectTuple("/obj/" + std::to_string(i), "data"), i, 1, 0);
  }
  DsTemplate templ = ObjectTemplate("/obj/" + std::to_string(state.range(0) - 1));
  for (auto _ : state) {
    auto match = space.Rdp(templ);
    benchmark::DoNotOptimize(match);
  }
}
BENCHMARK(BM_TupleExactMatch)->Arg(16)->Arg(256)->Arg(4096);

// A path-prefix read of one 16-object directory (the queue's shape) in a
// space of range(0) tuples spread over range(0)/16 such directories.
void BM_TuplePrefixMatch(benchmark::State& state) {
  TupleSpace space;
  for (int i = 0; i < state.range(0); ++i) {
    space.Out(ObjectTuple("/d" + std::to_string(i % (state.range(0) / 16)) + "/e" +
                              std::to_string(i),
                          ""),
              i, 1, 0);
  }
  DsTemplate templ = ObjectPrefixTemplate("/d0");
  for (auto _ : state) {
    auto all = space.RdAll(templ);
    benchmark::DoNotOptimize(all);
  }
}
BENCHMARK(BM_TuplePrefixMatch)->Arg(16)->Arg(256)->Arg(4096);

// One remove of the EDS queue recipe (Fig. 7) as a replica executes it: the
// extension manager matches the op, and the handler runs on the VM behind the
// SandboxHost and the EDS state proxy (sub_objects over range(0) elements,
// min_by, delete_object). An out then refills the queue, so every iteration
// sees the same depth.
void BM_QueueHandlerInvocation(benchmark::State& state) {
  constexpr NodeId kClient = 101;
  EventLoop loop;
  Network net(&loop, Rng(1), LinkParams{});
  DsServer server(&loop, &net, 1, {1, 2, 3, 4}, CostModel{}, DsServerOptions{});
  DsExtensionManager manager(&server, ExtensionLimits{});
  DsOp reg;
  reg.type = DsOpType::kOut;
  reg.tuple = ObjectTuple("/em/queue_remove", kQueueExtension);
  SimTime ts = 1;
  DsExecContext setup(&server, kClient, 0, ts++);
  if (!manager.HandleOperation(&setup, kClient, reg).status.ok()) {
    state.SkipWithError("queue extension did not register");
    return;
  }
  int64_t next = 0;
  for (; next < state.range(0); ++next) {
    (void)setup.Out(ObjectTuple("/queue/e" + std::to_string(next), "v"), 0);
  }
  DsOp remove;
  remove.type = DsOpType::kRdp;
  remove.templ = ObjectTemplate("/queue/head");
  for (auto _ : state) {
    DsExecContext ctx(&server, kClient, 1, ts++);
    DsExecOutcome outcome = manager.HandleOperation(&ctx, kClient, remove);
    if (!outcome.status.ok()) {
      state.SkipWithError("queue remove failed");
      return;
    }
    (void)ctx.Out(ObjectTuple("/queue/e" + std::to_string(next++), "v"), 0);
  }
}
BENCHMARK(BM_QueueHandlerInvocation)->Arg(25)->Arg(256);

void BM_CodecEncodeDecode(benchmark::State& state) {
  std::string payload(static_cast<size_t>(state.range(0)), 'p');
  for (auto _ : state) {
    Encoder enc;
    enc.U64(12345);
    enc.Str("/some/path/to/node");
    enc.Str(payload);
    enc.Varint(777);
    Decoder dec(enc.buffer());
    uint64_t id = 0;
    std::string path;
    std::string data;
    uint64_t version = 0;
    dec.U64(id);
    dec.Str(path);
    dec.Str(data);
    dec.Varint(version);
    benchmark::DoNotOptimize(id);
    benchmark::DoNotOptimize(path);
    benchmark::DoNotOptimize(data);
    benchmark::DoNotOptimize(version);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CodecEncodeDecode)->Arg(64)->Arg(1024);

// --- proposal codec: per-message vs arena (docs/replication_pipeline.md) ---
//
// The replication hot path used to allocate a fresh Encoder per proposal for
// the wire frame and then a second one to re-encode the proposal for the
// log record. The arena path encodes once into a reused buffer and slices
// the log record out of the frame; these two benches measure that delta on
// the leader side, and the two below it measure the follower side
// (decode + re-encode vs borrow a view and copy the record slice).

// The pre-arena follower shape: a kPropose decoded into a proposal that owns
// a copy of its txn.
struct OwnedPropose {
  uint32_t epoch = 0;
  uint64_t zxid = 0;
  uint8_t flags = 0;
  std::vector<uint8_t> txn;
};

template <class Io>
void Fields(Io& io, OwnedPropose& m) {
  io.U32(m.epoch);
  io.U64(m.zxid);
  io.U8(m.flags);
  io.Bytes(m.txn);
}

void BM_ProposalEncodePerMessage(benchmark::State& state) {
  std::vector<uint8_t> txn(static_cast<size_t>(state.range(0)), 0xab);
  ZabRecordView p{MakeZxid(3, 12345), 0, txn};
  for (auto _ : state) {
    // Legacy shape: one Encoder for the wire frame, one to re-encode the
    // proposal as the log record.
    std::vector<uint8_t> frame = EncodeMsg(ProposeMsg{3, p});
    std::vector<uint8_t> record = EncodeMsg(p);
    benchmark::DoNotOptimize(frame);
    benchmark::DoNotOptimize(record);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ProposalEncodePerMessage)->Arg(64)->Arg(1024);

void BM_ProposalEncodeArena(benchmark::State& state) {
  std::vector<uint8_t> txn(static_cast<size_t>(state.range(0)), 0xab);
  ProposeMsg msg{3, {MakeZxid(3, 12345), 0, txn}};
  Encoder arena;
  for (auto _ : state) {
    arena.Clear();
    Fields(arena, msg);
    const std::vector<uint8_t>& frame = arena.buffer();
    std::vector<uint8_t> record(frame.begin() + kProposeHeaderBytes, frame.end());
    benchmark::DoNotOptimize(frame.data());
    benchmark::DoNotOptimize(record);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ProposalEncodeArena)->Arg(64)->Arg(1024);

void BM_ProposalDecodeAndRelog(benchmark::State& state) {
  std::vector<uint8_t> txn(static_cast<size_t>(state.range(0)), 0xab);
  std::vector<uint8_t> packet = EncodeMsg(ProposeMsg{3, {MakeZxid(3, 12345), 0, txn}});
  for (auto _ : state) {
    auto msg = DecodeMsg<OwnedPropose>(packet);
    std::vector<uint8_t> record = EncodeMsg(ZabRecordView{msg->zxid, msg->flags, msg->txn});
    benchmark::DoNotOptimize(record);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ProposalDecodeAndRelog)->Arg(64)->Arg(1024);

void BM_ProposalDecodeView(benchmark::State& state) {
  std::vector<uint8_t> txn(static_cast<size_t>(state.range(0)), 0xab);
  std::vector<uint8_t> packet = EncodeMsg(ProposeMsg{3, {MakeZxid(3, 12345), 0, txn}});
  for (auto _ : state) {
    auto view = DecodeProposeMsgView(packet);
    std::vector<uint8_t> record(view->record.begin(), view->record.end());
    benchmark::DoNotOptimize(view->proposal.txn);
    benchmark::DoNotOptimize(record);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ProposalDecodeView)->Arg(64)->Arg(1024);

// One record appended to the log and run until published: the LogStore
// copies it into its arena once, then the group-commit timer and the fsync
// completion run on the simulated clock. Every 4096 records the head is
// dropped, as log compaction would, so the arena stays bounded;
// "held_B_per_record" is the arena's bytes per record just before a drop.
void BM_LogStoreAppendPublish(benchmark::State& state) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  std::vector<uint8_t> record(static_cast<size_t>(state.range(0)), 0xab);
  constexpr size_t kKeep = 4096;
  double held_per_record = 0;
  for (auto _ : state) {
    log.Append(record, nullptr);
    loop.Run();
    if (log.durable_size() == kKeep) {
      held_per_record = static_cast<double>(log.bytes_held()) / kKeep;
      log.DropHead(kKeep);
    }
  }
  benchmark::DoNotOptimize(log.durable_size());
  state.counters["held_B_per_record"] = held_per_record;
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_LogStoreAppendPublish)->Arg(64)->Arg(1024);

// The same, for three replicas' logs on one RecordPool: each record (an
// 8-byte zxid, then filler) is appended by the leader and then by both
// followers, which take references to the leader's copy. Time is per record
// on all three stores; "held_B_per_record" is the pool's bytes per record per
// store just before a drop.
void BM_LogStoreSharedAppend(benchmark::State& state) {
  EventLoop loop;
  auto pool = std::make_shared<RecordPool>();
  std::vector<std::unique_ptr<LogStore>> logs;
  for (int i = 0; i < 3; ++i) {
    logs.push_back(std::make_unique<LogStore>(&loop, LogStoreConfig{}, pool));
  }
  std::vector<uint8_t> record(static_cast<size_t>(state.range(0)), 0xab);
  constexpr size_t kKeep = 4096;
  double held_per_record = 0;
  uint64_t zxid = 0;
  for (auto _ : state) {
    ++zxid;
    std::memcpy(record.data(), &zxid, sizeof(zxid));
    for (auto& log : logs) {
      log->Append(record, nullptr);
    }
    loop.Run();
    if (logs[0]->durable_size() == kKeep) {
      held_per_record = static_cast<double>(pool->bytes_held()) / kKeep / logs.size();
      for (auto& log : logs) {
        log->DropHead(kKeep);
      }
    }
  }
  benchmark::DoNotOptimize(logs[0]->durable_size());
  state.counters["held_B_per_record"] = held_per_record;
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_LogStoreSharedAppend)->Arg(64)->Arg(1024);

// The DsClient retry-timer pattern: arm a 1 s timer per request and cancel it
// when the reply arrives, with range(0) other timers queued. Cancelled keys
// are compacted away, so the heap stays near its live size however many
// timers were ever armed; "queued" reports the heap size at the end.
void BM_EventLoopScheduleCancel(benchmark::State& state) {
  EventLoop loop;
  for (int64_t i = 0; i < state.range(0); ++i) {
    loop.Schedule(Seconds(3600) + i, [] {});
  }
  for (auto _ : state) {
    TimerId id = loop.Schedule(Seconds(1), [] {});
    benchmark::DoNotOptimize(id);
    loop.Cancel(id);
  }
  state.counters["queued"] = static_cast<double>(loop.queued());
}
BENCHMARK(BM_EventLoopScheduleCancel)->Arg(64)->Arg(4096);

// Schedule one event and run it, with range(0) other timers queued behind
// it: the cost of every simulated hop through the event kernel.
void BM_EventLoopSchedulePop(benchmark::State& state) {
  EventLoop loop;
  for (int64_t i = 0; i < state.range(0); ++i) {
    loop.Schedule(Seconds(3600) + i, [] {});
  }
  int64_t ran = 0;
  for (auto _ : state) {
    loop.Schedule(Micros(1), [&ran] { ++ran; });
    loop.RunUntil(loop.now() + Micros(1));
  }
  benchmark::DoNotOptimize(ran);
}
BENCHMARK(BM_EventLoopSchedulePop)->Arg(64)->Arg(4096);

class SinkNode : public NetworkNode {
 public:
  void HandlePacket(Packet&& pkt) override { bytes_ += pkt.payload.size(); }
  size_t bytes() const { return bytes_; }

 private:
  size_t bytes_ = 0;
};

// Network::Send of one 64-byte packet between two of range(0) registered
// nodes, and its delivery.
void BM_NetworkSend(benchmark::State& state) {
  EventLoop loop;
  Network net(&loop, Rng(1), LinkParams{});
  std::vector<SinkNode> nodes(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < nodes.size(); ++i) {
    net.Register(static_cast<NodeId>(i + 1), &nodes[i]);
  }
  Packet pkt;
  pkt.src = 1;
  pkt.dst = 2;
  pkt.payload.assign(64, 0xab);
  for (auto _ : state) {
    net.Send(pkt);
    loop.RunUntil(loop.now() + Millis(1));
  }
  benchmark::DoNotOptimize(nodes[1].bytes());
}
BENCHMARK(BM_NetworkSend)->Arg(4)->Arg(64);

}  // namespace
}  // namespace edc

int main(int argc, char** argv) {
  return edc::GBenchMainWithJson("micro_substrate", argc, argv);
}
