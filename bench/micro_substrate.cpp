// Microbenchmarks of the substrate data structures (real CPU time, via
// google-benchmark): data-tree operations, tuple matching, the wire codec and
// the event loop. These are the hot paths under every simulated request.

#include <benchmark/benchmark.h>

#include "bench/gbench_json.h"
#include "edc/common/codec.h"
#include "edc/ds/tuple_space.h"
#include "edc/sim/event_loop.h"
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

void BM_TupleMatch(benchmark::State& state) {
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
BENCHMARK(BM_TupleMatch)->Arg(10)->Arg(100)->Arg(1000);

void BM_TuplePrefixScan(benchmark::State& state) {
  TupleSpace space;
  for (int i = 0; i < state.range(0); ++i) {
    space.Out(ObjectTuple("/queue/e" + std::to_string(i), ""), i, 1, 0);
  }
  DsTemplate templ = ObjectPrefixTemplate("/queue");
  for (auto _ : state) {
    auto all = space.RdAll(templ);
    benchmark::DoNotOptimize(all);
  }
}
BENCHMARK(BM_TuplePrefixScan)->Arg(10)->Arg(100);

void BM_CodecEncodeDecode(benchmark::State& state) {
  std::string payload(static_cast<size_t>(state.range(0)), 'p');
  for (auto _ : state) {
    Encoder enc;
    enc.PutU64(12345);
    enc.PutString("/some/path/to/node");
    enc.PutString(payload);
    enc.PutVarint(777);
    Decoder dec(enc.buffer());
    benchmark::DoNotOptimize(dec.GetU64());
    benchmark::DoNotOptimize(dec.GetString());
    benchmark::DoNotOptimize(dec.GetString());
    benchmark::DoNotOptimize(dec.GetVarint());
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

ZabProposal MakeProposal(size_t txn_size) {
  ZabProposal p;
  p.zxid = MakeZxid(3, 12345);
  p.txn.assign(txn_size, 0xab);
  return p;
}

void BM_ProposalEncodePerMessage(benchmark::State& state) {
  ZabProposal p = MakeProposal(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    // Legacy shape: one Encoder for the wire frame, one to re-encode the
    // proposal as the log record.
    std::vector<uint8_t> frame = EncodeProposeMsg({3, p});
    Encoder rec;
    p.Encode(rec);
    std::vector<uint8_t> record = rec.Release();
    benchmark::DoNotOptimize(frame);
    benchmark::DoNotOptimize(record);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ProposalEncodePerMessage)->Arg(64)->Arg(1024);

void BM_ProposalEncodeArena(benchmark::State& state) {
  ZabProposal p = MakeProposal(static_cast<size_t>(state.range(0)));
  Encoder arena;
  for (auto _ : state) {
    arena.Clear();
    EncodeProposeMsgInto({3, p}, arena);
    const std::vector<uint8_t>& frame = arena.buffer();
    std::vector<uint8_t> record(frame.begin() + kProposeHeaderBytes, frame.end());
    benchmark::DoNotOptimize(frame.data());
    benchmark::DoNotOptimize(record);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ProposalEncodeArena)->Arg(64)->Arg(1024);

void BM_ProposalDecodeAndRelog(benchmark::State& state) {
  ZabProposal p = MakeProposal(static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> packet = EncodeProposeMsg({3, p});
  for (auto _ : state) {
    auto msg = DecodeProposeMsg(packet);
    Encoder rec;
    msg->proposal.Encode(rec);
    std::vector<uint8_t> record = rec.Release();
    benchmark::DoNotOptimize(record);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ProposalDecodeAndRelog)->Arg(64)->Arg(1024);

void BM_ProposalDecodeView(benchmark::State& state) {
  ZabProposal p = MakeProposal(static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> packet = EncodeProposeMsg({3, p});
  for (auto _ : state) {
    auto view = DecodeProposeMsgView(packet);
    std::vector<uint8_t> record(view->record, view->record + view->record_size);
    benchmark::DoNotOptimize(view->txn);
    benchmark::DoNotOptimize(record);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ProposalDecodeView)->Arg(64)->Arg(1024);

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

}  // namespace
}  // namespace edc

int main(int argc, char** argv) {
  return edc::GBenchMainWithJson("micro_substrate", argc, argv);
}
