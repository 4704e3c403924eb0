// Pipelined group-commit determinism + crash-point suite (ctest -L pipeline).
//
// Pins the PR 7 LogStore pipelining contract from docs/replication_pipeline.md:
//   * depth 1 + fixed window reproduces the legacy serial fsync timing exactly;
//   * deeper pipelines overlap fsyncs (a batch is submitted while earlier
//     batches' fsyncs are in flight) but publication — the durable
//     watermark, durable callbacks, the batch hook — stays strictly in
//     submission order even
//     when channels complete out of order at the device;
//   * a crash (DropUnsynced) at ANY boundary between submitted batches
//     truncates to the published durable prefix, which round-trips through
//     SerializeImage/RestoreImage;
//   * adaptive group-commit sizing is fully deterministic: the same append
//     schedule produces the same window trajectory, sync count and callback
//     order on every run, and the same records under every pipeline depth;
//   * the store owns the only copy of each record (docs/replication_pipeline.md,
//     "Who owns the bytes"): a view from record(i) survives later appends,
//     cuts and head drops remove exactly the records they name (in-flight
//     ones included), and the arena holds little beyond the payload.

#include "edc/logstore/logstore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "edc/common/hash.h"
#include "edc/harness/fixture.h"
#include "edc/obs/obs.h"

namespace edc {
namespace {

std::vector<uint8_t> Rec(uint8_t tag, size_t n = 8) { return std::vector<uint8_t>(n, tag); }

std::vector<uint8_t> At(const LogStore& log, size_t i) {
  std::span<const uint8_t> r = log.record(i);
  return {r.begin(), r.end()};
}

// The durable records, copied out of the store.
std::vector<std::vector<uint8_t>> Durable(const LogStore& log) {
  std::vector<std::vector<uint8_t>> out;
  for (size_t i = 0; i < log.durable_size(); ++i) {
    out.push_back(At(log, i));
  }
  return out;
}

// 8-byte record at 2e9 bits/s: 8 * 8 / 2e9 * 1e9 = 32 ns of write time.
constexpr Duration kWrite8 = 32;

TEST(PipelineLogStoreTest, DepthOneReproducesLegacySerialTiming) {
  // The legacy contract, hand-computed: flush at window expiry, durable at
  // max(now, disk_free) + fsync + write, next batch waits out the previous
  // fsync on the single channel.
  EventLoop loop;
  LogStore log(&loop, LegacyLogStoreConfig());
  std::vector<SimTime> durable_at;
  log.Append(Rec(1), [&] { durable_at.push_back(loop.now()); });
  loop.ScheduleAt(Micros(30), [&] {
    log.Append(Rec(2), [&] { durable_at.push_back(loop.now()); });
  });
  loop.Run();
  ASSERT_EQ(durable_at.size(), 2u);
  // Batch 1: submit t=20us, durable 20us + 60us + 32ns.
  EXPECT_EQ(durable_at[0], Micros(80) + kWrite8);
  // Batch 2: submit t=50us, but the single channel is busy until 80.032us:
  // durable = 80.032us + 60us + 32ns. No overlap at depth 1.
  EXPECT_EQ(durable_at[1], Micros(140) + 2 * kWrite8);
  EXPECT_EQ(log.syncs(), 2);
}

TEST(PipelineLogStoreTest, DeeperPipelineOverlapsFsyncs) {
  // Same schedule as above but with idle channels available: batch 2 starts
  // its fsync immediately at submission instead of queueing behind batch 1.
  EventLoop loop;
  LogStoreConfig cfg;
  cfg.pipeline_depth = 4;
  cfg.adaptive_window = false;
  LogStore log(&loop, cfg);
  std::vector<SimTime> durable_at;
  log.Append(Rec(1), [&] { durable_at.push_back(loop.now()); });
  loop.ScheduleAt(Micros(30), [&] {
    log.Append(Rec(2), [&] { durable_at.push_back(loop.now()); });
  });
  loop.Run();
  ASSERT_EQ(durable_at.size(), 2u);
  EXPECT_EQ(durable_at[0], Micros(80) + kWrite8);
  // Batch 2: submit t=50us on a free channel, durable 50us + 60us + 32ns —
  // 30us earlier than the depth-1 run. The fsync wall is gone.
  EXPECT_EQ(durable_at[1], Micros(110) + kWrite8);
  EXPECT_EQ(log.syncs(), 2);
}

TEST(PipelineLogStoreTest, OutOfOrderDeviceCompletionPublishesInSubmissionOrder) {
  // Batch 1 is a huge write (1 MB => 4 ms device time); batch 2 is tiny and
  // its channel finishes ~3.9 ms earlier. Publication must still be batch 1
  // first, batch 2 gated behind it, at batch 1's completion instant.
  EventLoop loop;
  LogStoreConfig cfg;
  cfg.pipeline_depth = 4;
  cfg.adaptive_window = false;
  LogStore log(&loop, cfg);
  std::vector<int> order;
  std::vector<SimTime> at;
  int batch_hook_fires = 0;
  log.SetBatchDurableCallback([&] { ++batch_hook_fires; });
  log.Append(std::vector<uint8_t>(1 << 20, 0xaa), [&] {
    order.push_back(1);
    at.push_back(loop.now());
  });
  loop.ScheduleAt(Micros(30), [&] {
    log.Append(Rec(2), [&] {
      order.push_back(2);
      at.push_back(loop.now());
    });
  });
  loop.Run();
  ASSERT_EQ(order, (std::vector<int>{1, 2}));
  // 1 MB at 2e9 bits/s = 4.194304 ms; batch 1 submit 20us, fsync 60us.
  const SimTime batch1_durable =
      Micros(80) + static_cast<Duration>((1 << 20) * 8.0 / 2e9 * 1e9);
  EXPECT_EQ(at[0], batch1_durable);
  EXPECT_EQ(at[1], batch1_durable);  // gated: published in the same run
  ASSERT_EQ(log.durable_size(), 2u);
  EXPECT_EQ(At(log, 1), Rec(2));
  // Both batches published in one run => one cumulative batch notification.
  EXPECT_EQ(batch_hook_fires, 1);
}

TEST(PipelineLogStoreTest, CrashLosesDeviceDurableButUnpublishedBatches) {
  // Same out-of-order shape, but the store crashes after batch 2's device
  // fsync completed and before batch 1 (and therefore batch 2) published:
  // recovery must see the empty published prefix, not batch 2.
  EventLoop loop;
  LogStoreConfig cfg;
  cfg.pipeline_depth = 4;
  cfg.adaptive_window = false;
  LogStore log(&loop, cfg);
  int durable = 0;
  log.Append(std::vector<uint8_t>(1 << 20, 0xaa), [&] { ++durable; });
  loop.ScheduleAt(Micros(30), [&] { log.Append(Rec(2), [&] { ++durable; }); });
  // Batch 2's channel is done at ~110us; batch 1 publishes at ~4.27ms.
  loop.ScheduleAt(Micros(200), [&] { log.DropUnsynced(); });
  loop.Run();
  EXPECT_EQ(durable, 0);
  EXPECT_EQ(log.durable_size(), 0u);
  // The store keeps working after the crash.
  log.Append(Rec(3), [&] { ++durable; });
  loop.Run();
  EXPECT_EQ(durable, 1);
  ASSERT_EQ(log.durable_size(), 1u);
  EXPECT_EQ(At(log, 0), Rec(3));
}

TEST(PipelineLogStoreTest, CrashAtEveryBatchBoundaryTruncatesToDurablePrefix) {
  // Six single-record batches staggered 25us apart under a depth-3 pipeline.
  // Reference run: collect each batch's publication time. Then for every
  // boundary, crash just after the j-th publication and assert the store
  // holds exactly the first j records — and that the on-disk image of that
  // state round-trips.
  LogStoreConfig cfg;
  cfg.pipeline_depth = 3;
  cfg.adaptive_window = false;
  constexpr int kBatches = 6;

  std::vector<SimTime> publish_at;
  {
    EventLoop loop;
    LogStore log(&loop, cfg);
    for (int i = 0; i < kBatches; ++i) {
      loop.ScheduleAt(Micros(25) * i, [&, i] {
        log.Append(Rec(static_cast<uint8_t>(i + 1)), [&] { publish_at.push_back(loop.now()); });
      });
    }
    loop.Run();
    ASSERT_EQ(publish_at.size(), static_cast<size_t>(kBatches));
    for (int i = 1; i < kBatches; ++i) {
      ASSERT_GE(publish_at[i], publish_at[i - 1]) << "publication must be ordered";
    }
  }

  for (int j = 0; j <= kBatches; ++j) {
    EventLoop loop;
    LogStore log(&loop, cfg);
    // Crash 1ns after the j-th publication (j=0: before any). The crash also
    // silences the writer: a crashed process stops appending.
    SimTime crash_at = j == 0 ? publish_at[0] - 1 : publish_at[j - 1] + 1;
    bool crashed = false;
    for (int i = 0; i < kBatches; ++i) {
      loop.ScheduleAt(Micros(25) * i, [&, i] {
        if (!crashed) {
          log.Append(Rec(static_cast<uint8_t>(i + 1)), nullptr);
        }
      });
    }
    loop.ScheduleAt(crash_at, [&] {
      crashed = true;
      log.DropUnsynced();
    });
    loop.Run();
    ASSERT_EQ(log.durable_size(), static_cast<size_t>(j)) << "crash after batch " << j;
    for (int i = 0; i < j; ++i) {
      EXPECT_EQ(At(log, i), Rec(static_cast<uint8_t>(i + 1)));
    }
    // Recovery truncates to this durable prefix: image round-trip.
    EventLoop loop2;
    LogStore restored(&loop2, cfg);
    auto n = restored.RestoreImage(log.SerializeImage());
    ASSERT_TRUE(n.status().ok());
    EXPECT_EQ(*n, static_cast<size_t>(j));
    EXPECT_EQ(Durable(restored), Durable(log));
  }
}

TEST(PipelineLogStoreTest, AdaptiveWindowGrowsUnderPressureAndShrinksWhenIdle) {
  EventLoop loop;
  LogStoreConfig cfg;  // pipelined + adaptive defaults
  ASSERT_TRUE(cfg.adaptive_window);
  LogStore log(&loop, cfg);
  EXPECT_EQ(log.current_window(), Micros(20));
  // Pressure: a 10-record batch (>= window_grow_records) doubles the window.
  for (int i = 0; i < 10; ++i) {
    log.Append(Rec(static_cast<uint8_t>(i)), nullptr);
  }
  loop.Run();
  EXPECT_EQ(log.current_window(), Micros(40));
  // Still pressured: grows toward the cap.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 10; ++i) {
      log.Append(Rec(1), nullptr);
    }
    loop.Run();
  }
  EXPECT_EQ(log.current_window(), Micros(160));  // clamped at max_window
  // Idle: lone appends (<= window_shrink_records) halve it back to the floor.
  std::vector<Duration> trajectory;
  for (int i = 0; i < 7; ++i) {
    log.Append(Rec(1), nullptr);
    loop.Run();
    trajectory.push_back(log.current_window());
  }
  EXPECT_EQ(trajectory, (std::vector<Duration>{Micros(80), Micros(40), Micros(20), Micros(10),
                                               Micros(5), Micros(5), Micros(5)}));
}

// Runs a fixed two-phase workload (a burst, then staggered singles) and
// returns a fingerprint of everything callers can observe: record bytes,
// callback order, sync count, window trajectory.
struct WorkloadResult {
  uint64_t records_hash = kFnvOffset;
  std::vector<int> callback_order;
  std::vector<SimTime> callback_times;
  int64_t syncs = 0;
  std::vector<Duration> windows;

  bool operator==(const WorkloadResult& o) const {
    return records_hash == o.records_hash && callback_order == o.callback_order &&
           callback_times == o.callback_times && syncs == o.syncs && windows == o.windows;
  }
};

WorkloadResult RunWorkload(const LogStoreConfig& cfg) {
  EventLoop loop;
  LogStore log(&loop, cfg);
  WorkloadResult r;
  int tag = 0;
  auto append = [&](uint8_t v) {
    int id = tag++;
    log.Append(Rec(v, 8 + v % 5), [&r, id, &loop, &log] {
      r.callback_order.push_back(id);
      r.callback_times.push_back(loop.now());
      r.windows.push_back(log.current_window());
    });
  };
  for (int i = 0; i < 12; ++i) {
    append(static_cast<uint8_t>(i));
  }
  for (int i = 0; i < 8; ++i) {
    loop.ScheduleAt(Micros(300) + Micros(40) * i,
                    [&append, i] { append(static_cast<uint8_t>(100 + i)); });
  }
  loop.Run();
  for (size_t i = 0; i < log.durable_size(); ++i) {
    std::span<const uint8_t> rec = log.record(i);
    r.records_hash = Fnv1a64(rec.data(), rec.size(), r.records_hash);
  }
  r.syncs = log.syncs();
  return r;
}

TEST(PipelineLogStoreTest, AdaptiveSizingIsDeterministicAcrossRuns) {
  LogStoreConfig cfg;  // pipelined + adaptive defaults
  WorkloadResult a = RunWorkload(cfg);
  WorkloadResult b = RunWorkload(cfg);
  EXPECT_TRUE(a == b) << "same schedule must reproduce byte-identical behaviour";
  EXPECT_FALSE(a.callback_order.empty());
}

TEST(PipelineLogStoreTest, RecordsAndCallbackOrderIdenticalAcrossPipelineDepths) {
  // Timing shifts across depths, but content and order — what replication
  // feeds on — must not.
  WorkloadResult legacy = RunWorkload(LegacyLogStoreConfig());
  for (size_t depth : {size_t{2}, size_t{4}, size_t{8}}) {
    LogStoreConfig cfg;
    cfg.pipeline_depth = depth;
    cfg.adaptive_window = false;
    WorkloadResult r = RunWorkload(cfg);
    EXPECT_EQ(r.records_hash, legacy.records_hash) << "depth " << depth;
    EXPECT_EQ(r.callback_order, legacy.callback_order) << "depth " << depth;
  }
  // Adaptive sizing changes batching (sync count) but never content/order.
  WorkloadResult adaptive = RunWorkload(LogStoreConfig{});
  EXPECT_EQ(adaptive.records_hash, legacy.records_hash);
  EXPECT_EQ(adaptive.callback_order, legacy.callback_order);
}

TEST(PipelineLogStoreTest, InflightHistogramShowsPipelineDepthAboveOne) {
  // The observability contract tests rely on: "logstore.inflight" proves the
  // pipeline actually overlapped batches (no vacuous determinism pass).
  EventLoop loop;
  loop.obs().tracer.Enable();
  LogStoreConfig cfg;
  cfg.pipeline_depth = 4;
  cfg.adaptive_window = false;
  LogStore log(&loop, cfg, nullptr, 1);
  log.Append(std::vector<uint8_t>(1 << 20, 0xaa), nullptr);  // 4ms of write
  for (int i = 0; i < 3; ++i) {
    loop.ScheduleAt(Micros(30) * (i + 1), [&] { log.Append(Rec(7), nullptr); });
  }
  loop.Run();
  const MetricsRegistry& metrics = loop.obs().metrics;
  const Recorder* inflight = metrics.Histogram("logstore.inflight");
  ASSERT_NE(inflight, nullptr);
  EXPECT_GT(inflight->Max(), 1);
  const Recorder* window = metrics.Histogram("logstore.window_us");
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->count(), static_cast<size_t>(log.syncs()));
}

TEST(PipelineLogStoreTest, BatchHookFiresOncePerPublicationRun) {
  EventLoop loop;
  LogStoreConfig cfg;
  cfg.pipeline_depth = 2;
  cfg.adaptive_window = false;
  LogStore log(&loop, cfg);
  int fires = 0;
  int durable = 0;
  log.SetBatchDurableCallback([&] { ++fires; });
  // Three well-separated batches => three publication runs.
  for (int i = 0; i < 3; ++i) {
    loop.ScheduleAt(Micros(200) * i, [&] {
      log.Append(Rec(1), [&] { ++durable; });
      log.Append(Rec(2), [&] { ++durable; });
    });
  }
  loop.Run();
  EXPECT_EQ(durable, 6);
  EXPECT_EQ(fires, 3);  // cumulative: one per batch, not one per record
}


// --- Ownership: the store holds the only copy of each record -------------

TEST(LogStoreOwnershipTest, RecordViewSurvivesAppendsThatOpenNewBlocks) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  log.Append(Rec(0x5a, 100), nullptr);
  std::span<const uint8_t> first = log.record(0);  // in flight, still viewable
  loop.Run();
  ASSERT_EQ(log.durable_size(), 1u);
  ASSERT_EQ(log.record(0).data(), first.data());
  size_t blocks_before = log.bytes_held() / LogStore::kBlockBytes;
  for (int i = 0; i < 10000; ++i) {
    log.Append(Rec(static_cast<uint8_t>(i), 100), nullptr);
    if (i % 1000 == 999) {
      loop.Run();
    }
  }
  loop.Run();
  ASSERT_EQ(log.durable_size(), 10001u);
  EXPECT_GT(log.bytes_held() / LogStore::kBlockBytes, blocks_before + 10);
  EXPECT_EQ(log.record(0).data(), first.data());
  EXPECT_EQ(std::vector<uint8_t>(first.begin(), first.end()), Rec(0x5a, 100));
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(At(log, i + 1), Rec(static_cast<uint8_t>(i), 100)) << "record " << i + 1;
  }
}

// Three durable records, then records 3..4 in a submitted batch whose fsync
// is in flight and 5..6 still accumulating. Records fire `fired` as they
// publish.
struct InflightLog {
  InflightLog() : log(&loop, Config()) {
    for (uint8_t i = 0; i < 3; ++i) {
      Add(i);
    }
    loop.Run();
    Add(3);
    Add(4);
    loop.RunUntil(loop.now() + Micros(30));  // window (20us) passed, fsync (60us) not
    Add(5);
    Add(6);
  }
  static LogStoreConfig Config() {
    LogStoreConfig cfg;
    cfg.adaptive_window = false;
    return cfg;
  }
  void Add(uint8_t i) {
    log.Append(Rec(i, 10 + i), [this, i] { fired.insert(i); });
  }
  EventLoop loop;
  LogStore log;
  std::set<int> fired;
};

TEST(LogStoreOwnershipTest, CutsWithBatchesInFlightLeaveExactlyTheKeptRecords) {
  {
    InflightLog t;
    ASSERT_EQ(t.log.durable_size(), 3u);
    ASSERT_EQ(t.log.appended_size(), 7u);
    ASSERT_EQ(t.log.inflight_batches(), 1u);
    t.log.DropUnsynced();
    EXPECT_EQ(t.log.appended_size(), 3u);
    t.loop.Run();
    EXPECT_EQ(t.fired, (std::set<int>{0, 1, 2}));
    EXPECT_EQ(t.log.durable_size(), 3u);
    EXPECT_EQ(t.log.appended_size(), 3u);
    for (uint8_t i = 0; i < 3; ++i) {
      EXPECT_EQ(At(t.log, i), Rec(i, 10 + i));
    }
  }
  {
    // The cut falls inside the submitted batch: record 3 survives and
    // publishes with its batch; 4..6 never do.
    InflightLog t;
    t.log.Truncate(4);
    EXPECT_EQ(t.log.appended_size(), 4u);
    t.loop.Run();
    EXPECT_EQ(t.fired, (std::set<int>{0, 1, 2, 3}));
    ASSERT_EQ(t.log.durable_size(), 4u);
    ASSERT_EQ(t.log.appended_size(), 4u);
    EXPECT_EQ(At(t.log, 3), Rec(3, 13));
    // The next append takes the freed slot.
    t.log.Append(Rec(9, 19), nullptr);
    t.loop.Run();
    ASSERT_EQ(t.log.durable_size(), 5u);
    EXPECT_EQ(At(t.log, 4), Rec(9, 19));
  }
  {
    // A cut below the durable watermark takes every in-flight record too.
    InflightLog t;
    t.log.Truncate(1);
    t.loop.Run();
    EXPECT_EQ(t.fired, (std::set<int>{0, 1, 2}));
    ASSERT_EQ(t.log.durable_size(), 1u);
    ASSERT_EQ(t.log.appended_size(), 1u);
    EXPECT_EQ(At(t.log, 0), Rec(0, 10));
  }
}

TEST(LogStoreOwnershipTest, DropHeadFreesWholeLeadingBlocks) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  // 1000-byte records: 65 fit in a block, so 200 records span four blocks.
  const size_t per_block = LogStore::kBlockBytes / 1000;
  for (int i = 0; i < 200; ++i) {
    log.Append(Rec(static_cast<uint8_t>(i), 1000), nullptr);
  }
  loop.Run();
  ASSERT_EQ(log.bytes_held(), 4 * LogStore::kBlockBytes);
  // Dropping into the second block frees only the first.
  log.DropHead(per_block + 5);
  EXPECT_EQ(log.bytes_held(), 3 * LogStore::kBlockBytes);
  ASSERT_EQ(log.durable_size(), 200 - per_block - 5);
  for (size_t i = 0; i < log.durable_size(); ++i) {
    ASSERT_EQ(At(log, i), Rec(static_cast<uint8_t>(i + per_block + 5), 1000)) << i;
  }
  // Dropping exactly to a block boundary frees the block before it.
  log.DropHead(per_block - 5);
  EXPECT_EQ(log.bytes_held(), 2 * LogStore::kBlockBytes);
  EXPECT_EQ(At(log, 0), Rec(static_cast<uint8_t>(2 * per_block), 1000));
  // Dropping everything keeps only the tail block for later appends, and
  // in-flight records dropped this way still report durability.
  int durable = 0;
  log.Append(Rec(7, 1000), [&] { ++durable; });
  log.DropHead(log.appended_size());
  EXPECT_EQ(log.appended_size(), 0u);
  EXPECT_EQ(log.bytes_held(), LogStore::kBlockBytes);
  log.Append(Rec(8, 1000), [&] { ++durable; });
  loop.Run();
  EXPECT_EQ(durable, 2);
  ASSERT_EQ(log.durable_size(), 1u);
  EXPECT_EQ(At(log, 0), Rec(8, 1000));
  // The dropped record was still written: the device paid for its bytes.
  EXPECT_EQ(log.appended_bytes(), 202 * 1000);
}

TEST(LogStoreOwnershipTest, RecordLargerThanABlockGetsItsOwn) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  const size_t big = 2 * LogStore::kBlockBytes + 7;
  log.Append(Rec(1, 10), nullptr);
  log.Append(Rec(2, big), nullptr);
  log.Append(Rec(3, 10), nullptr);
  loop.Run();
  ASSERT_EQ(log.durable_size(), 3u);
  EXPECT_EQ(log.bytes_held(), 2 * LogStore::kBlockBytes + big);
  EXPECT_EQ(At(log, 0), Rec(1, 10));
  EXPECT_EQ(At(log, 1), Rec(2, big));
  EXPECT_EQ(At(log, 2), Rec(3, 10));
  // The image framing is unchanged by where the bytes live.
  EventLoop loop2;
  LogStore restored(&loop2, LogStoreConfig{});
  ASSERT_TRUE(restored.RestoreImage(log.SerializeImage()).status().ok());
  EXPECT_EQ(Durable(restored), Durable(log));
}

TEST(LogStoreOwnershipTest, HeldBytesStayCloseToThePayload) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  size_t payload = 0;
  const size_t records = 5000;
  for (size_t i = 0; i < records; ++i) {
    size_t n = 1 + (i * 37) % 300;
    payload += n;
    log.Append(Rec(static_cast<uint8_t>(i), n), nullptr);
  }
  loop.Run();
  EXPECT_GE(log.bytes_held(), payload);
  EXPECT_LE(log.bytes_held(), payload + LogStore::kBlockBytes + 8 * records);
}

// --- One pool per cluster: replicas share identical records --------------

// A Zab-shaped record: an 8-byte zxid, then `n` payload bytes.
std::vector<uint8_t> ZxRec(uint64_t zxid, size_t n = 100) {
  std::vector<uint8_t> r(8 + n, static_cast<uint8_t>(zxid * 7 + 1));
  std::memcpy(r.data(), &zxid, 8);
  return r;
}

// Three replicas on one pool; `Log(i, k)` logs record k on replica i.
struct SharedCluster {
  SharedCluster() {
    for (auto& log : logs) {
      log = std::make_unique<LogStore>(&loop, LogStoreConfig{}, pool);
    }
  }
  void Log(size_t i, uint64_t k) { logs[i]->Append(ZxRec(k), nullptr); }
  // Leader first, then each follower, in batches of 50 as a pipeline would.
  void LogAll(uint64_t from, uint64_t to) {
    for (uint64_t b = from; b < to; b += 50) {
      for (size_t i = 0; i < 3; ++i) {
        for (uint64_t k = b; k < std::min(b + 50, to); ++k) {
          Log(i, k);
        }
      }
    }
  }
  EventLoop loop;
  std::shared_ptr<RecordPool> pool = std::make_shared<RecordPool>();
  std::unique_ptr<LogStore> logs[3];
};

TEST(RecordPoolTest, ThreeStoresOnOnePoolHoldOneCopy) {
  SharedCluster c;
  c.LogAll(0, 3000);
  c.loop.Run();
  EventLoop loop;
  LogStore alone(&loop, LogStoreConfig{});
  for (uint64_t k = 0; k < 3000; ++k) {
    alone.Append(ZxRec(k), nullptr);
  }
  loop.Run();
  // The table is direct-mapped, so a placement evicted by a colliding one
  // before a follower logs it is copied again: about one in a hundred here.
  EXPECT_EQ(c.pool->placed(), 3u * 3000);
  EXPECT_GE(c.pool->shared(), 2u * 3000 * 99 / 100);
  EXPECT_GE(c.pool->bytes_held(), alone.bytes_held());
  EXPECT_LE(c.pool->bytes_held(), alone.bytes_held() + RecordPool::kBlockBytes);
  for (auto& log : c.logs) {
    ASSERT_EQ(log->durable_size(), 3000u);
    EXPECT_EQ(log->bytes_held(), c.pool->bytes_held());
    for (uint64_t k = 0; k < 3000; ++k) {
      ASSERT_EQ(At(*log, k), ZxRec(k)) << k;
    }
  }
  // The simulated device still writes every replica's bytes.
  EXPECT_EQ(c.logs[1]->appended_bytes(), alone.appended_bytes());
}

TEST(RecordPoolTest, AStoreNeverSharesItsOwnPlacements) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  log.Append(ZxRec(1), nullptr);
  log.Append(ZxRec(1), nullptr);
  EXPECT_EQ(log.pool().shared(), 0u);
  EXPECT_NE(log.record(0).data(), log.record(1).data());
  EXPECT_EQ(At(log, 0), At(log, 1));
}

TEST(RecordPoolTest, CutsOnOneStoreLeaveTheOthersUnchanged) {
  SharedCluster c;
  c.LogAll(0, 2000);
  c.loop.Run();
  c.LogAll(2000, 2100);  // in flight on every replica
  size_t held = c.pool->bytes_held();
  std::vector<std::span<const uint8_t>> before[3];
  for (size_t i = 0; i < 3; ++i) {
    for (size_t k = 0; k < c.logs[i]->appended_size(); ++k) {
      before[i].push_back(c.logs[i]->record(k));
    }
  }
  auto unchanged = [&](size_t i) {
    ASSERT_EQ(c.logs[i]->appended_size(), before[i].size());
    for (size_t k = 0; k < before[i].size(); ++k) {
      ASSERT_EQ(c.logs[i]->record(k).data(), before[i][k].data()) << i << " " << k;
      ASSERT_EQ(At(*c.logs[i], k), ZxRec(k)) << i << " " << k;
    }
  };
  c.logs[0]->DropUnsynced();
  EXPECT_EQ(c.logs[0]->appended_size(), 2000u);
  c.logs[0]->Truncate(1500);
  c.logs[0]->DropHead(1000);
  EXPECT_EQ(At(*c.logs[0], 0), ZxRec(1000));
  unchanged(1);
  unchanged(2);
  c.logs[1]->Truncate(0);
  unchanged(2);
  c.loop.Run();
  EXPECT_EQ(c.logs[2]->durable_size(), 2100u);
  // Replica 2 still references every record, so no block was freed.
  EXPECT_EQ(c.pool->bytes_held(), held);
  // Once no store references a block, only the fill block stays.
  c.logs[0].reset();
  c.logs[2]->DropHead(2100);
  EXPECT_EQ(c.pool->bytes_held(), RecordPool::kBlockBytes);
}

TEST(RecordPoolTest, SameKeyDifferentBytesStaySeparate) {
  EventLoop loop;
  auto pool = std::make_shared<RecordPool>();
  LogStore a(&loop, LogStoreConfig{}, pool);
  LogStore b(&loop, LogStoreConfig{}, pool);
  // Same length, same first and last 8 bytes: only the middle differs.
  std::vector<uint8_t> r1 = ZxRec(42, 64);
  std::vector<uint8_t> r2 = r1;
  r2[40] ^= 0xff;
  a.Append(r1, nullptr);
  b.Append(r2, nullptr);
  a.Append(r2, nullptr);  // now equal to b's placement
  EXPECT_EQ(pool->shared(), 1u);
  EXPECT_EQ(At(a, 0), r1);
  EXPECT_EQ(At(b, 0), r2);
  EXPECT_EQ(At(a, 1), r2);
  EXPECT_NE(a.record(0).data(), b.record(0).data());
  EXPECT_EQ(a.record(1).data(), b.record(0).data());
}

TEST(RecordPoolTest, FreedBlockIsNeverReturnedByALaterLookup) {
  EventLoop loop;
  auto pool = std::make_shared<RecordPool>();
  LogStore a(&loop, LogStoreConfig{}, pool);
  LogStore b(&loop, LogStoreConfig{}, pool);
  const std::vector<uint8_t> x = ZxRec(7, 1000);
  a.Append(x, nullptr);
  // Fill the rest of x's block so a second block becomes the fill block.
  const size_t per_block = RecordPool::kBlockBytes / x.size();
  for (size_t k = 0; k < per_block; ++k) {
    a.Append(ZxRec(100 + k, 1000), nullptr);
  }
  ASSERT_EQ(pool->bytes_held(), 2 * RecordPool::kBlockBytes);
  a.Truncate(0);  // frees x's block; the fill block stays
  ASSERT_EQ(pool->bytes_held(), RecordPool::kBlockBytes);
  // The table still names x's placement, but its block is gone: b copies.
  b.Append(x, nullptr);
  EXPECT_EQ(pool->shared(), 0u);
  EXPECT_EQ(At(b, 0), x);
  // A block that reuses the freed slot is not mistaken for x's either.
  a.Append(std::vector<uint8_t>(2 * RecordPool::kBlockBytes, 0x33), nullptr);
  LogStore c(&loop, LogStoreConfig{}, pool);
  c.Append(x, nullptr);
  EXPECT_EQ(At(c, 0), x);
  EXPECT_EQ(c.record(0).data(), b.record(0).data());
}

TEST(RecordPoolTest, RestoreImageGoesThroughThePool) {
  SharedCluster c;
  c.LogAll(0, 500);
  c.loop.Run();
  std::vector<uint8_t> image = c.logs[0]->SerializeImage();
  size_t held = c.pool->bytes_held();
  uint64_t shared = c.pool->shared();
  // Replica 1 restarts from replica 0's image: most of its records become
  // references to copies already in the pool (the rest were evicted from
  // the table by later placements, or were replica 1's own copies).
  ASSERT_EQ(c.logs[1]->RestoreImage(image).value(), 500u);
  EXPECT_GE(c.pool->shared(), shared + 500 * 8 / 10);
  EXPECT_LE(c.pool->bytes_held(), held + RecordPool::kBlockBytes);
  EXPECT_EQ(Durable(*c.logs[1]), Durable(*c.logs[0]));
  EXPECT_EQ(c.logs[1]->SerializeImage(), image);
}

TEST(RecordPoolTest, FixtureReplicasShareOnePool) {
  FixtureOptions options;
  options.system = SystemKind::kExtensibleZooKeeper;
  CoordFixture fix(options);
  fix.Start();
  for (int i = 0; i < 200; ++i) {
    fix.loop().Schedule(Millis(10) + Micros(200) * i, [&fix, i]() {
      fix.coord(0)->Create("/k" + std::to_string(i), std::string(64, 'v'),
                           [](Result<std::string>) {});
    });
  }
  fix.Settle(Seconds(2));
  ASSERT_EQ(fix.zk_servers.size(), 3u);
  const RecordPool& pool = fix.zk_servers[0]->log().pool();
  const LogStore& leader_log = fix.zk_servers[0]->log();
  ASSERT_GE(leader_log.durable_size(), 200u);
  for (const auto& server : fix.zk_servers) {
    const LogStore& log = server->log();
    EXPECT_EQ(&log.pool(), &pool);
    ASSERT_EQ(log.durable_size(), leader_log.durable_size());
    for (size_t i = 0; i < log.durable_size(); ++i) {
      ASSERT_EQ(At(log, i), At(leader_log, i)) << i;
    }
  }
  // Every record is logged three times; all but the first placement can be
  // a reference, and nearly all are.
  EXPECT_EQ(pool.placed(), 3 * leader_log.appended_size());
  EXPECT_GE(pool.shared(), 2 * leader_log.appended_size() * 95 / 100);
}

}  // namespace
}  // namespace edc
