// Simulated durable write-ahead log with pipelined group commit.
//
// Real coordination services bound write throughput with the fsync path;
// ZooKeeper batches concurrent appends into one sync. We reproduce that
// shape: appends arriving within the group-commit window share a single
// simulated fsync whose latency is `fsync_latency` plus a size-proportional
// disk-bandwidth term. Since PR 7 the device models `pipeline_depth`
// concurrent fsync channels: while one batch's fsync is in flight the next
// batch accumulates and is submitted without waiting, so the log is no
// longer limited to one batch per fsync. Batches may complete out of order
// across channels, but the durable watermark, durability callbacks and spans
// are always published strictly in submission order (see
// docs/replication_pipeline.md for the ordering invariants). The
// group-commit window itself adapts to load when `adaptive_window` is set:
// it doubles when batches fill up and halves when they run near-empty,
// deterministically, so two runs of the same schedule see the same window
// trajectory.
//
// The log's contents survive simulated crashes (the in-memory image models
// the on-disk file), which is what lets a recovering replica replay its
// history during state transfer. A crash (DropUnsynced) loses every batch
// that has not yet been *published* — including batches whose fsync already
// completed at the device but that are still waiting behind an earlier
// in-flight batch — so recovery always truncates to the published durable
// prefix.
//
// Record bytes live in a RecordPool of fixed-size blocks that never move, and
// record(i) returns a view into it. A store built without a pool gets a
// private one and holds the only copy of each record, durable or in flight.
// The stores of one cluster share a pool, so a follower logging the leader's
// proposal takes a reference to the leader's copy instead of copying it
// (record_pool.h). Either way each store keeps its own index, watermark,
// batches and cuts, and a view stays valid until a Truncate, DropHead or
// DropUnsynced on this store removes that record.

#ifndef EDC_LOGSTORE_LOGSTORE_H_
#define EDC_LOGSTORE_LOGSTORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "edc/common/result.h"
#include "edc/logstore/record_pool.h"
#include "edc/obs/obs.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/time.h"

namespace edc {

struct LogStoreConfig {
  Duration fsync_latency = Micros(60);
  Duration group_commit_window = Micros(20);
  double disk_bandwidth_bps = 2e9;  // bits/s sequential write

  // Number of fsync batches that may be in flight at the device at once.
  // 1 reproduces the pre-pipelining serial group commit exactly (every batch
  // waits for the previous one's fsync); clamped up to 1.
  size_t pipeline_depth = 4;

  // Adaptive group-commit sizing: the live window starts at
  // group_commit_window and, at each batch submission, doubles when the batch
  // had >= LogStore::kWindowGrowRecords entries (queue pressure: trade
  // latency for fewer, larger fsyncs) and halves when it had
  // <= LogStore::kWindowShrinkRecords (idle: stop making lone appends wait),
  // clamped to [LogStore::kMinWindow, LogStore::kMaxWindow]. Off = fixed
  // window, legacy behaviour.
  bool adaptive_window = true;
};

// Legacy (pre-pipelining) configuration: serial fsyncs, fixed window. The
// determinism suite runs the same schedule under this and the pipelined
// default and asserts identical record contents and callback order.
inline LogStoreConfig LegacyLogStoreConfig() {
  LogStoreConfig cfg;
  cfg.pipeline_depth = 1;
  cfg.adaptive_window = false;
  return cfg;
}

class LogStore {
 public:
  using DurableCallback = std::function<void()>;

  // `pool` holds the record bytes; nullptr gives the store a private pool.
  // `track` is the owning node's id, the Perfetto track of its spans.
  LogStore(EventLoop* loop, LogStoreConfig config, std::shared_ptr<RecordPool> pool = nullptr,
           uint32_t track = 0);
  ~LogStore();

  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;

  static constexpr size_t kBlockBytes = RecordPool::kBlockBytes;
  // Bounds and watermarks of the adaptive group-commit window
  // (LogStoreConfig::adaptive_window).
  static constexpr Duration kMinWindow = Micros(5);
  static constexpr Duration kMaxWindow = Micros(160);
  static constexpr size_t kWindowGrowRecords = 8;
  static constexpr size_t kWindowShrinkRecords = 2;

  // Appends `record` as record appended_size(); `on_durable` fires once the
  // record's batch is durable AND every earlier batch has been published
  // (record-order semantics).
  void Append(std::span<const uint8_t> record, DurableCallback on_durable);

  // Fires once after every publication run that completed at least one batch
  // (i.e. once per group of in-order durable callbacks), after those
  // callbacks. Replication uses it to send one cumulative ACK per durable
  // batch instead of one per record.
  void SetBatchDurableCallback(std::function<void()> cb) { batch_cb_ = std::move(cb); }

  // Records [0, durable_size()) are published: a crash keeps them. Records
  // [durable_size(), appended_size()) are in flight: a crash loses them.
  size_t durable_size() const { return durable_; }
  size_t appended_size() const { return index_.size(); }
  // Record i < appended_size(), in append order.
  std::span<const uint8_t> record(size_t i) const { return pool_->Get(index_[i]); }
  // Bytes of the pool's blocks: with a private pool, exactly this store's.
  size_t bytes_held() const { return pool_->bytes_held(); }
  const RecordPool& pool() const { return *pool_; }

  // Drops every record with index >= first_removed (log truncation after
  // snapshot or divergence repair), in-flight ones included: their
  // durability callbacks never run. Their batches keep their fsync slots.
  void Truncate(size_t first_removed);

  // Drops the first `count` records (checkpoint + log rotation) and releases
  // their bytes to the pool. In-flight records dropped this way are still
  // written (their bytes count toward their batch's fsync) and still run
  // their durability callbacks when it publishes.
  void DropHead(size_t count);

  // Drops in-flight appends, modeling a crash before fsync: the accumulating
  // batch and every submitted-but-unpublished batch are lost, even if their
  // device-level fsync had already completed — only the published prefix
  // (durable_size()) survives. The adaptive window resets to its initial
  // value, as a restarted process would rebuild it from scratch.
  void DropUnsynced();

  // On-disk image of the durable records: each record in the codec's length
  // + checksum frame (Encoder::Frame), concatenated in append order. This is
  // the file a crash may tear mid-write.
  std::vector<uint8_t> SerializeImage() const;

  // Replaces every record (in-flight ones are cut as by Truncate(0)) with the
  // durable records in `image`. A truncated trailing record (torn write —
  // the image simply ends early) is discarded and the clean prefix is
  // restored; a record whose checksum does not match its payload
  // (corruption, not truncation) rejects the whole image with kDecodeError
  // and leaves the store unchanged. Returns the number of records restored.
  Result<size_t> RestoreImage(const std::vector<uint8_t>& image);

  // Durable snapshot section (models the fsynced snapshot file that sits next
  // to the log): a single opaque state image covering every transaction up to
  // and including `zxid`. Written atomically (rename-into-place semantics),
  // so it survives DropUnsynced; the caller is responsible for only storing a
  // snapshot after a successful install/serialize. The records then hold only
  // the log suffix after `zxid` — snapshot_zxid() is the log floor a recovery
  // or a state-transfer donor must respect.
  void StoreSnapshot(uint64_t zxid, std::vector<uint8_t> image) {
    snapshot_zxid_ = zxid;
    snapshot_ = std::move(image);
    has_snapshot_ = true;
  }
  bool has_snapshot() const { return has_snapshot_; }
  uint64_t snapshot_zxid() const { return snapshot_zxid_; }
  const std::vector<uint8_t>& snapshot() const { return snapshot_; }
  void ClearSnapshot() {
    has_snapshot_ = false;
    snapshot_zxid_ = 0;
    snapshot_.clear();
  }

  int64_t syncs() const { return syncs_; }
  int64_t appended_bytes() const { return appended_bytes_; }
  // Submitted-but-unpublished batches (pipeline occupancy right now).
  size_t inflight_batches() const { return inflight_.size(); }
  // Live adaptive group-commit window.
  Duration current_window() const { return window_; }

 private:
  // An appended record's bookkeeping until it publishes; its bytes are in
  // the pool.
  struct Pending {
    DurableCallback cb;
    TraceContext ctx;   // appender's context (inactive when obs is off)
    SimTime at = 0;     // append time, for the group-commit wait span
  };

  struct Batch {
    uint64_t seq = 0;
    std::vector<Pending> entries;
    SimTime submitted_at = 0;
    bool durable = false;  // device fsync done; publication may still wait
  };

  static Duration InitialWindow(const LogStoreConfig& config);

  // Releases records [first, appended_size()) to the pool.
  void CutTail(size_t first);

  void Flush();
  void AdaptWindow(size_t batch_records);
  void PublishDurablePrefix();

  EventLoop* loop_;
  LogStoreConfig config_;
  std::shared_ptr<RecordPool> pool_;
  uint32_t owner_;  // this store's tag in pool_
  // index_[i] locates record i in pool_ and holds one reference on its block.
  std::vector<RecordPool::Ref> index_;
  size_t durable_ = 0;  // published records at the front of index_
  // Unpublished records DropHead already removed from the index: the
  // oldest ones, submitted batches first, then the accumulating one. Their
  // publication moves no watermark.
  size_t dropped_unpublished_ = 0;
  std::vector<Pending> pending_;
  size_t pending_bytes_ = 0;  // record bytes of pending_, dropped ones included
  std::deque<Batch> inflight_;          // submission order; front = oldest
  std::vector<SimTime> channel_free_at_;  // per-channel device availability
  Duration window_;                     // live adaptive window
  uint64_t next_batch_seq_ = 0;
  bool flush_scheduled_ = false;
  int64_t syncs_ = 0;
  int64_t appended_bytes_ = 0;
  uint64_t flush_epoch_ = 0;  // invalidates scheduled flushes after DropUnsynced
  bool has_snapshot_ = false;
  uint64_t snapshot_zxid_ = 0;
  std::vector<uint8_t> snapshot_;
  std::function<void()> batch_cb_;
  // Observability (the loop's Obs, while it is on): each append gets kFsync
  // spans covering append-to-submission (group-commit wait) and
  // submission-to-publication (fsync + disk write + in-order publication
  // wait), its durable callback runs under the appender's captured trace
  // context, and the registry gets sync counts + batch-size/queue-depth/
  // pipeline-depth/window histograms.
  uint32_t track_;
  Counter* m_syncs_;
  Counter* m_bytes_;
  Recorder* m_batch_records_;
  Recorder* m_batch_bytes_;
  Recorder* m_queue_depth_;
  Recorder* m_inflight_;
  Recorder* m_window_us_;
};

}  // namespace edc

#endif  // EDC_LOGSTORE_LOGSTORE_H_
