#include "edc/logstore/logstore.h"

#include <algorithm>
#include <utility>

#include "edc/common/codec.h"

namespace edc {

Duration LogStore::InitialWindow(const LogStoreConfig& config) {
  if (!config.adaptive_window) {
    return config.group_commit_window;
  }
  return std::clamp(config.group_commit_window, kMinWindow, kMaxWindow);
}

LogStore::LogStore(EventLoop* loop, LogStoreConfig config, std::shared_ptr<RecordPool> pool,
                   uint32_t track)
    : loop_(loop),
      config_(config),
      pool_(pool != nullptr ? std::move(pool) : std::make_shared<RecordPool>()),
      owner_(pool_->NewOwner()),
      window_(InitialWindow(config)),
      track_(track),
      m_syncs_(loop->obs().metrics.GetCounter("logstore.syncs")),
      m_bytes_(loop->obs().metrics.GetCounter("logstore.bytes")),
      m_batch_records_(loop->obs().metrics.GetHistogram("logstore.batch_records")),
      m_batch_bytes_(loop->obs().metrics.GetHistogram("logstore.batch_bytes")),
      m_queue_depth_(loop->obs().metrics.GetHistogram("logstore.queue_depth")),
      m_inflight_(loop->obs().metrics.GetHistogram("logstore.inflight")),
      m_window_us_(loop->obs().metrics.GetHistogram("logstore.window_us")) {
  channel_free_at_.assign(config_.pipeline_depth > 0 ? config_.pipeline_depth : 1, 0);
}

LogStore::~LogStore() { CutTail(0); }

void LogStore::CutTail(size_t first) {
  for (size_t i = first; i < index_.size(); ++i) {
    pool_->Release(index_[i]);
  }
  index_.resize(first);
}

void LogStore::Append(std::span<const uint8_t> record, DurableCallback on_durable) {
  index_.push_back(pool_->Place(record, owner_));
  pending_bytes_ += record.size();
  Pending p{std::move(on_durable), TraceContext{}, 0};
  if (const Obs& obs = loop_->obs(); obs.enabled()) {
    p.ctx = obs.tracer.current();
    p.at = loop_->now();
    m_queue_depth_->Record(static_cast<int64_t>(pending_.size()) + 1);
  }
  pending_.push_back(std::move(p));
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    uint64_t epoch = flush_epoch_;
    loop_->Schedule(window_, [this, epoch]() {
      if (epoch != flush_epoch_) {
        return;  // a crash intervened
      }
      Flush();
    });
  }
}

void LogStore::AdaptWindow(size_t batch_records) {
  if (!config_.adaptive_window) {
    return;
  }
  if (batch_records >= kWindowGrowRecords) {
    window_ = std::min(window_ * 2, kMaxWindow);
  } else if (batch_records <= kWindowShrinkRecords) {
    window_ = std::max(window_ / 2, kMinWindow);
  }
}

void LogStore::Flush() {
  flush_scheduled_ = false;
  if (pending_.empty()) {
    return;
  }
  size_t batch_records = pending_.size();
  size_t batch_bytes = pending_bytes_;
  pending_bytes_ = 0;
  Duration write_time = static_cast<Duration>(static_cast<double>(batch_bytes) * 8.0 /
                                              config_.disk_bandwidth_bps * 1e9);
  // Submit to the pipeline channel that frees up first (lowest index on
  // ties); with pipeline_depth 1 this degenerates to the legacy serial
  // disk_free_at_ chain where every batch waits out the previous fsync.
  size_t channel = 0;
  for (size_t i = 1; i < channel_free_at_.size(); ++i) {
    if (channel_free_at_[i] < channel_free_at_[channel]) {
      channel = i;
    }
  }
  SimTime start = std::max(loop_->now(), channel_free_at_[channel]);
  SimTime durable_at = start + config_.fsync_latency + write_time;
  channel_free_at_[channel] = durable_at;
  ++syncs_;
  appended_bytes_ += static_cast<int64_t>(batch_bytes);
  if (loop_->obs().enabled()) {
    m_syncs_->Increment();
    m_bytes_->Add(static_cast<int64_t>(batch_bytes));
    m_batch_records_->Record(static_cast<int64_t>(batch_records));
    m_batch_bytes_->Record(static_cast<int64_t>(batch_bytes));
    m_inflight_->Record(static_cast<int64_t>(inflight_.size()) + 1);
    m_window_us_->Record(window_ / 1000);
  }

  Batch batch;
  batch.seq = next_batch_seq_++;
  batch.entries = std::move(pending_);
  batch.submitted_at = loop_->now();
  pending_.clear();
  uint64_t seq = batch.seq;
  inflight_.push_back(std::move(batch));
  AdaptWindow(batch_records);

  uint64_t epoch = flush_epoch_;
  loop_->ScheduleAt(durable_at, [this, seq, epoch]() {
    if (epoch != flush_epoch_) {
      return;  // those batches died with the crash
    }
    for (Batch& b : inflight_) {
      if (b.seq == seq) {
        b.durable = true;
        break;
      }
    }
    PublishDurablePrefix();
  });
}

void LogStore::PublishDurablePrefix() {
  uint64_t epoch = flush_epoch_;
  bool published = false;
  Obs& obs = loop_->obs();
  // Channels complete out of order, but callers observe strict record order:
  // a durable batch publishes only once every earlier batch has published.
  while (!inflight_.empty() && inflight_.front().durable) {
    Batch batch = std::move(inflight_.front());
    inflight_.pop_front();
    published = true;
    size_t skipped = std::min(batch.entries.size(), dropped_unpublished_);
    dropped_unpublished_ -= skipped;
    durable_ += batch.entries.size() - skipped;
    for (Pending& p : batch.entries) {
      // Each append waited append-to-submission on the group-commit window
      // and submission-to-publication on the (pipelined) fsync: record both
      // as kFsync spans and run the callback under the appender's context,
      // so the reply path stays attributed to the originating operation.
      if (obs.enabled() && p.ctx.active()) {
        if (batch.submitted_at > p.at) {
          obs.tracer.RecordSpanIn(p.ctx, "log.gc_wait", Stage::kFsync, track_, p.at,
                                  batch.submitted_at);
        }
        obs.tracer.RecordSpanIn(p.ctx, "log.fsync", Stage::kFsync, track_, batch.submitted_at,
                                loop_->now());
      }
      if (p.cb) {
        if (obs.enabled()) {
          TraceContext prev = obs.tracer.current();
          obs.tracer.SetCurrent(p.ctx);
          p.cb();
          obs.tracer.SetCurrent(prev);
        } else {
          p.cb();
        }
      }
    }
    if (epoch != flush_epoch_) {
      return;  // a durable callback crashed the store; later batches are gone
    }
  }
  if (published && batch_cb_) {
    batch_cb_();
  }
}

void LogStore::Truncate(size_t first_removed) {
  if (first_removed >= appended_size()) {
    return;
  }
  // Cut from the tail: the accumulating batch first, then submitted batches
  // newest first, then the durable records. A submitted batch keeps its
  // fsync slot (the device write was issued), just without the cut records.
  size_t unpublished = std::min(appended_size() - first_removed, appended_size() - durable_);
  size_t n = std::min(unpublished, pending_.size());
  for (size_t i = appended_size() - n; i < appended_size(); ++i) {
    pending_bytes_ -= record(i).size();
  }
  pending_.erase(pending_.end() - static_cast<ptrdiff_t>(n), pending_.end());
  unpublished -= n;
  for (auto it = inflight_.rbegin(); unpublished > 0 && it != inflight_.rend(); ++it) {
    n = std::min(unpublished, it->entries.size());
    it->entries.erase(it->entries.end() - static_cast<ptrdiff_t>(n), it->entries.end());
    unpublished -= n;
  }
  durable_ = std::min(durable_, first_removed);
  CutTail(first_removed);
}

void LogStore::DropHead(size_t count) {
  count = std::min(count, appended_size());
  if (count == 0) {
    return;
  }
  if (count > durable_) {
    dropped_unpublished_ += count - durable_;
    durable_ = 0;
  } else {
    durable_ -= count;
  }
  for (size_t i = 0; i < count; ++i) {
    pool_->Release(index_[i]);
  }
  index_.erase(index_.begin(), index_.begin() + static_cast<ptrdiff_t>(count));
}

void LogStore::DropUnsynced() {
  pending_.clear();
  pending_bytes_ = 0;
  inflight_.clear();
  dropped_unpublished_ = 0;
  CutTail(durable_);
  flush_scheduled_ = false;
  window_ = InitialWindow(config_);
  ++flush_epoch_;
  // channel_free_at_ is intentionally NOT reset: the simulated device is
  // still busy finishing writes the dead process issued, exactly as the
  // single disk_free_at_ survived a crash before pipelining.
}

std::vector<uint8_t> LogStore::SerializeImage() const {
  Encoder enc;
  for (size_t i = 0; i < durable_; ++i) {
    enc.Frame(record(i));
  }
  return enc.Release();
}

Result<size_t> LogStore::RestoreImage(const std::vector<uint8_t>& image) {
  std::vector<std::span<const uint8_t>> restored;
  Decoder dec(image);
  while (!dec.AtEnd()) {
    std::span<const uint8_t> rec;
    bool intact = dec.Frame(rec);
    if (!dec.ok()) {
      break;  // torn header or payload: keep the clean prefix
    }
    if (!intact) {
      // A complete record whose bytes don't match its checksum is corruption,
      // not a crash mid-write; refuse the image rather than silently dropping
      // interior history.
      return Status(ErrorCode::kDecodeError, "log record checksum mismatch");
    }
    restored.push_back(rec);
  }
  Truncate(0);
  for (std::span<const uint8_t> rec : restored) {
    index_.push_back(pool_->Place(rec, owner_));
  }
  durable_ = restored.size();
  return restored.size();
}

}  // namespace edc
