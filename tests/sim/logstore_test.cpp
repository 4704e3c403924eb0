#include "edc/logstore/logstore.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

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

TEST(LogStoreTest, AppendBecomesDurableAfterFsync) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  bool durable = false;
  log.Append(Rec(1), [&] { durable = true; });
  EXPECT_FALSE(durable);
  EXPECT_EQ(log.durable_size(), 0u);
  loop.Run();
  EXPECT_TRUE(durable);
  ASSERT_EQ(log.durable_size(), 1u);
  EXPECT_EQ(At(log, 0), Rec(1));
}

TEST(LogStoreTest, GroupCommitBatchesConcurrentAppends) {
  EventLoop loop;
  LogStoreConfig cfg;
  cfg.group_commit_window = Micros(100);
  LogStore log(&loop, cfg);
  int durable = 0;
  for (int i = 0; i < 10; ++i) {
    log.Append(Rec(static_cast<uint8_t>(i)), [&] { ++durable; });
  }
  loop.Run();
  EXPECT_EQ(durable, 10);
  EXPECT_EQ(log.syncs(), 1);  // one shared fsync
}

TEST(LogStoreTest, SeparatedAppendsSyncSeparately) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  log.Append(Rec(1), nullptr);
  loop.Run();
  log.Append(Rec(2), nullptr);
  loop.Run();
  EXPECT_EQ(log.syncs(), 2);
  EXPECT_EQ(log.durable_size(), 2u);
}

TEST(LogStoreTest, DurabilityOrderMatchesAppendOrder) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  std::vector<int> order;
  log.Append(Rec(1), [&] { order.push_back(1); });
  log.Append(Rec(2), [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(At(log, 0), Rec(1));
  EXPECT_EQ(At(log, 1), Rec(2));
}

TEST(LogStoreTest, DropUnsyncedLosesPendingAppends) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  bool durable = false;
  log.Append(Rec(1), [&] { durable = true; });
  log.DropUnsynced();  // crash before fsync
  loop.Run();
  EXPECT_FALSE(durable);
  EXPECT_EQ(log.durable_size(), 0u);
  EXPECT_EQ(log.appended_size(), 0u);
}

TEST(LogStoreTest, TruncateDropsTail) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  for (uint8_t i = 0; i < 5; ++i) {
    log.Append(Rec(i), nullptr);
  }
  loop.Run();
  log.Truncate(2);
  ASSERT_EQ(log.durable_size(), 2u);
  EXPECT_EQ(At(log, 1), Rec(1));
}

TEST(LogStoreTest, DropHeadCompacts) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  for (uint8_t i = 0; i < 5; ++i) {
    log.Append(Rec(i), nullptr);
  }
  loop.Run();
  log.DropHead(3);
  ASSERT_EQ(log.durable_size(), 2u);
  EXPECT_EQ(At(log, 0), Rec(3));
  log.DropHead(99);
  EXPECT_EQ(log.durable_size(), 0u);
}

TEST(LogStoreTest, AppendAfterCrashStartsFreshBatch) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  log.Append(Rec(1), nullptr);
  log.DropUnsynced();
  bool durable = false;
  log.Append(Rec(2), [&] { durable = true; });
  loop.Run();
  EXPECT_TRUE(durable);
  ASSERT_EQ(log.durable_size(), 1u);
  EXPECT_EQ(At(log, 0), Rec(2));
}

// Builds a durable log with records of varying sizes and returns it.
void FillLog(EventLoop* loop, LogStore* log, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    log->Append(Rec(static_cast<uint8_t>(i + 1), 3 + 2 * i), nullptr);
  }
  loop->Run();
}

TEST(LogStoreTest, ImageRoundTrips) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  FillLog(&loop, &log, 4);
  std::vector<uint8_t> image = log.SerializeImage();

  EventLoop loop2;
  LogStore restored(&loop2, LogStoreConfig{});
  Result<size_t> n = restored.RestoreImage(image);
  ASSERT_TRUE(n.status().ok()) << n.status().ToString();
  EXPECT_EQ(*n, 4u);
  EXPECT_EQ(Durable(restored), Durable(log));
}

TEST(LogStoreTest, EmptyImageRestoresEmptyLog) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  FillLog(&loop, &log, 2);
  Result<size_t> n = log.RestoreImage({});
  ASSERT_TRUE(n.status().ok());
  EXPECT_EQ(*n, 0u);
  EXPECT_EQ(log.durable_size(), 0u);
}

// Crash-point sweep: truncate the serialized image at EVERY byte boundary
// within the last record (header and payload alike) and assert recovery
// always lands on the clean three-record prefix — a torn trailing write must
// never surface a partial record or reject the intact history before it.
TEST(LogStoreTest, TruncatedImageRecoversCleanPrefixAtEveryByte) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  FillLog(&loop, &log, 4);
  std::vector<uint8_t> image = log.SerializeImage();

  // Size of the image up to (not including) the last record's frame.
  EventLoop loop3;
  LogStore prefix_log(&loop3, LogStoreConfig{});
  FillLog(&loop3, &prefix_log, 3);
  size_t prefix_bytes = prefix_log.SerializeImage().size();
  ASSERT_LT(prefix_bytes, image.size());

  std::vector<std::vector<uint8_t>> expected = Durable(log);
  expected.resize(3);
  for (size_t cut = prefix_bytes; cut < image.size(); ++cut) {
    std::vector<uint8_t> torn(image.begin(), image.begin() + static_cast<ptrdiff_t>(cut));
    EventLoop loop2;
    LogStore restored(&loop2, LogStoreConfig{});
    Result<size_t> n = restored.RestoreImage(torn);
    ASSERT_TRUE(n.status().ok()) << "cut at byte " << cut << ": " << n.status().ToString();
    EXPECT_EQ(*n, 3u) << "cut at byte " << cut;
    EXPECT_EQ(Durable(restored), expected) << "cut at byte " << cut;
  }

  // The untruncated image still restores all four.
  EventLoop loop4;
  LogStore full(&loop4, LogStoreConfig{});
  Result<size_t> n = full.RestoreImage(image);
  ASSERT_TRUE(n.status().ok());
  EXPECT_EQ(*n, 4u);
}

// A complete record whose payload was corrupted (not truncated) must be
// rejected outright with kDecodeError, leaving the store untouched.
TEST(LogStoreTest, CorruptedImageRejectedCleanly) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  FillLog(&loop, &log, 3);
  std::vector<uint8_t> image = log.SerializeImage();
  image.back() ^= 0xff;  // flip a payload byte of the last (complete) record

  EventLoop loop2;
  LogStore restored(&loop2, LogStoreConfig{});
  FillLog(&loop2, &restored, 1);
  std::vector<std::vector<uint8_t>> before = Durable(restored);
  Result<size_t> n = restored.RestoreImage(image);
  ASSERT_FALSE(n.status().ok());
  EXPECT_EQ(n.status().code(), ErrorCode::kDecodeError);
  EXPECT_EQ(Durable(restored), before);  // store unchanged on rejection
}

// Corrupting a length header either tears the tail (length now runs past the
// image) or breaks the checksum; both paths must stay clean — no crash, no
// partial record, store contents either the clean prefix or unchanged.
TEST(LogStoreTest, CorruptedLengthHeaderHandledCleanly) {
  EventLoop loop;
  LogStore log(&loop, LogStoreConfig{});
  FillLog(&loop, &log, 3);
  std::vector<uint8_t> image = log.SerializeImage();

  // First record frame starts at 0; corrupt its length's high byte so the
  // declared length exceeds the image.
  std::vector<uint8_t> oversized = image;
  oversized[3] = 0xff;
  EventLoop loop2;
  LogStore a(&loop2, LogStoreConfig{});
  Result<size_t> na = a.RestoreImage(oversized);
  ASSERT_TRUE(na.status().ok());  // torn tail: clean (empty) prefix
  EXPECT_EQ(*na, 0u);

  // Corrupt the low byte so the first record's payload is misframed; the
  // checksum catches it.
  std::vector<uint8_t> misframed = image;
  misframed[0] ^= 0x01;
  EventLoop loop3;
  LogStore b(&loop3, LogStoreConfig{});
  Result<size_t> nb = b.RestoreImage(misframed);
  if (nb.status().ok()) {
    // Only acceptable if the misframing happened to look like a torn tail.
    EXPECT_LT(*nb, 3u);
  } else {
    EXPECT_EQ(nb.status().code(), ErrorCode::kDecodeError);
  }
}

}  // namespace
}  // namespace edc
