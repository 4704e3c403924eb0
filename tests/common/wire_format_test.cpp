// Pins the bytes of every wire message. Each sample is one populated value
// of a message type; its encoding must hash (FNV-1a) to the constant
// recorded before the messages moved to one field list each, decode back to
// an equal value, reject every strict prefix, and reject a list count far
// beyond the buffer at the count, before reading (or allocating) elements.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "edc/bft/messages.h"
#include "edc/common/codec.h"
#include "edc/common/hash.h"
#include "edc/ds/types.h"
#include "edc/zab/messages.h"
#include "edc/zk/txn.h"
#include "edc/zk/types.h"

namespace edc {
namespace {

// Encodes like Encoder and notes the offset of the first list count.
struct ListProbe : Encoder {
  size_t first_list = std::numeric_limits<size_t>::max();

  template <class C, class F>
  void List(const C& c, F&& each) {
    first_list = std::min(first_list, size());
    Encoder::List(c, each);
  }
  template <class C>
  void List(const C& c) {
    List(c, [this](auto& e) { Fields(*this, e); });
  }
};

struct Sample {
  std::string name;
  uint64_t pinned = 0;  // FNV-1a of the encoding
  std::vector<uint8_t> bytes;
  size_t first_list = std::numeric_limits<size_t>::max();
  std::function<Status(std::span<const uint8_t>)> decode;
  std::function<bool(std::span<const uint8_t>)> decodes_equal;
};

template <class T>
Sample Make(std::string name, uint64_t pinned, const T& value) {
  Sample s;
  s.name = std::move(name);
  s.pinned = pinned;
  s.bytes = EncodeMsg(value);
  ListProbe probe;
  Fields(probe, const_cast<T&>(value));
  s.first_list = probe.first_list;
  s.decode = [](std::span<const uint8_t> b) { return DecodeMsg<T>(b).status(); };
  s.decodes_equal = [value](std::span<const uint8_t> b) {
    auto d = DecodeMsg<T>(b);
    return d.ok() && *d == value;
  };
  return s;
}

std::vector<uint8_t> Blob(const std::string& s) { return {s.begin(), s.end()}; }

ZkStat FullStat() {
  return ZkStat{0x100000001, 0x100000002, 0x100000003, 1'000'000, 2'000'000, 4, -1, 0xabc, 2};
}

ZkReplyMsg FullReply() {
  return ZkReplyMsg{9, ErrorCode::kNodeExists, "/m/a0000000001", true, FullStat(), {"a", "bc"}};
}

ZabMembership Members() { return ZabMembership{0, {1, 2, 3}, {4}}; }

BftBatch Batch() {
  return {BftRequest{1000, 5, Blob("out <q, 1>")}, BftRequest{1001, 1, {}}};
}

// The bytes the spans of the Zab samples borrow.
const std::vector<uint8_t>& Txn() {
  static const std::vector<uint8_t> txn = Blob("set /counter 7");
  return txn;
}
const std::vector<std::vector<uint8_t>>& Records() {
  static const std::vector<std::vector<uint8_t>> records = {
      EncodeMsg(ZabRecordView{0x200000001, 0, Txn()}),
      EncodeMsg(ZabRecordView{0x200000002, kReconfigFlag, {}})};
  return records;
}

std::vector<Sample> Samples() {
  ZkOp create{ZkOpType::kCreate, "/m/a", "data-a", -1, false, true, true, {}};
  ZkOp set{ZkOpType::kSetData, "/m/b", "bb", 7, false, false, false, {}};
  ZkOp multi{ZkOpType::kMulti, "/m", "", 3, true, false, false, {create, set}};
  ZkTxn txn{0x42, 17, 123'456'789, {}, true, "result", 2};
  txn.ops = {ZkTxnOp{ZkTxnOpType::kCreate, "/e", "d", 0x42, 0, 0, 0},
             ZkTxnOp{ZkTxnOpType::kCreateSession, "", "", 0, 0x43, 3, 0},
             ZkTxnOp{ZkTxnOpType::kBlock, "/b", "", 0, 0x42, 0, 18}};
  PreparedEntry entry{2, 11, 5000, Batch()};
  DsTuple tuple{DsField{std::string("/q/e1")}, DsField{int64_t{-5}}};
  DsTemplate templ{DsTField::Exact(DsField{std::string("/q/e1")}), DsTField::Any(),
                   DsTField::Prefix("/q")};

  return {
      // ZooKeeper-like service.
      Make("ZkRequestMsg", 0xabd59f4476c0e4cd, ZkRequestMsg{0x1122334455667788, 42, 300, multi}),
      Make("ZkReplyMsg", 0xd5f5e9bc71ee577c, FullReply()),
      Make("ZkWatchEventMsg", 0xdb939587ea030d54,
           ZkWatchEventMsg{ZkEventType::kNodeChildrenChanged, "/q"}),
      Make("ZkConnectMsg", 0xe4850e4bf5b3d1a8, ZkConnectMsg{5'000'000'000, 77}),
      Make("ZkConnectReplyMsg", 0x4d11133ce58485f3,
           ZkConnectReplyMsg{78, ErrorCode::kSessionExpired, true}),
      // The shard-map version is not forwarded, so the sample's is 0.
      Make("ZkForwardMsg", 0x58e6df535953acd3, ZkForwardMsg{3, ZkRequestMsg{5, 6, 0, create}}),
      Make("ZkForwardReplyMsg", 0xf4bf176bac41de73, ZkForwardReplyMsg{5, FullReply()}),
      Make("ZkMembershipEventMsg", 0xb50797750998f6ff,
           ZkMembershipEventMsg{0x100000004, {1, 2, 3}, {7}}),
      Make("ZkTxn", 0x65a8ca6743f4d77b, txn),
      // Zab. A membership's version is runtime state, not encoded.
      Make("ZabRecordView", 0x2609026d9c0a4f9e, ZabRecordView{0x200000001, 0, Txn()}),
      Make("ZabMembership", 0x96dfdf7ff9e0083d, Members()),
      Make("ZabSnapshot", 0x19e327f57bb02094, ZabSnapshot{Members(), Blob("tree image")}),
      Make("ElectionVote", 0x2340df1edc7a7936, ElectionVote{12, 3, 0x200000009, 2, 1, false}),
      Make("LeaderInfo", 0xc6d82a1a8eec1f32, LeaderInfo{2, 5}),
      Make("FollowerInfo", 0xa6c82e33918d54e5, FollowerInfo{0x200000002}),
      Make("DiffMsg", 0x3a0db25b8644154e, DiffMsg{0x200000001, {Records()[0], Records()[1]}}),
      Make("SnapMsg", 0xef8bedb4e4cc8125, SnapMsg{0x200000002, 2, Blob("snapshot")}),
      Make("EpochMsg", 0xdffe99011b5212b4, EpochMsg{2, 0x200000001}),
      Make("ProposeMsg", 0x536baf65d6c52be7,
           ProposeMsg{2, ZabRecordView{0x200000003, kReconfigFlag, Txn()}}),
      Make("ZxidMsg", 0x21f3bb105e4a70b6, ZxidMsg{2, 0x200000003}),
      // PBFT.
      Make("BftRequest", 0xaec3b4832c303541, Batch()[0]),
      Make("PrePrepareMsg", 0x5c9b16f69a8f1976, PrePrepareMsg{1, 10, 4000, Batch()}),
      Make("PhaseMsg", 0x21184bcb86775995, PhaseMsg{1, 10, 0xfeedface}),
      Make("ReplyMsg", 0x9a92441aa2e2d4ab, ReplyMsg{5, 1, Blob("ok")}),
      Make("ViewChangeMsg", 0xc22d71c9fe7a08d5, ViewChangeMsg{3, 9, {entry}}),
      Make("NewViewMsg", 0xe9ea0f1f3cf12ea2,
           NewViewMsg{3, {entry, PreparedEntry{2, 12, 5002, {}}}}),
      Make("CheckpointMsg", 0x5a4ec5f8fcb9ec08, CheckpointMsg{3, 128, 0xdeadbeefcafe}),
      Make("StateRequestMsg", 0x8820d95386037de5, StateRequestMsg{96}),
      Make("StateResponseMsg", 0xa8ae300c22f35f18,
           StateResponseMsg{3, 128, 0xdeadbeefcafe, Blob("state")}),
      // DepSpace-like service.
      Make("DsOp", 0xa0e40437ec69c98e, DsOp{DsOpType::kReplace, tuple, templ, 1000, 3}),
      Make("DsReply", 0xed505e1a6a0c79dd,
           DsReply{ErrorCode::kOk, {tuple, {DsField{int64_t{1}}}}, "v"}),
  };
}

void PrintTo(const Sample& s, std::ostream* os) { *os << s.name; }

class WireFormatTest : public ::testing::TestWithParam<Sample> {};

TEST_P(WireFormatTest, BytesArePinnedAndEveryMalformedInputFails) {
  const Sample& s = GetParam();
  EXPECT_EQ(Fnv1a64(s.bytes), s.pinned) << std::hex << "0x" << Fnv1a64(s.bytes);
  EXPECT_TRUE(s.decodes_equal(s.bytes));

  for (size_t n = 0; n < s.bytes.size(); ++n) {
    EXPECT_EQ(s.decode(std::span(s.bytes).first(n)).code(), ErrorCode::kDecodeError)
        << "prefix of " << n << " of " << s.bytes.size() << " bytes";
  }

  if (s.first_list == std::numeric_limits<size_t>::max()) {
    return;  // no list field
  }
  Encoder hostile;
  hostile.Raw(std::span(s.bytes).first(s.first_list));
  hostile.Varint(uint64_t{1} << 60);
  hostile.Raw(std::vector<uint8_t>(3, 0));
  Status st = s.decode(hostile.buffer());
  EXPECT_EQ(st.code(), ErrorCode::kDecodeError);
  EXPECT_EQ(st.message(), "list count exceeds buffer");
}

INSTANTIATE_TEST_SUITE_P(EveryMessage, WireFormatTest, ::testing::ValuesIn(Samples()),
                         [](const ::testing::TestParamInfo<Sample>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace edc
