#include "edc/ds/tuple_space.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace edc {
namespace {

DsTuple T(const std::string& path, const std::string& data) { return ObjectTuple(path, data); }

TEST(TupleMatchTest, ExactAnyPrefix) {
  DsTuple t = T("/q/e1", "payload");
  EXPECT_TRUE(TupleMatches(ObjectTemplate("/q/e1"), t));
  EXPECT_FALSE(TupleMatches(ObjectTemplate("/q/e2"), t));
  EXPECT_TRUE(TupleMatches(ObjectPrefixTemplate("/q"), t));
  EXPECT_FALSE(TupleMatches(ObjectPrefixTemplate("/qq"), t));
  EXPECT_FALSE(TupleMatches(ObjectPrefixTemplate("/q/e1"), t));  // strict prefix
  EXPECT_TRUE(TupleMatches(DsTemplate{DsTField::Any(), DsTField::Any()}, t));
}

TEST(TupleMatchTest, ArityMustAgree) {
  DsTuple t{DsField{int64_t{1}}};
  EXPECT_FALSE(TupleMatches(DsTemplate{DsTField::Any(), DsTField::Any()}, t));
  EXPECT_TRUE(TupleMatches(DsTemplate{DsTField::Any()}, t));
}

TEST(TupleMatchTest, IntFields) {
  DsTuple t{DsField{int64_t{42}}, DsField{std::string("x")}};
  DsTemplate exact{DsTField::Exact(DsField{int64_t{42}}), DsTField::Any()};
  DsTemplate wrong{DsTField::Exact(DsField{int64_t{41}}), DsTField::Any()};
  EXPECT_TRUE(TupleMatches(exact, t));
  EXPECT_FALSE(TupleMatches(wrong, t));
  // Prefix never matches an int field.
  DsTemplate prefix{DsTField::Prefix("/a"), DsTField::Any()};
  EXPECT_FALSE(TupleMatches(prefix, t));
}

TEST(TupleSpaceTest, OutRdpInp) {
  TupleSpace space;
  space.Out(T("/a", "1"), 10, 100, 0);
  auto read = space.Rdp(ObjectTemplate("/a"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(space.size(), 1u);  // rdp does not remove
  auto removed = space.Inp(ObjectTemplate("/a"));
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(space.size(), 0u);
  EXPECT_EQ(space.Rdp(ObjectTemplate("/a")).code(), ErrorCode::kNoNode);
}

TEST(TupleSpaceTest, MultisetAndInsertionOrder) {
  TupleSpace space;
  space.Out(T("/a", "first"), 10, 1, 0);
  space.Out(T("/a", "second"), 20, 1, 0);
  auto first = space.Inp(ObjectTemplate("/a"));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(std::get<std::string>((*first)[1]), "first");
  auto second = space.Inp(ObjectTemplate("/a"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(std::get<std::string>((*second)[1]), "second");
}

TEST(TupleSpaceTest, RdAllPreservesOrderAndCtime) {
  TupleSpace space;
  space.Out(T("/q/b", ""), 20, 1, 0);
  space.Out(T("/q/a", ""), 10, 1, 0);
  space.Out(T("/x", ""), 30, 1, 0);
  auto all = space.RdAll(ObjectPrefixTemplate("/q"));
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].ctime, 20);
  EXPECT_EQ(all[1].ctime, 10);
}

TEST(TupleSpaceTest, CasInsertsOnlyWhenAbsent) {
  TupleSpace space;
  EXPECT_TRUE(space.Cas(ObjectTemplate("/c"), T("/c", "v1"), 10, 1, 0).ok());
  EXPECT_EQ(space.Cas(ObjectTemplate("/c"), T("/c", "v2"), 20, 1, 0).code(),
            ErrorCode::kNodeExists);
  EXPECT_EQ(space.size(), 1u);
}

TEST(TupleSpaceTest, ReplaceSwapsAtomically) {
  TupleSpace space;
  space.Out(T("/r", "old"), 10, 1, 0);
  DsTuple removed;
  ASSERT_TRUE(space.Replace(ObjectTemplate("/r"), T("/r", "new"), 20, 1, &removed).ok());
  EXPECT_EQ(std::get<std::string>(removed[1]), "old");
  EXPECT_EQ(std::get<std::string>((*space.Rdp(ObjectTemplate("/r")))[1]), "new");
  EXPECT_EQ(space.size(), 1u);
  EXPECT_EQ(space.Replace(ObjectTemplate("/ghost"), T("/g", ""), 30, 1, nullptr).code(),
            ErrorCode::kNoNode);
}

TEST(TupleSpaceTest, ConditionalReplaceViaDataTemplate) {
  // Table 2's cas(o, cc, nc): template pins both path and expected content.
  TupleSpace space;
  space.Out(T("/ctr", "5"), 10, 1, 0);
  DsTemplate expect_5{DsTField::Exact(DsField{std::string("/ctr")}),
                      DsTField::Exact(DsField{std::string("5")})};
  DsTemplate expect_9{DsTField::Exact(DsField{std::string("/ctr")}),
                      DsTField::Exact(DsField{std::string("9")})};
  EXPECT_EQ(space.Replace(expect_9, T("/ctr", "10"), 20, 1, nullptr).code(),
            ErrorCode::kNoNode);
  EXPECT_TRUE(space.Replace(expect_5, T("/ctr", "6"), 20, 1, nullptr).ok());
}

TEST(TupleSpaceTest, LeaseExpiryAndRenewal) {
  TupleSpace space;
  space.Out(T("/lease", ""), 100, 7, 50);   // deadline 150
  space.Out(T("/stable", ""), 100, 7, 0);   // no lease
  EXPECT_TRUE(space.Expire(149).empty());
  // Renewal by the owner extends the deadline.
  EXPECT_EQ(space.Renew(ObjectTemplate("/lease"), 7, 140, 50), 1u);  // deadline 190
  EXPECT_TRUE(space.Expire(160).empty());
  // A different client cannot renew.
  EXPECT_EQ(space.Renew(ObjectTemplate("/lease"), 8, 180, 50), 0u);
  auto expired = space.Expire(200);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(std::get<std::string>(expired[0][0]), "/lease");
  EXPECT_EQ(space.size(), 1u);  // /stable survives
}

TEST(TupleSpaceTest, SerializeLoadRoundTrip) {
  TupleSpace space;
  space.Out(T("/a", "x"), 10, 1, 0);
  space.Out(DsTuple{DsField{int64_t{7}}, DsField{std::string("y")}}, 20, 2, 99);
  auto bytes = space.Serialize();
  TupleSpace copy;
  ASSERT_TRUE(copy.Load(bytes).ok());
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.Serialize(), bytes);
  EXPECT_TRUE(copy.HasMatch(ObjectTemplate("/a")));
}

// The index and the extension manager's object views key on seq, so a
// snapshot must list unique seqs in insertion order, all below its next seq.
TEST(TupleSpaceTest, LoadRejectsSeqsOutOfOrder) {
  auto image = [](uint64_t next_seq, std::vector<uint64_t> seqs) {
    Encoder enc;
    enc.U64(next_seq);
    enc.Varint(seqs.size());
    for (uint64_t seq : seqs) {
      enc.List(T("/a", "x"));
      enc.U64(seq);
      enc.I64(10);
      enc.I64(0);
      enc.U32(1);
    }
    return enc.Release();
  };
  TupleSpace space;
  ASSERT_TRUE(space.Load(image(4, {1, 3})).ok());
  EXPECT_EQ(space.size(), 2u);
  EXPECT_EQ(space.Serialize(), image(4, {1, 3}));

  for (const auto& [next_seq, seqs] :
       std::vector<std::pair<uint64_t, std::vector<uint64_t>>>{
           {4, {3, 1}}, {4, {2, 2}}, {3, {1, 3}}, {3, {3}}}) {
    Status s = space.Load(image(next_seq, seqs));
    EXPECT_EQ(s.code(), ErrorCode::kDecodeError);
    EXPECT_EQ(space.size(), 0u);  // a rejected image leaves the space empty
  }
  // The space stays usable after a rejected image.
  space.Out(T("/b", ""), 20, 1, 0);
  EXPECT_TRUE(space.HasMatch(ObjectTemplate("/b")));
}

}  // namespace
}  // namespace edc
