// Differential test: the indexed TupleSpace against the linear-scan oracle
// (tests/oracle/linear_tuple_space.h) over seeded random operation
// sequences. Paths are drawn from a small pool so templates collide: exact
// paths with duplicates, prefixes at every depth including "/", "" and
// near-misses ("/queuex" and "/queue!" against "/queue"), int first fields
// and int prefixes, templates of every arity, lease tuples that are renewed
// and expire. After every operation both spaces must agree on the answer,
// its order, the Serialize() bytes and the Digest(); every so often both are
// replaced by a Load of their own image, and the sequence goes on.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "edc/common/rng.h"
#include "edc/ds/tuple_space.h"
#include "tests/oracle/linear_tuple_space.h"

namespace edc {
namespace {

constexpr uint64_t kNumSeeds = 60;
constexpr int kOpsPerSeed = 400;

const std::vector<std::string>& Paths() {
  static const auto* kPaths = new std::vector<std::string>{
      "/", "/queue", "/queue/a", "/queue/b", "/queue/a/x", "/queue/", "/queue//z",
      "/queuex", "/queuex/y", "/queue!", "/queue0", "/q", "/q/e1", "/em/r",
      "/queue/\xc3\xa9", "", "x", "/\x7f"};
  return *kPaths;
}

const std::vector<std::string>& Prefixes() {
  static const auto* kPrefixes = new std::vector<std::string>{
      "/", "/queue", "/queue/", "/queuex", "/queue/a", "/q", "", "/em", "x"};
  return *kPrefixes;
}

class OpGen {
 public:
  explicit OpGen(uint64_t seed) : rng_(seed) {}

  uint64_t Pick(uint64_t n) { return rng_.UniformU64(n); }

  DsField First() {
    if (Pick(8) == 0) {
      return DsField{static_cast<int64_t>(Pick(3))};
    }
    return DsField{Paths()[Pick(Paths().size())]};
  }
  DsField Data() {
    if (Pick(4) == 0) {
      return DsField{static_cast<int64_t>(Pick(3))};
    }
    return DsField{std::string(1, static_cast<char>('a' + Pick(3)))};
  }

  DsTuple Tuple() {
    uint64_t arity = Pick(10) == 0 ? Pick(4) : 2;  // mostly <path, data>
    DsTuple t;
    for (uint64_t i = 0; i < arity; ++i) {
      t.push_back(i == 0 ? First() : Data());
    }
    return t;
  }

  DsTField FirstField() {
    switch (Pick(6)) {
      case 0:
        return DsTField::Any();
      case 1:
      case 2:
        return DsTField::Exact(First());
      case 3:
        if (Pick(6) == 0) {
          return DsTField{DsTField::Kind::kPrefix, DsField{int64_t{1}}};
        }
        [[fallthrough]];
      default:
        return DsTField::Prefix(Prefixes()[Pick(Prefixes().size())]);
    }
  }
  DsTField OtherField() {
    switch (Pick(4)) {
      case 0:
        return DsTField::Exact(Data());
      case 1:
        return DsTField::Prefix(Paths()[Pick(Paths().size())]);
      default:
        return DsTField::Any();
    }
  }

  DsTemplate Template() {
    uint64_t arity = Pick(10) == 0 ? Pick(4) : 2;
    DsTemplate t;
    for (uint64_t i = 0; i < arity; ++i) {
      t.push_back(i == 0 ? FirstField() : OtherField());
    }
    return t;
  }

  Duration Lease() { return Pick(3) == 0 ? static_cast<Duration>(1 + Pick(50)) : 0; }
  NodeId Owner() { return static_cast<NodeId>(1 + Pick(3)); }

 private:
  Rng rng_;
};

void ExpectSameEntries(const std::vector<DsEntry>& got, const std::vector<DsEntry>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tuple, want[i].tuple) << where << " #" << i;
    EXPECT_EQ(got[i].seq, want[i].seq) << where << " #" << i;
    EXPECT_EQ(got[i].ctime, want[i].ctime) << where << " #" << i;
    EXPECT_EQ(got[i].deadline, want[i].deadline) << where << " #" << i;
    EXPECT_EQ(got[i].owner, want[i].owner) << where << " #" << i;
  }
}

void ExpectSameResult(const Result<DsTuple>& got, const Result<DsTuple>& want,
                      const std::string& where) {
  ASSERT_EQ(got.code(), want.code()) << where;
  if (got.ok()) {
    EXPECT_EQ(*got, *want) << where;
  }
}

// Runs one seeded sequence; returns how many operations found a match, so
// the caller can check the pools produce real collisions.
int RunSequence(uint64_t seed) {
  OpGen gen(seed);
  TupleSpace space;
  LinearTupleSpace oracle;
  SimTime now = 0;
  int hits = 0;
  for (int step = 0; step < kOpsPerSeed; ++step) {
    now += static_cast<SimTime>(gen.Pick(8));
    std::string where = "seed " + std::to_string(seed) + " step " + std::to_string(step);
    switch (gen.Pick(11)) {
      case 0:
      case 1: {
        DsTuple t = gen.Tuple();
        NodeId owner = gen.Owner();
        Duration lease = gen.Lease();
        space.Out(t, now, owner, lease);
        oracle.Out(t, now, owner, lease);
        break;
      }
      case 2: {
        DsTemplate templ = gen.Template();
        auto got = space.Rdp(templ);
        ExpectSameResult(got, oracle.Rdp(templ), where + " rdp");
        hits += got.ok() ? 1 : 0;
        EXPECT_EQ(space.HasMatch(templ), got.ok()) << where;
        break;
      }
      case 3: {
        DsTemplate templ = gen.Template();
        auto got = space.Inp(templ);
        ExpectSameResult(got, oracle.Inp(templ), where + " inp");
        hits += got.ok() ? 1 : 0;
        break;
      }
      case 4: {
        DsTemplate templ = gen.Template();
        auto got = space.RdAll(templ);
        ExpectSameEntries(got, oracle.RdAll(templ), where + " rdAll");
        hits += got.empty() ? 0 : 1;
        break;
      }
      case 5: {
        DsTemplate templ = gen.Template();
        DsTuple t = gen.Tuple();
        NodeId owner = gen.Owner();
        Duration lease = gen.Lease();
        Status got = space.Cas(templ, t, now, owner, lease);
        EXPECT_EQ(got.code(), oracle.Cas(templ, t, now, owner, lease).code()) << where;
        break;
      }
      case 6: {
        DsTemplate templ = gen.Template();
        DsTuple t = gen.Tuple();
        NodeId owner = gen.Owner();
        DsTuple got_removed;
        DsTuple want_removed;
        Status got = space.Replace(templ, t, now, owner, &got_removed);
        Status want = oracle.Replace(templ, t, now, owner, &want_removed);
        EXPECT_EQ(got.code(), want.code()) << where << " replace";
        EXPECT_EQ(got_removed, want_removed) << where << " replace";
        hits += got.ok() ? 1 : 0;
        break;
      }
      case 7: {
        DsTemplate templ = gen.Template();
        NodeId owner = gen.Owner();
        Duration lease = static_cast<Duration>(1 + gen.Pick(50));
        size_t got = space.Renew(templ, owner, now, lease);
        EXPECT_EQ(got, oracle.Renew(templ, owner, now, lease)) << where << " renew";
        hits += got > 0 ? 1 : 0;
        break;
      }
      case 8:
      case 9: {
        auto got = space.Expire(now);
        EXPECT_EQ(got, oracle.Expire(now)) << where << " expire";
        hits += got.empty() ? 0 : 1;
        break;
      }
      default: {
        // Both sides continue from a Load of their own image.
        EXPECT_TRUE(space.Load(space.Serialize()).ok()) << where;
        EXPECT_TRUE(oracle.Load(oracle.Serialize()).ok()) << where;
        break;
      }
    }
    EXPECT_EQ(space.size(), oracle.size()) << where;
    EXPECT_EQ(space.Serialize(), oracle.Serialize()) << where;
    EXPECT_EQ(space.Digest(), oracle.Digest()) << where;
    if (testing::Test::HasFailure()) {
      return hits;  // the first divergence is the useful one
    }
  }
  return hits;
}

TEST(TupleSpaceDiffTest, IndexedSpaceMatchesLinearScan) {
  int hits = 0;
  for (uint64_t seed = 1; seed <= kNumSeeds && !testing::Test::HasFailure(); ++seed) {
    hits += RunSequence(seed);
  }
  // The pools are small enough that most lookups find something.
  EXPECT_GT(hits, static_cast<int>(kNumSeeds) * kOpsPerSeed / 10);
}

}  // namespace
}  // namespace edc
