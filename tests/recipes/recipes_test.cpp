// End-to-end recipe tests across all four systems (Table 2 conformance +
// recipe correctness in both traditional and extension-based variants).

#include "edc/recipes/recipes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "edc/harness/fixture.h"

namespace edc {
namespace {

struct SystemParam {
  SystemKind kind;
  const char* name;
};

// The test names ctest lists carry gtest's print of the parameter. Without
// this, gtest prints the raw bytes, `name`'s address among them, and the
// names change with every build.
void PrintTo(const SystemParam& param, std::ostream* os) { *os << param.name; }

class RecipeTest : public ::testing::TestWithParam<SystemParam> {
 protected:
  std::unique_ptr<CoordFixture> MakeFixture(size_t clients, uint64_t seed = 5) {
    FixtureOptions options;
    options.system = GetParam().kind;
    options.num_clients = clients;
    options.seed = seed;
    auto fixture = std::make_unique<CoordFixture>(options);
    fixture->Start();
    return fixture;
  }

  bool ext() const { return IsExtensible(GetParam().kind); }
};

INSTANTIATE_TEST_SUITE_P(
    AllSystems, RecipeTest,
    ::testing::Values(SystemParam{.kind = SystemKind::kZooKeeper, .name = "ZooKeeper"},
                      SystemParam{.kind = SystemKind::kExtensibleZooKeeper, .name = "EZK"},
                      SystemParam{.kind = SystemKind::kDepSpace, .name = "DepSpace"},
                      SystemParam{.kind = SystemKind::kExtensibleDepSpace, .name = "EDS"}),
    [](const ::testing::TestParamInfo<SystemParam>& info) { return info.param.name; });

TEST_P(RecipeTest, CoordApiConformance) {
  auto fixture = MakeFixture(1);
  CoordClient* c = fixture->coord(0);

  // create / read / update / cas / subObjects / delete (Table 2 semantics).
  Status status = Status(ErrorCode::kInternal);
  c->Create("/t", "v0", [&](Result<std::string> r) { status = r.status(); });
  fixture->Settle(Seconds(1));
  ASSERT_TRUE(status.ok()) << status.ToString();

  Result<std::string> read = Status(ErrorCode::kInternal);
  c->Read("/t", [&](Result<std::string> r) { read = r; });
  fixture->Settle(Seconds(1));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "v0");

  c->Cas("/t", "v0", "v1", [&](Status s) { status = s; });
  fixture->Settle(Seconds(1));
  EXPECT_TRUE(status.ok()) << status.ToString();

  // A cas conditioned on stale content fails.
  c->Read("/t", [](Result<std::string>) {});
  fixture->Settle(Seconds(1));
  c->Update("/t", "v2", [&](Status s) { status = s; });
  fixture->Settle(Seconds(1));
  ASSERT_TRUE(status.ok());
  c->Cas("/t", "v1", "v3", [&](Status s) { status = s; });
  fixture->Settle(Seconds(1));
  EXPECT_FALSE(status.ok());

  c->Create("/t-kids", "", [](Result<std::string>) {});
  fixture->Settle(Seconds(1));
  for (int i = 0; i < 3; ++i) {
    c->Create("/t-kids/k" + std::to_string(i), "d", [](Result<std::string>) {});
  }
  fixture->Settle(Seconds(1));
  Result<std::vector<CoordObject>> subs = Status(ErrorCode::kInternal);
  c->SubObjects("/t-kids", [&](Result<std::vector<CoordObject>> r) { subs = r; });
  fixture->Settle(Seconds(1));
  ASSERT_TRUE(subs.ok());
  EXPECT_EQ(subs->size(), 3u);

  c->Delete("/t", [&](Status s) { status = s; });
  fixture->Settle(Seconds(1));
  EXPECT_TRUE(status.ok());
  Result<std::string> gone = Status(ErrorCode::kInternal);
  c->Read("/t", [&](Result<std::string> r) { gone = r; });
  fixture->Settle(Seconds(1));
  EXPECT_EQ(gone.code(), ErrorCode::kNoNode);
}

TEST_P(RecipeTest, BlockCompletesOnCreation) {
  auto fixture = MakeFixture(2);
  // Block must work without extensions in every system (Table 2).
  CoordClient* waiter = fixture->coord(0);
  CoordClient* creator = fixture->coord(1);
  bool unblocked = false;
  waiter->Block("/signal", [&](Result<std::string> r) { unblocked = r.ok(); });
  fixture->Settle(Seconds(1));
  EXPECT_FALSE(unblocked);
  creator->Create("/signal", "go", [](Result<std::string>) {});
  fixture->Settle(Seconds(1));
  EXPECT_TRUE(unblocked);
}

TEST_P(RecipeTest, SharedCounterIsLinear) {
  auto fixture = MakeFixture(4);
  std::vector<std::unique_ptr<SharedCounter>> counters;
  for (size_t i = 0; i < 4; ++i) {
    counters.push_back(std::make_unique<SharedCounter>(fixture->coord(i), ext()));
  }
  Status setup = Status(ErrorCode::kInternal);
  counters[0]->Setup([&](Status s) { setup = s; });
  fixture->Settle(Seconds(1));
  ASSERT_TRUE(setup.ok()) << setup.ToString();
  int attached = 0;
  for (size_t i = 1; i < 4; ++i) {
    counters[i]->Attach([&](Status s) { attached += s.ok(); });
  }
  fixture->Settle(Seconds(1));
  ASSERT_EQ(attached, 3);

  // Each client increments 5 times concurrently; values must form a
  // permutation of 1..20 (no lost updates, no duplicates).
  std::set<int64_t> values;
  int completed = 0;
  struct Chain {
    SharedCounter* counter;
    int remaining;
  };
  auto chains = std::make_shared<std::vector<Chain>>();
  for (size_t i = 0; i < 4; ++i) {
    chains->push_back(Chain{counters[i].get(), 5});
  }
  std::function<void(size_t)> drive = [&, chains](size_t i) {
    if ((*chains)[i].remaining == 0) {
      return;
    }
    --(*chains)[i].remaining;
    (*chains)[i].counter->Increment([&, i](Result<int64_t> r) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      values.insert(*r);
      ++completed;
      drive(i);
    });
  };
  for (size_t i = 0; i < 4; ++i) {
    drive(i);
  }
  fixture->Settle(Seconds(20));
  EXPECT_EQ(completed, 20);
  EXPECT_EQ(values.size(), 20u);
  EXPECT_EQ(*values.begin(), 1);
  EXPECT_EQ(*values.rbegin(), 20);
}

TEST_P(RecipeTest, QueueIsFifoPerProducerAndLossless) {
  auto fixture = MakeFixture(2);
  DistributedQueue producer(fixture->coord(0), ext());
  DistributedQueue consumer(fixture->coord(1), ext());
  Status setup = Status(ErrorCode::kInternal);
  producer.Setup([&](Status s) { setup = s; });
  fixture->Settle(Seconds(1));
  ASSERT_TRUE(setup.ok()) << setup.ToString();
  consumer.Attach([](Status) {});
  fixture->Settle(Seconds(1));

  for (int i = 0; i < 5; ++i) {
    producer.Add("e" + std::to_string(i), "m" + std::to_string(i), [](Status s) {
      ASSERT_TRUE(s.ok());
    });
    fixture->Settle(Millis(300));  // distinct creation timestamps
  }
  std::vector<std::string> received;
  for (int i = 0; i < 5; ++i) {
    consumer.Remove([&](Result<std::string> r) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      received.push_back(*r);
    });
    fixture->Settle(Seconds(1));
  }
  ASSERT_EQ(received.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(received[static_cast<size_t>(i)], "m" + std::to_string(i));
  }
}

TEST_P(RecipeTest, BarrierReleasesAllTogether) {
  constexpr size_t kParty = 4;
  auto fixture = MakeFixture(kParty);
  std::vector<std::unique_ptr<DistributedBarrier>> barriers;
  for (size_t i = 0; i < kParty; ++i) {
    barriers.push_back(std::make_unique<DistributedBarrier>(
        fixture->coord(i), ext(), static_cast<int>(kParty)));
  }
  Status setup = Status(ErrorCode::kInternal);
  barriers[0]->Setup([&](Status s) { setup = s; });
  fixture->Settle(Seconds(1));
  ASSERT_TRUE(setup.ok()) << setup.ToString();
  for (size_t i = 1; i < kParty; ++i) {
    barriers[i]->Attach([](Status) {});
  }
  fixture->Settle(Seconds(1));

  int released = 0;
  // First three enter: nobody may pass yet.
  for (size_t i = 0; i + 1 < kParty; ++i) {
    barriers[i]->Enter([&](Status s) {
      ASSERT_TRUE(s.ok()) << s.ToString();
      ++released;
    });
    fixture->Settle(Millis(400));
  }
  EXPECT_EQ(released, 0);
  // Last participant completes the group: everyone unblocks.
  barriers[kParty - 1]->Enter([&](Status s) {
    ASSERT_TRUE(s.ok()) << s.ToString();
    ++released;
  });
  fixture->Settle(Seconds(2));
  EXPECT_EQ(released, static_cast<int>(kParty));
}

TEST_P(RecipeTest, LeaderElectionRotatesOnAbdication) {
  constexpr size_t kCandidates = 3;
  auto fixture = MakeFixture(kCandidates);
  std::vector<std::unique_ptr<LeaderElection>> elections;
  for (size_t i = 0; i < kCandidates; ++i) {
    elections.push_back(std::make_unique<LeaderElection>(fixture->coord(i), ext()));
  }
  Status setup = Status(ErrorCode::kInternal);
  elections[0]->Setup([&](Status s) { setup = s; });
  fixture->Settle(Seconds(1));
  ASSERT_TRUE(setup.ok()) << setup.ToString();
  for (size_t i = 1; i < kCandidates; ++i) {
    elections[i]->Attach([](Status) {});
  }
  fixture->Settle(Seconds(1));

  std::vector<size_t> leadership_order;
  for (size_t i = 0; i < kCandidates; ++i) {
    elections[i]->BecomeLeader([&, i](Status s) {
      ASSERT_TRUE(s.ok()) << s.ToString();
      leadership_order.push_back(i);
    });
    fixture->Settle(Millis(400));  // deterministic registration order
  }
  fixture->Settle(Seconds(2));
  // Exactly one leader (the first registrant).
  ASSERT_EQ(leadership_order.size(), 1u);
  EXPECT_EQ(leadership_order[0], 0u);

  // The leader abdicates; leadership passes to the next candidate.
  elections[0]->Abdicate([](Status s) { ASSERT_TRUE(s.ok()) << s.ToString(); });
  fixture->Settle(Seconds(2));
  ASSERT_EQ(leadership_order.size(), 2u);
  EXPECT_EQ(leadership_order[1], 1u);

  elections[1]->Abdicate([](Status) {});
  fixture->Settle(Seconds(2));
  ASSERT_EQ(leadership_order.size(), 3u);
  EXPECT_EQ(leadership_order[2], 2u);
}

// OnDeleted on ZooKeeper arms a one-shot exists watch, which an update of
// the object fires as well: the waiter must outlast every update and fire
// once, at the deletion.
class DeletionWatchTest : public RecipeTest {
 protected:
  // Creates /w, waits for its deletion through client 0 while client 1
  // updates it `updates` times and then deletes it; returns how often the
  // waiter fired.
  int FiredAfterUpdatesThenDelete(int updates) {
    auto fixture = MakeFixture(2);
    CoordClient* watcher = fixture->coord(0);
    CoordClient* writer = fixture->coord(1);
    Status status = Status(ErrorCode::kInternal);
    writer->Create("/w", "0", [&](Result<std::string> r) { status = r.status(); });
    fixture->Settle(Seconds(1));
    EXPECT_TRUE(status.ok()) << status.ToString();
    int fired = 0;
    watcher->OnDeleted("/w", [&fired]() { ++fired; });
    fixture->Settle(Seconds(1));
    for (int i = 1; i <= updates; ++i) {
      writer->Update("/w", std::to_string(i), [&](Status s) { status = s; });
      fixture->Settle(Seconds(1));
      EXPECT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(fired, 0) << "after update " << i;
    }
    writer->Delete("/w", [&](Status s) { status = s; });
    fixture->Settle(Seconds(1));
    EXPECT_TRUE(status.ok()) << status.ToString();
    return fired;
  }
};

INSTANTIATE_TEST_SUITE_P(
    ZkFamily, DeletionWatchTest,
    ::testing::Values(SystemParam{.kind = SystemKind::kZooKeeper, .name = "ZooKeeper"},
                      SystemParam{.kind = SystemKind::kExtensibleZooKeeper, .name = "EZK"}),
    [](const ::testing::TestParamInfo<SystemParam>& info) { return info.param.name; });

TEST_P(DeletionWatchTest, UpdateThenDeleteFiresOnce) {
  EXPECT_EQ(FiredAfterUpdatesThenDelete(1), 1);
}

TEST_P(DeletionWatchTest, TwoUpdatesThenDeleteFiresOnce) {
  EXPECT_EQ(FiredAfterUpdatesThenDelete(2), 1);
}

}  // namespace
}  // namespace edc
