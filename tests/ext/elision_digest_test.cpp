// Determinism across execution engines: running the identical seeded
// scenario with certified handlers dispatched to the bytecode VM vs the
// tree-walking interpreter must produce byte-identical packet traces and
// replica state. Both engines count steps instruction-for-instruction the
// same, so the simulated CPU charge — and with it every delivery time in the
// digest — cannot move (docs/bytecode_vm.md, "verification pays once").

#include <gtest/gtest.h>

#include <string>

#include "edc/common/result.h"
#include "edc/harness/fixture.h"
#include "edc/recipes/scripts.h"
#include "edc/recipes/two_phase.h"

namespace edc {
namespace {

uint64_t Fnv1aMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

struct RunSig {
  uint64_t packet_digest = 0;
  uint64_t state_hash = 0;
  int64_t invocations = 0;
  int64_t certified = 0;
  int64_t vm_dispatches = 0;
};

// Registers the counter extension and bumps it repeatedly; the handler is
// loop-free and whitelisted, so the analyzer certifies it and compiles it.
RunSig RunCounterWorkload(SystemKind system, uint64_t seed, bool vm) {
  FixtureOptions options;
  options.system = system;
  options.num_clients = 1;
  options.seed = seed;
  options.observability = true;  // counters only; proven non-perturbing
  options.limits.enable_vm = vm;
  ClusterFixture fix(options);
  fix.faults().EnablePacketTrace();
  fix.Start();

  fix.loop().Schedule(Millis(10), [&fix]() {
    fix.coord(0)->Create("/ctr", "0", [](Result<std::string>) {});
  });
  fix.loop().Schedule(Millis(200), [&fix]() {
    fix.coord(0)->RegisterExtension("ctr_increment", kCounterExtension, [](Status) {});
  });
  for (int i = 0; i < 8; ++i) {
    fix.loop().Schedule(Millis(500) + Millis(100) * i, [&fix]() {
      fix.coord(0)->Read("/ctr-increment", [](Result<std::string>) {});
    });
  }
  fix.Settle(Seconds(5));

  RunSig sig;
  sig.packet_digest = fix.faults().TraceDigest();
  uint64_t h = 1469598103934665603ull;
  if (IsZkFamily(system)) {
    for (auto& s : fix.zk_servers) {
      for (const auto& [zxid, txn_hash] : s->applied_log()) {
        h = Fnv1aMix(h, zxid);
        h = Fnv1aMix(h, txn_hash);
      }
    }
  } else {
    std::string why;
    EXPECT_TRUE(fix.CheckEdsInvariants(&why)) << why;
    for (auto& s : fix.ds_servers) {
      h = Fnv1aMix(h, s->space().Digest());
    }
  }
  sig.state_hash = h;
  sig.invocations = fix.obs().metrics.CounterValue("ext.invocations");
  sig.certified = fix.obs().metrics.CounterValue("ext.certified");
  sig.vm_dispatches = fix.obs().metrics.CounterValue("ext.vm_dispatches");
  return sig;
}

// Same property for the bytecode VM: dispatching certified handlers to
// compiled code instead of the tree walker must be invisible to the digest.
// steps_used is charged instruction-for-instruction identically, so the
// simulated CPU time — and therefore every packet timestamp — cannot move.
TEST(ElisionDigestTest, EzkDigestsIdenticalWithVmOnAndOff) {
  RunSig interp = RunCounterWorkload(SystemKind::kExtensibleZooKeeper, 71,
                                     /*vm=*/false);
  RunSig vm = RunCounterWorkload(SystemKind::kExtensibleZooKeeper, 71,
                                 /*vm=*/true);

  // The toggle really routed execution: every certified invocation went
  // through the VM in one run and none in the other.
  EXPECT_GT(vm.invocations, 0);
  EXPECT_EQ(vm.vm_dispatches, vm.invocations);
  EXPECT_EQ(interp.vm_dispatches, 0);

  EXPECT_EQ(vm.packet_digest, interp.packet_digest);
  EXPECT_EQ(vm.state_hash, interp.state_hash);
}

TEST(ElisionDigestTest, EdsDigestsIdenticalWithVmOnAndOff) {
  RunSig interp = RunCounterWorkload(SystemKind::kExtensibleDepSpace, 83,
                                     /*vm=*/false);
  RunSig vm = RunCounterWorkload(SystemKind::kExtensibleDepSpace, 83,
                                 /*vm=*/true);

  EXPECT_GT(vm.invocations, 0);
  EXPECT_GT(vm.vm_dispatches, 0);
  EXPECT_EQ(interp.vm_dispatches, 0);

  EXPECT_EQ(vm.packet_digest, interp.packet_digest);
  EXPECT_EQ(vm.state_hash, interp.state_hash);
}

// The 2PC participant is the stress case for the interval/length analysis:
// nested foreach over split() results, certified only via the amortized
// total-length bound. Moving it from the metered tree walker onto the VM
// must be invisible to the packet trace and replica state — this is the
// end-to-end proof that the newly-certified handler's dispatch change is
// digest-neutral.
RunSig RunTwoPhaseWorkload(uint64_t seed, bool vm) {
  FixtureOptions options;
  options.system = SystemKind::kExtensibleZooKeeper;
  options.num_clients = 1;
  options.num_shards = 2;
  options.seed = seed;
  options.observability = true;
  options.limits.enable_vm = vm;
  ClusterFixture fix(options);
  fix.faults().EnablePacketTrace();
  fix.Start();

  ZkTwoPhase tp(fix.zk_router(0));
  tp.Setup([](Status) {});
  fix.Settle(Seconds(3));
  tp.Attach([](Status) {});
  fix.Settle(Seconds(2));

  const ShardMap& map = fix.shard_map();
  std::string a = map.SubtreeForShard("/ta", 0);
  std::string b = map.SubtreeForShard("/tb", 1);
  tp.Multi({TwoPhaseOp::Create(a, "va"), TwoPhaseOp::Create(b, "vb")},
           [](Status) {});
  fix.Settle(Seconds(5));
  tp.Multi({TwoPhaseOp::Update(a, "va2"), TwoPhaseOp::Delete(b)}, [](Status) {});
  fix.Settle(Seconds(5));

  RunSig sig;
  sig.packet_digest = fix.faults().TraceDigest();
  uint64_t h = 1469598103934665603ull;
  for (auto& s : fix.zk_servers) {
    for (const auto& [zxid, txn_hash] : s->applied_log()) {
      h = Fnv1aMix(h, zxid);
      h = Fnv1aMix(h, txn_hash);
    }
  }
  sig.state_hash = h;
  sig.invocations = fix.obs().metrics.CounterValue("ext.invocations");
  sig.certified = fix.obs().metrics.CounterValue("ext.certified");
  sig.vm_dispatches = fix.obs().metrics.CounterValue("ext.vm_dispatches");
  return sig;
}

TEST(ElisionDigestTest, TwoPhaseDigestsIdenticalWithVmOnAndOff) {
  RunSig interp = RunTwoPhaseWorkload(101, /*vm=*/false);
  RunSig vm = RunTwoPhaseWorkload(101, /*vm=*/true);

  // Every prepare/commit invocation is certified and, with the VM on, every
  // one of them dispatched to compiled code.
  EXPECT_GT(vm.invocations, 0);
  EXPECT_EQ(vm.certified, vm.invocations);
  EXPECT_EQ(vm.vm_dispatches, vm.invocations);
  EXPECT_EQ(interp.vm_dispatches, 0);
  EXPECT_EQ(interp.invocations, vm.invocations);

  EXPECT_EQ(vm.packet_digest, interp.packet_digest);
  EXPECT_EQ(vm.state_hash, interp.state_hash);
}

}  // namespace
}  // namespace edc
