// Joiner catch-up vs. log length (docs/reconfig.md): a fresh observer is
// added to a 3-node ZK ensemble after L committed writes; the bench measures
// the sim-time from its boot until it reaches the commit frontier that was
// current at the join, and the bytes the ensemble shipped to it. Two
// configurations:
//   full-replay    — compaction off; the joiner replays the entire log.
//   snapshot-ship  — the leader compacts every 16 commits, so the joiner's
//                    zxid predates the log floor and it receives a DataTree
//                    snapshot plus only the post-snapshot suffix.
//
// Expected shape: full-replay traffic grows linearly with L while
// snapshot-ship converges to snapshot-size + bounded suffix — the usual
// justification for shipping state instead of history. Catch-up time follows
// the bytes through the modeled link bandwidth.

#include "bench/runner.h"

namespace edc {
namespace {

constexpr int kSeeds = 3;
constexpr NodeId kJoiner = 4;

// The backlog is L overwrites round-robin over a small key set, so state
// stays O(keys) while history grows O(L) — the regime where shipping a
// snapshot beats replaying the log. (With create-only traffic the tree is
// the same data as the log and both modes ship O(L) bytes.)
constexpr size_t kKeys = 16;

// Sequential sync write; dies loudly on failure (bench precondition).
void MustWrite(CoordFixture& fx, size_t i) {
  std::string path = "/n" + std::to_string(i % kKeys);
  std::string value = "v" + std::to_string(i);
  MustSetup(fx, "backlog write", 1, [&](size_t, CoordClient::Cb done) {
    if (i < kKeys) {
      fx.zk_client(0)->Create(path, value, false, false,
                              [done = std::move(done)](Result<std::string> r) {
                                done(r.status());
                              });
    } else {
      fx.zk_client(0)->SetData(path, value, -1, std::move(done));
    }
  });
}

// JSON columns: "clients" doubles as the swept log length; ops/s is the
// catch-up rate in log entries per second, p50 the raw time, and KB/op the
// bytes shipped to the joiner.
Sample CatchupRun(CoordFixture& fixture, size_t log_len) {
  for (size_t i = 0; i < log_len; ++i) {
    MustWrite(fixture, i);
  }

  ZkServer* leader = nullptr;
  for (auto& s : fixture.zk_servers) {
    if (s->running() && s->IsLeader()) {
      leader = s.get();
    }
  }
  if (leader == nullptr) {
    std::fprintf(stderr, "FATAL: no leader after backlog\n");
    std::exit(1);
  }
  uint64_t frontier = leader->zab().last_committed();
  // Warm the admin session outside the measured window (the spec fails
  // validation but forces the connect).
  (void)fixture.AdminReconfig("remove 999", Seconds(5));

  SimTime start = fixture.loop().now();
  fixture.BootExtraZkReplica(kJoiner);
  Status added = fixture.AdminReconfig("add_observer " + std::to_string(kJoiner),
                                       Seconds(30));
  if (!added.ok()) {
    std::fprintf(stderr, "FATAL: add_observer failed: %s\n", added.ToString().c_str());
    std::exit(1);
  }
  ZkServer* joiner = fixture.ZkServerById(kJoiner);
  SimTime deadline = fixture.loop().now() + Seconds(120);
  while (joiner->zab().last_committed() < frontier && fixture.loop().now() < deadline) {
    fixture.Settle(Millis(1));
  }
  if (joiner->zab().last_committed() < frontier) {
    std::fprintf(stderr, "FATAL: joiner never caught up at log_len=%zu\n", log_len);
    std::exit(1);
  }
  double catchup_ms = static_cast<double>(fixture.loop().now() - start) / 1e6;
  Sample sample;
  sample.ops_per_s = static_cast<double>(log_len) / (catchup_ms / 1e3);
  sample.p50_ms = catchup_ms;
  sample.kb_per_op =
      static_cast<double>(fixture.net().StatsFor(kJoiner).bytes_received) / 1024.0;
  sample.cells = {catchup_ms, sample.kb_per_op};
  return sample;
}

void Main() {
  Sweep sweep{.name = "fig_catchup",
              .title = "=== Joiner catch-up: snapshot-ship vs full replay (avg of " +
                       std::to_string(kSeeds) + " runs) ===",
              .seeds = kSeeds,
              .seed_base = 9100,
              .key_columns = {"mode", "log_len"},
              .columns = {{"catchup_ms"}, {"joiner_kb"}}};
  for (bool snapshot_ship : {false, true}) {
    const char* mode = snapshot_ship ? "snapshot-ship" : "full-replay";
    for (size_t log_len : {25, 50, 100, 200, 400}) {
      FixtureOptions options;
      options.system = SystemKind::kZooKeeper;
      options.num_clients = 1;
      options.zk_server.zab.snapshot_every = snapshot_ship ? 16 : 0;
      // A constrained link (10 Mbit/s) so the shipped bytes show up in the
      // catch-up time instead of disappearing into LAN serialization slack.
      options.link.bandwidth_bps = 1e7;
      sweep.points.push_back({mode, log_len, {mode, std::to_string(log_len)}, options, 0,
                              [log_len](CoordFixture& f) { return CatchupRun(f, log_len); }});
    }
  }
  RunAndReport(sweep);
}

}  // namespace
}  // namespace edc

int main() {
  edc::Main();
  return 0;
}
