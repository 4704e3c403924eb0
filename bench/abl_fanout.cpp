// Ablation of the replication-style trade-off the paper discusses in §6.3:
// EZK executes an extension once at the primary and disseminates the
// resulting state DELTAS (inter-server traffic grows with the extension's
// write set), while EDS disseminates the (small) triggering REQUEST and
// re-executes everywhere (inter-server traffic independent of the write
// set, at the cost of forbidding nondeterminism).
//
// The extension here writes `k` objects of `bytes` each per invocation; we
// report inter-server bytes per operation for both systems.

#include "bench/runner.h"

namespace edc {
namespace {

constexpr Duration kWarmup = Millis(500);
constexpr Duration kMeasure = Seconds(2);

std::string WriterExtension(int k) {
  std::string list = "[";
  for (int i = 0; i < k; ++i) {
    if (i > 0) {
      list += ",";
    }
    list += std::to_string(i);
  }
  list += "]";
  return R"(
extension fan_writer {
  on op update "/trigger";
  fn update(oid, data) {
    foreach (i in )" + list + R"() {
      if (exists("/out-" + i)) {
        update("/out-" + i, data);
      } else {
        create("/out-" + i, data);
      }
    }
    return 1;
  }
}
)";
}

// JSON columns: kb_per_op reports the inter-SERVER bytes (the quantity this
// ablation is about); the rest are the closed loop's.
Sample FanoutRun(CoordFixture& fixture, int k, size_t bytes) {
  CoordClient* owner = fixture.coord(0);
  MustSetup(fixture, "fanout setup", 1, [&](size_t, CoordClient::Cb done) {
    owner->Create("/trigger", "", [&, done](Result<std::string> r) {
      if (!r.ok()) {
        done(r.status());
        return;
      }
      owner->RegisterExtension("fan_writer", WriterExtension(k), done);
    });
  });
  MustSetup(fixture, "fanout ack", fixture.num_clients() - 1,
            [&](size_t i, CoordClient::Cb done) {
              fixture.coord(i + 1)->AcknowledgeExtension("fan_writer", std::move(done));
            });

  const std::string payload(bytes, 'w');
  ClosedLoop driver(&fixture, [&](size_t i, std::function<void()> done) {
    fixture.coord(i)->Update("/trigger", payload,
                             [done = std::move(done)](Status) { done(); });
  });
  // Inter-server traffic = everything sent minus client-side traffic.
  auto client_traffic = [&]() {
    int64_t sent = 0;
    int64_t received = 0;
    for (size_t i = 0; i < fixture.num_clients(); ++i) {
      sent += fixture.net().StatsFor(fixture.client_node(i)).bytes_sent;
      received += fixture.net().StatsFor(fixture.client_node(i)).bytes_received;
    }
    return sent + received;
  };
  int64_t total_before = fixture.net().total_bytes_sent();
  int64_t client_before = client_traffic();
  RunStats stats = driver.Run(kWarmup, kMeasure);
  // NOTE: totals cover warmup+measure; ops only the window — consistent
  // enough for the per-op comparison as warmup << measure.
  int64_t inter_server = (fixture.net().total_bytes_sent() - total_before) -
                         (client_traffic() - client_before);
  int64_t total_ops = static_cast<int64_t>(
      static_cast<double>(stats.ops) * ToSeconds(kWarmup + kMeasure) / ToSeconds(kMeasure));
  Sample sample = StatsSample(stats);
  sample.kb_per_op =
      PerOp(static_cast<double>(inter_server) / 1024.0, static_cast<double>(total_ops));
  sample.cells = {sample.kb_per_op, sample.ops_per_s};
  return sample;
}

void Main() {
  Sweep sweep{
      .name = "abl_fanout",
      .title = "=== Ablation (§6.3): inter-server bytes per extension invocation ===\n"
               "EZK ships state deltas (grows with the write set); EDS ships the\n"
               "triggering request (grows with the payload, not the object count).\n",
      .seeds = 1,
      .seed_base = 8000,
      .key_columns = {"system", "objects_written", "payload_bytes"},
      .columns = {{"server_kb_per_op", 3}, {"kops_per_s", 2, 1000}}};
  for (SystemKind system : {SystemKind::kExtensibleZooKeeper, SystemKind::kExtensibleDepSpace}) {
    for (int k : {1, 4, 16}) {
      for (size_t bytes : {16, 256, 1024}) {
        FixtureOptions options;
        options.system = system;
        options.num_clients = 4;
        options.observability = true;
        sweep.points.push_back(
            {std::string(SystemName(system)) + "/k" + std::to_string(k) + "/b" +
                 std::to_string(bytes),
             4,
             {SystemName(system), std::to_string(k), std::to_string(bytes)},
             options, static_cast<uint64_t>(k),
             [k, bytes](CoordFixture& f) { return FanoutRun(f, k, bytes); }});
      }
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
