// One runner for the figure-reproduction benches (paper §6 methodology:
// closed-loop clients, a warmup, a measure window, several seeds averaged).
//
// A bench declares a Sweep: its points (a row label, a client count, the
// FixtureOptions and a per-run function returning a Sample), its seed count
// and seed base. The runner owns the rest: the seed loop, the optional
// Perfetto export, the JSON rows, the per-point means and the table. Every
// column is simulated time, so a sweep's output is deterministic.

#ifndef EDC_BENCH_RUNNER_H_
#define EDC_BENCH_RUNNER_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "edc/common/histogram.h"
#include "edc/harness/driver.h"
#include "edc/harness/fixture.h"
#include "edc/recipes/recipes.h"

namespace edc {

inline const std::vector<SystemKind>& AllSystems() {
  static const std::vector<SystemKind> kSystems{
      SystemKind::kZooKeeper, SystemKind::kExtensibleZooKeeper, SystemKind::kDepSpace,
      SystemKind::kExtensibleDepSpace};
  return kSystems;
}

// Paper sweep: 1-50 clients (Fig. 6/8), 2-50 (Fig. 10/12).
inline std::vector<size_t> ClientSweep(size_t first) { return {first, 10, 20, 30, 40, 50}; }

inline std::string Fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline double PerOp(double total, double ops) { return ops > 0 ? total / ops : 0.0; }

// Runs the simulator until `flag` is true (bounded); dies loudly otherwise.
inline void WaitFor(CoordFixture& fixture, const bool& flag, const char* what,
                    Duration max = Seconds(10)) {
  SimTime deadline = fixture.loop().now() + max;
  while (!flag && fixture.loop().now() < deadline) {
    fixture.Settle(Millis(100));
  }
  if (!flag) {
    std::fprintf(stderr, "FATAL: timed out waiting for %s\n", what);
    std::exit(1);
  }
}

// The one fatal-on-error setup path: issues `count` setup ops at once —
// `issue(i, done)` for i in [0, count) — and runs the simulator until all of
// them completed. A failed op is fatal, and the message carries its Status.
using SetupOp = std::function<void(size_t, CoordClient::Cb)>;
inline void MustSetup(CoordFixture& fixture, const char* what, size_t count,
                      const SetupOp& issue, Duration max = Seconds(10)) {
  size_t completed = 0;
  bool all = count == 0;
  for (size_t i = 0; i < count; ++i) {
    issue(i, [&, i](Status s) {
      if (!s.ok()) {
        std::fprintf(stderr, "FATAL: %s %zu failed: %s\n", what, i, s.ToString().c_str());
        std::exit(1);
      }
      if (++completed == count) {
        all = true;
      }
    });
  }
  WaitFor(fixture, all, what, max);
}

// Builds recipe objects for clients 0..count-1; runs Setup on client 0 and
// Attach on the rest.
template <typename Recipe, typename... Args>
std::vector<std::unique_ptr<Recipe>> SetupRecipeOn(CoordFixture& fixture, size_t count,
                                                   bool ext, Args... args) {
  std::vector<std::unique_ptr<Recipe>> recipes;
  for (size_t i = 0; i < count; ++i) {
    recipes.push_back(std::make_unique<Recipe>(fixture.coord(i), ext, args...));
  }
  MustSetup(fixture, "recipe setup", 1,
            [&](size_t, CoordClient::Cb done) { recipes[0]->Setup(std::move(done)); });
  MustSetup(fixture, "recipe attach", count - 1, [&](size_t i, CoordClient::Cb done) {
    recipes[i + 1]->Attach(std::move(done));
  });
  return recipes;
}

// SetupRecipeOn over every client of the fixture.
template <typename Recipe, typename... Args>
std::vector<std::unique_ptr<Recipe>> SetupRecipe(CoordFixture& fixture, bool ext,
                                                 Args... args) {
  return SetupRecipeOn<Recipe>(fixture, fixture.num_clients(), ext, args...);
}

// Sharded variant of SetupRecipe (docs/sharding.md): one recipe instance per
// client, namespaced under a subtree pinned to the client's shard
// (round-robin, client i -> shard i % num_shards). The first client on each
// shard runs Setup; the rest Attach. With one shard this degenerates to the
// unsharded layout (empty prefix, shared namespace).
template <typename Recipe>
std::vector<std::unique_ptr<Recipe>> SetupShardedRecipe(CoordFixture& fixture, bool ext,
                                                        const std::string& stem) {
  size_t shards = fixture.num_shards();
  std::vector<std::string> prefixes;
  for (size_t s = 0; s < shards; ++s) {
    prefixes.push_back(shards > 1 ? fixture.shard_map().SubtreeForShard(stem, s)
                                  : std::string());
  }
  std::vector<std::unique_ptr<Recipe>> recipes;
  for (size_t i = 0; i < fixture.num_clients(); ++i) {
    recipes.push_back(
        std::make_unique<Recipe>(fixture.coord(i), ext, prefixes[i % shards]));
  }
  // Registration fans out to every shard (sub-sessions are created on
  // demand), so give it more headroom than the single-ensemble setup.
  size_t owners = std::min(shards, fixture.num_clients());
  for (size_t s = 0; s < owners; ++s) {
    MustSetup(
        fixture, "sharded recipe setup", 1,
        [&](size_t, CoordClient::Cb done) { recipes[s]->Setup(std::move(done)); },
        Seconds(30));
  }
  MustSetup(
      fixture, "sharded recipe attach", fixture.num_clients() - owners,
      [&](size_t i, CoordClient::Cb done) { recipes[owners + i]->Attach(std::move(done)); },
      Seconds(30));
  return recipes;
}

// The counter benches' iteration: one increment.
inline void CounterIncrement(SharedCounter& counter, size_t, std::function<void()> done) {
  counter.Increment([done = std::move(done)](Result<int64_t>) { done(); });
}

// The queue benches' iteration (paper §6.1.2): add one element with an empty
// payload, then remove the head.
class QueueAddRemove {
 public:
  explicit QueueAddRemove(size_t clients) : issued_(clients, 0) {}

  void operator()(DistributedQueue& queue, size_t i, std::function<void()> done) {
    std::string id = "c" + std::to_string(i) + "-" + std::to_string(++issued_[i]);
    queue.Add(id, "", [&queue, done = std::move(done)](Status) {
      queue.Remove([done = std::move(done)](Result<std::string>) { done(); });
    });
  }

 private:
  std::vector<int64_t> issued_;
};

struct RecipeLoopRun {
  RunStats stats;
  int64_t retries = 0;  // summed over every client's recipe object
};

// The closed-loop run of a recipe bench: every client repeats
// `op(recipe, client, done)` on its own recipe object.
template <typename Recipe, typename Op>
RecipeLoopRun RunRecipeLoop(CoordFixture& fixture,
                            std::vector<std::unique_ptr<Recipe>> recipes, Duration warmup,
                            Duration measure, Op op) {
  ClosedLoop driver(&fixture, [&](size_t i, std::function<void()> done) {
    op(*recipes[i], i, std::move(done));
  });
  RecipeLoopRun run;
  run.stats = driver.Run(warmup, measure);
  for (const auto& recipe : recipes) {
    run.retries += recipe->retries();
  }
  return run;
}

// ClosedLoop's measure window, for benches that keep per-class samples: as
// in RunStats, only ops issued and completed inside the window count.
// Construct it just before ClosedLoop::Run, with the same warmup and measure.
class MeasureWindow {
 public:
  MeasureWindow(CoordFixture& fixture, Duration warmup, Duration measure)
      : fixture_(&fixture),
        start_(fixture.loop().now() + warmup),
        end_(start_ + measure) {}
  // Timed() completions hold this window's address.
  MeasureWindow(const MeasureWindow&) = delete;
  MeasureWindow& operator=(const MeasureWindow&) = delete;

  // Wraps the completion of an op issued now: its latency lands in
  // `recorder` if the op falls inside the window.
  std::function<void()> Timed(Recorder& recorder, std::function<void()> done) const {
    SimTime issued = fixture_->loop().now();
    return [this, &recorder, issued, done = std::move(done)]() {
      SimTime now = fixture_->loop().now();
      if (issued >= start_ && now <= end_) {
        recorder.Record(now - issued);
      }
      done();
    };
  }

 private:
  CoordFixture* fixture_;
  SimTime start_;
  SimTime end_;
};

// One run's result: the JSON columns, all in simulated time, and the row's
// numeric table cells, which the runner averages over the seeds.
struct Sample {
  double ops_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double kb_per_op = 0;
  StageSums stages;  // left empty, the stage columns read 0
  std::vector<double> cells;
};

// The JSON columns of a ClosedLoop run; the cells are the bench's to fill.
inline Sample StatsSample(const RunStats& stats) {
  Sample sample;
  sample.ops_per_s = stats.ThroughputOpsPerSec();
  sample.p50_ms = static_cast<double>(stats.latency.Percentile(0.5)) / 1e6;
  sample.p99_ms = static_cast<double>(stats.latency.Percentile(0.99)) / 1e6;
  sample.kb_per_op = stats.KbPerOp();
  sample.stages = stats.stages;
  return sample;
}

// The JSON columns of a QueueAddRemove run. ops/s and KB/op count add and
// remove as one operation each (an iteration is two); the latency columns
// stay per iteration.
inline Sample QueueSample(const RunStats& stats) {
  Sample sample = StatsSample(stats);
  double ops = static_cast<double>(stats.ops) * 2.0;
  sample.ops_per_s = ops / ToSeconds(stats.window);
  sample.kb_per_op = PerOp(static_cast<double>(stats.client_bytes) / 1024.0, ops);
  return sample;
}

struct Point {
  std::string label;              // JSON "system"
  size_t clients = 0;             // JSON "clients"
  std::vector<std::string> keys;  // the row's leading table cells
  // The runner sets only the seed, and span retention when a trace export
  // is requested.
  FixtureOptions options;
  uint64_t seed_offset = 0;  // first seed = the sweep's seed_base + this
  // One seed's run on a started fixture.
  std::function<Sample(CoordFixture&)> run;
};

class SweepResult;

// A numeric table column: the mean over seeds of one sample cell, divided by
// `divisor` for display. With `derive` set, the value is computed from the
// per-point means instead, and the column consumes no sample cell.
struct Column {
  std::string name;
  int precision = 2;
  double divisor = 1;
  std::function<double(const SweepResult&, size_t point)> derive{};
};

struct Sweep {
  std::string name;                      // bench_results/BENCH_<name>.json
  std::string title;                     // printed above the table
  int seeds = 1;
  uint64_t seed_base = 0;
  std::vector<std::string> key_columns;  // headers of the points' keys
  std::vector<Column> columns;
  std::vector<Point> points{};
};

struct SweepRow {
  size_t point = 0;
  uint64_t seed = 0;
  Sample sample;
};

class SweepResult {
 public:
  explicit SweepResult(const Sweep& sweep) : sweep_(&sweep) {}

  const Sweep& sweep() const { return *sweep_; }

  // Index of the point with this JSON label and client count; fatal if none.
  size_t Find(const std::string& label, size_t clients) const {
    for (size_t p = 0; p < sweep_->points.size(); ++p) {
      if (sweep_->points[p].label == label && sweep_->points[p].clients == clients) {
        return p;
      }
    }
    std::fprintf(stderr, "FATAL: no point %s/%zu in %s\n", label.c_str(), clients,
                 sweep_->name.c_str());
    std::exit(1);
  }
  const std::vector<double>& Means(const std::string& label, size_t clients) const {
    return means[Find(label, clients)];
  }

  std::vector<SweepRow> rows;              // one per (point, seed), in run order
  std::vector<std::vector<double>> means;  // per point: each sample cell's mean

 private:
  const Sweep* sweep_;
};

// The sharded benches' sweep (docs/sharding.md): each system's points run
// 1, 4, 8 and 16 shards, in this order.
inline const std::vector<size_t>& ShardSweep() {
  static const std::vector<size_t> kShards{1, 4, 8, 16};
  return kShards;
}

// A sharded point's first cell (its aggregate throughput) against that of
// the 1-shard point leading its system's block.
inline double VsOneShard(const SweepResult& result, size_t p) {
  double base = result.means[p - p % ShardSweep().size()][0];
  return base > 0 ? result.means[p][0] / base : 0;
}

// True when the user asked for Perfetto trace dumps (EDC_TRACE_DIR set); the
// runner then turns on span retention, which is otherwise off to bound
// memory.
inline bool TraceExportRequested() {
  const char* dir = std::getenv("EDC_TRACE_DIR");
  return dir != nullptr && *dir != '\0';
}

// Dumps the fixture's retained spans as Chrome trace_event JSON (openable in
// Perfetto) to $EDC_TRACE_DIR/TRACE_<name>.json.
inline void ExportTrace(CoordFixture& fixture, std::string name) {
  std::replace(name.begin(), name.end(), '/', '_');
  std::string dir = std::getenv("EDC_TRACE_DIR");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string path = dir + "/TRACE_" + name + ".json";
  if (fixture.obs().tracer.ExportJson(path)) {
    std::printf("wrote %s\n", path.c_str());
  }
}

// Runs every point for `seeds` seeds, in seed order, and averages each
// sample cell per point.
inline SweepResult RunSweep(const Sweep& sweep) {
  size_t averaged = static_cast<size_t>(std::count_if(
      sweep.columns.begin(), sweep.columns.end(), [](const Column& c) { return !c.derive; }));
  SweepResult result(sweep);
  for (size_t p = 0; p < sweep.points.size(); ++p) {
    const Point& point = sweep.points[p];
    std::vector<RunAggregate> cells(averaged);
    for (int s = 0; s < sweep.seeds; ++s) {
      FixtureOptions options = point.options;
      options.seed = sweep.seed_base + point.seed_offset + static_cast<uint64_t>(s);
      options.retain_spans = options.observability && TraceExportRequested();
      CoordFixture fixture(options);
      fixture.Start();
      Sample sample = point.run(fixture);
      if (sample.cells.size() != averaged) {
        std::fprintf(stderr, "FATAL: %s/%s returned %zu cells, want %zu\n",
                     sweep.name.c_str(), point.label.c_str(), sample.cells.size(), averaged);
        std::exit(1);
      }
      if (options.retain_spans) {
        ExportTrace(fixture, sweep.name + "_" + point.label + "_c" +
                                 std::to_string(point.clients) + "_s" + std::to_string(s));
      }
      for (size_t c = 0; c < averaged; ++c) {
        cells[c].Add(sample.cells[c]);
      }
      result.rows.push_back({p, options.seed, std::move(sample)});
    }
    std::vector<double> means;
    for (const RunAggregate& cell : cells) {
      means.push_back(cell.Mean());
    }
    result.means.push_back(std::move(means));
  }
  return result;
}

// The paper-style fixed-width table: the keys, then one cell per column.
inline std::string FormatTable(const SweepResult& result) {
  const Sweep& sweep = result.sweep();
  std::vector<std::vector<std::string>> lines;
  lines.push_back(sweep.key_columns);
  for (const Column& column : sweep.columns) {
    lines[0].push_back(column.name);
  }
  for (size_t p = 0; p < sweep.points.size(); ++p) {
    std::vector<std::string> line = sweep.points[p].keys;
    size_t cell = 0;
    for (const Column& column : sweep.columns) {
      double v = column.derive ? column.derive(result, p)
                               : result.means[p][cell++] / column.divisor;
      line.push_back(Fmt(v, column.precision));
    }
    lines.push_back(std::move(line));
  }
  std::vector<size_t> widths(lines[0].size(), 0);
  for (const auto& line : lines) {
    for (size_t c = 0; c < line.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], line[c].size());
    }
  }
  std::string out;
  for (size_t i = 0; i < lines.size(); ++i) {
    for (size_t c = 0; c < lines[i].size() && c < widths.size(); ++c) {
      out += lines[i][c] + std::string(widths[c] - lines[i][c].size() + 2, ' ');
    }
    out += "\n";
    if (i == 0) {
      for (size_t width : widths) {
        out += std::string(width + 2, '-');
      }
      out += "\n";
    }
  }
  return out;
}

// The machine-readable rows: one per (point, seed), so plotting and trend
// scripts don't have to scrape stdout.
inline std::string FormatJson(const SweepResult& result) {
  const Sweep& sweep = result.sweep();
  std::string out = "{\n  \"bench\": \"" + sweep.name + "\",\n  \"rows\": [\n";
  for (size_t i = 0; i < result.rows.size(); ++i) {
    const SweepRow& row = result.rows[i];
    const Sample& s = row.sample;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"system\": \"%s\", \"clients\": %zu, \"seed\": %llu, "
                  "\"ops_per_s\": %.3f, \"p50_ms\": %.6f, \"p99_ms\": %.6f, "
                  "\"kb_per_op\": %.6f, "
                  "\"queue_ms\": %.6f, \"cpu_ms\": %.6f, \"network_ms\": %.6f, "
                  "\"fsync_ms\": %.6f, \"other_ms\": %.6f}%s\n",
                  sweep.points[row.point].label.c_str(), sweep.points[row.point].clients,
                  static_cast<unsigned long long>(row.seed), s.ops_per_s, s.p50_ms,
                  s.p99_ms, s.kb_per_op, s.stages.MeanMs(Stage::kQueue),
                  s.stages.MeanMs(Stage::kCpu), s.stages.MeanMs(Stage::kNetwork),
                  s.stages.MeanMs(Stage::kFsync), s.stages.MeanMs(Stage::kOther),
                  i + 1 < result.rows.size() ? "," : "");
    out += buf;
  }
  return out + "  ]\n}\n";
}

// Runs the sweep, prints its title and table, and writes
// bench_results/BENCH_<name>.json (a write failure warns: the table on
// stdout is the primary output). Returns the result for shape checks.
inline SweepResult RunAndReport(const Sweep& sweep) {
  SweepResult result = RunSweep(sweep);
  std::printf("%s\n%s", sweep.title.c_str(), FormatTable(result).c_str());
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  std::string path = "bench_results/BENCH_" + sweep.name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return result;
  }
  out << FormatJson(result);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), result.rows.size());
  return result;
}

}  // namespace edc

#endif  // EDC_BENCH_RUNNER_H_
