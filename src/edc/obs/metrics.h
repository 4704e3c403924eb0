// Name-keyed metrics for the simulator: monotonic counters, point-in-time
// gauges, and simulated-time histograms (Recorder of ns samples).
//
// Hot paths resolve a name to a stable Counter*/Recorder* once (when the
// component is constructed) and bump through the pointer afterwards, while
// observability is on, so instrumentation costs one branch + one increment
// per event. Like the tracer, the registry only records — it never schedules
// events or draws randomness, so enabling it cannot perturb a run.

#ifndef EDC_OBS_METRICS_H_
#define EDC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>

#include "edc/common/histogram.h"

namespace edc {

class MetricsRegistry {
 public:
  // Pointers remain valid for the registry's lifetime (std::map nodes are
  // stable under insertion).
  Counter* GetCounter(const std::string& name) { return &counters_[name]; }
  Recorder* GetHistogram(const std::string& name) { return &histograms_[name]; }

  void SetGauge(const std::string& name, int64_t value) { gauges_[name] = value; }

  // Read accessors; missing names read as 0 / empty.
  int64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;
  const Recorder* Histogram(const std::string& name) const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, int64_t>& gauges() const { return gauges_; }
  const std::map<std::string, Recorder>& histograms() const { return histograms_; }

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, mean,
  // p50, p99, max}}} — keys in sorted order (std::map), so deterministic.
  std::string ToJson() const;
  bool ExportJson(const std::string& path) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, int64_t> gauges_;
  std::map<std::string, Recorder> histograms_;
};

}  // namespace edc

#endif  // EDC_OBS_METRICS_H_
