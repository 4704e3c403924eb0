// One observability bundle per simulation: a Tracer (causal spans) and a
// MetricsRegistry (counters/gauges/histograms). The EventLoop owns it, so
// every component that holds the loop reports into the same sinks by
// construction. The tracer's enabled flag is the one switch: while it is off
// every instrument is one branch and nothing is counted, sampled or traced.

#ifndef EDC_OBS_OBS_H_
#define EDC_OBS_OBS_H_

#include "edc/obs/metrics.h"
#include "edc/obs/trace.h"

namespace edc {

struct Obs {
  Tracer tracer;
  MetricsRegistry metrics;
  bool enabled() const { return tracer.enabled(); }
};

}  // namespace edc

#endif  // EDC_OBS_OBS_H_
