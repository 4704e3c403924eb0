// Accounting rules of the benchmark, kept free of the simulator so the tests
// can pin them: which percentile a sample supports, how failed and late ops
// are charged, and what counts as a correct final state.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "edc/common/histogram.h"
#include "edc/sim/time.h"

namespace perfbench {

// The tail percentile every workload reports (p99.9).
inline constexpr double kTailQuantile = 0.999;
// A percentile is reported only when at least this many samples lie beyond it.
inline constexpr int64_t kMinSamplesBeyondTail = 10;
// Fixed latency limit an op must meet to count towards slo_ok_ratio: about
// ten times the healthy p50 of every workload.
inline constexpr edc::Duration kSloLimit = edc::Millis(10);

// Number of samples strictly beyond quantile q of n samples.
int64_t SamplesBeyond(int64_t samples, double q);
// True when n samples support quantile q under the ten-beyond rule.
bool SupportsQuantile(int64_t samples, double q);

// Outcome of one logical op (one counter increment, one queue add, ...),
// which may have taken several attempts.
struct OpOutcome {
  bool ok = false;
  edc::Duration latency = 0;  // due time to successful completion
  int attempts = 1;
};

// Per-window accounting of logical ops and of the client attempts behind
// them. An attempt fails when its callback reports a non-OK status or when
// no callback arrives in time (a lost callback).
class OpAccounting {
 public:
  void AddOutcome(const OpOutcome& outcome);
  void AddFailedAttempt() { ++failed_attempts_; }
  void AddLostAttempt() { ++lost_attempts_; }

  int64_t attempted() const { return attempted_; }
  int64_t ok() const { return ok_; }
  int64_t failed() const { return attempted_ - ok_; }
  int64_t attempts() const { return attempts_; }
  int64_t failed_attempts() const { return failed_attempts_; }
  int64_t lost_attempts() const { return lost_attempts_; }
  // Logical ops that failed or missed kSloLimit, over logical ops attempted.
  double SloMissRatio() const;
  double SloOkRatio() const { return 1.0 - SloMissRatio(); }
  // Client attempts per logical op (1 when nothing was retried).
  double AttemptsPerOp() const;
  // Failed and lost attempts over all attempts.
  double FailedAttemptRatio() const;
  const edc::Recorder& latency() const { return latency_; }

 private:
  int64_t attempted_ = 0;
  int64_t ok_ = 0;
  int64_t slo_miss_ = 0;
  int64_t attempts_ = 0;
  int64_t failed_attempts_ = 0;
  int64_t lost_attempts_ = 0;
  edc::Recorder latency_;  // successful ops only, ns
};

// A successful op: when it fell due and when it completed.
struct Served {
  edc::SimTime due = 0;
  edc::SimTime done = 0;
};

// Time without service: the largest wait, over every instant t from
// `start` on, from t to the first completion of an op due after t. After a
// leader crash at t this is the time to the first op served that was due
// after the crash; on a healthy run it is about one op's latency. Ops that
// never completed are simply absent. Order of `ops` does not matter.
edc::Duration LongestServiceWait(std::vector<Served> ops, edc::SimTime start);

// Final-state checks. Each returns an empty string when the state is
// correct, and the first violation otherwise.

// A counter incremented by `attempted` calls of which `acked` returned
// success, each returning the counter's new value.
std::string CheckCounter(int64_t final_value, int64_t acked, int64_t attempted,
                         const std::vector<int64_t>& returned_values);
// A queue: every removed id was added, and none was removed twice.
std::string CheckQueue(const std::vector<std::string>& added,
                       const std::vector<std::string>& removed);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
