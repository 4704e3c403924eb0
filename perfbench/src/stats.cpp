#include "stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace perfbench {

int64_t SamplesBeyond(int64_t samples, double q) {
  if (samples <= 0) {
    return 0;
  }
  // The quantile sits at rank q * (n - 1) (linear interpolation between
  // order statistics); every sample ranked above it lies beyond it.
  double rank = q * static_cast<double>(samples - 1);
  return samples - 1 - static_cast<int64_t>(std::floor(rank));
}

bool SupportsQuantile(int64_t samples, double q) {
  return SamplesBeyond(samples, q) >= kMinSamplesBeyondTail;
}

void OpAccounting::AddOutcome(const OpOutcome& outcome) {
  ++attempted_;
  attempts_ += outcome.attempts;
  if (!outcome.ok) {
    ++slo_miss_;
    return;
  }
  ++ok_;
  latency_.Record(outcome.latency);
  if (outcome.latency > kSloLimit) {
    ++slo_miss_;
  }
}

double OpAccounting::SloMissRatio() const {
  return attempted_ > 0 ? static_cast<double>(slo_miss_) / static_cast<double>(attempted_)
                        : 0.0;
}

double OpAccounting::AttemptsPerOp() const {
  return attempted_ > 0 ? static_cast<double>(attempts_) / static_cast<double>(attempted_)
                        : 0.0;
}

double OpAccounting::FailedAttemptRatio() const {
  return attempts_ > 0
             ? static_cast<double>(failed_attempts_ + lost_attempts_) /
                   static_cast<double>(attempts_)
             : 0.0;
}

edc::Duration LongestServiceWait(std::vector<Served> ops, edc::SimTime start) {
  std::sort(ops.begin(), ops.end(),
            [](const Served& a, const Served& b) { return a.due < b.due; });
  // Walking back over due times: `first_done` is the earliest completion of
  // the ops due strictly after the instant under consideration. The wait is
  // largest just after a due time (or at `start`), where it steps up.
  edc::Duration longest = 0;
  edc::SimTime first_done = INT64_MAX;
  size_t i = ops.size();
  while (i > 0) {
    edc::SimTime due = ops[i - 1].due;
    if (due >= start && first_done != INT64_MAX) {
      longest = std::max(longest, first_done - due);
    }
    for (; i > 0 && ops[i - 1].due == due; --i) {
      first_done = std::min(first_done, ops[i - 1].done);
    }
  }
  if (first_done != INT64_MAX) {
    longest = std::max(longest, first_done - start);
  }
  return longest;
}

std::string CheckCounter(int64_t final_value, int64_t acked, int64_t attempted,
                         const std::vector<int64_t>& returned_values) {
  if (final_value < acked) {
    return "counter " + std::to_string(final_value) + " below " + std::to_string(acked) +
           " acknowledged increments";
  }
  if (final_value > attempted) {
    return "counter " + std::to_string(final_value) + " above " + std::to_string(attempted) +
           " attempted increments";
  }
  std::unordered_set<int64_t> seen;
  for (int64_t v : returned_values) {
    if (v < 1 || v > final_value) {
      return "increment returned " + std::to_string(v) + " outside [1, " +
             std::to_string(final_value) + "]";
    }
    if (!seen.insert(v).second) {
      return "two increments returned " + std::to_string(v);
    }
  }
  return "";
}

std::string CheckQueue(const std::vector<std::string>& added,
                       const std::vector<std::string>& removed) {
  std::unordered_set<std::string> pool(added.begin(), added.end());
  std::unordered_set<std::string> taken;
  for (const std::string& id : removed) {
    if (pool.count(id) == 0) {
      return "removed '" + id + "' was never added";
    }
    if (!taken.insert(id).second) {
      return "'" + id + "' removed twice";
    }
  }
  return "";
}

}  // namespace perfbench
