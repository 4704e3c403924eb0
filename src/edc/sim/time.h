// Simulated time. All simulator timestamps are nanoseconds since the start of
// the run, carried as plain int64 for cheap arithmetic in event handlers.

#ifndef EDC_SIM_TIME_H_
#define EDC_SIM_TIME_H_

#include <cstdint>
#include <string>

namespace edc {

using SimTime = int64_t;   // absolute, ns since run start
using Duration = int64_t;  // relative, ns

constexpr Duration Nanos(int64_t n) { return n; }
constexpr Duration Micros(int64_t n) { return n * 1000; }
constexpr Duration Millis(int64_t n) { return n * 1000 * 1000; }
constexpr Duration Seconds(int64_t n) { return n * 1000 * 1000 * 1000; }

constexpr double ToMillis(Duration d) { return static_cast<double>(d) / 1e6; }
constexpr double ToSeconds(Duration d) { return static_cast<double>(d) / 1e9; }

// "500ms", "300us" or "7ns": the largest of these units that divides `d`.
inline std::string DurationString(Duration d) {
  if (d % Millis(1) == 0) {
    return std::to_string(d / Millis(1)) + "ms";
  }
  if (d % Micros(1) == 0) {
    return std::to_string(d / Micros(1)) + "us";
  }
  return std::to_string(d) + "ns";
}

}  // namespace edc

#endif  // EDC_SIM_TIME_H_
