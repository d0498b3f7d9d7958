#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement plumbing shared by every workload: clocks (wall and CPU),
// quantiles, the host calibration record, run guards, and the result
// printer.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point start, Clock::time_point end);

// CPU time consumed so far by the whole process / the calling thread.
int64_t ProcessCpuNs();
int64_t ThreadCpuNs();

// Linear interpolation between closest ranks (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);

inline double MiB(int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// Ends the run without a result line: prints the reason and exits with
// status 2. Used when a workload degenerates or the engine errors.
[[noreturn]] void Fail(const std::string& what);
inline void Guard(bool holds, const std::string& what) {
  if (!holds) Fail("guard tripped: " + what);
}

// Progress and diagnostics go to stderr so stdout carries only the
// info line and the result line.
void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));

// What the host actually gave this run. A pure-ALU spin loop runs on one
// thread, then the same work on each of two threads at once: the ratio is
// the parallel ceiling a dop-2 plan can reach. Steal is the share of CPU
// time the hypervisor took away between Start() and Finish().
class HostCalibration {
 public:
  void Start();
  void Finish();
  // Appends the record's fields to an info list.
  void AppendTo(std::vector<std::pair<std::string, std::string>>* info) const;

 private:
  int nproc_ = 0;
  double spin_1t_ms_ = 0;
  double spin_2t_ms_ = 0;
  int64_t stat_total_ = 0;
  int64_t stat_steal_ = 0;
  double steal_share_ = 0;
};

// Collects metrics and counts, then prints one info line (sample counts,
// host calibration, guard readings) followed by the JSON result line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, double value);
  void CountAttempts(int64_t attempted, int64_t failed);
  void Print(const HostCalibration& host) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
