#include "harness.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/json_util.h"

namespace perfbench {

double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

namespace {

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) Fail("clock_gettime failed");
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::exit(2);
}

void Log(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::fputs("perfbench: ", stderr);
  std::vfprintf(stderr, format, args);
  std::fputc('\n', stderr);
  va_end(args);
}

namespace {

// A dependent xorshift chain the compiler cannot vectorize or fold.
uint64_t Spin(uint64_t iterations, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double TimeSpinMs(int threads) {
  constexpr uint64_t kIterations = 40'000'000;
  std::vector<uint64_t> sink(static_cast<size_t>(threads));
  auto start = Clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&sink, t] {
      sink[static_cast<size_t>(t)] =
          Spin(kIterations, static_cast<uint64_t>(t) + 7);
    });
  }
  for (std::thread& w : workers) w.join();
  double ms = MsBetween(start, Clock::now());
  uint64_t folded = 0;
  for (uint64_t v : sink) folded ^= v;
  if (folded == 42) Log("spin checksum collision");  // keeps the work live
  return ms;
}

// Sum of all jiffies and the steal jiffies on /proc/stat's "cpu" line.
std::pair<int64_t, int64_t> ReadCpuStat() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return {0, 0};
  int64_t total = 0;
  int64_t steal = 0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted inside user/nice).
  for (int field = 0; field < 8; ++field) {
    int64_t v = 0;
    in >> v;
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

}  // namespace

void HostCalibration::Start() {
  nproc_ = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  auto [total, steal] = ReadCpuStat();
  stat_total_ = total;
  stat_steal_ = steal;
  spin_1t_ms_ = TimeSpinMs(1);
  spin_2t_ms_ = TimeSpinMs(2);
}

void HostCalibration::Finish() {
  auto [total, steal] = ReadCpuStat();
  const int64_t dt = total - stat_total_;
  steal_share_ = dt > 0 ? static_cast<double>(steal - stat_steal_) /
                              static_cast<double>(dt)
                        : 0;
}

void HostCalibration::AppendTo(
    std::vector<std::pair<std::string, std::string>>* info) const {
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  info->push_back({"host.nproc", std::to_string(nproc_)});
  info->push_back({"host.spin_1t_ms", num(spin_1t_ms_)});
  info->push_back({"host.spin_2t_ms", num(spin_2t_ms_)});
  // Two threads doing the 1-thread work each: 2.0 is a perfect ceiling.
  info->push_back({"host.parallel_ceiling_2t",
                   num(spin_2t_ms_ > 0 ? 2 * spin_1t_ms_ / spin_2t_ms_ : 0)});
  info->push_back({"host.steal_share", num(steal_share_)});
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  metrics_.push_back({name, value, unit});
}

void Report::Info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  info_.push_back({key, buf});
}

void Report::CountAttempts(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Print(const HostCalibration& host) const {
  std::vector<std::pair<std::string, std::string>> info = info_;
  host.AppendTo(&info);
  std::string line = "perfbench-info {";
  for (size_t i = 0; i < info.size(); ++i) {
    if (i > 0) line += ",";
    vstore::AppendJsonString(info[i].first, &line);
    line += ":";
    vstore::AppendJsonString(info[i].second, &line);
  }
  line += "}";
  std::printf("%s\n", line.c_str());

  if (attempted_ < 1) Fail("the run attempted no operations");
  std::string result = "{\"correct\": ";
  result += failed_ == 0 ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted_);
  result += ", \"failed\": " + std::to_string(failed_);
  result += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) result += ", ";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    vstore::AppendJsonString(metrics_[i].name, &result);
    result += ": {\"value\": ";
    result += value;
    result += ", \"unit\": ";
    vstore::AppendJsonString(metrics_[i].unit, &result);
    result += "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
