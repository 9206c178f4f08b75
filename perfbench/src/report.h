// Measurement vocabulary shared by the three workloads: wall-clock
// samples with the percentile reporting rule, process resource usage, and
// the metric report the binary prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A percentile is reported only when at least this many samples lie
/// beyond it (a p99 therefore needs 1,000 samples).
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest-rank position of quantile q in n sorted samples:
/// the smallest rank r with r >= q * n. n must be > 0.
std::size_t nearest_rank(double q, std::size_t n);

/// Samples strictly beyond the q-quantile's rank: n - nearest_rank(q, n).
std::size_t samples_beyond(double q, std::size_t n);

/// True when the q-quantile of n samples has kMinBeyond samples past it.
bool quantile_supported(double q, std::size_t n);

/// One operation kind's latencies (any unit; the workloads use µs).
class Samples {
 public:
  void add(double v) { v_.push_back(v); sorted_ = false; }
  void append(const Samples& other);
  void reserve(std::size_t n) { v_.reserve(n); }
  std::size_t size() const { return v_.size(); }

  /// Nearest-rank quantile; 0 on an empty set.
  double quantile(double q) const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

/// The fixed windows of one timed phase: one per whole second (at least
/// one), so every figure is a median of per-second figures.
struct Windows {
  std::int64_t start_ns = 0;
  std::int64_t len_ns = 0;
  std::size_t n = 1;

  static Windows Of(std::int64_t start_ns, double seconds);
};

/// Samples stamped with their completion time, so a timed phase can be
/// summarised per fixed window. Medians over windows keep a burst of
/// machine noise in one window from moving a run's figures.
class Timeline {
 public:
  void add(std::int64_t t_ns, double v) { points_.emplace_back(t_ns, v); }
  void append(const Timeline& other);
  void reserve(std::size_t n) { points_.reserve(n); }
  std::size_t size() const { return points_.size(); }

  /// The samples of each window; one stamped past the last window (an
  /// op in flight at the deadline) counts in the last.
  std::vector<Samples> windows(const Windows& w) const;

 private:
  std::vector<std::pair<std::int64_t, double>> points_;
};

/// Median over parts (windows or rounds of one timed phase) of each
/// part's q-quantile when every part has enough samples for q (see
/// quantile_supported); otherwise the q-quantile of all parts together.
double median_of_quantiles(const std::vector<Samples>& parts, double q);

/// Median over windows of completions per second.
double windowed_rate(const Timeline& completions, const Windows& w);

/// Process counters from getrusage(RUSAGE_SELF).
struct ProcUsage {
  double cpu_s = 0;              ///< user + system
  std::uint64_t vol_csw = 0;     ///< voluntary context switches (blocking)
  std::uint64_t invol_csw = 0;   ///< involuntary ones (preemption)
  double max_rss_mb = 0;         ///< peak resident set so far

  static ProcUsage Now();
};

/// Metric names: a letter or digit, then letters, digits, '_', '.', '-';
/// at most 64 characters.
bool valid_metric_name(std::string_view name);
/// Units: 1-16 of letters, digits, '_', '/', '%', '.', '-'.
bool valid_metric_unit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value
};

/// Every metric one run produced. run.py selects the declared end-to-end
/// or per-layer set from the JSON line this prints.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples);

  /// `<prefix>_p50_us` always and `<prefix>_p99_us` when the whole sample
  /// supports it (returns false when the p99 had to be left out). Each is
  /// median_of_quantiles over the parts of the timed phase.
  bool add_latency(const std::string& prefix,
                   const std::vector<Samples>& parts);

  const Metric* find(const std::string& name) const;

  /// Human-readable table: name, value, unit, sample count.
  void print_table(std::FILE* out, const char* title) const;

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit,
  /// samples}}} on one line.
  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
