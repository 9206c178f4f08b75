#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

std::size_t nearest_rank(double q, std::size_t n) {
  // The epsilon absorbs binary rounding (0.99 * 1000 is 990.0000000000001),
  // which would otherwise push the rank one sample too far.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

std::size_t samples_beyond(double q, std::size_t n) {
  return n == 0 ? 0 : n - nearest_rank(q, n);
}

bool quantile_supported(double q, std::size_t n) {
  return samples_beyond(q, n) >= kMinBeyond;
}

void Samples::append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  sorted_ = false;
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  return v_[nearest_rank(q, v_.size()) - 1];
}

void Timeline::append(const Timeline& other) {
  points_.insert(points_.end(), other.points_.begin(), other.points_.end());
}

std::vector<Samples> Timeline::windows(const Windows& w) const {
  std::vector<Samples> out(w.n);
  const auto last = static_cast<std::int64_t>(w.n) - 1;
  for (const auto& [t, v] : points_) {
    const std::int64_t i = w.len_ns > 0 ? (t - w.start_ns) / w.len_ns : 0;
    out[static_cast<std::size_t>(std::clamp<std::int64_t>(i, 0, last))].add(v);
  }
  return out;
}

Windows Windows::Of(std::int64_t start_ns, double seconds) {
  Windows w;
  w.start_ns = start_ns;
  w.n = static_cast<std::size_t>(std::max(1.0, std::floor(seconds)));
  w.len_ns = static_cast<std::int64_t>(seconds * 1e9 /
                                       static_cast<double>(w.n));
  return w;
}

double median_of_quantiles(const std::vector<Samples>& parts, double q) {
  Samples per_part, all;
  bool supported = true;
  for (const Samples& s : parts) {
    supported = supported && quantile_supported(q, s.size());
    per_part.add(s.quantile(q));
    all.append(s);
  }
  return supported ? per_part.quantile(0.5) : all.quantile(q);
}

double windowed_rate(const Timeline& completions, const Windows& w) {
  Samples per_window;
  for (const Samples& s : completions.windows(w))
    per_window.add(static_cast<double>(s.size()) * 1e9 /
                   static_cast<double>(w.len_ns));
  return per_window.quantile(0.5);
}

ProcUsage ProcUsage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.vol_csw = static_cast<std::uint64_t>(ru.ru_nvcsw);
  u.invol_csw = static_cast<std::uint64_t>(ru.ru_nivcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char c0 = name.front();
  const bool leading = (c0 >= 'a' && c0 <= 'z') || (c0 >= 'A' && c0 <= 'Z') ||
                       (c0 >= '0' && c0 <= '9');
  return leading && std::all_of(name.begin(), name.end(), name_char);
}

bool valid_metric_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return name_char(c) || c == '/' || c == '%';
  });
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  if (!valid_metric_name(name) || !valid_metric_unit(unit))
    throw std::invalid_argument("bad metric name or unit: " + name + " [" +
                                unit + "]");
  if (find(name) != nullptr)
    throw std::invalid_argument("metric reported twice: " + name);
  metrics_.push_back(Metric{name, value, unit, samples});
}

bool Report::add_latency(const std::string& prefix,
                         const std::vector<Samples>& parts) {
  std::size_t n = 0;
  for (const Samples& s : parts) n += s.size();
  add(prefix + "_p50_us", median_of_quantiles(parts, 0.50), "us", n);
  if (!quantile_supported(0.99, n)) return false;
  add(prefix + "_p99_us", median_of_quantiles(parts, 0.99), "us", n);
  return true;
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

void Report::print_table(std::FILE* out, const char* title) const {
  std::fprintf(out, "%s\n", title);
  std::fprintf(out, "  %-36s %16s %-8s %10s\n", "metric", "value", "unit",
               "samples");
  for (const Metric& m : metrics_)
    std::fprintf(out, "  %-36s %16.6g %-8s %10zu\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.samples);
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
         ", \"unit\": \"" + m.unit +
         "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
