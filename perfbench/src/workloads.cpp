#include "workloads.h"

#include <thread>

namespace perfbench {

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void add_proc_metrics(Report* report, const ProcUsage& before,
                      const ProcUsage& after, std::uint64_t ops) {
  const double n = ops ? static_cast<double>(ops) : 1.0;
  report->add("proc.cpu_us_per_op", (after.cpu_s - before.cpu_s) * 1e6 / n,
              "us", ops);
  report->add("proc.vol_csw_per_op",
              static_cast<double>(after.vol_csw - before.vol_csw) / n, "count",
              ops);
  report->add("proc.invol_csw_per_op",
              static_cast<double>(after.invol_csw - before.invol_csw) / n,
              "count", ops);
}

namespace {

/// Cost of one recorded span, measured on a scratch thread.
double span_cost_ns() {
  constexpr int kSpans = 200'000;
  double cost = 0;
  std::thread probe([&cost] {
    spans::set_op(0);
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kSpans; ++i) {
      const spans::Scope s(spans::Name::kStoreQuery);
    }
    cost = static_cast<double>(now_ns() - t0) / kSpans;
  });
  probe.join();
  spans::take();  // discard the probe's spans
  return cost;
}

}  // namespace

void add_trace_metrics(Report* report,
                       const std::vector<spans::ThreadSpans>& recorded,
                       double client_busy_s) {
  std::size_t n = 0;
  for (const auto& t : recorded) n += t.spans.size();
  const double cost_s = span_cost_ns() * 1e-9 * static_cast<double>(n);
  report->add("trace.spans", static_cast<double>(n), "count", n);
  report->add("trace.overhead_pct",
              client_busy_s > 0 ? 100.0 * cost_s / client_busy_s : 0.0, "%",
              n);
}

}  // namespace perfbench
