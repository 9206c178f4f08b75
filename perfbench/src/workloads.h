// The three benchmark workloads (see perfbench/README.md for why each
// exists). Each builds its inputs from the seed before any timing, sets
// up the system under test several times (setup_s is the median), runs a
// closed loop for `seconds`, checks the outputs outside the timed loop,
// and adds every metric it measured to the report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "spans.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  ///< small inputs for the smoke test
  /// Scratch space for data directories and span dumps.
  std::string work_dir = ".bench_build/run";

  /// Set-ups per run; setup_s is their median.
  int setups() const { return tiny ? 2 : 9; }
};

/// Seed of every workload's file population. The population is the
/// workload's fixed data set; --seed drives the request streams and the
/// insert streams. Populations from different seeds group differently
/// under LSI, which moved query costs by up to 30% between seeds.
inline constexpr std::uint64_t kDatasetSeed = 42;

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<spans::ThreadSpans> spans;  ///< traced runs only
};

Outcome run_semantic_query(const Args& args, Report* report);
Outcome run_routed_mix(const Args& args, Report* report);
Outcome run_ingest_durable(const Args& args, Report* report);

/// Independent deterministic seed for stream `stream` of `seed`
/// (splitmix64 finalizer), so each client's inputs derive from
/// (seed, client) alone.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

/// proc.* metrics over a timed phase of `ops` operations.
void add_proc_metrics(Report* report, const ProcUsage& before,
                      const ProcUsage& after, std::uint64_t ops);

/// trace.* metrics: spans recorded and their share of the clients' busy
/// time (client threads x timed wall time), from the cost of one span
/// measured on a scratch thread.
void add_trace_metrics(Report* report,
                       const std::vector<spans::ThreadSpans>& recorded,
                       double client_busy_s);

}  // namespace perfbench
