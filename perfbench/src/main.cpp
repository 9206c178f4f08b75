// perfbench: runs one benchmark workload and prints every metric it
// measured. perfbench/run.py builds this binary and turns its output into
// the benchmark's result line.
//
//   perfbench --workload semantic_query|routed_mix|ingest_durable
//             --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--work-dir DIR]
//
// --size tiny runs small inputs and 2 set-ups, for the smoke test.
//
// stderr gets a human-readable table (metric, value, unit, samples); the
// last stdout line is one JSON object: correct, attempted, failed and
// metrics {name: {value, unit, samples}}. A traced run also writes its
// spans to <work-dir>/spans-<workload>-<seed>.tsv.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny")
        return usage("--size takes full or tiny");
      args.tiny = value == "tiny";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str()))
      return usage(("bad number for " + flag).c_str());
  }
  if (args.seconds <= 0) return usage("--seconds must be positive");

  perfbench::Outcome (*run)(const perfbench::Args&, perfbench::Report*) =
      nullptr;
  if (args.workload == "semantic_query") run = perfbench::run_semantic_query;
  if (args.workload == "routed_mix") run = perfbench::run_routed_mix;
  if (args.workload == "ingest_durable") run = perfbench::run_ingest_durable;
  if (run == nullptr) return usage("unknown --workload");

  try {
    std::filesystem::create_directories(args.work_dir);
    perfbench::spans::set_enabled(args.trace);
    perfbench::Report report;
    const perfbench::Outcome out = run(args, &report);
    perfbench::spans::set_enabled(false);
    report.print_table(stderr, ("perfbench " + args.workload + " seed " +
                                std::to_string(args.seed) +
                                (args.trace ? " (traced)" : ""))
                                   .c_str());
    if (args.trace) {
      const std::string path = args.work_dir + "/spans-" + args.workload +
                               "-" + std::to_string(args.seed) + ".tsv";
      if (!perfbench::spans::write_tsv(path, out.spans)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
      }
      std::fprintf(stderr, "spans written to %s\n", path.c_str());
    }
    std::printf("%s\n",
                report.json(out.correct, out.attempted, out.failed).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
