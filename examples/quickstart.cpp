// Quickstart: build a SmartStore over a synthetic trace and run the three
// query classes the paper supports (point, range, top-k) in both routing
// modes, printing results and per-query cost accounting.
//
// This is the 5-minute tour of the public API:
//   1. synthesize (or load) a file-metadata population,
//   2. configure and build a SmartStore,
//   3. issue queries, read back results + simulated latency/messages.
#include <algorithm>
#include <cstdio>

#include "core/smartstore.h"
#include "metadata/query.h"
#include "trace/query_gen.h"
#include "trace/synth.h"

using namespace smartstore;
using core::Routing;
using metadata::Attr;
using metadata::AttrSubset;

int main() {
  // 1. A small MSN-like population: ~2500 files in semantic clusters.
  const auto trace = trace::SyntheticTrace::generate(
      trace::msn_profile(), /*tif=*/1, /*seed=*/2024, /*downscale=*/5);
  std::printf("population: %zu files, %zu trace ops\n\n",
              trace.files().size(), trace.ops().size());

  // 2. A 20-server deployment with the paper's Bloom/k-means/LSI defaults.
  core::Config cfg;
  cfg.num_units = 20;
  cfg.fanout = 5;
  core::SmartStore store(cfg);
  store.build(trace.files());
  std::printf("built semantic R-tree: %zu storage units, %zu index units, "
              "height %d, %zu first-level groups\n\n",
              store.units().size(), store.tree().num_nodes(),
              store.tree().height(), store.tree().groups().size());

  // 3a. Point query: "does this file exist, and where?"
  const auto& some_file = trace.files()[123];
  const auto pr = store.point_query({some_file.name}, Routing::kOffline, 0.0);
  std::printf("point  query %-40s -> %s (unit %zu)  [%.3f ms, %llu msgs]\n",
              some_file.name.c_str(), pr.found ? "FOUND" : "missing", pr.unit,
              pr.stats.latency_s * 1e3,
              static_cast<unsigned long long>(pr.stats.messages));

  // 3b. Range query, the paper's flagship example: "which files were
  // modified in a window and moved a lot of read bytes?" Bounds are taken
  // from the population's own quantiles so the window is non-empty.
  double max_rd = 0;
  for (const auto& f : trace.files())
    max_rd = std::max(max_rd, f.attr(Attr::kReadBytes));
  metadata::RangeQuery rq;
  rq.dims = AttrSubset({Attr::kModificationTime, Attr::kReadBytes});
  rq.lo = {6 * 3600.0 * 0.4, max_rd * 0.10};
  rq.hi = {6 * 3600.0 * 0.9, max_rd};
  const auto rr = store.range_query(rq, Routing::kOffline, 0.0);
  std::printf("range  query mtime in [40%%,90%%] & rdbytes in top decile -> "
              "%zu files  [%.3f ms, %llu msgs, %zu groups]\n",
              rr.ids.size(), rr.stats.latency_s * 1e3,
              static_cast<unsigned long long>(rr.stats.messages),
              rr.stats.groups_visited);

  // 3c. Top-k query: "I half-remember a file: ~300MB, owner 42. Show the
  // 10 closest matches."
  metadata::TopKQuery tq;
  tq.dims = AttrSubset({Attr::kFileSize, Attr::kOwnerId});
  tq.point = {300e6, 42};
  tq.k = 10;
  const auto tr = store.topk_query(tq, Routing::kOffline, 0.0);
  std::printf("top-k  query (size~300MB, owner~42), k=10 -> %zu hits  "
              "[%.3f ms, %llu msgs]\n",
              tr.hits.size(), tr.stats.latency_s * 1e3,
              static_cast<unsigned long long>(tr.stats.messages));
  for (std::size_t i = 0; i < tr.hits.size() && i < 3; ++i)
    std::printf("       #%zu: file id %llu (dist^2 %.3f)\n", i + 1,
                static_cast<unsigned long long>(tr.hits[i].second),
                tr.hits[i].first);

  // 4. Routing modes: on-line multicast vs off-line pre-processing.
  std::uint64_t online_msgs = 0, offline_msgs = 0;
  trace::QueryGenerator gen(trace, trace::QueryDistribution::kZipf, 7);
  for (int i = 0; i < 50; ++i) {
    const auto q = gen.gen_topk(AttrSubset::all(), 8);
    offline_msgs += store.topk_query(q, Routing::kOffline, 0.0).stats.messages;
    online_msgs += store.topk_query(q, Routing::kOnline, 0.0).stats.messages;
  }
  std::printf("\nrouting cost over 50 top-k queries: on-line %llu msgs, "
              "off-line %llu msgs (pre-processing saves %.1f%%)\n",
              static_cast<unsigned long long>(online_msgs),
              static_cast<unsigned long long>(offline_msgs),
              100.0 * (1.0 - static_cast<double>(offline_msgs) /
                                 static_cast<double>(online_msgs)));

  // 5. Space accounting (what Figure 7 reports).
  const auto space = store.introspect(store.last_commit_seq()).avg_space;
  std::printf("\nper-unit space: metadata %zu B, hosted index %zu B, "
              "replicas %zu B, versions %zu B\n",
              space.metadata_bytes, space.index_bytes, space.replica_bytes,
              space.version_bytes);
  return 0;
}
