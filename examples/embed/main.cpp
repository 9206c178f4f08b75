// Embedding SmartStore out-of-tree: open a deployment, insert metadata,
// query it, checkpoint, reopen. Built against an installed prefix via
// find_package(smartstore) — see CMakeLists.txt next to this file.
#include <smartstore/smartstore.h>

#include <cstdio>
#include <filesystem>

using namespace smartstore;

int main() {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "smartstore_embed").string();
  std::filesystem::remove_all(dir);

  db::Options options;
  options.num_units = 8;
  options.checkpoint_every = 500;  // background checkpoint cadence

  auto opened = db::Store::Open(options, dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  auto store = std::move(opened).value();

  db::WriteBatch batch;
  for (std::uint64_t id = 0; id < 1000; ++id) {
    metadata::FileMetadata f;
    f.id = id;
    f.name = "file_" + std::to_string(id) + ".dat";
    for (std::size_t a = 0; a < metadata::kNumAttrs; ++a)
      f.attrs[a] = static_cast<double>((id * 31 + a * 7) % 997);
    batch.Put(std::move(f));
  }
  if (db::Status s = store->Write(std::move(batch)); !s.ok()) {
    std::fprintf(stderr, "write: %s\n", s.ToString().c_str());
    return 1;
  }

  db::QueryRequest query = db::QueryRequest::Point("file_42.dat");
  query.routing = db::Routing::kOnline;  // exact routing for the demo
  auto result = store->Query(query);
  if (!result.ok() || !result->found) {
    std::fprintf(stderr, "query failed or file missing\n");
    return 1;
  }
  std::printf("found file_42.dat on unit %llu (%llu messages)\n",
              static_cast<unsigned long long>(result->unit),
              static_cast<unsigned long long>(result->stats.messages));

  if (db::Status s = store->Checkpoint(); !s.ok()) {
    std::fprintf(stderr, "checkpoint: %s\n", s.ToString().c_str());
    return 1;
  }
  store->Close();

  // Reopen: snapshot load + WAL replay, no rebuild.
  auto reopened = db::Store::Open(options, dir);
  if (!reopened.ok()) {
    std::fprintf(stderr, "reopen: %s\n", reopened.status().ToString().c_str());
    return 1;
  }
  std::string files;
  (*reopened)->GetProperty("smartstore.total-files", &files);
  std::printf("reopened with %s files (recovered=%d)\n", files.c_str(),
              (*reopened)->recovery_info().recovered);
  std::filesystem::remove_all(dir);
  return files == "1000" ? 0 : 1;
}
