#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "report.h"

namespace perfbench::spans {

namespace {

struct Buffer {
  std::uint32_t thread = 0;
  std::uint64_t op = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  ///< stack of open span indexes
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mu

Buffer& local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(1 << 16);
    const std::lock_guard<std::mutex> lock(g_mu);
    owned->thread = static_cast<std::uint32_t>(g_buffers.size());
    buf = owned.get();
    g_buffers.push_back(std::move(owned));
  }
  return *buf;
}

}  // namespace

const char* name_of(Name n) {
  switch (n) {
    case Name::kRouterPoint: return "router.point";
    case Name::kRouterPut: return "router.put";
    case Name::kRouterDelete: return "router.delete";
    case Name::kRouterRange: return "router.range";
    case Name::kRouterTopK: return "router.topk";
    case Name::kChannelCall: return "channel.call";
    case Name::kStoreQuery: return "store.query";
    case Name::kStorePut: return "store.put";
    case Name::kStoreDelete: return "store.delete";
    case Name::kStoreFlush: return "store.flush";
    case Name::kStoreCheckpoint: return "store.checkpoint";
    case Name::kStoreCompact: return "store.compact";
    case Name::kCount: break;
  }
  return "?";
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_op(std::uint64_t op) { local().op = op; }

std::int32_t begin(Name n, std::uint8_t tag) {
  Buffer& b = local();
  const auto index = static_cast<std::int32_t>(b.spans.size());
  Span s;
  s.op = b.op;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.name = n;
  s.tag = tag;
  b.spans.push_back(s);
  b.open.push_back(index);
  b.spans.back().start_ns = now_ns();  // last: exclude the bookkeeping
  return index;
}

void end(std::int32_t index) {
  const std::int64_t t = now_ns();
  Buffer& b = local();
  b.spans[static_cast<std::size_t>(index)].end_ns = t;
  b.open.pop_back();
}

std::vector<ThreadSpans> take() {
  const std::lock_guard<std::mutex> lock(g_mu);
  std::vector<ThreadSpans> out;
  for (const auto& b : g_buffers) {
    if (b->spans.empty()) continue;
    out.push_back(ThreadSpans{b->thread, std::move(b->spans)});
    b->spans = {};
  }
  return out;
}

std::int64_t self_ns(std::int64_t start, std::int64_t end,
                     std::vector<Interval> children) {
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = start;  // covered up to here
  for (const Interval& c : children) {
    const std::int64_t lo = std::max(c.first, reach);
    const std::int64_t hi = std::min(c.second, end);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return std::max<std::int64_t>(0, (end - start) - covered);
}

std::vector<Derived> derive(const std::vector<Span>& spans) {
  std::vector<std::vector<Interval>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  }
  std::vector<Derived> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i].children = static_cast<std::uint32_t>(kids[i].size());
    out[i].self_ns =
        self_ns(spans[i].start_ns, spans[i].end_ns, std::move(kids[i]));
  }
  return out;
}

bool write_tsv(const std::string& path, const std::vector<ThreadSpans>& all) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\top\tname\ttag\tstart_ns\tend_ns\tparent\n");
  for (const ThreadSpans& t : all) {
    for (const Span& s : t.spans) {
      std::fprintf(f, "%u\t%llu\t%s\t%u\t%lld\t%lld\t%d\n", t.thread,
                   static_cast<unsigned long long>(s.op), name_of(s.name),
                   static_cast<unsigned>(s.tag),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::spans
