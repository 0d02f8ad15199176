// Span recorder, per-layer summary math and the Chrome trace-event writer.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench.h"

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks (numpy's default).
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Tracer& Tracer::Instance() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::uint16_t Tracer::Register(const std::string& name, SpanScope scope) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  names_.push_back(name);
  scopes_.push_back(scope);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

Tracer::ThreadBuffer* Tracer::LocalBuffer() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    local = buffers_.back().get();
    local->tid = static_cast<int>(buffers_.size());
    local->events.reserve(1 << 16);
  }
  return local;
}

void Tracer::Record(std::uint16_t id, std::int64_t start_ns, std::int64_t end_ns,
                    std::int32_t request) {
  LocalBuffer()->events.push_back(Event{start_ns, end_ns, request, id});
}

namespace {

// Length of the union of [start, end) intervals, each clipped to [lo, hi).
// `intervals` must be sorted by start.
std::int64_t UnionLength(const std::vector<std::pair<std::int64_t, std::int64_t>>& intervals,
                         std::int64_t lo, std::int64_t hi) {
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = -1;
  for (const auto& [s0, e0] : intervals) {
    const std::int64_t s = std::max(s0, lo);
    const std::int64_t e = std::min(e0, hi);
    if (e <= s) continue;
    if (run_end < 0 || s > run_end) {
      if (run_end >= 0) covered += run_end - run_start;
      run_start = s;
      run_end = e;
    } else {
      run_end = std::max(run_end, e);
    }
  }
  if (run_end >= 0) covered += run_end - run_start;
  return covered;
}

}  // namespace

std::map<std::string, SpanStats> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, SpanStats> out;
  // Every event of every thread, for process-scope child coverage.
  std::vector<std::pair<std::int64_t, std::int64_t>> all;
  for (const auto& buffer : buffers_) {
    for (const Event& e : buffer->events) {
      if (scopes_[e.id] == SpanScope::kThread) all.emplace_back(e.start_ns, e.end_ns);
    }
  }
  std::sort(all.begin(), all.end());

  for (const auto& buffer : buffers_) {
    // Events are appended at span END, so a nested span precedes its parent
    // in the buffer; sort by (start, -end) to walk parents before children.
    std::vector<const Event*> order;
    order.reserve(buffer->events.size());
    for (const Event& e : buffer->events) order.push_back(&e);
    std::sort(order.begin(), order.end(), [](const Event* a, const Event* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                        : a->end_ns > b->end_ns;
    });
    // Thread-scope self time: subtract each span's direct children.
    std::vector<std::int64_t> child_ns(order.size(), 0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < order.size(); ++i) {
      while (!stack.empty() && order[stack.back()]->end_ns <= order[i]->start_ns) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        child_ns[stack.back()] += order[i]->end_ns - order[i]->start_ns;
      }
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      const Event& e = *order[i];
      SpanStats& stats = out[names_[e.id]];
      stats.name = names_[e.id];
      const std::int64_t duration = e.end_ns - e.start_ns;
      std::int64_t self = duration - child_ns[i];
      if (scopes_[e.id] == SpanScope::kProcess) {
        auto first = std::lower_bound(
            all.begin(), all.end(),
            std::make_pair(e.start_ns, std::numeric_limits<std::int64_t>::min()));
        auto last = std::lower_bound(
            all.begin(), all.end(),
            std::make_pair(e.end_ns, std::numeric_limits<std::int64_t>::min()));
        std::vector<std::pair<std::int64_t, std::int64_t>> inside(first, last);
        self = duration - UnionLength(inside, e.start_ns, e.end_ns);
      }
      stats.duration_us.push_back(static_cast<double>(duration) / 1e3);
      stats.self_us.push_back(static_cast<double>(std::max<std::int64_t>(self, 0)) / 1e3);
    }
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path, std::size_t max_events,
                              const std::string& metadata_json) const {
  std::lock_guard<std::mutex> lock(mutex_);
  struct Row {
    Event event;
    int tid;
  };
  std::vector<Row> rows;
  for (const auto& buffer : buffers_) {
    for (const Event& e : buffer->events) rows.push_back(Row{e, buffer->tid});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.event.start_ns < b.event.start_ns;
  });
  const std::size_t total = rows.size();
  if (rows.size() > max_events) rows.resize(max_events);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\n",
               metadata_json.c_str());
  std::fprintf(f, "\"droppedEvents\":%zu,\n\"traceEvents\":[\n", total - rows.size());
  bool first = true;
  for (const auto& buffer : buffers_) {
    std::fprintf(f, "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                    "\"args\":{\"name\":\"%s%d\"}}",
                 first ? "" : ",\n", buffer->tid,
                 buffer->tid == 1 ? "main-" : "worker-", buffer->tid);
    first = false;
  }
  for (const Row& r : rows) {
    const Event& e = r.event;
    const std::string& name = names_[e.id];
    const std::string category = name.substr(0, name.find('.'));
    std::fprintf(f, "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                 first ? "" : ",\n", name.c_str(), category.c_str(), r.tid,
                 static_cast<double>(e.start_ns) / 1e3,
                 static_cast<double>(e.end_ns - e.start_ns) / 1e3);
    if (e.request >= 0) std::fprintf(f, ",\"args\":{\"request\":%d}", e.request);
    std::fprintf(f, "}");
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

DecoderSpans DecoderSpans::Register(const std::string& fill_layer,
                                    const std::string& walk_layer) {
  Tracer& t = Tracer::Instance();
  return DecoderSpans{fill_layer,
                      walk_layer,
                      t.Register(fill_layer + ".fill"),
                      t.Register(walk_layer + ".accept"),
                      t.Register(walk_layer + ".verify"),
                      t.Register(walk_layer + ".commit"),
                      t.Register(walk_layer + ".jf"),
                      t.Register(walk_layer + ".rollback"),
                      t.Register(walk_layer + ".reset")};
}

void MaskSample::Offer(const xgr::DynamicBitset& mask) {
  if (full_.load(std::memory_order_relaxed)) return;
  if (seen_.fetch_add(1, std::memory_order_relaxed) % every_ != 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (masks_.size() >= limit_) {
    full_.store(true, std::memory_order_relaxed);
    return;
  }
  masks_.push_back(mask);
}

std::vector<xgr::DynamicBitset> MaskSample::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(masks_);
}

}  // namespace perfbench
