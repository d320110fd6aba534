// In-memory span tracer. Each thread appends to its own buffer (no lock on
// the recording path); buffers are owned by a global list so they outlive
// the worker threads that filled them, and are merged when the run ends.
#include "bench.hpp"

#include <atomic>
#include <fstream>
#include <mutex>

namespace perfbench {

namespace {

struct SpanRecord {
  const char *name = nullptr;
  std::uint64_t request = 0;
  std::int64_t parent = -1; ///< index in the same thread's buffer
  double start = 0.0;       ///< seconds since the tracer epoch
  double end = -1.0;        ///< < 0 while the span is open
  double childSeconds = 0.0;
};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::int64_t> open;
};

std::atomic<bool> gEnabled{false};
const Clock::time_point gEpoch = Clock::now();
std::mutex gBuffersMutex;
std::vector<std::unique_ptr<ThreadBuffer>> gBuffers;

ThreadBuffer &localBuffer() {
  thread_local ThreadBuffer *buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(gBuffersMutex);
    gBuffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = gBuffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(gBuffers.size() - 1);
  }
  return *buffer;
}

double now() { return secondsSince(gEpoch); }

/// Layers whose busy share is reported; span names are "<layer>.<call>".
const char *const kLayers[] = {"frontend", "cfg",    "analysis", "mapping",
                               "check",    "rewrite", "cache",   "server",
                               "driver",   "interp", "sim"};

} // namespace

void Tracer::setEnabled(bool enabled) {
  gEnabled.store(enabled, std::memory_order_release);
}

bool Tracer::enabled() { return gEnabled.load(std::memory_order_acquire); }

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(gBuffersMutex);
  for (auto &buffer : gBuffers) {
    buffer->spans.clear();
    buffer->open.clear();
  }
}

std::map<std::string, SpanTotals> Tracer::totals() {
  std::map<std::string, SpanTotals> totals;
  std::lock_guard<std::mutex> lock(gBuffersMutex);
  for (const auto &buffer : gBuffers)
    for (const SpanRecord &span : buffer->spans) {
      if (span.end < 0.0)
        continue;
      SpanTotals &row = totals[span.name];
      const double duration = span.end - span.start;
      ++row.count;
      row.totalSeconds += duration;
      row.selfSeconds += duration - span.childSeconds;
    }
  return totals;
}

std::uint64_t Tracer::spanCount() {
  std::uint64_t count = 0;
  std::lock_guard<std::mutex> lock(gBuffersMutex);
  for (const auto &buffer : gBuffers)
    count += buffer->spans.size();
  return count;
}

bool Tracer::write(const std::string &path, std::size_t maxSpans) {
  json::Value totalsJson = json::Value::object();
  for (const auto &[name, row] : totals()) {
    json::Value rowJson = json::Value::object();
    rowJson.set("count", row.count);
    rowJson.set("total_s", row.totalSeconds);
    rowJson.set("self_s", row.selfSeconds);
    totalsJson.set(name, std::move(rowJson));
  }
  json::Value spansJson = json::Value::array();
  {
    std::lock_guard<std::mutex> lock(gBuffersMutex);
    for (const auto &buffer : gBuffers)
      for (const SpanRecord &span : buffer->spans) {
        if (spansJson.items().size() >= maxSpans)
          break;
        json::Value spanJson = json::Value::object();
        spanJson.set("name", span.name);
        spanJson.set("thread", buffer->thread);
        spanJson.set("request", span.request);
        spanJson.set("parent", span.parent);
        spanJson.set("start", span.start);
        spanJson.set("end", span.end);
        spansJson.push(std::move(spanJson));
      }
  }
  json::Value doc = json::Value::object();
  doc.set("totals", std::move(totalsJson));
  doc.set("spans", std::move(spansJson));
  std::ofstream out(path);
  out << doc.dump() << "\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char *name, std::uint64_t request) {
  if (!Tracer::enabled())
    return;
  ThreadBuffer &buffer = localBuffer();
  SpanRecord span;
  span.name = name;
  span.request = request;
  span.parent = buffer.open.empty() ? -1 : buffer.open.back();
  span.start = now();
  index_ = static_cast<std::int64_t>(buffer.spans.size());
  buffer.spans.push_back(span);
  buffer.open.push_back(index_);
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0)
    return;
  ThreadBuffer &buffer = localBuffer();
  SpanRecord &span = buffer.spans[static_cast<std::size_t>(index_)];
  span.end = now();
  buffer.open.pop_back();
  if (span.parent >= 0)
    buffer.spans[static_cast<std::size_t>(span.parent)].childSeconds +=
        span.end - span.start;
}

double selfSeconds(const std::map<std::string, SpanTotals> &totals,
                   const std::string &name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.selfSeconds;
}

void addLayerShares(const std::map<std::string, SpanTotals> &totals,
                    double wallSeconds, WorkloadResult *result) {
  for (const char *layer : kLayers) {
    const std::string prefix = std::string(layer) + ".";
    double busy = 0.0;
    for (const auto &[name, row] : totals)
      if (name.compare(0, prefix.size(), prefix) == 0)
        busy += row.selfSeconds;
    result->layers[prefix + "cpu_share"] =
        wallSeconds > 0.0 ? busy / wallSeconds : 0.0;
  }
}

} // namespace perfbench
