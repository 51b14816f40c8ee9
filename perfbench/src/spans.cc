#include "spans.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};

// One thread's spans plus the stack of its open ones. Owned by the global
// list below, so the records outlive the thread that wrote them.
struct ThreadLog {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<uint32_t> open;  // 1-based ids of open spans, innermost last
};

std::mutex g_logs_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_logs_mutex

ThreadLog& LocalLog() {
  thread_local ThreadLog* log = [] {
    std::lock_guard<std::mutex> lock(g_logs_mutex);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->thread = static_cast<uint32_t>(g_logs.size() - 1);
    return g_logs.back().get();
  }();
  return *log;
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SetTracing(bool enabled) {
  g_tracing.store(enabled, std::memory_order_relaxed);
}

bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t op) {
  if (!Tracing()) return;
  ThreadLog& log = LocalLog();
  SpanRecord record;
  record.name = name;
  record.parent = log.open.empty() ? 0 : log.open.back();
  record.thread = log.thread;
  record.op = op;
  record.id = static_cast<uint32_t>(log.spans.size() + 1);
  log.spans.push_back(record);
  id_ = record.id;
  log.open.push_back(id_);
  // Read the clock last, so the bookkeeping above is not inside the span.
  log.spans.back().start_ns = NowNs();
}

Span::~Span() {
  if (id_ == 0) return;
  const uint64_t end = NowNs();
  ThreadLog& log = LocalLog();
  log.spans[id_ - 1].end_ns = end;
  log.open.pop_back();
}

void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                uint64_t op) {
  if (!Tracing()) return;
  ThreadLog& log = LocalLog();
  SpanRecord record;
  record.name = name;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  record.parent = log.open.empty() ? 0 : log.open.back();
  record.thread = log.thread;
  record.op = op;
  record.id = static_cast<uint32_t>(log.spans.size() + 1);
  log.spans.push_back(record);
}

std::vector<SpanRecord> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  std::vector<SpanRecord> all;
  for (const auto& log : g_logs) {
    all.insert(all.end(), log->spans.begin(), log->spans.end());
  }
  return all;
}

std::vector<double> SpanDurationsMs(const std::vector<SpanRecord>& spans,
                                    std::string_view name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (name == s.name) out.push_back(s.DurationMs());
  }
  return out;
}

bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::ofstream out(path);
  for (const SpanRecord& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent
        << ",\"thread\":" << s.thread << ",\"op\":";
    if (s.op == kNoOp) {
      out << "null";
    } else {
      out << s.op;
    }
    out << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
