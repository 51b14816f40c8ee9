// Benchmark-side tracing: spans around the calls the benchmark makes into
// each FliX module's public functions.
//
// A span records its name, start and end (steady clock, nanoseconds), the
// span that was open around it on the same thread (its parent) and the
// operation it belongs to. Spans stay in memory while the benchmark runs and
// are written out once at the end. Tracing is off in the end-to-end runs;
// with it off a Span costs one relaxed load.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Operation id for spans that belong to no single operation (set-up,
// probes).
inline constexpr uint64_t kNoOp = ~uint64_t{0};

struct SpanRecord {
  const char* name = nullptr;  // static string: span names are literals
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t id = 0;      // 1-based position in its thread's log
  uint32_t parent = 0;  // id of the enclosing span on that thread; 0 = none
  uint32_t thread = 0;
  uint64_t op = kNoOp;

  double DurationMs() const { return (end_ns - start_ns) / 1e6; }
};

// Steady-clock nanoseconds; comparable across processes on Linux
// (CLOCK_MONOTONIC), which the cold-query workload relies on.
uint64_t NowNs();

// Turns span recording on or off for every thread.
void SetTracing(bool enabled);
bool Tracing();

// RAII span on the calling thread's log. Names must be string literals.
class Span {
 public:
  explicit Span(const char* name, uint64_t op = kNoOp);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  uint32_t id_ = 0;  // 0 when tracing was off at construction
};

// Records an already-measured interval (for example one reported by a child
// process) under the current thread's open span.
void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                uint64_t op = kNoOp);

// Every span recorded so far, across threads.
std::vector<SpanRecord> CollectSpans();

// Durations (ms) of every span called `name`.
std::vector<double> SpanDurationsMs(const std::vector<SpanRecord>& spans,
                                    std::string_view name);

// Writes the spans as JSON lines to `path`. Returns false on I/O failure.
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
