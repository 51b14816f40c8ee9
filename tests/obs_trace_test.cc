// Tests for the span-collection side of obs/trace.h: parent/child nesting
// via the per-thread span stack, the bounded ring buffer, Chrome
// trace-event JSON export, and the slow-query log.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "flix/flix.h"
#include "obs/trace.h"
#include "workload/dblp_generator.h"
#include "xml/collection.h"

namespace flix {
namespace {

using obs::SlowQueryLog;
using obs::TraceCollector;
using obs::TraceEvent;
using obs::TraceSpan;

// Every test must leave the process-global collector disabled.
class TraceCollectorTest : public testing::Test {
 protected:
  void TearDown() override {
    TraceCollector::Global().Disable();
    TraceCollector::Global().Clear();
    SlowQueryLog::Global().Configure(0);
  }
};

const TraceEvent* FindByName(const std::vector<TraceEvent>& events,
                             const std::string& name) {
  for (const TraceEvent& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST_F(TraceCollectorTest, DisabledCollectorRecordsNothing) {
  {
    TraceSpan span(nullptr, "ignored");
    EXPECT_FALSE(span.Collecting());
  }
  EXPECT_TRUE(TraceCollector::Global().Events().empty());
}

TEST_F(TraceCollectorTest, SpansNestViaThreadStack) {
  TraceCollector::Global().Enable();
  {
    TraceSpan outer(nullptr, "outer");
    EXPECT_TRUE(outer.Collecting());
    outer.AddAttr("k", "v");
    outer.AddAttr("n", static_cast<int64_t>(-7));
    {
      TraceSpan middle(nullptr, "middle");
      { TraceSpan inner(nullptr, "inner"); }
      { TraceSpan inner2(nullptr, "inner2"); }
    }
    { TraceSpan sibling(nullptr, "sibling"); }
  }
  const std::vector<TraceEvent> events = TraceCollector::Global().Events();
  ASSERT_EQ(events.size(), 5u);  // finish order: inner, inner2, middle, ...

  const TraceEvent* outer = FindByName(events, "outer");
  const TraceEvent* middle = FindByName(events, "middle");
  const TraceEvent* inner = FindByName(events, "inner");
  const TraceEvent* inner2 = FindByName(events, "inner2");
  const TraceEvent* sibling = FindByName(events, "sibling");
  ASSERT_TRUE(outer && middle && inner && inner2 && sibling);

  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(middle->parent_id, outer->id);
  EXPECT_EQ(inner->parent_id, middle->id);
  EXPECT_EQ(inner2->parent_id, middle->id);
  EXPECT_EQ(sibling->parent_id, outer->id);

  // Children are contained in their parents' time ranges.
  EXPECT_GE(inner->start_ns, middle->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns,
            middle->start_ns + middle->dur_ns);
  EXPECT_GE(middle->start_ns, outer->start_ns);
  EXPECT_LE(middle->start_ns + middle->dur_ns,
            outer->start_ns + outer->dur_ns);

  ASSERT_EQ(outer->attrs.size(), 2u);
  EXPECT_EQ(outer->attrs[0].first, "k");
  EXPECT_EQ(outer->attrs[0].second, "v");
  EXPECT_EQ(outer->attrs[1].second, "-7");
}

TEST_F(TraceCollectorTest, UnnamedAndCancelledSpansAreNotCollected) {
  TraceCollector::Global().Enable();
  {
    TraceSpan unnamed(nullptr);
    TraceSpan named(nullptr, "kept");
    TraceSpan dropped(nullptr, "dropped");
    dropped.Cancel();
  }
  const std::vector<TraceEvent> events = TraceCollector::Global().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "kept");
  // The unnamed span never entered the stack, so "kept" parents to root.
  EXPECT_EQ(events[0].parent_id, 0u);
}

TEST_F(TraceCollectorTest, RingBufferDropsOldestAndCounts) {
  TraceCollector::Global().Enable(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent e;
    e.id = static_cast<uint64_t>(i + 1);
    e.name = std::string("e").append(std::to_string(i));
    TraceCollector::Global().Record(std::move(e));
  }
  const std::vector<TraceEvent> events = TraceCollector::Global().Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(TraceCollector::Global().Dropped(), 6u);
  // Oldest first, and only the newest four survive.
  EXPECT_EQ(events.front().name, "e6");
  EXPECT_EQ(events.back().name, "e9");
}

TEST_F(TraceCollectorTest, ThreadsGetDistinctOrdinals) {
  TraceCollector::Global().Enable();
  { TraceSpan main_span(nullptr, "on-main"); }
  std::thread worker([] { TraceSpan t(nullptr, "on-worker"); });
  worker.join();
  const std::vector<TraceEvent> events = TraceCollector::Global().Events();
  const TraceEvent* a = FindByName(events, "on-main");
  const TraceEvent* b = FindByName(events, "on-worker");
  ASSERT_TRUE(a && b);
  EXPECT_NE(a->thread, b->thread);
  // A worker-thread root has no parent even while main has a span open.
  EXPECT_EQ(b->parent_id, 0u);
}

TEST_F(TraceCollectorTest, ChromeJsonIsWellFormed) {
  TraceCollector::Global().Enable();
  {
    TraceSpan outer(nullptr, "build \"quoted\"");
    outer.AddAttr("config", "Hy\"brid\\");
    { TraceSpan inner(nullptr, "iss"); }
  }
  const std::string json =
      obs::ToChromeTraceJson(TraceCollector::Global().Events());
  // Structural checks: the document is one object with a traceEvents array
  // of complete ("ph":"X") events, and every quote/backslash is escaped.
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_EQ(json.rfind("]}"), json.size() - 2);
  size_t events_count = 0;
  for (size_t pos = 0; (pos = json.find("\"ph\":\"X\"", pos)) !=
                       std::string::npos;
       pos += 8) {
    ++events_count;
  }
  EXPECT_EQ(events_count, 2u);
  EXPECT_NE(json.find("\"build \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"Hy\\\"brid\\\\\""), std::string::npos);
  EXPECT_NE(json.find("\"span_id\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_id\""), std::string::npos);

  // Balanced braces/brackets outside string literals.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST_F(TraceCollectorTest, EngineEmitsNestedBuildAndQuerySpans) {
  workload::DblpOptions options;
  options.num_publications = 40;
  auto collection = workload::GenerateDblp(options);
  ASSERT_TRUE(collection.ok());

  TraceCollector::Global().Enable();
  auto flix = core::Flix::Build(*collection, {});
  ASSERT_TRUE(flix.ok());
  (*flix)->FindDescendantsByName(collection->GlobalId(0, 0), "author", {},
                                 [](const core::Result&) { return true; });
  const std::vector<TraceEvent> events = TraceCollector::Global().Events();

  const TraceEvent* build = FindByName(events, "flix.build");
  const TraceEvent* iss = FindByName(events, "flix.iss");
  const TraceEvent* ib = FindByName(events, "flix.ib");
  const TraceEvent* query = FindByName(events, "pee.query");
  const TraceEvent* entry = FindByName(events, "pee.entry");
  ASSERT_TRUE(build && iss && ib && query && entry);
  EXPECT_EQ(iss->parent_id, build->id);
  EXPECT_EQ(ib->parent_id, build->id);
  EXPECT_EQ(entry->parent_id, query->id);
  // Strategy attribution rides on the ISS/IB spans.
  ASSERT_FALSE(ib->attrs.empty());
  bool has_strategy = false;
  for (const auto& [key, value] : ib->attrs) {
    if (key == "strategy") has_strategy = !value.empty();
  }
  EXPECT_TRUE(has_strategy);

  // Partition ids use the key "partition" on every span that carries one —
  // the same field name `flixctl profile --json` emits, so trace and profile
  // output can be joined without a translation table.
  for (const TraceEvent* span : {iss, ib, entry}) {
    bool has_partition = false;
    for (const auto& [key, value] : span->attrs) {
      EXPECT_NE(key, "meta") << span->name << ": renamed to 'partition'";
      if (key == "partition") has_partition = true;
    }
    EXPECT_TRUE(has_partition) << span->name;
  }
}

TEST_F(TraceCollectorTest, SlowQueryLogThresholdAndBound) {
  SlowQueryLog& log = SlowQueryLog::Global();
  log.Configure(/*threshold_ns=*/1000, /*capacity=*/3);
  log.Record("fast", 999);  // below threshold
  for (int i = 0; i < 5; ++i) {
    log.Record("slow" + std::to_string(i), 2000 + static_cast<uint64_t>(i));
  }
  const std::vector<obs::SlowQueryRecord> entries = log.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries.front().description, "slow2");
  EXPECT_EQ(entries.back().description, "slow4");
  // Sequence numbers keep global arrival order.
  EXPECT_LT(entries.front().seq, entries.back().seq);

  log.Configure(0);
  log.Record("ignored", 1 << 30);
  EXPECT_TRUE(log.Entries().empty());
}

TEST_F(TraceCollectorTest, SlowQueriesAreRecordedByTheEngine) {
  workload::DblpOptions options;
  options.num_publications = 40;
  auto collection = workload::GenerateDblp(options);
  ASSERT_TRUE(collection.ok());
  auto flix = core::Flix::Build(*collection, {});
  ASSERT_TRUE(flix.ok());

  SlowQueryLog::Global().Configure(/*threshold_ns=*/1);  // catch everything
  (*flix)->FindDescendantsByName(collection->GlobalId(0, 0), "author", {},
                                 [](const core::Result&) { return true; });
  const std::vector<obs::SlowQueryRecord> entries =
      SlowQueryLog::Global().Entries();
  ASSERT_FALSE(entries.empty());
  EXPECT_NE(entries.front().description.find("pee.query"), std::string::npos);
  EXPECT_GT(entries.front().dur_ns, 0u);
}

}  // namespace
}  // namespace flix
