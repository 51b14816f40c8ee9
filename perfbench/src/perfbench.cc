// FliX end-to-end benchmark: workloads, measurement and checking.
//
//   flix_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR --child PATH [--spans FILE]
//
// Workloads (README.md in this directory has the full rationale):
//   cold-query  each operation is a fresh flix_cold_child process that opens
//               the saved collection and paged index, serves a top-10 a//B
//               query and then the full result set (Hybrid config);
//   dblp-topk   two closed-loop clients in one process: 70% top-10 a//B
//               queries from Zipf-skewed starts, 30% FindDistance point
//               queries (Hybrid config);
//   dblp-drain  one closed-loop client draining a//B from distinct starts:
//               75% approximate, 25% exact mode (Unconnected HOPI, bound
//               5000).
//
// The input is the fixed paper-scale DBLP-style corpus, generated as XML
// text, and query streams drawn from --seed; the program receives only the
// text and the queries.
// With --trace 0 the run measures the end-to-end metrics with the
// benchmark's spans off; with --trace 1 it records spans around the calls
// into each module and reports the per-layer metrics instead. Either way
// the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "corpus.h"
#include "flix/flix.h"
#include "flix/index_builder.h"
#include "flix/iss.h"
#include "flix/landmarks.h"
#include "flix/mdb.h"
#include "index/ppo.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "oracle.h"
#include "process.h"
#include "spans.h"
#include "stats.h"
#include "storage/paged_file.h"
#include "workload/query_workload.h"

namespace perfbench {
namespace {

using flix::Distance;
using flix::NodeId;
using flix::core::Flix;
using flix::core::FlixOptions;

// ---------------------------------------------------------------------------
// Command line and output

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string child;
  std::string spans;  // where a traced run writes its spans
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--child") {
      args->child = value;
    } else if (key == "--spans") {
      args->spans = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         !args->child.empty() && args->seconds > 0;
}

// Metrics in print order, each with its unit.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  void PrintTable() const {
    for (const Entry& e : entries_) {
      std::printf("  %-40s %16.6f %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Operations

// Result tags of the a//B queries: the element kinds a DBLP user searches
// for below a publication (its own and those reachable through citations).
constexpr const char* kTags[] = {"author",  "title",         "keyword", "year",
                                 "cite",    "inproceedings", "article"};
constexpr size_t kNumTags = std::size(kTags);
constexpr int kTopK = 10;

// The fixed data set. The corpus is the repository's paper-scale DBLP
// corpus (DblpOptions' default seed, as `flixctl build --dblp` and the paper
// benches generate it); the point pairs use the connection-test sampler
// seed. --seed varies the query streams over them.
constexpr uint64_t kCorpusSeed = 42;
constexpr uint64_t kPairSeed = 97;
constexpr size_t kPointPairs = 256;
constexpr size_t kColdQueries = 64;
// Fresh processes a cold window runs at least: ten lie beyond a p90.
constexpr size_t kMinColdSamples = 100;
// Set-ups per run; setup_s is their median.
constexpr size_t kSetups = 9;

enum class OpKind : uint8_t { kTopK, kPoint, kDrain, kExact };
constexpr size_t kNumKinds = 4;
constexpr const char* kKindNames[] = {"topk", "point", "drain", "exact"};
// Span names of the facade calls, one per operation kind.
constexpr const char* kKindSpans[] = {
    "flix.find_descendants.topk", "flix.find_distance",
    "flix.find_descendants.drain", "flix.find_descendants.exact"};

struct Op {
  OpKind kind = OpKind::kTopK;
  uint8_t tag = 0;
  NodeId a = 0;  // start (descendant queries) or source (point queries)
  NodeId b = 0;  // point-query target

  uint64_t Key() const {
    return (uint64_t{a} << 32 | b) * 31 + static_cast<uint64_t>(kind) * 8 + tag;
  }
};

// One completed operation and what it returned.
struct Record {
  Op op;
  uint64_t latency_ns = 0;
  uint64_t first_ns = 0;  // call -> first result; 0 if none
  SetDigest digest;       // drains: the full result set
  bool ordered = true;    // exact drains: distances never decreased
  Distance distance = flix::kUnreachable;  // point queries
  uint8_t top_count = 0;
  NodeId top[kTopK] = {};
};

// Draws the operation sequence of one client.
class OpStream {
 public:
  virtual ~OpStream() = default;
  virtual Op Next() = 0;
  // True between passes over a fixed pool (always, for streams without
  // one): a window that ends only here contains whole passes.
  virtual bool AtPassBoundary() const { return true; }
};

// dblp-topk: 70% top-10 a//B from Zipf-skewed starts, 30% point queries.
// Each client walks the point-pair pool in its own seeded order, so every
// pair runs about equally often and the pool's few very slow pairs weigh
// the same in every run.
class TopkStream : public OpStream {
 public:
  TopkStream(uint64_t seed, const std::vector<NodeId>& popular_roots,
             const std::vector<std::pair<NodeId, NodeId>>& pairs,
             double topk_share)
      : rng_(seed),
        zipf_(popular_roots.size(), 0.9),
        roots_(popular_roots),
        pairs_(pairs),
        order_(pairs.size()),
        topk_share_(topk_share) {
    std::iota(order_.begin(), order_.end(), size_t{0});
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.Uniform(i)]);
    }
  }
  Op Next() override {
    Op op;
    if (pairs_.empty() || rng_.Bernoulli(topk_share_)) {
      op.kind = OpKind::kTopK;
      op.a = roots_[zipf_.Sample(rng_)];
      op.tag = static_cast<uint8_t>(rng_.Uniform(kNumTags));
    } else {
      op.kind = OpKind::kPoint;
      const auto& pair = pairs_[order_[next_pair_++ % order_.size()]];
      op.a = pair.first;
      op.b = pair.second;
    }
    return op;
  }
  bool AtPassBoundary() const override {
    return order_.empty() || next_pair_ % order_.size() == 0;
  }

 private:
  flix::Rng rng_;
  flix::ZipfSampler zipf_;
  const std::vector<NodeId>& roots_;
  const std::vector<std::pair<NodeId, NodeId>>& pairs_;
  std::vector<size_t> order_;
  size_t next_pair_ = 0;
  double topk_share_;
};

// Low-discrepancy walk over n items: item(i) = (offset + i * stride) mod n
// with stride ~ n / golden ratio and coprime to n, so consecutive draws are
// distinct and spread evenly over the whole range (documents are ordered
// by publication, and how much a start reaches grows with it).
class GoldenWalk {
 public:
  GoldenWalk(size_t n, size_t offset) : n_(n), offset_(offset % n) {
    stride_ = std::max<size_t>(1, static_cast<size_t>(n * 0.6180339887));
    while (std::gcd(stride_, n_) != 1) ++stride_;
  }
  size_t operator()(size_t i) const {
    return (offset_ + (i % n_) * stride_) % n_;
  }

 private:
  size_t n_;
  size_t offset_;
  size_t stride_ = 1;
};

// dblp-drain: full drains from distinct starts, every fourth one in exact
// mode. The starts follow one fixed golden walk over the documents and the
// tags rotate along it, so every run drains nearly the same mix of short
// and long result sets (drain costs are spread so widely that a random mix
// moves the median by a fifth). The seed shuffles the order within blocks
// of the walk. Clients share the walk through `next`.
class DrainStream : public OpStream {
 public:
  static constexpr size_t kBlock = 32;

  DrainStream(uint64_t seed, const std::vector<NodeId>& roots,
              std::atomic<size_t>* next)
      : seed_(seed), walk_(roots.size(), 0), roots_(roots), next_(next) {}
  Op Next() override {
    const size_t i = next_->fetch_add(1);
    const size_t block = i / kBlock;
    if (block != block_ || order_.empty()) {
      // The same (seed, block) always gives the same order, so clients
      // sharing the walk agree on it.
      block_ = block;
      order_.resize(kBlock);
      std::iota(order_.begin(), order_.end(), size_t{0});
      flix::Rng rng(Mix64(seed_ + block));
      for (size_t k = kBlock; k > 1; --k) {
        std::swap(order_[k - 1], order_[rng.Uniform(k)]);
      }
    }
    const size_t j = block * kBlock + order_[i % kBlock];
    Op op;
    op.kind = j % 4 == 0 ? OpKind::kExact : OpKind::kDrain;
    op.a = roots_[walk_(j)];
    op.tag = static_cast<uint8_t>(j % kNumTags);
    return op;
  }

 private:
  uint64_t seed_;
  GoldenWalk walk_;
  const std::vector<NodeId>& roots_;
  std::atomic<size_t>* next_;
  size_t block_ = 0;
  std::vector<size_t> order_;
};

Record Execute(const Flix& flix, const Op& op, uint64_t op_id) {
  Record r;
  r.op = op;
  Span span(kKindSpans[static_cast<size_t>(op.kind)], op_id);
  const uint64_t t0 = NowNs();
  switch (op.kind) {
    case OpKind::kTopK: {
      flix::core::QueryOptions options;
      options.max_results = kTopK;
      flix.FindDescendantsByName(op.a, kTags[op.tag], options,
                                 [&](const flix::core::Result& res) {
                                   if (r.top_count == 0) r.first_ns = NowNs() - t0;
                                   if (r.top_count < kTopK) r.top[r.top_count++] = res.node;
                                   return true;
                                 });
      break;
    }
    case OpKind::kPoint:
      r.distance = flix.FindDistance(op.a, op.b);
      break;
    case OpKind::kDrain:
    case OpKind::kExact: {
      flix::core::QueryOptions options;
      options.exact = op.kind == OpKind::kExact;
      Distance last = 0;
      flix.FindDescendantsByName(op.a, kTags[op.tag], options,
                                 [&](const flix::core::Result& res) {
                                   if (r.digest.count == 0) r.first_ns = NowNs() - t0;
                                   if (res.distance < last) r.ordered = false;
                                   last = res.distance;
                                   r.digest.Add(res.node, res.distance);
                                   return true;
                                 });
      break;
    }
  }
  r.latency_ns = NowNs() - t0;
  return r;
}

struct LoopResult {
  std::vector<Record> records;
  double seconds = 0;  // measured window
};

// Closed loop: each client issues its next operation only after the
// previous one returned, until `seconds` have passed. With `whole_passes`
// a client then runs on to the end of its current pass over the point-pair
// pool, so every window asks each pair equally often: the pool's slowest
// pairs take seconds each, and a cut mid-pass would make throughput depend
// on where the cut fell.
LoopResult RunClosedLoop(const Flix& flix,
                         std::vector<std::unique_ptr<OpStream>>& streams,
                         double seconds, bool whole_passes) {
  std::vector<std::vector<Record>> per_client(streams.size());
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back([&, c] {
      Span loop_span("client");
      OpStream& stream = *streams[c];
      std::vector<Record>& out = per_client[c];
      out.reserve(1 << 16);
      uint64_t op_id = c << 48;
      while (NowNs() < deadline || (whole_passes && !stream.AtPassBoundary())) {
        out.push_back(Execute(flix, stream.Next(), op_id++));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult result;
  result.seconds = (NowNs() - start) / 1e9;
  for (auto& v : per_client) {
    result.records.insert(result.records.end(), v.begin(), v.end());
  }
  return result;
}

// Runs a fixed list of operations on one thread (probes).
std::vector<Record> RunOps(const Flix& flix, const std::vector<Op>& ops) {
  std::vector<Record> out;
  out.reserve(ops.size());
  uint64_t op_id = uint64_t{7} << 48;
  for (const Op& op : ops) out.push_back(Execute(flix, op, op_id++));
  return out;
}

// ---------------------------------------------------------------------------
// Answer checking (after the measured window)

// The top-10 rules, against the oracle's last Explore(start): every result
// is a proper descendant of the start (distance > 0) with tag `tag`, none
// repeats, and there are min(10, |truth|) of them.
bool TopKValid(std::span<const NodeId> top, flix::TagId tag,
               const SetDigest& truth, const Oracle& oracle) {
  if (top.size() != std::min<uint64_t>(kTopK, truth.count)) return false;
  std::set<NodeId> seen;
  for (const NodeId n : top) {
    if (n >= oracle.graph().NumNodes() || oracle.graph().Tag(n) != tag ||
        oracle.Dist(n) <= 0 || !seen.insert(n).second) {
      return false;
    }
  }
  return true;
}

// Checks every record against the BFS oracle; returns the number wrong and
// prints the first few mismatches to stderr.
size_t CheckRecords(const std::vector<Record>& records, Oracle& oracle,
                    const std::vector<flix::TagId>& tag_ids) {
  size_t failed = 0;
  const auto report = [&](const Record& r, const char* what) {
    if (++failed <= 5) {
      std::fprintf(stderr, "wrong answer: %s %s start=%u target=%u: %s\n",
                   kKindNames[static_cast<size_t>(r.op.kind)],
                   kTags[r.op.tag], r.op.a, r.op.b, what);
    }
  };

  // Point queries, memoized per pair.
  std::unordered_map<uint64_t, Distance> distances;
  for (const Record& r : records) {
    if (r.op.kind != OpKind::kPoint) continue;
    const uint64_t key = uint64_t{r.op.a} << 32 | r.op.b;
    auto it = distances.find(key);
    if (it == distances.end()) {
      it = distances.emplace(key, oracle.Distance(r.op.a, r.op.b)).first;
    }
    if (r.distance != it->second) report(r, "distance differs from BFS");
  }

  // Descendant queries, grouped by start so each start is explored once.
  std::vector<const Record*> by_start;
  for (const Record& r : records) {
    if (r.op.kind != OpKind::kPoint) by_start.push_back(&r);
  }
  std::sort(by_start.begin(), by_start.end(),
            [](const Record* x, const Record* y) { return x->op.a < y->op.a; });
  for (size_t i = 0; i < by_start.size();) {
    const NodeId start = by_start[i]->op.a;
    oracle.Explore(start);
    std::optional<SetDigest> truth[kNumTags];
    for (; i < by_start.size() && by_start[i]->op.a == start; ++i) {
      const Record& r = *by_start[i];
      const flix::TagId tag = tag_ids[r.op.tag];
      if (!truth[r.op.tag]) truth[r.op.tag] = oracle.Tagged(tag);
      const SetDigest& want = *truth[r.op.tag];
      switch (r.op.kind) {
        case OpKind::kTopK:
          if (!TopKValid({r.top, r.top_count}, tag, want, oracle)) {
            report(r, "top-10 result not reachable, not tagged, repeated or "
                      "short");
          }
          break;
        case OpKind::kDrain:
          if (!r.digest.SameSet(want)) report(r, "result set differs from BFS");
          break;
        case OpKind::kExact:
          if (!r.digest.SameDistances(want) || !r.ordered) {
            report(r, "distances or order differ from BFS");
          }
          break;
        case OpKind::kPoint:
          break;
      }
    }
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Cold-query children

struct ColdQuery {
  std::string doc;
  NodeId start = 0;
  uint8_t tag = 0;
  SetDigest want;  // full result set per the oracle
};

struct ColdSample {
  bool ran = false;           // the child ran and reported its answer
  bool ok = false;            // ... and the answer was right (CheckCold)
  size_t query = 0;           // index into the cold-query pool
  double exec_ms = 0;         // spawn -> child main
  double collection_ms = 0;   // Collection::Load
  double flix_load_ms = 0;    // Flix::Load
  double open_ms = 0;         // spawn -> both files open
  double first_ms = 0;        // spawn -> first result
  double full_ms = 0;         // spawn -> full result set
  double peak_rss_mb = 0;
  uint64_t minor_faults = 0;
  uint64_t major_faults = 0;
  SetDigest full;             // the full result set
  std::vector<NodeId> top;    // the top-10 list
};

struct ColdLoop {
  std::vector<ColdSample> samples;
  double seconds = 0;
};

struct ColdFiles {
  std::string collection_path;
  std::string index_path;
};

// Runs one child and keeps its timings and answer; CheckCold checks the
// answer after the measured window.
ColdSample RunColdSample(const std::string& child, const ColdFiles& files,
                         const ColdQuery& q, uint64_t op_id) {
  ColdSample s;
  Span span("cold.query", op_id);
  const ChildRun run = RunChild({child, files.collection_path,
                                 files.index_path, q.doc, kTags[q.tag]});
  if (!run.ok) {
    std::fprintf(stderr, "cold child failed: %s\n", run.error.c_str());
    return s;
  }
  std::istringstream in(run.out);
  std::map<std::string, std::string> fields;
  std::string key, value;
  while (in >> key) {
    if (!(in >> value)) value.clear();
    fields[key] = value;
  }
  const auto ns = [&](const char* k) -> uint64_t {
    auto it = fields.find(k);
    return it == fields.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
  };
  const uint64_t main_ns = ns("main"), coll_ns = ns("collection"),
                 open_ns = ns("open"), first_ns = ns("first"),
                 topk_ns = ns("topk"), full_ns = ns("full");
  if (main_ns == 0 || full_ns == 0) {
    std::fprintf(stderr, "cold child printed no timestamps: %s\n",
                 run.out.c_str());
    return s;
  }
  RecordSpan("cold.exec", run.spawn_ns, main_ns, op_id);
  RecordSpan("xml.collection_load", main_ns, coll_ns, op_id);
  RecordSpan("flix.load", coll_ns, open_ns, op_id);
  RecordSpan("cold.first_result", open_ns, first_ns, op_id);
  RecordSpan("cold.full_result", topk_ns, full_ns, op_id);

  const auto ms = [&](uint64_t t) { return (t - run.spawn_ns) / 1e6; };
  s.exec_ms = ms(main_ns);
  s.collection_ms = (coll_ns - main_ns) / 1e6;
  s.flix_load_ms = (open_ns - coll_ns) / 1e6;
  s.open_ms = ms(open_ns);
  s.first_ms = ms(first_ns);
  s.full_ms = ms(full_ns);
  s.peak_rss_mb = ns("hwm_kb") / 1024.0;
  s.minor_faults = run.minor_faults;
  s.major_faults = run.major_faults;

  s.full.count = ns("count");
  s.full.nodes = ns("nodes");
  if (auto it = fields.find("top"); it != fields.end()) {
    std::stringstream list(it->second);
    std::string item;
    while (std::getline(list, item, ',')) {
      if (!item.empty()) s.top.push_back(static_cast<NodeId>(std::stoul(item)));
    }
  }
  s.ran = true;
  return s;
}

// Per-kind latency summary of a window, for the human-readable output.
void PrintKinds(const std::vector<Record>& records) {
  double total = 0;
  for (const Record& r : records) total += r.latency_ns / 1e6;
  for (size_t k = 0; k < kNumKinds; ++k) {
    std::vector<double> v;
    for (const Record& r : records) {
      if (static_cast<size_t>(r.op.kind) == k) v.push_back(r.latency_ns / 1e6);
    }
    if (v.empty()) continue;
    const double sum = std::accumulate(v.begin(), v.end(), 0.0);
    std::printf("  %-6s n=%-7zu p50 %.4f p90 %.4f p99 %.4f max %.3f ms; "
                "%.0f%% of busy time\n",
                kKindNames[k], v.size(), Percentile(v, 0.5), Percentile(v, 0.9),
                Percentile(v, 0.99), Percentile(v, 1.0), 100 * sum / total);
  }
  // The slowest distinct operations: where a heavy tail comes from.
  std::vector<const Record*> slow;
  for (const Record& r : records) slow.push_back(&r);
  std::sort(slow.begin(), slow.end(), [](const Record* x, const Record* y) {
    return x->latency_ns > y->latency_ns;
  });
  std::set<uint64_t> shown;
  for (const Record* r : slow) {
    if (shown.size() == 5) break;
    if (!shown.insert(r->op.Key()).second) continue;
    if (r->op.kind == OpKind::kPoint) {
      std::printf("  slow: point  %u -> %u  %.3f ms\n", r->op.a, r->op.b,
                  r->latency_ns / 1e6);
    } else {
      std::printf("  slow: %-6s %u//%s  %.3f ms\n",
                  kKindNames[static_cast<size_t>(r->op.kind)], r->op.a,
                  kTags[r->op.tag], r->latency_ns / 1e6);
    }
  }
}

// ---------------------------------------------------------------------------
// Per-layer helpers

uint64_t CounterValue(const flix::obs::MetricsSnapshot& snap, const char* name) {
  const uint64_t* v = snap.FindCounter(name);
  return v == nullptr ? 0 : *v;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<double> Collect(const std::vector<Record>& records,
                            std::initializer_list<OpKind> kinds,
                            bool first_result) {
  std::vector<double> out;
  for (const Record& r : records) {
    if (std::find(kinds.begin(), kinds.end(), r.op.kind) == kinds.end()) continue;
    if (first_result) {
      if (r.first_ns > 0) out.push_back(r.first_ns / 1e6);
    } else {
      out.push_back(r.latency_ns / 1e6);
    }
  }
  return out;
}

size_t CountKind(const std::vector<Record>& records, OpKind kind) {
  size_t n = 0;
  for (const Record& r : records) n += r.op.kind == kind;
  return n;
}

double RepeatFraction(std::span<const Record> records) {
  std::set<uint64_t> seen;
  size_t repeats = 0;
  for (const Record& r : records) repeats += !seen.insert(r.op.Key()).second;
  return Ratio(static_cast<double>(repeats), static_cast<double>(records.size()));
}

// Drains DescendantsByTagCursor and probes DistanceBetween directly on the
// partitions of `kind`, under spans named index.<kind>.pull / .probe; the
// spans give the time, this returns how many pulls and probes they cover.
struct IndexWork {
  double pulls = 0;
  double probes = 0;
};

IndexWork MeasureIndex(const flix::core::MetaDocumentSet& set,
                       flix::index::StrategyKind kind,
                       const std::vector<flix::TagId>& tag_ids, uint64_t seed) {
  const bool ppo = kind == flix::index::StrategyKind::kPpo;
  IndexWork work;
  flix::Rng rng(seed);
  for (const auto& meta : set.docs) {
    const std::shared_ptr<flix::index::PathIndex> index = meta.index.Acquire();
    if (index == nullptr || index->kind() != kind || meta.NumNodes() < 2) continue;
    const size_t n = meta.NumNodes();
    for (int q = 0; q < 8; ++q) {
      const NodeId from = static_cast<NodeId>(rng.Uniform(n));
      const flix::TagId tag = tag_ids[rng.Uniform(tag_ids.size())];
      Span span(ppo ? "index.ppo.pull" : "index.hopi.pull");
      auto cursor = index->DescendantsByTagCursor(from, tag);
      while (cursor->Next().has_value()) ++work.pulls;
      ++work.pulls;  // the final, empty Next() is a pull too
    }
    for (int q = 0; q < 64; ++q) {
      const NodeId from = static_cast<NodeId>(rng.Uniform(n));
      const NodeId to = static_cast<NodeId>(rng.Uniform(n));
      Span span(ppo ? "index.ppo.probe" : "index.hopi.probe");
      volatile Distance d = index->DistanceBetween(from, to);
      (void)d;
      ++work.probes;
    }
  }
  return work;
}

// ---------------------------------------------------------------------------
// The benchmark

struct WorkloadSpec {
  FlixOptions options;
  size_t clients = 1;
  bool cold = false;
};

std::optional<WorkloadSpec> SpecFor(const std::string& name) {
  WorkloadSpec spec;
  if (name == "cold-query") {
    spec.cold = true;
  } else if (name == "dblp-topk") {
    spec.clients = 2;
  } else if (name == "dblp-drain") {
    spec.options.config = flix::core::MdbConfig::kUnconnectedHopi;
    spec.options.partition_bound = 5000;
  } else {
    return std::nullopt;
  }
  return spec;
}

class Bench {
 public:
  Bench(Args args, WorkloadSpec spec) : args_(std::move(args)), spec_(spec) {}

  int Run();

 private:
  bool SetUpAll();
  void BuildOracleAndQueries();
  std::vector<std::unique_ptr<OpStream>> Streams(size_t clients, uint64_t salt);
  LoopResult WarmWindow(double seconds, size_t clients, uint64_t salt,
                        bool whole_passes = true);
  ColdLoop ColdWindow(double seconds, size_t min_samples,
                      const ColdFiles& files, uint64_t salt);
  // Checks each child's answer against the oracle and sets its `ok`;
  // returns the number wrong.
  size_t CheckCold(std::vector<ColdSample>& samples);
  void EndToEnd(MetricSet& m);
  void PerLayer(MetricSet& m);
  std::vector<Op> ProbeOps(std::initializer_list<OpKind> kinds, size_t count,
                           uint64_t salt);
  std::vector<Record> CheckedOps(const std::vector<Op>& ops);

  Args args_;
  WorkloadSpec spec_;
  Corpus corpus_;
  Instance instance_;
  std::vector<SetupTimes> setup_times_;
  double rss_mb_ = 0;
  ColdFiles files_;
  std::unique_ptr<Oracle> oracle_;
  std::vector<flix::TagId> tag_ids_;
  std::vector<NodeId> roots_;          // document roots, in document order
  std::vector<NodeId> popular_roots_;  // Zipf rank -> root
  std::vector<std::pair<NodeId, NodeId>> pairs_;
  std::vector<ColdQuery> cold_queries_;
  std::atomic<size_t> next_root_{0};

  size_t attempted_ = 0;
  size_t failed_ = 0;
};

bool Bench::SetUpAll() {
  flix::StatusOr<Corpus> corpus = MakeDblpCorpus(kCorpusSeed, kPaperPublications);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    return false;
  }
  corpus_ = std::move(corpus).value();
  std::printf("corpus: %zu documents, %.2f MB of XML; query seed %" PRIu64
              "\n",
              corpus_.texts.size(), corpus_.bytes / 1e6, args_.seed);
  files_.collection_path = args_.work_dir + "/collection.flxc";
  files_.index_path = args_.work_dir + "/index.flix";

  // setup_s is the median of several set-ups. All but the last run in a
  // forked copy of this process, so each starts from the same heap and the
  // serving instance is not placed in a heap fragmented by the others. The
  // last one serves; it is measured on a trimmed heap so rss_mb sees only
  // what the program holds.
  // On cold-query every set-up saves to files of its own that do not exist
  // yet, and a forked set-up deletes its files once timed: nothing replaces
  // an existing file, which on ext4 would start writeback of the new one,
  // and deleted files are never written back, so the runs leave no disk
  // traffic behind to slow the children or the next run.
  for (size_t rep = 0; rep < kSetups; ++rep) {
    const bool serving = rep + 1 == kSetups;
    SetupTimes times;
    const size_t rss_before = serving ? TrimmedRssBytes() : 0;
    if (serving) {
      const SaveTarget save{files_.collection_path, files_.index_path};
      Span span("setup");
      flix::StatusOr<Instance> built =
          SetUp(corpus_, spec_.options, spec_.cold ? &save : nullptr, &times);
      if (!built.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n",
                     built.status().ToString().c_str());
        return false;
      }
      instance_ = std::move(built).value();
      rss_mb_ = (static_cast<double>(TrimmedRssBytes()) -
                 static_cast<double>(rss_before)) / (1024.0 * 1024.0);
    } else {
      const std::string prefix = args_.work_dir + "/setup" + std::to_string(rep);
      const SaveTarget save{prefix + ".flxc", prefix + ".flix"};
      std::string bytes;
      const bool ok = RunInFork(
          [&](std::string* out) {
            SetupTimes t;
            const bool built =
                SetUp(corpus_, spec_.options, spec_.cold ? &save : nullptr, &t).ok();
            std::error_code ec;
            std::filesystem::remove(save.collection_path, ec);
            std::filesystem::remove(save.index_path, ec);
            if (!built) return false;
            out->assign(reinterpret_cast<const char*>(&t), sizeof(t));
            return true;
          },
          &bytes);
      if (!ok || bytes.size() != sizeof(times)) {
        std::fprintf(stderr, "forked set-up failed\n");
        return false;
      }
      std::memcpy(&times, bytes.data(), sizeof(times));
    }
    setup_times_.push_back(times);
    std::printf("set-up %zu%s: %.3f s (parse %.1f, resolve %.1f, build %.1f, "
                "save %.1f ms)\n",
                rep, serving ? " (serving)" : "", times.total_s, times.parse_ms,
                times.resolve_ms, times.build_ms, times.save_ms);
  }
  const auto& st = instance_.flix->stats();
  std::printf("instance: %zu elements, %zu meta documents (%zu PPO, %zu HOPI, "
              "%zu APEX), %zu cross links, %.1f MB of indexes\n",
              instance_.collection->NumElements(), st.num_meta_documents,
              st.num_ppo, st.num_hopi, st.num_apex, st.num_cross_links,
              st.total_index_bytes / 1e6);
  return true;
}

void Bench::BuildOracleAndQueries() {
  Span span("oracle");
  const flix::xml::Collection& c = *instance_.collection;
  oracle_ = std::make_unique<Oracle>(c);
  for (const char* tag : kTags) tag_ids_.push_back(instance_.flix->LookupTag(tag));

  for (flix::DocId d = 0; d < c.NumDocuments(); ++d) {
    roots_.push_back(c.GlobalId(d, 0));
  }
  // Popularity order for the Zipf-skewed top-k starts: the most cited
  // papers are the most asked about. A root's in-degree is its citation
  // count; the order is part of the data set, the seed only draws from it.
  popular_roots_ = roots_;
  const flix::graph::Digraph& g = oracle_->graph();
  std::stable_sort(popular_roots_.begin(), popular_roots_.end(),
                   [&g](NodeId x, NodeId y) { return g.InDegree(x) > g.InDegree(y); });
  // The point-pair pool is part of the fixed data set, like the corpus:
  // the connection-test sampler of the paper's in-text experiment (about
  // half the pairs connected). The seed picks the order pairs are asked in.
  pairs_ = flix::workload::SampleConnectionPairs(oracle_->graph(), kPointPairs,
                                                 kPairSeed);
  // Cold-query pool: a golden walk over the documents, tags rotating, each
  // query with its expected full answer.
  const GoldenWalk walk(c.NumDocuments(), Mix64(args_.seed + 2));
  for (size_t i = 0; i < kColdQueries; ++i) {
    ColdQuery q;
    const flix::DocId d = static_cast<flix::DocId>(walk(i));
    q.doc = c.document(d).name();
    q.start = c.GlobalId(d, 0);
    q.tag = static_cast<uint8_t>(i % kNumTags);
    oracle_->Explore(q.start);
    q.want = oracle_->Tagged(tag_ids_[q.tag]);
    cold_queries_.push_back(std::move(q));
  }
}

std::vector<std::unique_ptr<OpStream>> Bench::Streams(size_t clients,
                                                      uint64_t salt) {
  std::vector<std::unique_ptr<OpStream>> streams;
  for (size_t c = 0; c < clients; ++c) {
    if (spec_.options.config == flix::core::MdbConfig::kUnconnectedHopi) {
      streams.push_back(
          std::make_unique<DrainStream>(args_.seed, roots_, &next_root_));
    } else {
      const uint64_t seed = Mix64(args_.seed * 1000003 + salt * 101 + c);
      streams.push_back(
          std::make_unique<TopkStream>(seed, popular_roots_, pairs_, 0.7));
    }
  }
  return streams;
}

LoopResult Bench::WarmWindow(double seconds, size_t clients, uint64_t salt,
                             bool whole_passes) {
  next_root_ = 0;  // equal salts give equal operation sequences
  auto streams = Streams(clients, salt);
  return RunClosedLoop(*instance_.flix, streams, seconds, whole_passes);
}

ColdLoop Bench::ColdWindow(double seconds, size_t min_samples,
                           const ColdFiles& files, uint64_t salt) {
  ColdLoop loop;
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  const size_t first = Mix64(args_.seed + salt) % cold_queries_.size();
  uint64_t op_id = salt << 48;
  while (NowNs() < deadline || loop.samples.size() < min_samples) {
    const size_t query = (first + loop.samples.size()) % cold_queries_.size();
    loop.samples.push_back(
        RunColdSample(args_.child, files, cold_queries_[query], op_id++));
    loop.samples.back().query = query;
  }
  loop.seconds = (NowNs() - start) / 1e9;
  return loop;
}

size_t Bench::CheckCold(std::vector<ColdSample>& samples) {
  std::vector<ColdSample*> by_query;
  for (ColdSample& s : samples) by_query.push_back(&s);
  std::sort(by_query.begin(), by_query.end(),
            [](const ColdSample* x, const ColdSample* y) { return x->query < y->query; });
  size_t failed = 0;
  size_t explored = cold_queries_.size();
  for (ColdSample* s : by_query) {
    const ColdQuery& q = cold_queries_[s->query];
    if (s->ran && s->full.SameSet(q.want)) {
      if (explored != s->query) oracle_->Explore(q.start);
      explored = s->query;
      s->ok = TopKValid(s->top, tag_ids_[q.tag], q.want, *oracle_);
    }
    if (!s->ok && ++failed <= 5) {
      std::fprintf(stderr, "wrong cold answer for %s//%s\n", q.doc.c_str(),
                   kTags[q.tag]);
    }
  }
  return failed;
}

int Bench::Run() {
  std::filesystem::create_directories(args_.work_dir);
  if (!SetUpAll()) return 1;
  BuildOracleAndQueries();

  MetricSet metrics;
  if (args_.trace) {
    PerLayer(metrics);
  } else {
    EndToEnd(metrics);
  }
  std::printf("metrics (%s, %s):\n", args_.workload.c_str(),
              args_.trace ? "per layer, traced" : "end to end, untraced");
  metrics.PrintTable();
  std::printf("operations: %zu attempted, %zu failed\n", attempted_, failed_);

  if (args_.trace && !args_.spans.empty()) {
    const std::vector<SpanRecord> spans = CollectSpans();
    if (WriteSpans(spans, args_.spans)) {
      std::printf("spans: %zu written to %s\n", spans.size(),
                  args_.spans.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              failed_ == 0 ? "true" : "false", attempted_, failed_,
              metrics.Json().c_str());
  return 0;
}

void Bench::EndToEnd(MetricSet& m) {
  std::vector<double> setup_s;
  for (const SetupTimes& t : setup_times_) setup_s.push_back(t.total_s);

  std::vector<double> latency, first;
  double qps = 0;
  double rss = rss_mb_;
  if (spec_.cold) {
    // 100 samples keep ten beyond the reported p90.
    ColdLoop loop = ColdWindow(args_.seconds, kMinColdSamples, files_, 1);
    attempted_ = loop.samples.size();
    failed_ = CheckCold(loop.samples);
    std::vector<double> peak, open;
    for (const ColdSample& s : loop.samples) {
      if (!s.ok) continue;
      latency.push_back(s.full_ms);
      first.push_back(s.first_ms);
      peak.push_back(s.peak_rss_mb);
      open.push_back(s.open_ms);
    }
    qps = loop.samples.size() / loop.seconds;
    rss = Median(peak);
    std::printf("cold-query: %zu fresh processes in %.2f s, open p50 %.2f ms\n",
                loop.samples.size(), loop.seconds, Median(open));
  } else {
    // Warm-up, not measured.
    WarmWindow(std::min(0.5, args_.seconds / 10), spec_.clients, 0, false);
    const LoopResult loop = WarmWindow(args_.seconds, spec_.clients, 1);
    attempted_ = loop.records.size();
    failed_ = CheckRecords(loop.records, *oracle_, tag_ids_);
    qps = loop.records.size() / loop.seconds;
    latency = Collect(loop.records,
                      {OpKind::kTopK, OpKind::kPoint, OpKind::kDrain, OpKind::kExact},
                      false);
    first = Collect(loop.records, {OpKind::kTopK, OpKind::kDrain, OpKind::kExact},
                    true);
    std::printf("%s: %zu operations by %zu clients in %.2f s; p99 %.4f ms\n",
                args_.workload.c_str(), loop.records.size(), spec_.clients,
                loop.seconds, Percentile(latency, 0.99));
    PrintKinds(loop.records);
  }
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("qps", qps, "1/s");
  m.Add("latency_ms_p50", Median(latency), "ms");
  m.Add("latency_ms_p90", Percentile(latency, 0.9), "ms");
  m.Add("first_result_ms_p50", Median(first), "ms");
  m.Add("rss_mb", rss, "MB");
}

// Ops of the given kinds, `count` each, drawn like the workloads draw them.
std::vector<Op> Bench::ProbeOps(std::initializer_list<OpKind> kinds,
                                size_t count, uint64_t salt) {
  std::vector<Op> ops;
  TopkStream topk(Mix64(args_.seed + salt), popular_roots_, pairs_, 1.0);
  flix::Rng rng(Mix64(args_.seed + salt + 1));
  for (const OpKind kind : kinds) {
    for (size_t i = 0; i < count; ++i) {
      Op op;
      op.kind = kind;
      switch (kind) {
        case OpKind::kTopK:
          op = topk.Next();
          break;
        case OpKind::kPoint: {
          const auto& pair = pairs_[i % pairs_.size()];
          op.a = pair.first;
          op.b = pair.second;
          break;
        }
        case OpKind::kDrain:
        case OpKind::kExact:
          op.a = roots_[rng.Uniform(roots_.size())];
          op.tag = static_cast<uint8_t>(rng.Uniform(kNumTags));
          break;
      }
      ops.push_back(op);
    }
  }
  return ops;
}

std::vector<Record> Bench::CheckedOps(const std::vector<Op>& ops) {
  std::vector<Record> records = RunOps(*instance_.flix, ops);
  attempted_ += records.size();
  failed_ += CheckRecords(records, *oracle_, tag_ids_);
  return records;
}

void Bench::PerLayer(MetricSet& m) {
  auto& reg = flix::obs::MetricsRegistry::Global();
  Flix& flix = *instance_.flix;
  const flix::core::FlixStats& st = flix.stats();
  namespace names = flix::obs::names;

  // --- Measured window in four quarters, spans off, on, on, off (ABBA, so
  // warming and slow drift cancel), all asking the same operation sequence;
  // the ratio of the medians is the tracing overhead. Registry deltas over
  // the two traced quarters give the per-query counts.
  const double quarter = args_.seconds / 4;
  double overhead = 0;
  std::vector<Record> window;    // traced quarters (warm workloads)
  std::vector<Record> off;       // untraced quarters (warm workloads)
  std::vector<ColdSample> cold;  // all quarters (cold-query)
  size_t quarter_ops = 0;        // operations in the first traced quarter
  flix::obs::MetricsSnapshot before;
  flix::obs::MetricsSnapshot after;
  size_t descendant_ops = 0;
  if (spec_.cold) {
    std::vector<double> off_ms, on_ms;
    for (const bool traced : {false, true, true, false}) {
      SetTracing(traced);
      const ColdLoop part = ColdWindow(quarter, kMinColdSamples / 4, files_, 2);
      if (quarter_ops == 0) quarter_ops = part.samples.size();
      for (const ColdSample& s : part.samples) {
        (traced ? on_ms : off_ms).push_back(s.full_ms);
        cold.push_back(s);
      }
    }
    SetTracing(true);
    overhead = Ratio(Median(on_ms), Median(off_ms)) - 1;
    // In process, the parent serves each cold query's two calls (top-10,
    // then the full set) so the per-query PEE and index counts exist here
    // too.
    std::vector<Op> ops;
    for (const ColdQuery& q : cold_queries_) {
      Op op;
      op.a = q.start;
      op.tag = q.tag;
      op.kind = OpKind::kTopK;
      ops.push_back(op);
      op.kind = OpKind::kDrain;
      ops.push_back(op);
    }
    before = reg.Snapshot();
    window = CheckedOps(ops);
    after = reg.Snapshot();
    descendant_ops = cold_queries_.size();  // one cold query = two calls
  } else {
    SetTracing(false);
    WarmWindow(std::min(0.5, args_.seconds / 10), spec_.clients, 0, false);
    for (const bool traced : {false, true, true, false}) {
      SetTracing(traced);
      if (traced && window.empty()) before = reg.Snapshot();
      LoopResult part = WarmWindow(quarter, spec_.clients, 2);
      if (traced && !window.empty()) after = reg.Snapshot();
      attempted_ += part.records.size();
      failed_ += CheckRecords(part.records, *oracle_, tag_ids_);
      if (traced && window.empty()) quarter_ops = part.records.size();
      std::vector<Record>& into = traced ? window : off;
      into.insert(into.end(), part.records.begin(), part.records.end());
    }
    SetTracing(true);
    const auto all_ops = {OpKind::kTopK, OpKind::kPoint, OpKind::kDrain,
                          OpKind::kExact};
    overhead = Ratio(Median(Collect(window, all_ops, false)),
                     Median(Collect(off, all_ops, false))) - 1;
    descendant_ops = window.size() - CountKind(window, OpKind::kPoint);
  }
  const auto delta = [&](const char* name) {
    return static_cast<double>(CounterValue(after, name) -
                               CounterValue(before, name));
  };
  const auto per_query = [&](const char* name) {
    return Ratio(delta(name), static_cast<double>(descendant_ops));
  };

  // --- Operation latencies by kind; kinds the workload's mix lacks come
  // from a small probe on the same instance.
  std::vector<Record> probe;
  if (spec_.cold) {
    probe = CheckedOps(ProbeOps({OpKind::kPoint, OpKind::kExact}, 40, 11));
  } else if (spec_.clients == 1) {
    probe = CheckedOps(ProbeOps({OpKind::kTopK, OpKind::kPoint}, 200, 11));
  } else {
    probe = CheckedOps(ProbeOps({OpKind::kDrain, OpKind::kExact}, 40, 11));
  }
  const auto op_p50 = [&](OpKind kind) {
    std::vector<double> v = Collect(window, {kind}, false);
    if (v.empty()) v = Collect(probe, {kind}, false);
    return Median(v);
  };

  // --- Layer by layer, calling each module's public entry point directly;
  // the spans around the calls give the times.
  const flix::xml::Collection& collection = *instance_.collection;
  {
    Span layers("layers");
    flix::graph::Digraph graph;
    {
      Span span("graph.build");
      graph = collection.BuildGraph();
    }
    const std::vector<uint32_t> doc_of = collection.DocOfNode();
    std::vector<NodeId> doc_roots;
    for (flix::DocId d = 0; d < collection.NumDocuments(); ++d) {
      doc_roots.push_back(collection.GlobalId(d, 0));
    }
    flix::core::MdbInput input;
    input.graph = &graph;
    input.doc_of = &doc_of;
    input.doc_roots = &doc_roots;
    flix::core::MetaDocumentSet set;
    {
      Span span("mdb.build");
      set = flix::core::BuildMetaDocuments(input, spec_.options);
    }
    for (const auto& meta : set.docs) {
      Span span("iss.select");
      volatile auto kind = flix::core::SelectStrategy(meta.graph, spec_.options);
      (void)kind;
    }
    {
      Span span("ib.build");
      auto built = flix::core::BuildIndexes(set, spec_.options);
      if (!built.ok()) {
        std::fprintf(stderr, "BuildIndexes failed: %s\n",
                     built.status().ToString().c_str());
        ++failed_;
      }
    }
    {
      Span span("landmarks.build");
      const flix::core::LandmarkCache cache = flix::core::LandmarkCache::Build(
          graph, set, spec_.options.landmark_count);
    }
  }

  // --- Storage: warm workloads save their instance here; cold-query saved
  // during set-up.
  if (!spec_.cold) {
    Span span("storage.save");
    std::ofstream out(files_.collection_path, std::ios::binary);
    if (!collection.Save(out).ok() || !out ||
        !flix.Save(files_.index_path, Flix::IndexFormat::kMapped).ok()) {
      std::fprintf(stderr, "saving the probe files failed\n");
      ++failed_;
    }
  }
  for (int rep = 0; rep < 5; ++rep) {
    for (const bool verify : {true, false}) {
      flix::StatusOr<flix::storage::PagedFileReader> reader =
          flix::InternalError("not opened");
      {
        Span span(verify ? "storage.paged_open" : "storage.paged_open_noverify");
        reader = flix::storage::PagedFileReader::Open(files_.index_path, verify);
      }
      if (!reader.ok()) {
        ++failed_;
        continue;
      }
      const auto* entry = reader->Find(flix::storage::SegmentKind::kLandmarks, 0);
      if (verify || entry == nullptr) continue;
      Span span("storage.landmark_verify");
      if (!reader->VerifySegment(*entry).ok()) ++failed_;
    }
  }
  const double index_file = static_cast<double>(
      std::filesystem::file_size(files_.index_path));
  const double collection_file = static_cast<double>(
      std::filesystem::file_size(files_.collection_path));

  // --- Fresh processes on this workload's own files (cold-query: the
  // measured window itself), enough for ten beyond each p90.
  if (!spec_.cold) cold = ColdWindow(0, kMinColdSamples, files_, 4).samples;
  attempted_ += cold.size();
  failed_ += CheckCold(cold);
  std::vector<double> exec, coll_load, flix_load, open, first, full, peak;
  double minor = 0, major = 0;
  for (const ColdSample& s : cold) {
    if (!s.ok) continue;
    exec.push_back(s.exec_ms);
    coll_load.push_back(s.collection_ms);
    flix_load.push_back(s.flix_load_ms);
    open.push_back(s.open_ms);
    first.push_back(s.first_ms);
    full.push_back(s.full_ms);
    peak.push_back(s.peak_rss_mb);
    minor += static_cast<double>(s.minor_faults);
    major += static_cast<double>(s.major_faults);
  }

  // --- Landmarks: the same pairs guided and blind must agree.
  std::vector<Op> pair_ops = ProbeOps({OpKind::kPoint}, 200, 12);
  flix::obs::MetricsSnapshot lm0 = reg.Snapshot();
  const std::vector<Record> guided = CheckedOps(pair_ops);
  flix::obs::MetricsSnapshot lm1 = reg.Snapshot();
  flix.SetLandmarksEnabled(false);
  const std::vector<Record> blind = CheckedOps(pair_ops);
  flix::obs::MetricsSnapshot lm2 = reg.Snapshot();
  flix.SetLandmarksEnabled(true);
  for (size_t i = 0; i < guided.size(); ++i) {
    if (guided[i].distance != blind[i].distance) ++failed_;
  }
  const double guided_pops = static_cast<double>(
      CounterValue(lm1, names::kQueryPointPops) - CounterValue(lm0, names::kQueryPointPops));
  const double blind_pops = static_cast<double>(
      CounterValue(lm2, names::kQueryPointPops) - CounterValue(lm1, names::kQueryPointPops));
  const double points = static_cast<double>(pair_ops.size());
  const auto lm_delta = [&](const char* name) {
    return static_cast<double>(CounterValue(lm1, name) - CounterValue(lm0, name));
  };

  // --- Client scaling: the workload's own mix at one and at two clients.
  double scaling = 0;
  {
    const LoopResult two = WarmWindow(2.0, 2, 6);
    const LoopResult one = WarmWindow(2.0, 1, 5);
    attempted_ += one.records.size() + two.records.size();
    failed_ += CheckRecords(one.records, *oracle_, tag_ids_);
    failed_ += CheckRecords(two.records, *oracle_, tag_ids_);
    scaling = Ratio(two.records.size() / two.seconds,
                    one.records.size() / one.seconds);
  }

  // --- Index probes and pulls, per strategy. A workload without PPO
  // partitions times a PPO index over the collection's tree edges.
  const IndexWork hopi =
      MeasureIndex(flix.meta_documents(), flix::index::StrategyKind::kHopi,
                   tag_ids_, args_.seed);
  IndexWork ppo = MeasureIndex(flix.meta_documents(),
                               flix::index::StrategyKind::kPpo, tag_ids_,
                               args_.seed);
  if (ppo.pulls == 0) {
    const flix::graph::Digraph& g = oracle_->graph();
    flix::graph::Digraph tree(g.NumNodes());
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      tree.SetTag(n, g.Tag(n));
      for (const auto& arc : g.OutArcs(n)) {
        if (arc.kind == flix::graph::EdgeKind::kTree) tree.AddEdge(n, arc.target);
      }
    }
    auto built = flix::index::PpoIndex::Build(tree);
    if (built.ok()) {
      flix::core::MetaDocumentSet forest;
      forest.docs.resize(1);
      forest.docs[0].graph = std::move(tree);
      forest.docs[0].index = std::move(built).value();
      ppo = MeasureIndex(forest, flix::index::StrategyKind::kPpo, tag_ids_,
                         args_.seed);
    }
  }

  // --- Query cache and repeats.
  double hit_ratio = 0;
  if (const flix::core::QueryCache* cache = flix.query_cache()) {
    const auto cs = cache->Stats();
    hit_ratio = Ratio(static_cast<double>(cs.hits),
                      static_cast<double>(cs.hits + cs.misses));
  }
  // Repeats within one quarter: the quarters replay one sequence.
  double repeat_frac = 0;
  if (spec_.cold) {
    std::set<size_t> seen;
    size_t repeats = 0;
    for (size_t i = 0; i < quarter_ops; ++i) {
      repeats += !seen.insert(cold[i].query).second;
    }
    repeat_frac = Ratio(static_cast<double>(repeats), static_cast<double>(quarter_ops));
  } else {
    repeat_frac = RepeatFraction({window.data(), quarter_ops});
  }

  // --- Times from the spans. Set-up phases come from the set-up timers
  // instead: most set-ups run in forked copies, whose spans stay there.
  const std::vector<SpanRecord> spans = CollectSpans();
  const auto span_ms = [&](const char* name) {
    return Median(SpanDurationsMs(spans, name));
  };
  const auto span_total_ms = [&](const char* name) {
    const std::vector<double> v = SpanDurationsMs(spans, name);
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  std::vector<double> parse, resolve, build;
  for (const SetupTimes& t : setup_times_) {
    parse.push_back(t.parse_ms);
    resolve.push_back(t.resolve_ms);
    build.push_back(t.build_ms);
  }

  const double processed = per_query(names::kQueryEntriesProcessed);
  const double dominated = per_query(names::kQueryEntriesDominated);
  std::printf("pee pops per descendant query: %.1f processed + %.1f dominated "
              "(base of pee.useful_pop_ratio) over %zu queries\n",
              processed, dominated, descendant_ops);
  std::printf("cold samples: %zu; landmark pairs: %zu; p99 over %zu ops\n",
              cold.size(), pair_ops.size(),
              spec_.cold ? cold.size() : window.size() + off.size());

  const auto landmarks = flix.meta_documents().landmarks.Snapshot();
  m.Add("xml.parse_ms", Median(parse), "ms");
  m.Add("xml.resolve_ms", Median(resolve), "ms");
  m.Add("xml.collection_load_ms", Median(coll_load), "ms");
  m.Add("xml.collection_bytes", static_cast<double>(collection.MemoryBytes()), "bytes");
  m.Add("graph.build_ms", span_ms("graph.build"), "ms");
  m.Add("mdb.build_ms", span_ms("mdb.build"), "ms");
  m.Add("mdb.meta_documents", static_cast<double>(st.num_meta_documents), "count");
  m.Add("mdb.cross_links", static_cast<double>(st.num_cross_links), "count");
  m.Add("iss.select_ms", span_total_ms("iss.select"), "ms");
  m.Add("ib.build_ms", span_ms("ib.build"), "ms");
  m.Add("ib.index_bytes", static_cast<double>(st.total_index_bytes), "bytes");
  m.Add("ib.partitions_ppo", static_cast<double>(st.num_ppo), "count");
  m.Add("ib.partitions_hopi", static_cast<double>(st.num_hopi), "count");
  m.Add("landmarks.build_ms", span_ms("landmarks.build"), "ms");
  m.Add("landmarks.bytes",
        landmarks ? static_cast<double>(landmarks->MemoryBytes()) : 0, "bytes");
  m.Add("landmarks.pruned_per_point", lm_delta(names::kGuidedPrunedEntries) / points,
        "count");
  m.Add("landmarks.heuristic_hits_per_point",
        lm_delta(names::kGuidedHeuristicHits) / points, "count");
  m.Add("landmarks.blind_to_guided_pops", Ratio(blind_pops, guided_pops), "ratio");
  m.Add("storage.save_ms", span_ms("storage.save"), "ms");
  m.Add("storage.paged_open_ms", span_ms("storage.paged_open"), "ms");
  m.Add("storage.checksum_ms",
        span_ms("storage.paged_open") - span_ms("storage.paged_open_noverify"),
        "ms");
  m.Add("storage.landmark_verify_ms", span_ms("storage.landmark_verify"), "ms");
  m.Add("storage.index_file_bytes", index_file, "bytes");
  m.Add("storage.collection_file_bytes", collection_file, "bytes");
  m.Add("storage.disk_bytes_per_input_byte",
        (index_file + collection_file) / static_cast<double>(corpus_.bytes), "ratio");
  m.Add("flix.load_ms", Median(flix_load), "ms");
  m.Add("flix.build_ms", Median(build), "ms");
  m.Add("flix.client_scaling", scaling, "ratio");
  m.Add("cold.exec_ms", Median(exec), "ms");
  m.Add("cold.minor_faults", Ratio(minor, static_cast<double>(exec.size())), "count");
  m.Add("cold.major_faults", Ratio(major, static_cast<double>(exec.size())), "count");
  m.Add("cold.open_ms_p50", Median(open), "ms");
  m.Add("cold.open_ms_p90", Percentile(open, 0.9), "ms");
  m.Add("cold.first_result_ms_p50", Median(first), "ms");
  m.Add("cold.first_result_ms_p90", Percentile(first, 0.9), "ms");
  m.Add("cold.drain_ms_p50", Median(full), "ms");
  m.Add("cold.peak_rss_mb", Median(peak), "MB");
  m.Add("pee.entries_processed_per_query", processed, "count");
  m.Add("pee.entries_dominated_per_query", dominated, "count");
  m.Add("pee.useful_pop_ratio", Ratio(processed, processed + dominated), "ratio");
  m.Add("pee.links_followed_per_query", per_query(names::kQueryLinksFollowed), "count");
  m.Add("pee.index_probes_per_query", per_query(names::kQueryIndexProbes), "count");
  m.Add("pee.results_per_query", per_query(names::kQueryResultsEmitted), "count");
  m.Add("pee.point_pops_per_query", guided_pops / points, "count");
  m.Add("index.cursors_opened_per_query", per_query(names::kQueryCursorOpened), "count");
  m.Add("index.cursor_pulls_per_query", per_query(names::kQueryCursorPulled), "count");
  m.Add("index.cursor_saved_per_query", per_query(names::kQueryCursorSaved), "count");
  m.Add("index.pulls_ppo_per_query", per_query(names::kCursorPulledPpo), "count");
  m.Add("index.pulls_hopi_per_query", per_query(names::kCursorPulledHopi), "count");
  m.Add("index.ppo.pull_ns", 1e6 * Ratio(span_total_ms("index.ppo.pull"), ppo.pulls),
        "ns");
  m.Add("index.hopi.pull_ns",
        1e6 * Ratio(span_total_ms("index.hopi.pull"), hopi.pulls), "ns");
  m.Add("index.ppo.probe_ns",
        1e6 * Ratio(span_total_ms("index.ppo.probe"), ppo.probes), "ns");
  m.Add("index.hopi.probe_ns",
        1e6 * Ratio(span_total_ms("index.hopi.probe"), hopi.probes), "ns");
  m.Add("query_cache.hit_ratio", hit_ratio, "ratio");
  m.Add("workload.repeat_frac", repeat_frac, "ratio");
  m.Add("op.topk_ms_p50", op_p50(OpKind::kTopK), "ms");
  m.Add("op.point_ms_p50", op_p50(OpKind::kPoint), "ms");
  m.Add("op.drain_ms_p50", op_p50(OpKind::kDrain), "ms");
  m.Add("op.exact_ms_p50", op_p50(OpKind::kExact), "ms");
  // The p99 takes all four quarters: tracing adds too little to matter
  // (trace.overhead_frac) and the tail needs the samples.
  std::vector<Record> quarters = window;
  quarters.insert(quarters.end(), off.begin(), off.end());
  m.Add("op.latency_ms_p99",
        spec_.cold ? Percentile(full, 0.99)
                   : Percentile(Collect(quarters, {OpKind::kTopK, OpKind::kPoint,
                                                   OpKind::kDrain, OpKind::kExact},
                                        false),
                                0.99),
        "ms");
  m.Add("trace.overhead_frac", overhead, "ratio");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload cold-query|dblp-topk|dblp-drain --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR --child PATH "
                 "[--spans FILE]\n",
                 argv[0]);
    return 2;
  }
  const auto spec = perfbench::SpecFor(args.workload);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::SetTracing(args.trace);
  perfbench::Bench bench(args, *spec);
  return bench.Run();
}
