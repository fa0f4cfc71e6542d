// SNB benchmark driver: three closed-loop workloads over the SNB generator,
// timed from outside the engine through its public API only.
//
//   snb_serve   2 clients: 90% GetRows(edge_source = p), 10% SQ3 (lookup +
//               indexed join to vertices), p Zipf over persons; no budget.
//   snb_append  client A chains AppendRows of fixed-size EdgeSample batches
//               onto the latest version; client B runs GetRows on the latest
//               published version; no budget.
//   snb_spill   1 client repeats a fixed sequence under a budget of about a
//               third of the working set: indexed join against a 10k-row
//               probe, the vanilla shuffled join of that probe, SQ6 (full
//               scan aggregate) and SQ5 (filter-project).
//
// Every workload does a fixed amount of work (--work scales it), so two runs
// of one build do the same operations. Every result is checked against a
// reference computed from the generator's rows, independently of the
// engine; a mismatch counts as a failed operation.
//
// With --trace, spans are recorded around each call into a layer (request,
// server queue, body, server handoff, sql plan/execute/collect, core
// get_rows/append), kept in memory, written as Chrome trace_event JSON to
// --trace-out at exit, and folded into per-layer self times.
//
// Progress goes to stderr as "phase=<name>" lines so a supervisor that kills
// a hung run can name the phase it hung in. The last stdout line is one JSON
// report object.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/indexed_dataframe.h"
#include "ctrie/ctrie.h"
#include "mem/governor.h"
#include "obs/build_info.h"
#include "obs/metrics_registry.h"
#include "server/query_service.h"
#include "sql/physical.h"
#include "workload/snb.h"

using namespace idf;

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void Phase(const char* name) {
  std::fprintf(stderr, "phase=%s\n", name);
  std::fflush(stderr);
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "snb_bench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

// ---- arguments -------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double work = 1.0;     // multiplies every workload's fixed operation count
  double sf = 1.0;       // SNB scale factor (1 = 1M edges, 10k vertices)
  bool trace = false;
  std::string trace_out;
  std::string spill_dir;
  bool wrong_expectation = false;  // self-test: corrupt one expected result
  double warmup_s = 1.0;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + key);
      return argv[++i];
    };
    if (key == "--workload") {
      a.workload = next();
    } else if (key == "--seed") {
      a.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (key == "--work") {
      a.work = std::atof(next().c_str());
    } else if (key == "--sf") {
      a.sf = std::atof(next().c_str());
    } else if (key == "--trace-out") {
      a.trace = true;
      a.trace_out = next();
    } else if (key == "--spill-dir") {
      a.spill_dir = next();
    } else if (key == "--warmup") {
      a.warmup_s = std::atof(next().c_str());
    } else if (key == "--wrong-expectation") {
      a.wrong_expectation = true;
    } else {
      Die("unknown argument " + key);
    }
  }
  if (a.workload != "snb_serve" && a.workload != "snb_append" &&
      a.workload != "snb_spill") {
    Die("--workload must be snb_serve, snb_append or snb_spill");
  }
  if (a.work <= 0 || a.sf <= 0) Die("--work and --sf must be positive");
  if (a.workload == "snb_spill" && a.spill_dir.empty()) {
    Die("snb_spill needs --spill-dir");
  }
  return a;
}

// ---- result digests ----------------------------------------------------------
//
// A digest is an order-insensitive fingerprint of a multiset of rows: the row
// count plus two wrapping sums of a per-row hash that folds every column's
// exact value (doubles by bit pattern). Engine results and generator-side
// references are hashed by the same functions, so equal digests mean equal
// row multisets up to a 2^-64 collision chance.

struct Digest {
  uint64_t rows = 0;
  uint64_t sum1 = 0;
  uint64_t sum2 = 0;
  void AddRowHash(uint64_t h) {
    ++rows;
    sum1 += h;
    sum2 += Mix64(h ^ 0x5bd1e9955bd1e995ULL);
  }
  void Add(const Digest& o) {
    rows += o.rows;
    sum1 += o.sum1;
    sum2 += o.sum2;
  }
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum1 == o.sum1 && sum2 == o.sum2;
  }
};

constexpr uint64_t kRowSeed = 0x243f6a8885a308d3ULL;

uint64_t ValueHash(const Value& v) {
  if (v.is_null()) return 0x9e3779b97f4a7c15ULL;
  switch (v.type()) {
    case TypeId::kInt64:
      return HashInt64(v.int64_value());
    case TypeId::kInt32:
      return HashInt64(v.int32_value());
    case TypeId::kFloat64:
      return HashDouble(v.float64_value());
    case TypeId::kString:
      return HashString(v.string_value());
    case TypeId::kBool:
      return HashInt64(v.bool_value() ? 1 : 0);
  }
  return 0;
}

Digest RowsDigest(const std::vector<RowVec>& rows) {
  Digest d;
  for (const RowVec& row : rows) {
    uint64_t h = kRowSeed;
    for (const Value& v : row) h = HashCombine(h, ValueHash(v));
    d.AddRowHash(h);
  }
  return d;
}

uint64_t FoldHashes(std::initializer_list<uint64_t> column_hashes) {
  uint64_t h = kRowSeed;
  for (uint64_t c : column_hashes) h = HashCombine(h, c);
  return h;
}

// ---- host facts --------------------------------------------------------------

/// User + system CPU seconds this process has used so far.
double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Charges the calling thread's CPU time over its lifetime to `acc`, so the
/// benchmark's own result checks can be left out of the engine's CPU cost.
class CheckCpu {
 public:
  explicit CheckCpu(int64_t& acc) : acc_(acc), start_(ThreadCpuNs()) {}
  ~CheckCpu() { acc_ += ThreadCpuNs() - start_; }
  CheckCpu(const CheckCpu&) = delete;
  CheckCpu& operator=(const CheckCpu&) = delete;

 private:
  static int64_t ThreadCpuNs() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  }
  int64_t& acc_;
  int64_t start_;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// (steal jiffies, total jiffies) from the aggregate cpu line of /proc/stat.
std::pair<uint64_t, uint64_t> CpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t total = 0, steal = 0, v = 0;
  for (int field = 0; field < 10 && (in >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

std::string FsType(const std::string& path) {
  struct statfs s {};
  if (path.empty() || statfs(path.c_str(), &s) != 0) return "n/a";
  switch (static_cast<uint64_t>(s.f_type)) {
    case 0x01021994:
      return "tmpfs";
    case 0xEF53:
      return "ext4";
    case 0x9123683E:
      return "btrfs";
    case 0x58465342:
      return "xfs";
    case 0x794C7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(s.f_type));
      return buf;
    }
  }
}

uint64_t DirBytes(const std::string& path) {
  std::error_code ec;
  uint64_t total = 0;
  if (path.empty() || !std::filesystem::exists(path, ec)) return 0;
  for (auto it = std::filesystem::recursive_directory_iterator(path, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// Spins every core for `seconds` so set-up is not timed on a cold CPU.
void WarmUp(double seconds) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<bool> stop{false};
  std::vector<std::thread> spinners;
  std::atomic<uint64_t> sink{0};
  for (unsigned i = 0; i < n; ++i) {
    spinners.emplace_back([&stop, &sink, i] {
      uint64_t x = i + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 4096; ++k) x = Mix64(x);
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : spinners) t.join();
}

// ---- statistics --------------------------------------------------------------

/// Linear-interpolated quantile (the same rule as numpy's default).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The p99 only when at least ten samples lie beyond it, else 0.
double TailP99(const std::vector<double>& v) {
  return v.size() >= 1000 ? Quantile(v, 0.99) : 0.0;
}

// ---- tracing -----------------------------------------------------------------

enum SpanKind : uint8_t {
  kRequest,
  kServerQueue,
  kBody,
  kServerHandoff,
  kSqlPlan,
  kSqlExecute,
  kSqlCollect,
  kCoreGetRows,
  kCoreAppend,
  kNumSpanKinds,
};

const char* const kSpanNames[kNumSpanKinds] = {
    "request",     "server.queue", "body",          "server.handoff",
    "sql.plan",    "sql.execute",  "sql.collect",   "core.get_rows",
    "core.append",
};

struct SpanRec {
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanKind kind = kRequest;
  // Governor deltas over a body span (bytes spilled / reloaded meanwhile).
  uint64_t spill_bytes = 0;
  uint64_t reload_bytes = 0;
  uint32_t client = 0;
};

/// Spans a work lambda records on a query-driver thread. The client reads
/// them after QueryHandle::Wait returns, which orders the accesses.
struct BodySpans {
  int64_t body_start = 0;
  int64_t body_end = 0;
  uint64_t spill_bytes = 0;
  uint64_t reload_bytes = 0;
  std::vector<SpanRec> inner;

  void Reset() {
    body_start = body_end = 0;
    spill_bytes = reload_bytes = 0;
    inner.clear();
  }
  void Add(SpanKind kind, int64_t start, int64_t end) {
    SpanRec s;
    s.kind = kind;
    s.start_ns = start;
    s.end_ns = end;
    inner.push_back(s);
  }
};

obs::Counter& SpillCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("mem.spill.write_bytes");
  return c;
}
obs::Counter& ReloadCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("mem.reload.read_bytes");
  return c;
}

// ---- per-operation records ---------------------------------------------------

enum OpKind : uint8_t {
  kLookup,       // GetRows
  kJoin,         // indexed join (SQ3 in serve, Table III S in spill)
  kAppend,       // AppendRows
  kVanillaJoin,  // shuffled hash join of the same probe, no index
  kScan,         // SQ6 / SQ5
  kNumOpKinds,
};

/// What one client observed; merged after the measured phase.
struct ClientLog {
  std::vector<double> latency_ms[kNumOpKinds];
  std::vector<double> queue_ms, handoff_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t check_cpu_ns = 0;  // client CPU spent verifying results
  QueryMetrics lookup_metrics;  // summed TaskMetrics of GetRows calls
  QueryMetrics sql_metrics;     // summed over SQL queries
  QueryMetrics append_metrics;  // summed over AppendRows calls
  std::vector<SpanRec> spans;
  std::vector<std::string> errors;

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
};

void MergeMetrics(QueryMetrics& into, const QueryMetrics& m) {
  into.totals.MergeFrom(m.totals);
  into.num_stages += m.num_stages;
}

// ---- data set and reference --------------------------------------------------

struct Tables {
  std::unique_ptr<Session> session;
  DataFrame edges, vertices;
  IndexedDataFrame iedges, ivertices;
  double create_index_s = 0;
  uint64_t budget = 0;
};

SessionOptions Topology(const Args& args, uint64_t budget_bytes) {
  SessionOptions options;
  options.cluster.num_workers = 2;
  options.cluster.executors_per_worker = 2;
  options.cluster.cores_per_executor = 2;
  options.default_partitions = 8;
  options.cluster.memory_budget_bytes = budget_bytes;
  if (budget_bytes > 0) options.cluster.spill_dir = args.spill_dir;
  // The vanilla baseline is the paper's shuffled join; indexed joins are
  // planned by the index strategies regardless of this mode.
  if (args.workload == "snb_spill") {
    options.join_mode = JoinExec::Mode::kShuffledHash;
  }
  return options;
}

/// Data generation, table creation and both index builds: what setup_s times.
Tables Setup(const SnbConfig& snb, const SessionOptions& options) {
  Tables t;
  t.session = std::make_unique<Session>(options);
  t.budget = options.cluster.memory_budget_bytes;
  SnbGenerator generator(snb);
  t.edges = Must(generator.Edges(*t.session), "edges");
  t.vertices = Must(generator.Vertices(*t.session), "vertices");
  const auto t0 = Clock::now();
  t.iedges = Must(IndexedDataFrame::Create(t.edges, "edge_source"),
                  "index edges");
  t.ivertices = Must(IndexedDataFrame::Create(t.vertices, "id"),
                     "index vertices");
  t.create_index_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return t;
}

/// Everything the checks need, computed from the generator's rows.
struct Reference {
  std::vector<Digest> lookup;  // per person: GetRows(edge_source = p)
  std::vector<Digest> sq3;     // per person: SQ3 rows
  // Per person: out-degree and sums of edge_dest / creation_date (join
  // aggregates are sums over matching pairs).
  std::vector<int64_t> degree, dest_sum, date_sum;
  uint64_t num_edges = 0;
  double weight_sum = 0;
  uint64_t sq5_rows = 0;
};

constexpr int64_t kSq5DateCut = 1590000000;  // SnbShortQuery(5)'s predicate

Reference BuildReference(const SnbConfig& snb) {
  SnbGenerator generator(snb);
  const uint64_t nv = snb.num_vertices;
  std::vector<uint64_t> name_hash(nv), city_hash(nv);
  for (uint64_t v = 0; v < nv; ++v) {
    const RowVec row = generator.VertexRow(v);
    name_hash[v] = ValueHash(row[1]);
    city_hash[v] = ValueHash(row[2]);
  }
  Reference ref;
  ref.lookup.resize(nv);
  ref.sq3.resize(nv);
  ref.degree.assign(nv, 0);
  ref.dest_sum.assign(nv, 0);
  ref.date_sum.assign(nv, 0);
  ref.num_edges = snb.num_edges;
  for (uint64_t i = 0; i < snb.num_edges; ++i) {
    const RowVec row = generator.EdgeRow(i);
    const int64_t src = row[0].int64_value();
    const int64_t dst = row[1].int64_value();
    const int64_t date = row[2].int64_value();
    const double weight = row[3].float64_value();
    ref.lookup[src].AddRowHash(FoldHashes({ValueHash(row[0]),
                                           ValueHash(row[1]),
                                           ValueHash(row[2]),
                                           ValueHash(row[3])}));
    ref.sq3[src].AddRowHash(
        FoldHashes({ValueHash(row[1]), name_hash[dst], city_hash[dst]}));
    ++ref.degree[src];
    ref.dest_sum[src] += dst;
    ref.date_sum[src] += date;
    ref.weight_sum += weight;
    if (date > kSq5DateCut) ++ref.sq5_rows;
  }
  return ref;
}

/// Zipf-distributed person ids (rank r -> person r: the generator gives the
/// lowest ranks the highest out-degrees, so popular persons are requested
/// most, as on a social network).
std::vector<int64_t> PersonStream(uint64_t seed, uint64_t n, uint64_t persons) {
  Rng rng(seed);
  ZipfSampler zipf(persons, 0.8);
  std::vector<int64_t> out(n);
  for (uint64_t i = 0; i < n; ++i) out[i] = static_cast<int64_t>(zipf.Sample(rng));
  return out;
}

// ---- running one request through the service ---------------------------------

struct Runner {
  server::QueryService* service = nullptr;
  bool trace = false;
  uint64_t next_request = 1;  // per client; ids are client<<40 | n

  /// Submits `body`, waits, and records latency, server spans and the
  /// request span. Returns the final status; `result` receives the table.
  Status Run(ClientLog& log, uint32_t client, OpKind kind, BodySpans& spans,
             const std::function<Status(server::QueryContext&)>& body,
             CollectedTable* result) {
    spans.Reset();
    server::QueryWork work = [this, &spans, &body](
                                 server::QueryContext& ctx) -> Status {
      if (!trace) return body(ctx);
      const uint64_t spill0 = SpillCounter().value();
      const uint64_t reload0 = ReloadCounter().value();
      spans.body_start = NowNs();
      Status s = body(ctx);
      spans.body_end = NowNs();
      spans.spill_bytes = SpillCounter().value() - spill0;
      spans.reload_bytes = ReloadCounter().value() - reload0;
      return s;
    };
    ++log.attempted;
    const int64_t t0 = NowNs();
    server::QueryHandle handle = service->Submit(std::move(work), {});
    const Status status = handle.Wait();
    const int64_t t1 = NowNs();
    if (!status.ok()) {
      log.Fail(std::string("query failed: ") + status.ToString());
      return status;
    }
    log.latency_ms[kind].push_back(static_cast<double>(t1 - t0) / 1e6);
    if (result != nullptr) {
      Result<CollectedTable> r = handle.TakeResult();
      if (r.ok()) *result = std::move(r).value();
    }
    if (trace) {
      const uint64_t id = (static_cast<uint64_t>(client) << 40) | next_request++;
      auto push = [&](SpanKind k, int64_t s, int64_t e) {
        SpanRec rec;
        rec.request = id;
        rec.kind = k;
        rec.start_ns = s;
        rec.end_ns = e;
        rec.client = client;
        log.spans.push_back(rec);
        return log.spans.size() - 1;
      };
      push(kRequest, t0, t1);
      push(kServerQueue, t0, spans.body_start);
      const size_t body_index = push(kBody, spans.body_start, spans.body_end);
      log.spans[body_index].spill_bytes = spans.spill_bytes;
      log.spans[body_index].reload_bytes = spans.reload_bytes;
      push(kServerHandoff, spans.body_end, t1);
      for (const SpanRec& s : spans.inner) push(s.kind, s.start_ns, s.end_ns);
      log.queue_ms.push_back(
          static_cast<double>(spans.body_start - t0) / 1e6);
      log.handoff_ms.push_back(
          static_cast<double>(t1 - spans.body_end) / 1e6);
    }
    return status;
  }
};

/// GetRows with an optional core.get_rows span.
Status TracedGetRows(const IndexedDataFrame& idf, int64_t key, bool trace,
                     BodySpans& spans, QueryMetrics& metrics,
                     CollectedTable& out) {
  const int64_t s = trace ? NowNs() : 0;
  Result<CollectedTable> r = idf.GetRows(Value::Int64(key), &metrics);
  if (trace) spans.Add(kCoreGetRows, s, NowNs());
  if (!r.ok()) return r.status();
  out = std::move(r).value();
  return Status::OK();
}

/// DataFrame::Collect, split into plan / execute / collect spans when
/// tracing (the same three steps Collect performs).
Status TracedCollect(Session& session, const DataFrame& df, bool trace,
                     BodySpans& spans, QueryMetrics& metrics,
                     CollectedTable& out) {
  if (!trace) {
    IDF_ASSIGN_OR_RETURN(out, df.Collect(&metrics));
    return Status::OK();
  }
  int64_t s = NowNs();
  Result<PhysOpPtr> op = session.planner().Plan(df.plan());
  spans.Add(kSqlPlan, s, NowNs());
  if (!op.ok()) return op.status();
  s = NowNs();
  Result<TableHandle> handle = [&]() -> Result<TableHandle> {
    try {
      return (*op)->Execute(session, metrics);
    } catch (const mem::ReloadFault& fault) {
      return fault.status();
    }
  }();
  spans.Add(kSqlExecute, s, NowNs());
  if (!handle.ok()) return handle.status();
  s = NowNs();
  Result<CollectedTable> rows = session.Collect(*handle);
  spans.Add(kSqlCollect, s, NowNs());
  if (!rows.ok()) return rows.status();
  out = std::move(rows).value();
  return Status::OK();
}

/// The measured phase's bounds: every workload prepares its inputs, calls
/// Begin() as its clients start and End() when they have all finished, so
/// input preparation and final verification stay out of the numbers.
class MeasureWindow {
 public:
  explicit MeasureWindow(Session& session) : session_(session) {}

  void Begin() {
    Phase("measure");
    delta_.emplace();
    before_ = obs::Registry::Global().Snapshot();
    blocks_before_ = session_.cluster().blocks().NumBlocks();
    jiffies_before_ = CpuJiffies();
    cpu_before_ = CpuSeconds();
    start_ = Clock::now();
  }

  void End() {
    wall_s_ = std::chrono::duration<double>(Clock::now() - start_).count();
    cpu_s_ = CpuSeconds() - cpu_before_;
    jiffies_after_ = CpuJiffies();
    blocks_after_ = session_.cluster().blocks().NumBlocks();
    deltas_ = delta_->Deltas();
    after_ = obs::Registry::Global().Snapshot();
  }

  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_; }
  Clock::time_point start() const { return start_; }
  double Counter(const char* name) const {
    return static_cast<double>(delta_->Counter(name));
  }
  double HistogramSum(const std::string& name) const {
    for (const obs::MetricSnapshot& m : deltas_) {
      if (m.name == name) return m.sum;
    }
    return 0;
  }
  /// Change of a gauge (a level, not a total) over the window.
  double GaugeChange(const std::string& name) const {
    return GaugeIn(after_, name) - GaugeIn(before_, name);
  }
  double BlocksAdded() const {
    return static_cast<double>(blocks_after_) -
           static_cast<double>(blocks_before_);
  }
  double StealShare() const {
    const uint64_t total = jiffies_after_.second - jiffies_before_.second;
    return total == 0 ? 0
                      : static_cast<double>(jiffies_after_.first -
                                            jiffies_before_.first) /
                            static_cast<double>(total);
  }

 private:
  static double GaugeIn(const std::vector<obs::MetricSnapshot>& snap,
                        const std::string& name) {
    for (const obs::MetricSnapshot& m : snap) {
      if (m.name == name) return m.gauge_value;
    }
    return 0;
  }

  Session& session_;
  std::optional<obs::RegistryDelta> delta_;
  std::vector<obs::MetricSnapshot> before_, after_, deltas_;
  size_t blocks_before_ = 0, blocks_after_ = 0;
  std::pair<uint64_t, uint64_t> jiffies_before_, jiffies_after_;
  double cpu_before_ = 0, cpu_s_ = 0, wall_s_ = 0;
  Clock::time_point start_;
};

// ---- workloads ---------------------------------------------------------------

// Fixed operation counts per unit of --work, sized so one unit takes about
// one second of measured time on a 4-core host at SF 1. The append reader
// does a fixed number of lookups per append so both clients finish at about
// the same time.
constexpr uint64_t kServeRequestsPerWork = 5000;
constexpr uint64_t kAppendsPerWork = 60;
constexpr uint64_t kReadsPerAppend = 15;
constexpr uint64_t kAppendBatchRows = 5000;
constexpr double kSpillRoundsPerWork = 2.0;
constexpr uint64_t kProbeRows = 10000;

struct Measured {
  std::vector<ClientLog> logs;
  double writer_s = 0;  // snb_append: the append chain's own wall time
  uint64_t appends = 0;
  uint64_t appended_rows = 0;
};

/// Two query drivers; under a budget each query declares a quarter of it
/// (the default 16 MB could exceed a small budget outright).
server::QueryServiceConfig ServiceConfig(uint64_t budget_bytes) {
  server::QueryServiceConfig config;
  config.workers = 2;
  if (budget_bytes > 0) {
    config.default_reservation_bytes =
        std::min(config.default_reservation_bytes, budget_bytes / 4);
  }
  return config;
}

Measured RunServe(const Args& args, Tables& t, const Reference& ref,
                  MeasureWindow& window) {
  const uint64_t total = std::max<uint64_t>(
      2, static_cast<uint64_t>(args.work * kServeRequestsPerWork));
  const uint32_t clients = 2;
  const DataFrame ie = t.iedges.AsDataFrame();
  const DataFrame iv = t.ivertices.AsDataFrame();
  server::QueryService service(*t.session, ServiceConfig(t.budget));
  Measured m;
  m.logs.resize(clients);
  auto client = [&](uint32_t c) {
    ClientLog& log = m.logs[c];
    const uint64_t n = total / clients;
    const std::vector<int64_t> persons =
        PersonStream(HashCombine(args.seed, 100 + c), n, ref.lookup.size());
    Rng mix(HashCombine(args.seed, 200 + c));
    Runner runner{&service, args.trace};
    BodySpans spans;
    for (uint64_t i = 0; i < n; ++i) {
      const int64_t p = persons[i];
      const bool lookup = mix.Below(100) < 90;
      CollectedTable result;
      Status status;
      if (lookup) {
        QueryMetrics metrics;
        status = runner.Run(
            log, c, kLookup, spans,
            [&](server::QueryContext& ctx) {
              return TracedGetRows(t.iedges, p, args.trace, spans, metrics,
                                   ctx.result);
            },
            &result);
        MergeMetrics(log.lookup_metrics, metrics);
      } else {
        QueryMetrics metrics;
        const DataFrame q = SnbShortQuery(3, ie, iv, p);
        status = runner.Run(
            log, c, kJoin, spans,
            [&](server::QueryContext& ctx) {
              return TracedCollect(*t.session, q, args.trace, spans, metrics,
                                   ctx.result);
            },
            &result);
        MergeMetrics(log.sql_metrics, metrics);
      }
      if (!status.ok()) continue;
      const CheckCpu check(log.check_cpu_ns);
      Digest expect = lookup ? ref.lookup[p] : ref.sq3[p];
      if (args.wrong_expectation && c == 0 && i == 0) expect.rows += 1;
      if (!(RowsDigest(result.rows) == expect)) {
        log.Fail((lookup ? "lookup" : "sq3") + std::string(" mismatch for ") +
                 std::to_string(p));
      }
    }
  };
  window.Begin();
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& th : threads) th.join();
  window.End();
  service.Shutdown(/*cancel_pending=*/false);
  return m;
}

Measured RunAppend(const Args& args, Tables& t, const Reference& ref,
                   MeasureWindow& window) {
  const uint64_t appends = std::max<uint64_t>(
      1, static_cast<uint64_t>(args.work * kAppendsPerWork));
  const uint64_t reads = appends * kReadsPerAppend;
  const uint64_t batch_rows = std::max<uint64_t>(
      8, static_cast<uint64_t>(kAppendBatchRows *
                               std::min(1.0, args.sf)));
  SnbGenerator generator(SnbConfig::ScaleFactor(args.sf, 8, args.seed));

  // Inputs: the batches as cached tables, and each batch's per-person digest
  // (read back once from the engine's copy of the generated sample).
  Phase("inputs");
  std::vector<DataFrame> batches;
  std::vector<std::unordered_map<int64_t, Digest>> batch_digest(appends);
  for (uint64_t j = 0; j < appends; ++j) {
    batches.push_back(Must(generator.EdgeSample(*t.session, batch_rows,
                                                HashCombine(args.seed, 7000 + j)),
                           "append batch"));
    const CollectedTable rows = Must(batches.back().Collect(), "batch rows");
    for (const RowVec& row : rows.rows) {
      batch_digest[j][row[0].int64_value()].Add(RowsDigest({row}));
    }
  }
  auto expected_at = [&](int64_t p, uint64_t version_index) {
    Digest d = ref.lookup[p];
    for (uint64_t j = 0; j < version_index; ++j) {
      auto it = batch_digest[j].find(p);
      if (it != batch_digest[j].end()) d.Add(it->second);
    }
    return d;
  };

  server::QueryService service(*t.session, ServiceConfig(t.budget));
  // The reader may not run ahead of the writer: read i waits for version
  // i / kReadsPerAppend, so every run reads the same chain lengths.
  std::mutex latest_mu;
  std::condition_variable published;
  IndexedDataFrame latest = t.iedges;  // guarded by latest_mu
  uint64_t latest_index = 0;           // appends applied to `latest`
  bool writer_done = false;            // guarded by latest_mu
  Measured m;
  m.logs.resize(2);

  auto writer = [&]() {
    ClientLog& log = m.logs[0];
    Runner runner{&service, args.trace};
    BodySpans spans;
    IndexedDataFrame base = t.iedges;
    for (uint64_t j = 0; j < appends; ++j) {
      QueryMetrics metrics;
      IndexedDataFrame next;
      const Status status = runner.Run(
          log, 0, kAppend, spans,
          [&](server::QueryContext&) -> Status {
            const int64_t s = args.trace ? NowNs() : 0;
            Result<IndexedDataFrame> r = base.AppendRows(batches[j], &metrics);
            if (args.trace) spans.Add(kCoreAppend, s, NowNs());
            if (!r.ok()) return r.status();
            next = std::move(r).value();
            return Status::OK();
          },
          nullptr);
      MergeMetrics(log.append_metrics, metrics);
      if (!status.ok()) break;  // later versions would chain on a gap
      base = next;
      ++m.appends;
      m.appended_rows += batch_rows;
      {
        std::lock_guard<std::mutex> lock(latest_mu);
        latest = next;
        latest_index = j + 1;
      }
      published.notify_all();
    }
    m.writer_s =
        std::chrono::duration<double>(Clock::now() - window.start()).count();
    {
      std::lock_guard<std::mutex> lock(latest_mu);
      writer_done = true;
    }
    published.notify_all();
  };
  auto reader = [&]() {
    ClientLog& log = m.logs[1];
    const std::vector<int64_t> persons =
        PersonStream(HashCombine(args.seed, 300), reads, ref.lookup.size());
    Runner runner{&service, args.trace};
    BodySpans spans;
    for (uint64_t i = 0; i < reads; ++i) {
      const int64_t p = persons[i];
      IndexedDataFrame version;
      uint64_t version_index = 0;
      {
        std::unique_lock<std::mutex> lock(latest_mu);
        published.wait(lock, [&] {
          return writer_done || latest_index >= i / kReadsPerAppend;
        });
        version = latest;
        version_index = latest_index;
      }
      QueryMetrics metrics;
      CollectedTable result;
      const Status status = runner.Run(
          log, 1, kLookup, spans,
          [&](server::QueryContext& ctx) {
            return TracedGetRows(version, p, args.trace, spans, metrics,
                                 ctx.result);
          },
          &result);
      MergeMetrics(log.lookup_metrics, metrics);
      if (!status.ok()) continue;
      const CheckCpu check(log.check_cpu_ns);
      Digest expect = expected_at(p, version_index);
      if (args.wrong_expectation && i == 0) expect.rows += 1;
      if (!(RowsDigest(result.rows) == expect)) {
        log.Fail("lookup mismatch for " + std::to_string(p) + " at version " +
                 std::to_string(version_index));
      }
    }
  };

  window.Begin();
  std::thread w(writer), r(reader);
  w.join();
  r.join();
  window.End();
  service.Shutdown(/*cancel_pending=*/false);

  // Final-version checks: the row count, and a fixed sample of persons.
  Phase("verify");
  ClientLog& log = m.logs[0];
  ++log.attempted;
  const uint64_t want_rows = ref.num_edges + m.appended_rows;
  if (latest.num_rows() != want_rows || m.appends != appends) {
    log.Fail("final num_rows " + std::to_string(latest.num_rows()) +
             " != " + std::to_string(want_rows));
  }
  const uint64_t persons = ref.lookup.size();
  for (uint64_t k = 0; k < 64; ++k) {
    const int64_t p = static_cast<int64_t>((k * 7919) % persons);
    ++log.attempted;
    Result<CollectedTable> rows = latest.GetRows(Value::Int64(p));
    if (!rows.ok() || !(RowsDigest(rows->rows) == expected_at(p, appends))) {
      log.Fail("final-version mismatch for " + std::to_string(p));
    }
  }
  return m;
}

Measured RunSpill(const Args& args, Tables& t, const Reference& ref,
                  MeasureWindow& window) {
  const uint64_t rounds = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(args.work * kSpillRoundsPerWork)));
  const uint64_t persons = ref.lookup.size();
  const uint64_t probe_rows = std::min<uint64_t>(kProbeRows, persons);

  // Table III "S": a uniform sample of persons as the probe. Its columns
  // carry their own names so join aggregates can address both sides.
  Phase("inputs");
  Rng rng(HashCombine(args.seed, 400));
  std::vector<RowVec> probe;
  std::vector<int64_t> probe_count(persons, 0), probe_dest(persons, 0),
      probe_date(persons, 0);
  for (uint64_t i = 0; i < probe_rows; ++i) {
    const int64_t src = static_cast<int64_t>(rng.Below(persons));
    const int64_t dst = static_cast<int64_t>(rng.Below(persons));
    const int64_t date = 1577836800 + static_cast<int64_t>(rng.Below(86400));
    probe.push_back({Value::Int64(src), Value::Int64(dst), Value::Int64(date)});
    ++probe_count[src];
    probe_dest[src] += dst;
    probe_date[src] += date;
  }
  const SchemaPtr probe_schema = std::make_shared<Schema>(Schema({
      {"p_source", TypeId::kInt64, false},
      {"p_dest", TypeId::kInt64, false},
      {"p_date", TypeId::kInt64, false},
  }));
  const DataFrame probe_df =
      Must(t.session->CreateTable("probe_s", probe_schema, probe), "probe");

  // Expected join aggregate: sums over matching (edge, probe) pairs.
  RowVec join_expect(6, Value::Int64(0));
  {
    int64_t n = 0, src = 0, edst = 0, edate = 0, pdst = 0, pdate = 0;
    for (uint64_t p = 0; p < persons; ++p) {
      const int64_t e = ref.degree[p], r = probe_count[p];
      n += e * r;
      src += static_cast<int64_t>(p) * e * r;
      edst += ref.dest_sum[p] * r;
      edate += ref.date_sum[p] * r;
      pdst += probe_dest[p] * e;
      pdate += probe_date[p] * e;
    }
    join_expect = {Value::Int64(n),    Value::Int64(src),  Value::Int64(edst),
                   Value::Int64(edate), Value::Int64(pdst), Value::Int64(pdate)};
  }
  const std::vector<AggSpec> join_aggs = {
      AggSpec::Count("pairs"),         AggSpec::Sum("edge_source"),
      AggSpec::Sum("edge_dest"),       AggSpec::Sum("creation_date"),
      AggSpec::Sum("p_dest"),          AggSpec::Sum("p_date")};
  const DataFrame indexed_join =
      t.iedges.Join(probe_df, "p_source").Agg({}, join_aggs);
  const DataFrame vanilla_join =
      t.edges.Join(probe_df, "edge_source", "p_source").Agg({}, join_aggs);
  // The scans read the indexed copy, as Fig. 13's SQ5/SQ6 do.
  const DataFrame ie = t.iedges.AsDataFrame();
  const DataFrame sq6 = SnbShortQuery(6, ie, t.ivertices.AsDataFrame(), 0);
  const DataFrame sq5 = SnbShortQuery(5, ie, t.ivertices.AsDataFrame(), 0);

  server::QueryService service(*t.session, ServiceConfig(t.budget));
  Measured m;
  m.logs.resize(1);
  ClientLog& log = m.logs[0];
  Runner runner{&service, args.trace};
  BodySpans spans;

  auto check_row = [&](const CollectedTable& got, const RowVec& want,
                       const char* what) {
    if (got.rows.size() != 1 || got.rows[0] != want) {
      log.Fail(std::string(what) + " result mismatch");
    }
  };
  auto run_sql = [&](OpKind kind, const DataFrame& df) {
    QueryMetrics metrics;
    CollectedTable result;
    const Status status = runner.Run(
        log, 0, kind, spans,
        [&](server::QueryContext& ctx) {
          return TracedCollect(*t.session, df, args.trace, spans, metrics,
                               ctx.result);
        },
        &result);
    MergeMetrics(log.sql_metrics, metrics);
    return status.ok() ? std::optional<CollectedTable>(std::move(result))
                       : std::nullopt;
  };

  window.Begin();
  for (uint64_t round = 0; round < rounds; ++round) {
    RowVec want = join_expect;
    if (args.wrong_expectation && round == 0) want[0] = Value::Int64(-1);
    if (auto r = run_sql(kJoin, indexed_join)) check_row(*r, want, "indexed join");
    if (auto r = run_sql(kVanillaJoin, vanilla_join)) {
      check_row(*r, join_expect, "vanilla join");
    }
    if (auto r = run_sql(kScan, sq6)) {
      // COUNT is exact; AVG(weight) sums in a different order than the
      // reference, so it is compared to a relative 1e-9.
      const double want_avg =
          ref.weight_sum / static_cast<double>(ref.num_edges);
      if (r->rows.size() != 1 ||
          r->rows[0][0].int64_value() != static_cast<int64_t>(ref.num_edges) ||
          std::fabs(r->rows[0][1].float64_value() - want_avg) >
              1e-9 * std::fabs(want_avg)) {
        log.Fail("sq6 result mismatch");
      }
    }
    // SQ5 materializes its filter-project output; the check is its row
    // count, taken from the executed table.
    QueryMetrics metrics;
    uint64_t sq5_rows = 0;
    const Status status = runner.Run(
        log, 0, kScan, spans,
        [&](server::QueryContext&) -> Status {
          const int64_t s = args.trace ? NowNs() : 0;
          Result<uint64_t> n = sq5.Count(&metrics);
          if (args.trace) spans.Add(kSqlExecute, s, NowNs());
          if (!n.ok()) return n.status();
          sq5_rows = *n;
          return Status::OK();
        },
        nullptr);
    MergeMetrics(log.sql_metrics, metrics);
    if (status.ok() && sq5_rows != ref.sq5_rows) {
      log.Fail("sq5 row count " + std::to_string(sq5_rows) + " != " +
               std::to_string(ref.sq5_rows));
    }
  }
  window.End();
  service.Shutdown(/*cancel_pending=*/false);
  return m;
}

// ---- cTrie micro-measurement (traced run only) -------------------------------

struct CtrieNumbers {
  double ns_1t = 0;
  double mops_4t = 0;
};

CtrieNumbers MeasureCtrie(const Args& args, uint64_t persons) {
  CTrie<int64_t, uint64_t> trie;
  for (uint64_t p = 0; p < persons; ++p) trie.Put(static_cast<int64_t>(p), p);
  const uint64_t n = std::max<uint64_t>(
      1000, static_cast<uint64_t>(args.work * 200000));
  const std::vector<int64_t> keys =
      PersonStream(HashCombine(args.seed, 500), n, persons);
  auto loop = [&trie, &keys]() {
    uint64_t found = 0;
    for (int64_t k : keys) found += trie.Lookup(k).has_value() ? 1 : 0;
    return found;
  };
  CtrieNumbers out;
  auto t0 = Clock::now();
  uint64_t found = loop();
  out.ns_1t = std::chrono::duration<double, std::nano>(Clock::now() - t0)
                  .count() /
              static_cast<double>(n);
  const unsigned threads = 4;
  std::atomic<uint64_t> total{0};
  t0 = Clock::now();
  std::vector<std::thread> workers;
  for (unsigned i = 0; i < threads; ++i) {
    workers.emplace_back([&] { total.fetch_add(loop()); });
  }
  for (std::thread& th : workers) th.join();
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.mops_4t = static_cast<double>(threads * n) / s / 1e6;
  if (found != n || total.load() != threads * n) Die("ctrie lookups missed");
  return out;
}

// ---- report ------------------------------------------------------------------

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + obs::JsonEscape(v) + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    out_ += out_.empty() ? "{\"" : ", \"";
    out_ += obs::JsonEscape(key);
    out_ += "\": ";
    out_ += json;
  }
  std::string Done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

void WriteTrace(const std::string& path, const std::vector<SpanRec>& spans,
                int64_t epoch_ns) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "snb_bench: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"traceEvents\": [";
  // Parent of each span: the request for server spans and the body, the
  // body for the spans recorded inside it.
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    const char* parent = s.kind == kRequest ? ""
                         : (s.kind == kServerQueue || s.kind == kBody ||
                            s.kind == kServerHandoff)
                             ? "request"
                             : "body";
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %llu, "
        "\"parent\": \"%s\", \"spill_bytes\": %llu, \"reload_bytes\": %llu}}",
        i == 0 ? "" : ",", kSpanNames[s.kind], s.client,
        static_cast<double>(s.start_ns - epoch_ns) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3,
        static_cast<unsigned long long>(s.request), parent,
        static_cast<unsigned long long>(s.spill_bytes),
        static_cast<unsigned long long>(s.reload_bytes));
    out << buf;
  }
  out << "\n]}\n";
}

/// Per-kind self time summed over all requests: a span's duration minus
/// the part of it its children cover. The server spans tile their request
/// (so a request has no self time of its own), and the call spans nest,
/// disjoint, in the body.
std::vector<double> SelfTimesMs(const std::vector<SpanRec>& spans) {
  std::vector<double> self(kNumSpanKinds, 0);
  for (const SpanRec& s : spans) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (s.kind == kRequest) continue;
    self[s.kind] += ms;
    if (s.kind != kServerQueue && s.kind != kBody && s.kind != kServerHandoff) {
      self[kBody] -= ms;
    }
  }
  return self;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const SnbConfig snb = SnbConfig::ScaleFactor(args.sf, 8, args.seed);
  // snb_spill's budget: about a third of the working set (edges, vertices
  // and their indexed copies come to ~190 MB at SF 1).
  const uint64_t budget =
      args.workload == "snb_spill"
          ? static_cast<uint64_t>(64.0 * args.sf * (1 << 20))
          : 0;
  if (budget > 0) std::filesystem::create_directories(args.spill_dir);

  Phase("warmup");
  WarmUp(args.warmup_s);

  Phase("setup");
  const auto setup_start = Clock::now();
  const double setup_cpu0 = CpuSeconds();
  Tables tables = Setup(snb, Topology(args, budget));
  const double setup_cpu_s = CpuSeconds() - setup_cpu0;
  const double setup_wall_s =
      std::chrono::duration<double>(Clock::now() - setup_start).count();
  const double setup_rss_mb = PeakRssMb();
  Session& session = *tables.session;
  const uint32_t scheduler_threads = session.cluster().scheduler_threads();

  Phase("reference");
  const Reference ref = BuildReference(snb);
  double index_bytes = 0, data_bytes = 0;
  for (const PartitionMemory& pm :
       Must(tables.iedges.MemoryReport(), "memory report")) {
    index_bytes += static_cast<double>(pm.index_bytes);
    data_bytes += static_cast<double>(pm.data_bytes);
  }

  MeasureWindow window(session);
  Measured m;
  if (args.workload == "snb_serve") {
    m = RunServe(args, tables, ref, window);
  } else if (args.workload == "snb_append") {
    m = RunAppend(args, tables, ref, window);
  } else {
    m = RunSpill(args, tables, ref, window);
  }
  const double spill_dir_mb =
      budget > 0 ? static_cast<double>(DirBytes(args.spill_dir)) / (1 << 20)
                 : 0.0;

  Phase("report");
  ClientLog all;
  std::vector<std::string> errors;
  for (ClientLog& log : m.logs) {
    for (int k = 0; k < kNumOpKinds; ++k) {
      all.latency_ms[k].insert(all.latency_ms[k].end(),
                               log.latency_ms[k].begin(),
                               log.latency_ms[k].end());
    }
    all.queue_ms.insert(all.queue_ms.end(), log.queue_ms.begin(),
                        log.queue_ms.end());
    all.handoff_ms.insert(all.handoff_ms.end(), log.handoff_ms.begin(),
                          log.handoff_ms.end());
    all.attempted += log.attempted;
    all.failed += log.failed;
    all.check_cpu_ns += log.check_cpu_ns;
    MergeMetrics(all.lookup_metrics, log.lookup_metrics);
    MergeMetrics(all.sql_metrics, log.sql_metrics);
    MergeMetrics(all.append_metrics, log.append_metrics);
    all.spans.insert(all.spans.end(), log.spans.begin(), log.spans.end());
    errors.insert(errors.end(), log.errors.begin(), log.errors.end());
  }
  uint64_t completed = 0;
  std::vector<double> every;
  for (int k = 0; k < kNumOpKinds; ++k) {
    completed += all.latency_ms[k].size();
    every.insert(every.end(), all.latency_ms[k].begin(),
                 all.latency_ms[k].end());
  }
  // The headline request: what a user of each workload waits for.
  const std::vector<double>& headline =
      args.workload == "snb_serve"    ? every
      : args.workload == "snb_append" ? all.latency_ms[kAppend]
                                      : all.latency_ms[kJoin];
  const double appends = static_cast<double>(std::max<uint64_t>(1, m.appends));
  const double requests = static_cast<double>(std::max<uint64_t>(1, completed));
  const double lookups =
      static_cast<double>(std::max<size_t>(1, all.latency_ms[kLookup].size()));
  const TaskMetrics& lt = all.lookup_metrics.totals;
  auto counter = [&](const char* name) { return window.Counter(name); };
  const double hits = counter("sched.resident_hits");
  const double misses = counter("sched.resident_misses");

  JsonObject host;
  host.Num("nproc", std::thread::hardware_concurrency());
  host.Str("cpu_model", CpuModel());
  host.Raw("build", obs::BuildInfoJson());
  host.Num("scheduler_threads", scheduler_threads);
  host.Num("service_drivers", ServiceConfig(budget).workers);
  host.Num("budget_bytes", static_cast<double>(budget));
  host.Str("spill_fs", budget > 0 ? FsType(args.spill_dir) : "n/a");

  JsonObject metrics;
  // End to end.
  // setup_s is set-up CPU time (all threads). Set-up wall time on a shared
  // VM roughly doubles both with the hypervisor's steal share and in a fresh
  // process, whose first touch of memory the host must back; CPU time moves
  // by a few percent under either, and still grows with any work moved into
  // set-up. Wall time is kept as a diagnostic.
  metrics.Num("setup_s", setup_cpu_s);
  metrics.Num("e2e.setup_wall_s", setup_wall_s);
  metrics.Num("setup_rss_mb", setup_rss_mb);
  metrics.Num("peak_rss_mb", PeakRssMb());
  metrics.Num("cpu_ms_per_request",
              (window.cpu_s() - static_cast<double>(all.check_cpu_ns) / 1e9) *
                  1e3 /
                  requests);
  // Wall-clock throughput and latency, overall and per request kind. On a
  // shared VM these move with the hypervisor's steal share from run to run,
  // so they are diagnostics beside host.steal_share, not gated metrics.
  metrics.Num("e2e.qps", static_cast<double>(completed) / window.wall_s());
  metrics.Num("e2e.p50_ms", Quantile(headline, 0.5));
  metrics.Num("e2e.p99_ms", TailP99(headline));
  metrics.Num("e2e.lookup_p50_ms", Quantile(all.latency_ms[kLookup], 0.5));
  metrics.Num("e2e.lookup_p99_ms", TailP99(all.latency_ms[kLookup]));
  metrics.Num("e2e.join_p50_ms", Quantile(all.latency_ms[kJoin], 0.5));
  metrics.Num("e2e.join_p99_ms", TailP99(all.latency_ms[kJoin]));
  metrics.Num("e2e.append_rows_per_s",
              m.writer_s > 0 ? static_cast<double>(m.appended_rows) / m.writer_s
                             : 0);
  metrics.Num("e2e.append_p50_ms", Quantile(all.latency_ms[kAppend], 0.5));
  metrics.Num("e2e.vanilla_join_p50_ms",
              Quantile(all.latency_ms[kVanillaJoin], 0.5));
  metrics.Num("e2e.scan_p50_ms", Quantile(all.latency_ms[kScan], 0.5));
  // server
  metrics.Num("server.queue_wait_ms_p50", Quantile(all.queue_ms, 0.5));
  metrics.Num("server.handoff_ms_p50", Quantile(all.handoff_ms, 0.5));
  metrics.Num("server.rejected", counter("server.rejected"));
  // sql
  std::vector<double> plan_ms, collect_ms, get_rows_ms, append_ms;
  for (const SpanRec& s : all.spans) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (s.kind == kSqlPlan) plan_ms.push_back(ms);
    if (s.kind == kSqlCollect) collect_ms.push_back(ms);
    if (s.kind == kCoreGetRows) get_rows_ms.push_back(ms);
    if (s.kind == kCoreAppend) append_ms.push_back(ms);
  }
  metrics.Num("sql.plan_ms_p50", Quantile(plan_ms, 0.5));
  metrics.Num("sql.collect_ms_p50", Quantile(collect_ms, 0.5));
  metrics.Num("sql.hash_build_s", all.sql_metrics.totals.hash_build_seconds);
  // core
  metrics.Num("core.get_rows_ms_p50", Quantile(get_rows_ms, 0.5));
  metrics.Num("core.append_ms_p50", Quantile(append_ms, 0.5));
  metrics.Num("core.create_index_s", tables.create_index_s);
  metrics.Num("core.index_bytes_per_data_byte",
              data_bytes > 0 ? index_bytes / data_bytes : 0);
  metrics.Num("core.batch_copies_per_append",
              static_cast<double>(all.append_metrics.totals.batch_copies) /
                  appends);
  metrics.Num("core.ctrie_snapshots_per_append",
              static_cast<double>(all.append_metrics.totals.ctrie_snapshots) /
                  appends);
  // ctrie
  metrics.Num("ctrie.probes_per_lookup",
              static_cast<double>(lt.index_probes) / lookups);
  const uint64_t probes = lt.index_probes + all.sql_metrics.totals.index_probes;
  const uint64_t found = lt.index_hits + all.sql_metrics.totals.index_hits;
  metrics.Num("ctrie.hit_ratio",
              probes > 0 ? static_cast<double>(found) /
                               static_cast<double>(probes)
                         : 0);
  // storage: per append (per request where a workload has no appends)
  const double per = m.appends > 0 ? appends : requests;
  metrics.Num("storage.row_batch.allocations",
              counter("storage.row_batch.allocations") / per);
  metrics.Num("storage.batches.cow_opens",
              counter("storage.batches.cow_opens") / per);
  metrics.Num("storage.resident_bytes",
              window.GaugeChange("storage.resident_bytes") /
                  per);
  // engine
  metrics.Num("engine.stage.wall_s",
              window.HistogramSum("engine.stage.wall_seconds"));
  metrics.Num("engine.tasks_per_request", counter("engine.tasks") / requests);
  metrics.Num("engine.scheduler.steals", counter("engine.scheduler.steals"));
  metrics.Num("engine.shuffle.stall_s",
              window.HistogramSum("engine.shuffle.stall_seconds"));
  metrics.Num("engine.shuffle.pushed_mb",
              counter("engine.shuffle.pushed_bytes") / (1 << 20));
  metrics.Num("engine.blocks_retained_per_request",
              window.BlocksAdded() / requests);
  // mem
  metrics.Num("mem.spill_write_mb", counter("mem.spill.write_bytes") / (1 << 20));
  metrics.Num("mem.reload_read_mb",
              counter("mem.reload.read_bytes") / (1 << 20));
  metrics.Num("mem.evictions", counter("mem.evictions"));
  metrics.Num("sched.resident_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0);
  metrics.Num("mem.spill_dir_mb_end", spill_dir_mb);
  // host
  metrics.Num("host.steal_share", window.StealShare());

  if (args.trace) {
    Phase("ctrie");
    const CtrieNumbers ct = MeasureCtrie(args, ref.lookup.size());
    metrics.Num("ctrie.lookup_ns_1t", ct.ns_1t);
    metrics.Num("ctrie.lookup_mops_4t", ct.mops_4t);
    const std::vector<double> self = SelfTimesMs(all.spans);
    for (int k = kRequest + 1; k < kNumSpanKinds; ++k) {
      metrics.Num(std::string("self.") + kSpanNames[k] + "_ms",
                  self[k] / requests);
    }
    int64_t epoch = all.spans.empty() ? 0 : all.spans.front().start_ns;
    for (const SpanRec& s : all.spans) epoch = std::min(epoch, s.start_ns);
    WriteTrace(args.trace_out, all.spans, epoch);
  }

  JsonObject report;
  report.Str("workload", args.workload);
  report.Num("seed", static_cast<double>(args.seed));
  report.Num("attempted", static_cast<double>(all.attempted));
  report.Num("failed", static_cast<double>(all.failed));
  report.Num("completed", static_cast<double>(completed));
  report.Num("wall_s", window.wall_s());

  std::string error_list = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    error_list += (i ? ", \"" : "\"") + obs::JsonEscape(errors[i]) + "\"";
  }
  report.Raw("errors", error_list + "]");
  report.Raw("host", host.Done());
  report.Raw("metrics", metrics.Done());
  Phase("done");
  std::printf("%s\n", report.Done().c_str());
  std::fflush(stdout);
  // Skip static destructors: the engine's global singletons are torn down
  // by the OS, and a clean shutdown of leaked blocks only costs time.
  std::_Exit(0);
}
