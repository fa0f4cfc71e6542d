// Tests for observability v2: the flight recorder ring (wraparound under
// concurrent writers, JSONL encoding, crash-dump round trip through the
// signal-safe encoder and the python decoder), its counting table (each
// counted kind moves its registry counters and profile field once) and the
// introspection endpoint (Prometheus /metrics with explicit buckets,
// /residency JSON, /events tail — all fetched over a real loopback socket
// while a budgeted query has actually exercised the governor).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/indexed_dataframe.h"
#include "engine/cluster.h"
#include "mem/governor.h"
#include "obs/flight_recorder.h"
#include "obs/build_info.h"
#include "obs/introspect.h"
#include "obs/metrics_registry.h"
#include "obs/query_profile.h"
#include "sql/session.h"

namespace idf {
namespace {

using obs::EventType;
using obs::FlightEvent;
using obs::FlightRecorder;

// ---- ring buffer ----------------------------------------------------------

TEST(FlightRecorderTest, RecordsAndSnapshotsInOrder) {
  FlightRecorder& fr = FlightRecorder::Global();
  const uint32_t name = fr.InternName("fr-order-stage");
  const uint64_t base = fr.total_recorded();
  for (uint64_t i = 0; i < 100; ++i) {
    fr.Record(EventType::kTaskStart, name, i, i + 1, i + 2);
  }
  EXPECT_EQ(fr.total_recorded(), base + 100);

  std::vector<FlightEvent> events = fr.Snapshot();
  ASSERT_GE(events.size(), 100u);
  // Oldest-first, strictly increasing seq.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  // The 100 we just wrote are the newest and carry the interned name.
  size_t matched = 0;
  for (const FlightEvent& e : events) {
    if (e.seq < base) continue;
    EXPECT_EQ(e.type, EventType::kTaskStart);
    EXPECT_EQ(e.name, "fr-order-stage");
    EXPECT_EQ(e.a + 1, e.b);
    EXPECT_EQ(e.a + 2, e.c);
    EXPECT_GT(e.tid, 0u);
    ++matched;
  }
  EXPECT_EQ(matched, 100u);
}

TEST(FlightRecorderTest, InternNameIsIdempotent) {
  FlightRecorder& fr = FlightRecorder::Global();
  const uint32_t a = fr.InternName("fr-intern-x");
  const uint32_t b = fr.InternName("fr-intern-x");
  const uint32_t c = fr.InternName("fr-intern-y");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, 0u);
}

// The wraparound test: more events than kCapacity from several writers at
// once. Every snapshotted slot must be internally consistent (the payload
// invariant a+1==b holds), seqs must be unique and increasing, and the
// snapshot must never exceed the ring capacity. Runs under TSan in CI —
// the per-slot seqlock is exactly the kind of code a race detector eats.
TEST(FlightRecorderTest, WraparoundUnderConcurrentWriters) {
  FlightRecorder& fr = FlightRecorder::Global();
  const uint32_t name = fr.InternName("fr-wrap-stage");
  constexpr int kThreads = 8;
  const uint64_t per_thread = (FlightRecorder::kCapacity / kThreads) * 2;

  const uint64_t base = fr.total_recorded();
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t i = 0; i < per_thread; ++i) {
        const uint64_t tag = static_cast<uint64_t>(t) << 32 | i;
        fr.Record(EventType::kSteal, name, tag, tag + 1, tag + 2);
      }
    });
  }
  go.store(true, std::memory_order_release);

  // Concurrent readers while the ring is lapping itself.
  for (int round = 0; round < 4; ++round) {
    std::vector<FlightEvent> mid = fr.Snapshot(1024);
    EXPECT_LE(mid.size(), 1024u);
    for (const FlightEvent& e : mid) {
      if (e.seq < base) continue;
      EXPECT_EQ(e.a + 1, e.b);
      EXPECT_EQ(e.a + 2, e.c);
    }
  }
  for (std::thread& w : writers) w.join();

  EXPECT_EQ(fr.total_recorded(), base + kThreads * per_thread);
  std::vector<FlightEvent> events = fr.Snapshot();
  EXPECT_LE(events.size(), FlightRecorder::kCapacity);
  // The ring wrapped at least once, so it is full of our newest events.
  EXPECT_GT(events.size(), FlightRecorder::kCapacity / 2);
  int64_t last_seq = -1;
  for (const FlightEvent& e : events) {
    EXPECT_GT(static_cast<int64_t>(e.seq), last_seq);  // strictly increasing
    last_seq = static_cast<int64_t>(e.seq);
    if (e.seq < base) continue;
    EXPECT_EQ(e.type, EventType::kSteal);
    EXPECT_EQ(e.a + 1, e.b);
    EXPECT_EQ(e.a + 2, e.c);
    EXPECT_EQ(e.name, "fr-wrap-stage");
  }
  // Everything still in the ring is from the newest kCapacity tickets.
  EXPECT_GE(static_cast<uint64_t>(last_seq) + 1, fr.total_recorded());
}

TEST(FlightRecorderTest, JsonlLinesAreWellFormed) {
  FlightRecorder& fr = FlightRecorder::Global();
  const uint32_t name = fr.InternName("fr-jsonl \"quoted\\stage\"");
  fr.Record(EventType::kEvict, name, 123, 456, 789);
  const std::string jsonl = fr.ToJsonl(4);
  std::istringstream lines(jsonl);
  std::string line;
  size_t count = 0;
  bool saw_ours = false;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"seq\":"), std::string::npos);
    EXPECT_NE(line.find("\"ts_us\":"), std::string::npos);
    EXPECT_NE(line.find("\"type\":\""), std::string::npos);
    EXPECT_NE(line.find("\"tid\":"), std::string::npos);
    if (line.find("\"type\":\"evict\"") != std::string::npos &&
        line.find("\"a\":123") != std::string::npos) {
      saw_ours = true;
      // The name must be JSON-escaped (quote and backslash).
      EXPECT_NE(line.find("fr-jsonl \\\"quoted\\\\stage\\\""),
                std::string::npos);
    }
  }
  EXPECT_LE(count, 4u);
  EXPECT_TRUE(saw_ours);
}

// ---- crash dump round trip ------------------------------------------------

// The signal-safe encoder (DumpToFd) must produce the same JSONL the
// normal path does — verified byte-for-byte here, no dying required.
TEST(FlightRecorderTest, SignalSafeDumpMatchesToJsonl) {
  FlightRecorder& fr = FlightRecorder::Global();
  const uint32_t name = fr.InternName("fr-dump-stage");
  for (uint64_t i = 0; i < 16; ++i) {
    fr.Record(EventType::kSpillWrite, name, i * 4096, 7, i);
  }
  const std::string path =
      ::testing::TempDir() + "/fr_dumpfd_" + std::to_string(::getpid());
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  const size_t written = fr.DumpToFd(fd, 16);
  ::close(fd);
  EXPECT_EQ(written, 16u);

  std::ifstream in(path);
  std::stringstream file_contents;
  file_contents << in.rdbuf();
  // Not strictly equal to a fresh ToJsonl() — another test thread is not
  // running, but be safe: both encoders dump the same ring tail.
  EXPECT_EQ(file_contents.str(), fr.ToJsonl(16));
  std::remove(path.c_str());
}

/// Converts `journal` with tools/idf_events.py --chrome and validates the
/// trace with tests/check_chrome_trace.py: valid JSON, no negative
/// duration, and every stage slice holding its own task events.
void ExpectChromeRoundTrip(const std::string& journal,
                           const std::string& trace) {
  const std::string src = IDF_SOURCE_DIR;
  const std::string convert = "python3 " + src +
                              "/tools/idf_events.py --strict '" + journal +
                              "' --chrome '" + trace + "' >/dev/null";
  ASSERT_EQ(std::system(convert.c_str()), 0) << "--chrome failed: " << journal;
  const std::string check =
      "python3 " + src + "/tests/check_chrome_trace.py '" + trace + "'";
  EXPECT_EQ(std::system(check.c_str()), 0) << "bad chrome trace: " << trace;
}

TEST(FlightRecorderDeathTest, CrashHandlerDumpsDecodableJournal) {
  // Default ("fast") death-test style: the child is forked right here, so it
  // shares `dir` with the parent. Threadsafe style would re-execute the test
  // from the top in the child, which would recompute a pid-based dir.
  const std::string dir =
      ::testing::TempDir() + "/fr_crash_" + std::to_string(::getpid());
  // An earlier process with the same pid may have left its dir behind.
  std::filesystem::remove_all(dir);
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);

  // The child installs the handler, records some context, then aborts. The
  // handler must write the journal and re-raise (so the child dies with
  // SIGABRT, which is what EXPECT_EXIT checks).
  EXPECT_EXIT(
      {
        FlightRecorder& fr = FlightRecorder::Global();
        const uint32_t name = fr.InternName("doomed-stage");
        fr.Record(EventType::kTaskStart, name, 3, 1, 0);
        fr.Record(EventType::kEvict, 0, 65536, 42, 5);
        FlightRecorder::InstallCrashHandler(dir);
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT),
      "flight recorder: crash journal written to ");

  // Find the child's journal (pid unknown): exactly one file in our dir.
  std::string journal;
  {
    DIR* d = ::opendir(dir.c_str());
    ASSERT_NE(d, nullptr);
    while (dirent* entry = ::readdir(d)) {
      const std::string file = entry->d_name;
      if (file.rfind("idf-crash-", 0) == 0) journal = dir + "/" + file;
    }
    ::closedir(d);
  }
  ASSERT_FALSE(journal.empty()) << "no crash journal in " << dir;

  // The journal must contain the pre-crash context and the crash marker
  // (signal 6 = SIGABRT), i.e. the handler dumped the live ring.
  std::ifstream in(journal);
  std::stringstream raw;
  raw << in.rdbuf();
  const std::string text = raw.str();
  EXPECT_NE(text.find("\"type\":\"crash\""), std::string::npos);
  EXPECT_NE(text.find("\"a\":6"), std::string::npos);  // SIGABRT
  EXPECT_NE(text.find("doomed-stage"), std::string::npos);

  // Round trip through the decoder when python3 is available.
  if (std::system("python3 -c '' >/dev/null 2>&1") == 0) {
    const std::string cmd = "python3 " + std::string(IDF_SOURCE_DIR) +
                            "/tools/idf_events.py --summary '" + journal +
                            "' > '" + dir + "/decoded.txt' 2>&1";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << "decoder failed on " << journal;
    std::ifstream decoded(dir + "/decoded.txt");
    std::stringstream report;
    report << decoded.rdbuf();
    EXPECT_NE(report.str().find("crash"), std::string::npos) << report.str();
    ExpectChromeRoundTrip(journal, dir + "/crash.trace.json");
  }
  std::filesystem::remove_all(dir);
}

// ---- introspection endpoint ----------------------------------------------

/// Minimal HTTP GET over loopback; returns the full response (headers+body).
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

SessionOptions BudgetedOptions(uint64_t budget) {
  ::unsetenv("IDF_MEMORY_BUDGET");  // pin the exact budget under test
  SessionOptions opts;
  opts.cluster.num_workers = 2;
  opts.cluster.executors_per_worker = 2;
  opts.cluster.cores_per_executor = 2;
  opts.cluster.memory_budget_bytes = budget;
  opts.default_partitions = 4;
  return opts;
}

SchemaPtr EdgeSchema() {
  return std::make_shared<Schema>(Schema({
      {"src", TypeId::kInt64, false},
      {"dst", TypeId::kInt64, false},
      {"weight", TypeId::kFloat64, true},
  }));
}

TEST(IntrospectionServerTest, ServesMetricsResidencyAndEventsDuringQuery) {
  obs::IntrospectionServer& server = obs::IntrospectionServer::Global();
  Result<uint16_t> port = server.Start(0);  // ephemeral
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  ASSERT_GT(*port, 0);

  // A budgeted session: building the indexed table under a tight budget
  // forces evictions and reload faults, so /metrics and /residency have
  // real governor state to show and the recorder has events.
  constexpr int64_t kRows = 20000;
  IndexOptions index_options;
  index_options.batch_capacity = 16 << 10;
  Session session(BudgetedOptions(256 << 10));
  std::vector<RowVec> rows;
  rows.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int64(i % 97), Value::Int64(i),
                    Value::Float64(0.25 * static_cast<double>(i))});
  }
  auto edges = *session.CreateTable("edges", EdgeSchema(), rows);
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
  auto hits = indexed.GetRows(Value::Int64(13));
  ASSERT_TRUE(hits.ok());
  ASSERT_GT(hits->rows.size(), 0u);

  // /healthz
  const std::string health = HttpGet(*port, "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  // /metrics: Prometheus text with TYPE lines, governor counters, and
  // explicit cumulative histogram buckets closed by +Inf.
  const std::string metrics = HttpGet(*port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE mem_evictions counter"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE engine_task_seconds histogram"),
            std::string::npos);
  EXPECT_NE(metrics.find("engine_task_seconds_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(metrics.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(metrics.find("engine_task_seconds_sum"), std::string::npos);
  EXPECT_NE(metrics.find("engine_task_seconds_count"), std::string::npos);

  // Bucket series for one histogram must be cumulative (non-decreasing).
  {
    std::istringstream lines(metrics);
    std::string line;
    uint64_t previous = 0;
    bool saw_bucket = false;
    while (std::getline(lines, line)) {
      if (line.rfind("engine_task_seconds_bucket", 0) != 0) continue;
      const size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos);
      const uint64_t value = std::strtoull(line.c_str() + space + 1,
                                           nullptr, 10);
      EXPECT_GE(value, previous) << line;
      previous = value;
      saw_bucket = true;
    }
    EXPECT_TRUE(saw_bucket);
  }

  // /residency: the governor's live map (registered by the engine layer).
  const std::string residency = HttpGet(*port, "/residency");
  EXPECT_NE(residency.find("200 OK"), std::string::npos);
  EXPECT_NE(residency.find("application/json"), std::string::npos);
  EXPECT_NE(residency.find("\"engaged\":true"), std::string::npos);
  EXPECT_NE(residency.find("\"budget_bytes\":"), std::string::npos);
  EXPECT_NE(residency.find("\"partitions\":["), std::string::npos);
  EXPECT_NE(residency.find("\"resident_bytes\":"), std::string::npos);

  // /events tail honours n= and returns recorder JSONL.
  const std::string events = HttpGet(*port, "/events?n=5");
  EXPECT_NE(events.find("200 OK"), std::string::npos);
  EXPECT_NE(events.find("application/x-ndjson"), std::string::npos);
  const std::string body = events.substr(events.find("\r\n\r\n") + 4);
  size_t lines = 0;
  for (const char ch : body) lines += ch == '\n';
  EXPECT_GT(lines, 0u);
  EXPECT_LE(lines, 5u);
  EXPECT_NE(body.find("\"type\":\""), std::string::npos);

  // Unknown paths 404 instead of crashing the serve loop.
  EXPECT_NE(HttpGet(*port, "/nope").find("404"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(IntrospectionServerTest, RestartsAfterStop) {
  obs::IntrospectionServer& server = obs::IntrospectionServer::Global();
  Result<uint16_t> first = server.Start(0);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(server.Start(0).ok());  // already running
  server.Stop();
  Result<uint16_t> second = server.Start(0);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(HttpGet(*second, "/healthz").find("200 OK"), std::string::npos);
  server.Stop();
}

// ---- snapshot diff helper -------------------------------------------------

TEST(RegistryDeltaTest, CountersAndHistogramsDiff) {
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter& counter = reg.GetCounter("fr_test.delta_counter");
  obs::Histogram& histogram = reg.GetHistogram("fr_test.delta_hist");
  counter.Add(5);
  histogram.Observe(1.0);

  obs::RegistryDelta delta;
  counter.Add(7);
  histogram.Observe(2.0);
  histogram.Observe(4.0);

  EXPECT_EQ(delta.Counter("fr_test.delta_counter"), 7u);
  EXPECT_EQ(delta.Counter("fr_test.nonexistent"), 0u);

  bool found = false;
  for (const obs::MetricSnapshot& s : delta.Deltas()) {
    if (s.name != "fr_test.delta_hist") continue;
    found = true;
    EXPECT_EQ(s.count, 2u);           // only the two post-baseline samples
    EXPECT_DOUBLE_EQ(s.sum, 6.0);
    uint64_t bucket_total = 0;
    for (const auto& [bound, n] : s.buckets) {
      (void)bound;
      bucket_total += n;
    }
    EXPECT_EQ(bucket_total, 2u);
  }
  EXPECT_TRUE(found);

  delta.Reset();
  EXPECT_EQ(delta.Counter("fr_test.delta_counter"), 0u);
}

// ---- stage_finish and the Chrome trace export ----------------------------

/// Events recorded since ticket `first_seq` whose type is `type`.
std::vector<FlightEvent> EventsSince(uint64_t first_seq, EventType type) {
  std::vector<FlightEvent> out;
  for (FlightEvent& e : FlightRecorder::Global().Snapshot()) {
    if (e.seq >= first_seq && e.type == type) out.push_back(std::move(e));
  }
  return out;
}

TEST(FlightRecorderTest, StageFinishOncePerStageAndChromeRoundTrip) {
  FlightRecorder& fr = FlightRecorder::Global();
  const uint64_t first_seq = fr.total_recorded();

  // A plain stage on the pool: one stage_finish carrying its task count.
  ClusterConfig config;
  config.num_workers = 2;
  config.executors_per_worker = 2;
  config.scheduler_threads = 4;
  Cluster cluster(config);
  StageSpec stage;
  stage.name = "fr-finish-stage";
  for (int i = 0; i < 6; ++i) {
    stage.tasks.push_back(TaskSpec{
        kAnyExecutor, {}, 0, [](TaskContext&) { return Status::OK(); }, {}});
  }
  ASSERT_TRUE(cluster.RunStage(stage).ok());
  std::vector<FlightEvent> finishes =
      EventsSince(first_seq, EventType::kStageFinish);
  ASSERT_EQ(finishes.size(), 1u);
  EXPECT_EQ(finishes[0].name, "fr-finish-stage");
  EXPECT_EQ(finishes[0].a, 6u);
  EXPECT_LE(finishes[0].c, finishes[0].ts_us);

  // A shuffle (createIndex): a map stage, then a reduce stage, so exactly
  // one stage_finish under each name, together counting every task.
  const uint64_t shuffle_seq = fr.total_recorded();
  {
    Session session(BudgetedOptions(0));
    std::vector<RowVec> rows;
    for (int64_t i = 0; i < 2000; ++i) {
      rows.push_back({Value::Int64(i % 97), Value::Int64(i),
                      Value::Float64(0.5 * static_cast<double>(i))});
    }
    auto edges = *session.CreateTable("edges", EdgeSchema(), rows);
    ASSERT_TRUE(IndexedDataFrame::Create(edges, "src").ok());
  }
  size_t shuffle_tasks = 0;
  for (const FlightEvent& e :
       EventsSince(shuffle_seq, EventType::kTaskFinish)) {
    shuffle_tasks += e.name == "createIndex (shuffle)" ||
                     e.name == "createIndex (insert)";
  }
  EXPECT_GT(shuffle_tasks, 0u);
  size_t map_finishes = 0;
  size_t reduce_finishes = 0;
  uint64_t stage_tasks = 0;
  for (const FlightEvent& e :
       EventsSince(shuffle_seq, EventType::kStageFinish)) {
    if (e.name == "createIndex (shuffle)") ++map_finishes;
    if (e.name == "createIndex (insert)") ++reduce_finishes;
    if (e.name == "createIndex (shuffle)" ||
        e.name == "createIndex (insert)") {
      stage_tasks += e.a;
    }
  }
  EXPECT_EQ(map_finishes, 1u);
  EXPECT_EQ(reduce_finishes, 1u);
  EXPECT_EQ(stage_tasks, shuffle_tasks);

  // Round trip: this test's events as a journal, then --chrome.
  if (std::system("python3 -c '' >/dev/null 2>&1") != 0) return;
  const std::string base = ::testing::TempDir() + "/fr_chrome_" +
                           std::to_string(::getpid());
  {
    std::ofstream journal(base + ".events.jsonl");
    for (const FlightEvent& e : fr.Snapshot()) {
      if (e.seq >= first_seq) journal << obs::EventJson(e) << "\n";
    }
  }
  ExpectChromeRoundTrip(base + ".events.jsonl", base + ".trace.json");
  std::remove((base + ".events.jsonl").c_str());
  std::remove((base + ".trace.json").c_str());
}

// ---- query-id stamping, counting, ring lapping, build identity ------------

TEST(FlightRecorderTest, EventsCarryCurrentQueryId) {
  FlightRecorder& fr = FlightRecorder::Global();
  const uint32_t name = fr.InternName("fr-q-stage");
  const uint64_t qid = obs::AllocateQueryId();
  {
    obs::QueryScope scope(qid);
    fr.Record(EventType::kSteal, name, 111, 222, 333);
  }
  fr.Record(EventType::kSteal, name, 444, 555, 666);  // outside: q == 0
  bool saw_scoped = false, saw_unscoped = false;
  for (const FlightEvent& e : fr.Snapshot()) {
    if (e.type != EventType::kSteal || e.name != "fr-q-stage") continue;
    if (e.a == 111) {
      EXPECT_EQ(e.q, qid);
      EXPECT_NE(obs::EventJson(e).find("\"q\":" + std::to_string(qid)),
                std::string::npos);
      saw_scoped = true;
    } else if (e.a == 444) {
      EXPECT_EQ(e.q, 0u);
      saw_unscoped = true;
    }
  }
  EXPECT_TRUE(saw_scoped);
  EXPECT_TRUE(saw_unscoped);
}

using Amounts = std::map<std::string, uint64_t>;

/// The nonzero fields of one profile snapshot, by name ("stage_tasks" sums
/// the stage rows).
Amounts ProfileAmounts(const obs::QueryProfileSnapshot& snap) {
  uint64_t stage_tasks = 0;
  for (const auto& stage : snap.stages) stage_tasks += stage.tasks;
  const Amounts all = {
      {"tasks", snap.tasks},
      {"task_fails", snap.task_fails},
      {"task_wall_us", snap.task_wall_us},
      {"steals", snap.steals},
      {"resident_hits", snap.resident_hits},
      {"resident_misses", snap.resident_misses},
      {"bytes_spilled", snap.bytes_spilled},
      {"evictions", snap.evictions},
      {"bytes_reloaded", snap.bytes_reloaded},
      {"shuffle_pushed_bytes", snap.shuffle_pushed_bytes},
      {"admission_wait_us", snap.admission_wait_us},
      {"current_pinned_bytes", snap.current_pinned_bytes},
      {"peak_pinned_bytes", snap.peak_pinned_bytes},
      {"stage_tasks", stage_tasks},
  };
  Amounts nonzero;
  for (const auto& [field, value] : all) {
    if (value != 0) nonzero[field] = value;
  }
  return nonzero;
}

/// Every profile field summed over every profile in the registry.
Amounts AllProfilesAmounts() {
  Amounts total;
  for (const obs::QueryProfileSnapshot& snap :
       obs::QueryProfileRegistry::Global().SnapshotAll()) {
    for (const auto& [field, value] : ProfileAmounts(snap)) {
      total[field] += value;
    }
  }
  return total;
}

// One event of each kind under a fresh query: a counted kind moves its
// registry counters and that query's profile by exactly 1 or a, and no
// other counter or profile; every other kind moves nothing. The expected
// rows are spelled out here rather than read from kCountedKinds, so a
// wrong or missing table row fails.
TEST(FlightRecorderTest, EachCountedKindFeedsItsCounterAndProfileOnce) {
  FlightRecorder& fr = FlightRecorder::Global();
  const uint32_t name = fr.InternName("fr-count-stage");
  constexpr uint64_t kA = 4099, kB = 7, kC = 31;
  struct Row {
    Amounts counters;
    Amounts profile;
  };
  const std::map<EventType, Row> counted = {
      {EventType::kTaskFinish,
       {{{"engine.tasks", 1}},
        {{"tasks", 1}, {"task_wall_us", kC}, {"stage_tasks", 1}}}},
      {EventType::kTaskFail,
       {{{"engine.tasks", 1}},
        {{"tasks", 1},
         {"task_fails", 1},
         {"task_wall_us", kC},
         {"stage_tasks", 1}}}},
      {EventType::kSteal, {{{"engine.scheduler.steals", 1}}, {{"steals", 1}}}},
      {EventType::kResidentHit,
       {{{"sched.resident_hits", 1}}, {{"resident_hits", 1}}}},
      {EventType::kResidentMiss,
       {{{"sched.resident_misses", 1}}, {{"resident_misses", 1}}}},
      {EventType::kEvict, {{{"mem.evictions", 1}}, {{"evictions", 1}}}},
      {EventType::kSpillWrite,
       {{{"mem.spill.write_bytes", kA}}, {{"bytes_spilled", kA}}}},
      {EventType::kReloadDemand,
       {{{"mem.reload_faults", 1}, {"mem.reload.read_bytes", kA}},
        {{"bytes_reloaded", kA}}}},
      {EventType::kShufflePush,
       {{{"engine.shuffle.pushed_bytes", kA}},
        {{"shuffle_pushed_bytes", kA}}}},
      {EventType::kRecoveryBlock, {{{"engine.recovery.blocks", 1}}, {}}},
      {EventType::kExecutorKill, {{{"engine.executors.killed", 1}}, {}}},
      {EventType::kChaosFault, {{{"chaos.faults", 1}}, {}}},
      {EventType::kQuerySubmit, {{{"server.submitted", 1}}, {}}},
      {EventType::kQueryAdmit, {{{"server.admitted", 1}}, {}}},
  };

  size_t kinds = 0;
  for (int raw = 1; raw <= static_cast<int>(EventType::kStageFinish); ++raw) {
    const EventType type = static_cast<EventType>(raw);
    if (std::string(obs::EventTypeName(type)) == "event") continue;  // retired
    ++kinds;
    auto it = counted.find(type);
    const Row expected = it != counted.end() ? it->second : Row{};

    const uint64_t qid = obs::AllocateQueryId();
    const Amounts profiles_before = AllProfilesAmounts();
    obs::RegistryDelta delta;
    {
      obs::QueryScope scope(qid);
      fr.Record(type, name, kA, kB, kC);
    }

    Amounts counters;
    for (const obs::MetricSnapshot& m : delta.Deltas()) {
      // The ring's own lap count is not a counted fact of the event.
      if (m.kind != obs::MetricKind::kCounter || m.counter_value == 0 ||
          m.name == "obs.ring.lapped") {
        continue;
      }
      counters[m.name] = m.counter_value;
    }
    EXPECT_EQ(counters, expected.counters) << obs::EventTypeName(type);

    obs::QueryProfileSnapshot snap;
    ASSERT_TRUE(obs::QueryProfileRegistry::Global().Snapshot(qid, &snap));
    EXPECT_EQ(ProfileAmounts(snap), expected.profile)
        << obs::EventTypeName(type);
    // Nothing landed in any other profile.
    Amounts moved;
    for (const auto& [field, value] : AllProfilesAmounts()) {
      auto before = profiles_before.find(field);
      const uint64_t base = before != profiles_before.end() ? before->second : 0;
      if (value != base) moved[field] = value - base;
    }
    EXPECT_EQ(moved, expected.profile) << obs::EventTypeName(type);
  }
  EXPECT_EQ(kinds, 25u);  // 29 numbers, 4 retired
  EXPECT_EQ(std::size(obs::kCountedKinds), counted.size());
}

TEST(FlightRecorderTest, LappedCounterTracksRingOverwrites) {
  FlightRecorder& fr = FlightRecorder::Global();
  const uint32_t name = fr.InternName("fr-lap-stage");
  // Make sure the ring has wrapped at least once before the baseline so
  // every further Record is an overwrite.
  for (size_t i = 0; i < FlightRecorder::kCapacity; ++i) {
    fr.Record(EventType::kSteal, name, i, 0, 0);
  }
  obs::RegistryDelta delta;
  constexpr uint64_t kRecords = 1000;
  for (uint64_t i = 0; i < kRecords; ++i) {
    fr.Record(EventType::kSteal, name, i, 0, 0);
  }
  EXPECT_GE(delta.Counter("obs.ring.lapped"), kRecords);
}

TEST(BuildInfoTest, SummaryAndJsonAgree) {
  const obs::BuildInfo& info = obs::GetBuildInfo();
  const std::string sha = info.git_sha;
  const std::string build_type = info.build_type;
  const std::string sanitizer = info.sanitizer;
  EXPECT_FALSE(sha.empty());
  EXPECT_FALSE(build_type.empty());
  EXPECT_FALSE(sanitizer.empty());
  const std::string json = obs::BuildInfoJson();
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\":\"" + sha), std::string::npos);
  EXPECT_NE(json.find("\"build_type\":\"" + build_type), std::string::npos);
  EXPECT_NE(json.find("\"sanitizer\":\"" + sanitizer), std::string::npos);
  EXPECT_NE(json.find("\"uptime_seconds\":"), std::string::npos);
  const std::string summary = obs::BuildInfoSummary();
  EXPECT_NE(summary.find("sha=" + sha), std::string::npos);
  // The recorder stamped a build_info event at construction, so every
  // journal identifies its binary.
  bool saw_build_info = false;
  for (const FlightEvent& e : FlightRecorder::Global().Snapshot()) {
    if (e.type == EventType::kBuildInfo) saw_build_info = true;
  }
  // The ring may have lapped past it in long-running suites; only assert
  // when the recorder has not wrapped yet.
  if (FlightRecorder::Global().total_recorded() <
      FlightRecorder::kCapacity) {
    EXPECT_TRUE(saw_build_info);
  }
}

// ---- introspection error paths & concurrent scrapes ------------------------

TEST(IntrospectionServerTest, ErrorPathsAndBoundsAreSafe) {
  obs::IntrospectionServer& server = obs::IntrospectionServer::Global();
  Result<uint16_t> port = server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  // /healthz is the build identity document.
  const std::string health = HttpGet(*port, "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("application/json"), std::string::npos);
  EXPECT_NE(health.find("\"git_sha\":"), std::string::npos);
  EXPECT_NE(health.find("\"build_type\":"), std::string::npos);
  EXPECT_NE(health.find("\"sanitizer\":"), std::string::npos);
  EXPECT_NE(health.find("\"uptime_seconds\":"), std::string::npos);

  // Unknown endpoints 404 with a hint, never crash the serve loop.
  const std::string unknown = HttpGet(*port, "/definitely-not-a-path");
  EXPECT_NE(unknown.find("404"), std::string::npos);
  EXPECT_NE(unknown.find("/queries"), std::string::npos);

  // Malformed n= falls back to the default instead of erroring.
  const std::string malformed = HttpGet(*port, "/events?n=abc");
  EXPECT_NE(malformed.find("200 OK"), std::string::npos);

  // Oversize n= clamps to the ring capacity instead of over-allocating.
  const std::string oversize = HttpGet(*port, "/events?n=99999999999");
  EXPECT_NE(oversize.find("200 OK"), std::string::npos);
  const std::string body = oversize.substr(oversize.find("\r\n\r\n") + 4);
  size_t lines = 0;
  for (const char ch : body) lines += ch == '\n';
  EXPECT_LE(lines, obs::FlightRecorder::kCapacity);

  server.Stop();
}

TEST(IntrospectionServerTest, ConcurrentScrapesDuringBudgetedQuery) {
  obs::IntrospectionServer& server = obs::IntrospectionServer::Global();
  Result<uint16_t> port = server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  constexpr int64_t kRows = 20000;
  IndexOptions index_options;
  index_options.batch_capacity = 16 << 10;
  Session session(BudgetedOptions(256 << 10));
  std::vector<RowVec> rows;
  rows.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int64(i % 97), Value::Int64(i),
                    Value::Float64(0.25 * static_cast<double>(i))});
  }
  auto edges = *session.CreateTable("edges", EdgeSchema(), rows);

  // Scrapers hammer every endpoint while the query below spills and
  // faults; every response must be well-formed (200 or 404, never empty).
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> scrapers;
  const char* paths[] = {"/metrics", "/events?n=64", "/healthz",
                         "/residency", "/queries/7", "/nope"};
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const std::string response =
            HttpGet(*port, paths[(t + i) % (sizeof(paths) / sizeof(*paths))]);
        if (response.find("HTTP/1.0 ") != 0) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
  for (int64_t key = 0; key < 20; ++key) {
    auto hits = indexed.GetRows(Value::Int64(key));
    ASSERT_TRUE(hits.ok());
  }
  stop.store(true);
  for (std::thread& s : scrapers) s.join();
  EXPECT_EQ(bad.load(), 0u);
  server.Stop();
}

TEST(RegistryDeltaTest, GaugeDeltaKeepsLevel) {
  obs::Registry& reg = obs::Registry::Global();
  obs::Gauge& gauge = reg.GetGauge("fr_test.delta_gauge");
  gauge.Set(10.0);
  obs::RegistryDelta delta;
  gauge.Set(25.0);
  bool found = false;
  for (const obs::MetricSnapshot& s : delta.Deltas()) {
    if (s.name != "fr_test.delta_gauge") continue;
    found = true;
    EXPECT_DOUBLE_EQ(s.gauge_value, 25.0);  // a level, not a difference
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace idf
