#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "obs/build_info.h"
#include "obs/metrics_registry.h"
#include "obs/query_profile.h"

namespace idf::obs {

namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Dense per-thread id for event attribution, assigned on first record.
uint32_t ThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

constexpr uint64_t PackMeta(EventType type, uint32_t tid, uint32_t name_id) {
  return static_cast<uint64_t>(static_cast<uint8_t>(type)) |
         (static_cast<uint64_t>(tid & 0xFFFFFFu) << 8) |
         (static_cast<uint64_t>(name_id) << 32);
}

// ---- async-signal-safe formatting ----------------------------------------
//
// The crash path may not call snprintf (not on the POSIX async-signal-safe
// list) or anything that allocates, so event lines are rendered by hand
// into a caller-provided buffer.

/// Appends `s` to buf (bounded); returns new length.
size_t AppendStr(char* buf, size_t len, size_t cap, const char* s) {
  while (*s != '\0' && len + 1 < cap) buf[len++] = *s++;
  return len;
}

size_t AppendU64(char* buf, size_t len, size_t cap, uint64_t v) {
  char digits[20];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0 && len + 1 < cap) buf[len++] = digits[--n];
  return len;
}

/// Appends `s` JSON-escaped (quotes, backslashes, control bytes).
size_t AppendJsonStr(char* buf, size_t len, size_t cap, const char* s) {
  for (; *s != '\0' && len + 7 < cap; ++s) {
    const unsigned char ch = static_cast<unsigned char>(*s);
    if (ch == '"' || ch == '\\') {
      buf[len++] = '\\';
      buf[len++] = static_cast<char>(ch);
    } else if (ch < 0x20) {
      static const char* hex = "0123456789abcdef";
      len = AppendStr(buf, len, cap, "\\u00");
      buf[len++] = hex[ch >> 4];
      buf[len++] = hex[ch & 0xF];
    } else {
      buf[len++] = static_cast<char>(ch);
    }
  }
  return len;
}

/// Renders one event as a JSONL line (without trailing newline appended by
/// the caller). Returns the line length.
size_t FormatEventLine(char* buf, size_t cap, uint64_t seq, uint64_t ts_us,
                       EventType type, uint32_t tid, uint64_t q,
                       const char* name, uint64_t a, uint64_t b, uint64_t c) {
  size_t len = 0;
  len = AppendStr(buf, len, cap, "{\"seq\":");
  len = AppendU64(buf, len, cap, seq);
  len = AppendStr(buf, len, cap, ",\"ts_us\":");
  len = AppendU64(buf, len, cap, ts_us);
  len = AppendStr(buf, len, cap, ",\"type\":\"");
  len = AppendStr(buf, len, cap, EventTypeName(type));
  len = AppendStr(buf, len, cap, "\",\"tid\":");
  len = AppendU64(buf, len, cap, tid);
  len = AppendStr(buf, len, cap, ",\"q\":");
  len = AppendU64(buf, len, cap, q);
  if (name != nullptr && name[0] != '\0') {
    len = AppendStr(buf, len, cap, ",\"name\":\"");
    len = AppendJsonStr(buf, len, cap, name);
    len = AppendStr(buf, len, cap, "\"");
  }
  len = AppendStr(buf, len, cap, ",\"a\":");
  len = AppendU64(buf, len, cap, a);
  len = AppendStr(buf, len, cap, ",\"b\":");
  len = AppendU64(buf, len, cap, b);
  len = AppendStr(buf, len, cap, ",\"c\":");
  len = AppendU64(buf, len, cap, c);
  len = AppendStr(buf, len, cap, "}");
  return len;
}

void WriteAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n <= 0) return;  // best effort — we may be dying
    off += static_cast<size_t>(n);
  }
}

// ---- crash handler state --------------------------------------------------

struct CrashState {
  std::atomic<bool> installed{false};
  std::atomic<bool> dumping{false};
  char dir[512] = {};
  struct sigaction previous[5] = {};
};

CrashState& Crash() {
  static CrashState* state = new CrashState();
  return *state;
}

constexpr int kFatalSignals[5] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};

void CrashSignalHandler(int signo) {
  CrashState& crash = Crash();
  // A fault inside the dump (or a second faulting thread) must not recurse.
  if (!crash.dumping.exchange(true)) {
    FlightRecorder& fr = FlightRecorder::Global();
    fr.RecordBuildInfo();
    fr.Record(EventType::kCrash, 0, static_cast<uint64_t>(signo), 0, 0);
    char path[600];
    size_t len = 0;
    len = AppendStr(path, len, sizeof(path), crash.dir);
    len = AppendStr(path, len, sizeof(path), "/idf-crash-");
    len = AppendU64(path, len, sizeof(path),
                    static_cast<uint64_t>(::getpid()));
    len = AppendStr(path, len, sizeof(path), ".events.jsonl");
    path[len] = '\0';
    const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      fr.DumpToFd(fd);
      ::close(fd);
      const char* msg = "flight recorder: crash journal written to ";
      WriteAll(2, msg, std::strlen(msg));
      WriteAll(2, path, len);
      WriteAll(2, "\n", 1);
    }
  }
  // Restore the original disposition and re-raise so the process still dies
  // with the right signal (core dumps, gtest death tests, CI reporting).
  for (size_t i = 0; i < 5; ++i) {
    if (kFatalSignals[i] == signo) {
      ::sigaction(signo, &crash.previous[i], nullptr);
      break;
    }
  }
  ::raise(signo);
}

}  // namespace

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kTaskStart: return "task_start";
    case EventType::kTaskFinish: return "task_finish";
    case EventType::kTaskFail: return "task_fail";
    case EventType::kSteal: return "steal";
    case EventType::kResidentHit: return "resident_hit";
    case EventType::kResidentMiss: return "resident_miss";
    case EventType::kEvict: return "evict";
    case EventType::kSpillWrite: return "spill_write";
    case EventType::kReloadDemand: return "reload_demand";
    case EventType::kBatchSeal: return "batch_seal";
    case EventType::kRecoveryBlock: return "recovery_block";
    case EventType::kExecutorKill: return "executor_kill";
    case EventType::kCrash: return "crash";
    case EventType::kShufflePush: return "shuffle_push";
    case EventType::kQuerySubmit: return "query_submit";
    case EventType::kQueryAdmit: return "query_admit";
    case EventType::kQueryReject: return "query_reject";
    case EventType::kQueryStart: return "query_start";
    case EventType::kQueryFinish: return "query_finish";
    case EventType::kQueryCancel: return "query_cancel";
    case EventType::kQueryDeadline: return "query_deadline";
    case EventType::kChaosArm: return "chaos_arm";
    case EventType::kChaosFault: return "chaos_fault";
    case EventType::kBuildInfo: return "build_info";
    case EventType::kStageFinish: return "stage_finish";
  }
  return "event";
}

std::string EventJson(const FlightEvent& event) {
  char line[1024];
  const size_t len =
      FormatEventLine(line, sizeof(line), event.seq, event.ts_us, event.type,
                      event.tid, event.q, event.name.c_str(), event.a,
                      event.b, event.c);
  return std::string(line, len);
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::FlightRecorder()
    : slots_(kCapacity), dump_buffer_(new RawEvent[kCapacity]) {
  epoch_ns_ = SteadyNowNs();
  pool_full_id_ = InternName("<pool-full>");
  // Counters are resolved here, never in Record. The lapped counter makes
  // journal truncation visible on /metrics instead of silent.
  Registry& registry = Registry::Global();
  lapped_ = &registry.GetCounter("obs.ring.lapped");
  auto counter = [&registry](const char* name) {
    return name != nullptr ? &registry.GetCounter(name) : nullptr;
  };
  for (const CountedKind& kind : kCountedKinds) {
    feeds_[static_cast<size_t>(kind.type)] = {
        counter(kind.per_event), counter(kind.per_a), kind.field};
  }
  build_info_name_id_ = InternName(BuildInfoSummary());
  RecordBuildInfo();
}

void FlightRecorder::RecordBuildInfo() {
  Record(EventType::kBuildInfo, build_info_name_id_,
         static_cast<uint64_t>(UptimeSeconds()), 0, 0);
}

uint64_t FlightRecorder::NowMicros() const {
  return (SteadyNowNs() - epoch_ns_) / 1000;
}

uint32_t FlightRecorder::InternName(const std::string& name) {
  if (name.empty()) return 0;
  std::lock_guard<std::mutex> lock(names_mutex_);
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const uint32_t id = num_names_.load(std::memory_order_relaxed);
  if (id >= kMaxNames || name_pool_used_ + name.size() + 1 > kNamePoolBytes) {
    // Pool exhausted: map everything else onto the sentinel interned at
    // construction, so the event still dumps (name lost, event kept).
    return pool_full_id_;
  }
  name_offset_[id] = static_cast<uint32_t>(name_pool_used_);
  std::memcpy(name_pool_ + name_pool_used_, name.data(), name.size());
  name_pool_used_ += name.size();
  name_pool_[name_pool_used_++] = '\0';
  name_ids_.emplace(name, id);
  num_names_.store(id + 1, std::memory_order_release);
  return id;
}

const char* FlightRecorder::NameAt(uint32_t id) const {
  if (id == 0 || id >= num_names_.load(std::memory_order_acquire)) return "";
  return name_pool_ + name_offset_[id];
}

void FlightRecorder::Record(EventType type, uint32_t name_id, uint64_t a,
                            uint64_t b, uint64_t c) {
  RecordAt(NowMicros(), type, name_id, a, b, c);
}

void FlightRecorder::RecordSpanEnd(EventType type, uint32_t name_id,
                                   uint64_t a, uint64_t b, uint64_t start_us) {
  const uint64_t now = NowMicros();
  RecordAt(now, type, name_id, a, b, now - start_us);
}

void FlightRecorder::RecordAt(uint64_t ts_us, EventType type,
                              uint32_t name_id, uint64_t a, uint64_t b,
                              uint64_t c) {
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  if (ticket >= kCapacity) lapped_->Increment();  // overwrote an old event
  Slot& slot = slots_[ticket & (kCapacity - 1)];
  // Invalidate, write payload, publish. All payload words are relaxed
  // atomics: a lapping writer racing this slot produces a seq mismatch the
  // reader discards, never a torn word or a TSan race.
  slot.seq.store(0, std::memory_order_release);
  slot.ts.store(ts_us, std::memory_order_relaxed);
  slot.meta.store(PackMeta(type, ThreadId(), name_id),
                  std::memory_order_relaxed);
  slot.q.store(CurrentQueryId(), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.c.store(c, std::memory_order_relaxed);
  slot.seq.store(ticket + 1, std::memory_order_release);

  // Counting (kCountedKinds): the registry totals and the query's profile
  // move together here, and nowhere else. Kinds without a row — among them
  // the crash path's — stop here without resolving a profile (mutex).
  const Feed& feed = feeds_[static_cast<size_t>(type)];
  if (feed.per_event != nullptr) feed.per_event->Increment();
  if (feed.per_a != nullptr) feed.per_a->Add(a);
  if (feed.field == nullptr) return;
  QueryProfile* profile = CurrentQueryProfile();
  (profile->*feed.field)
      .fetch_add(feed.per_a != nullptr ? a : 1, std::memory_order_relaxed);
  if (type == EventType::kTaskFinish || type == EventType::kTaskFail) {
    profile->OnTaskDone(name_id, c, type == EventType::kTaskFail);
  }
}

size_t FlightRecorder::CopyValid(RawEvent* out, size_t max_events) const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t window = std::min<uint64_t>(head, kCapacity);
  uint64_t want = window;
  if (max_events > 0) want = std::min<uint64_t>(want, max_events);
  size_t n = 0;
  for (uint64_t ticket = head - want; ticket < head; ++ticket) {
    const Slot& slot = slots_[ticket & (kCapacity - 1)];
    const uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
    RawEvent raw;
    raw.ts = slot.ts.load(std::memory_order_relaxed);
    raw.meta = slot.meta.load(std::memory_order_relaxed);
    raw.q = slot.q.load(std::memory_order_relaxed);
    raw.a = slot.a.load(std::memory_order_relaxed);
    raw.b = slot.b.load(std::memory_order_relaxed);
    raw.c = slot.c.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    const uint64_t seq_after = slot.seq.load(std::memory_order_relaxed);
    // Valid only if the slot still holds this ticket's event (not zeroed by
    // a writer mid-update, not already lapped by a newer ticket).
    if (seq_before != ticket + 1 || seq_after != ticket + 1) continue;
    raw.seq = ticket;
    out[n++] = raw;
  }
  return n;
}

std::vector<FlightEvent> FlightRecorder::Snapshot(size_t max_events) const {
  std::vector<RawEvent> raw(std::min<size_t>(
      max_events == 0 ? kCapacity : max_events, kCapacity));
  const size_t n = CopyValid(raw.data(), raw.size());
  std::vector<FlightEvent> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    FlightEvent e;
    e.seq = raw[i].seq;
    e.ts_us = raw[i].ts;
    e.type = static_cast<EventType>(raw[i].meta & 0xFF);
    e.tid = static_cast<uint32_t>((raw[i].meta >> 8) & 0xFFFFFFu);
    e.q = raw[i].q;
    e.name = NameAt(static_cast<uint32_t>(raw[i].meta >> 32));
    e.a = raw[i].a;
    e.b = raw[i].b;
    e.c = raw[i].c;
    out.push_back(std::move(e));
  }
  return out;
}

std::string FlightRecorder::ToJsonl(size_t max_events) const {
  const std::vector<FlightEvent> events = Snapshot(max_events);
  std::string out;
  out.reserve(events.size() * 96);
  char line[1024];
  for (const FlightEvent& e : events) {
    const size_t len =
        FormatEventLine(line, sizeof(line), e.seq, e.ts_us, e.type, e.tid,
                        e.q, e.name.c_str(), e.a, e.b, e.c);
    out.append(line, len);
    out.push_back('\n');
  }
  return out;
}

Status FlightRecorder::DumpJsonl(const std::string& path,
                                 size_t max_events) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Unavailable("cannot open events file '" + path + "'");
  }
  const std::string body = ToJsonl(max_events);
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) {
    return Status::Unavailable("short write to events file '" + path + "'");
  }
  return Status::OK();
}

size_t FlightRecorder::DumpToFd(int fd, size_t max_events) const {
  // Preallocated buffer (ctor): the crash path must not allocate. The
  // dumping flag in CrashSignalHandler (and single-threaded test use)
  // keeps this exclusive.
  RawEvent* raw = dump_buffer_.get();
  const size_t n = CopyValid(raw, max_events == 0 ? kCapacity : max_events);
  char line[1024];
  for (size_t i = 0; i < n; ++i) {
    const EventType type = static_cast<EventType>(raw[i].meta & 0xFF);
    const uint32_t tid = static_cast<uint32_t>((raw[i].meta >> 8) & 0xFFFFFFu);
    const char* name = NameAt(static_cast<uint32_t>(raw[i].meta >> 32));
    size_t len = FormatEventLine(line, sizeof(line), raw[i].seq, raw[i].ts,
                                 type, tid, raw[i].q, name, raw[i].a,
                                 raw[i].b, raw[i].c);
    if (len + 1 < sizeof(line)) line[len++] = '\n';
    WriteAll(fd, line, len);
  }
  return n;
}

void FlightRecorder::InstallCrashHandler(const std::string& dir) {
  CrashState& crash = Crash();
  if (crash.installed.exchange(true)) return;
  std::string resolved = dir;
  if (resolved.empty()) {
    if (const char* env = std::getenv("IDF_EVENTS_DIR")) resolved = env;
  }
  if (resolved.empty()) resolved = ".";
  std::strncpy(crash.dir, resolved.c_str(), sizeof(crash.dir) - 1);
  // Force-construct the recorder now: Global() must not run its first-time
  // initialization inside the signal handler.
  (void)Global();
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = CrashSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESETHAND;
  for (size_t i = 0; i < 5; ++i) {
    ::sigaction(kFatalSignals[i], &action, &crash.previous[i]);
  }
  IDF_LOG_DEBUG("flight recorder crash handler installed (dir: %s)",
                crash.dir);
}

}  // namespace idf::obs
