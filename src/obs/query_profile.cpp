#include "obs/query_profile.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"

namespace idf::obs {

namespace {

// Thread-local identity. The profile pointer is a cache of
// Registry.Get(t_query_id): resolved on scope install (or lazily for the
// unattributed bucket) so the recorder's feed never takes the registry
// mutex on the hot path.
thread_local uint64_t t_query_id = 0;
thread_local QueryProfile* t_profile = nullptr;

}  // namespace

void QueryProfile::OnTaskDone(uint32_t name_id, uint64_t wall_us,
                              bool failed) {
  task_wall_us.fetch_add(wall_us, std::memory_order_relaxed);
  if (failed) task_fails.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stages_mu_);
  AddStageLocked(StageTotals{name_id, 1, wall_us});
}

void QueryProfile::AddStageLocked(const StageTotals& totals) {
  for (StageTotals& s : stages_) {
    if (s.name_id != totals.name_id) continue;
    s.tasks += totals.tasks;
    s.wall_us += totals.wall_us;
    return;
  }
  stages_.push_back(totals);
}

void QueryProfile::AddPinned(uint64_t bytes) {
  const uint64_t now =
      current_pinned_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  uint64_t peak = peak_pinned_bytes.load(std::memory_order_relaxed);
  while (now > peak && !peak_pinned_bytes.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void QueryProfile::ReleasePinned(uint64_t bytes) {
  current_pinned_bytes.fetch_sub(bytes, std::memory_order_relaxed);
}

std::vector<QueryProfile::StageTotals> QueryProfile::Stages() const {
  std::lock_guard<std::mutex> lock(stages_mu_);
  return stages_;
}

void QueryProfile::Absorb(const QueryProfile& other) {
  auto add = [](std::atomic<uint64_t>& into,
                const std::atomic<uint64_t>& from) {
    into.fetch_add(from.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  };
  add(tasks, other.tasks);
  add(task_fails, other.task_fails);
  add(task_wall_us, other.task_wall_us);
  add(steals, other.steals);
  add(resident_hits, other.resident_hits);
  add(resident_misses, other.resident_misses);
  add(bytes_spilled, other.bytes_spilled);
  add(evictions, other.evictions);
  add(bytes_reloaded, other.bytes_reloaded);
  add(shuffle_pushed_bytes, other.shuffle_pushed_bytes);
  add(admission_wait_us, other.admission_wait_us);
  add(current_pinned_bytes, other.current_pinned_bytes);
  // The bucket is never installed by a scope, so only Absorb (under the
  // registry mutex) writes its peak.
  peak_pinned_bytes.store(
      std::max(peak_pinned_bytes.load(std::memory_order_relaxed),
               other.peak_pinned_bytes.load(std::memory_order_relaxed)),
      std::memory_order_relaxed);
  const std::vector<StageTotals> stages = other.Stages();
  std::lock_guard<std::mutex> lock(stages_mu_);
  for (const StageTotals& s : stages) AddStageLocked(s);
}

QueryProfileRegistry& QueryProfileRegistry::Global() {
  static QueryProfileRegistry* registry = new QueryProfileRegistry();
  return *registry;
}

QueryProfileRegistry::Entry& QueryProfileRegistry::EntryLocked(uint64_t id) {
  Entry& entry = profiles_[id];
  if (entry.profile == nullptr) {
    entry.profile = std::make_unique<QueryProfile>(id);
  }
  return entry;
}

QueryProfile* QueryProfileRegistry::Get(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  return EntryLocked(id).profile.get();
}

QueryProfile* QueryProfileRegistry::Acquire(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = EntryLocked(id);
  ++entry.scopes;
  return entry.profile.get();
}

void QueryProfileRegistry::ReleaseScope(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = profiles_.find(id);
  if (it == profiles_.end()) return;
  if (--it->second.scopes == 0 && it->second.retired) FoldLocked(it);
}

void QueryProfileRegistry::Retire(uint64_t id) {
  if (id == 0 || id == kRetiredQueryId) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = profiles_.find(id);
  if (it == profiles_.end()) return;
  it->second.retired = true;
  if (it->second.scopes == 0) FoldLocked(it);
}

void QueryProfileRegistry::FoldLocked(
    std::unordered_map<uint64_t, Entry>::iterator it) {
  std::unique_ptr<QueryProfile> retired = std::move(it->second.profile);
  profiles_.erase(it);
  EntryLocked(kRetiredQueryId).profile->Absorb(*retired);
}

std::vector<uint64_t> QueryProfileRegistry::Ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> ids;
  ids.reserve(profiles_.size());
  for (const auto& [id, entry] : profiles_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

namespace {

/// Copies one profile's counters; `stages` receives its stage table, still
/// keyed by interned name id. Called with the registry mutex held, so the
/// profile cannot be retired mid-copy.
QueryProfileSnapshot CopyCounters(
    const QueryProfile& p, std::vector<QueryProfile::StageTotals>* stages) {
  QueryProfileSnapshot out;
  out.id = p.id;
  out.tasks = p.tasks.load(std::memory_order_relaxed);
  out.task_fails = p.task_fails.load(std::memory_order_relaxed);
  out.task_wall_us = p.task_wall_us.load(std::memory_order_relaxed);
  out.steals = p.steals.load(std::memory_order_relaxed);
  out.resident_hits = p.resident_hits.load(std::memory_order_relaxed);
  out.resident_misses = p.resident_misses.load(std::memory_order_relaxed);
  out.bytes_spilled = p.bytes_spilled.load(std::memory_order_relaxed);
  out.evictions = p.evictions.load(std::memory_order_relaxed);
  out.bytes_reloaded = p.bytes_reloaded.load(std::memory_order_relaxed);
  out.shuffle_pushed_bytes =
      p.shuffle_pushed_bytes.load(std::memory_order_relaxed);
  out.admission_wait_us = p.admission_wait_us.load(std::memory_order_relaxed);
  out.current_pinned_bytes =
      p.current_pinned_bytes.load(std::memory_order_relaxed);
  out.peak_pinned_bytes = p.peak_pinned_bytes.load(std::memory_order_relaxed);
  *stages = p.Stages();
  return out;
}

/// Resolves the stage names (outside the registry mutex: the recorder's
/// name table has its own lock).
void NameStages(const std::vector<QueryProfile::StageTotals>& stages,
                QueryProfileSnapshot* out) {
  FlightRecorder& fr = FlightRecorder::Global();
  for (const QueryProfile::StageTotals& s : stages) {
    QueryProfileSnapshot::Stage stage;
    stage.name = fr.NameForId(s.name_id);
    stage.tasks = s.tasks;
    stage.wall_us = s.wall_us;
    out->stages.push_back(std::move(stage));
  }
}

}  // namespace

bool QueryProfileRegistry::Snapshot(uint64_t id,
                                    QueryProfileSnapshot* out) const {
  std::vector<QueryProfile::StageTotals> stages;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = profiles_.find(id);
    if (it == profiles_.end()) return false;
    *out = CopyCounters(*it->second.profile, &stages);
  }
  NameStages(stages, out);
  return true;
}

std::vector<QueryProfileSnapshot> QueryProfileRegistry::SnapshotAll() const {
  std::vector<QueryProfileSnapshot> out;
  std::vector<std::vector<QueryProfile::StageTotals>> stages;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.resize(profiles_.size());
    stages.resize(profiles_.size());
    size_t i = 0;
    for (const auto& [id, entry] : profiles_) {
      out[i] = CopyCounters(*entry.profile, &stages[i]);
      ++i;
    }
  }
  for (size_t i = 0; i < out.size(); ++i) NameStages(stages[i], &out[i]);
  std::sort(out.begin(), out.end(),
            [](const QueryProfileSnapshot& a, const QueryProfileSnapshot& b) {
              return a.id < b.id;
            });
  return out;
}

std::string QueryProfileJson(const QueryProfileSnapshot& snap) {
  std::string out = "{\"query_id\":" + std::to_string(snap.id);
  out += ",\"tasks\":" + std::to_string(snap.tasks);
  out += ",\"task_fails\":" + std::to_string(snap.task_fails);
  out += ",\"task_wall_us\":" + std::to_string(snap.task_wall_us);
  out += ",\"steals\":" + std::to_string(snap.steals);
  out += ",\"resident_hits\":" + std::to_string(snap.resident_hits);
  out += ",\"resident_misses\":" + std::to_string(snap.resident_misses);
  out += ",\"bytes_spilled\":" + std::to_string(snap.bytes_spilled);
  out += ",\"evictions\":" + std::to_string(snap.evictions);
  out += ",\"bytes_reloaded\":" + std::to_string(snap.bytes_reloaded);
  out += ",\"shuffle_pushed_bytes\":" +
         std::to_string(snap.shuffle_pushed_bytes);
  out += ",\"admission_wait_us\":" + std::to_string(snap.admission_wait_us);
  out += ",\"peak_pinned_bytes\":" + std::to_string(snap.peak_pinned_bytes);
  out += ",\"stages\":[";
  bool first = true;
  for (const QueryProfileSnapshot::Stage& s : snap.stages) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(s.name) + "\"";
    out += ",\"tasks\":" + std::to_string(s.tasks);
    out += ",\"wall_us\":" + std::to_string(s.wall_us) + "}";
  }
  return out + "]}";
}

uint64_t AllocateQueryId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t CurrentQueryId() { return t_query_id; }

QueryProfile* CurrentQueryProfile() {
  if (t_profile == nullptr) {
    t_profile = QueryProfileRegistry::Global().Get(t_query_id);
  }
  return t_profile;
}

QueryScope::QueryScope(uint64_t id)
    : id_(id), previous_id_(t_query_id), previous_profile_(t_profile) {
  t_query_id = id;
  // Resolve eagerly only on an id change: re-installing the ambient id
  // (nested scopes on the same lane) keeps the cached pointer, which the
  // outer scope already pins.
  if (id != previous_id_ || t_profile == nullptr) {
    t_profile = QueryProfileRegistry::Global().Acquire(id);
    acquired_ = true;
  }
}

QueryScope::~QueryScope() {
  t_query_id = previous_id_;
  t_profile = previous_profile_;
  if (acquired_) QueryProfileRegistry::Global().ReleaseScope(id_);
}

}  // namespace idf::obs
