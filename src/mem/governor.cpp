#include "mem/governor.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/query_profile.h"
#include "testing/chaos.h"

namespace idf::mem {

namespace {

/// mem.* metric handles, resolved once (see obs/metrics_registry.h).
struct MemMetrics {
  obs::Gauge& resident = obs::Registry::Global().GetGauge("mem.resident_bytes");
  obs::Gauge& spilled = obs::Registry::Global().GetGauge("mem.spilled_bytes");
  obs::Gauge& budget = obs::Registry::Global().GetGauge("mem.budget_bytes");
  obs::Counter& pin_blocks =
      obs::Registry::Global().GetCounter("mem.pin_blocks");
  obs::Gauge& reserved =
      obs::Registry::Global().GetGauge("mem.reserved_bytes");

  static MemMetrics& Get() {
    static MemMetrics* metrics = new MemMetrics();
    return *metrics;
  }
};

thread_local AccessScope* t_current_scope = nullptr;

/// Chaos-bus reload site (src/testing/chaos.h): scripted hooks and armed
/// probability faults, consulted before every payload reload. Production
/// cost is one relaxed load. Called with the governor mutex held — an
/// injected delay therefore widens the eviction/reload race exactly where
/// concurrent readers of the same payload queue up.
Status RunReloadChaos(const SpillIdentity& id) {
  if (!chaos::ChaosEngine::Active()) return Status::OK();
  return chaos::ChaosEngine::Global().OnReload(id.owner, id.shard, id.index);
}

}  // namespace

std::atomic<bool> MemoryGovernor::engaged_{false};

// ---- SpillFile --------------------------------------------------------------

SpillFile::~SpillFile() {
  std::error_code ec;
  std::filesystem::remove(path_, ec);  // best effort
}

// ---- Evictable --------------------------------------------------------------

Evictable::~Evictable() {
  // The most-derived destructor must have retired the payload already; an
  // entry still registered here would let the governor call pure-virtual
  // payload hooks on a half-destroyed object.
  IDF_CHECK_MSG(!registered_, "Evictable destroyed without retiring");
  AccessScope::ForgetDying(this);
}

void Evictable::SealForGovernor() {
  if (sealed_.exchange(true, std::memory_order_acq_rel)) return;
  MemoryGovernor::Global().OnSealed(this);
}

void Evictable::RetireFromGovernor() {
  MemoryGovernor::Global().OnRetired(this);
}

void Evictable::AccountAllocated(uint64_t bytes) {
  MemoryGovernor::Global().OnAllocated(this, bytes);
}

// ---- MemoryGovernor ---------------------------------------------------------

MemoryGovernor& MemoryGovernor::Global() {
  static MemoryGovernor* governor = new MemoryGovernor();
  return *governor;
}

void MemoryGovernor::Configure(uint64_t budget_bytes,
                               const std::string& spill_dir) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!spill_dir.empty()) {
      // A per-process subdirectory: concurrent processes pointed at one
      // IDF_SPILL_DIR (e.g. parallel ctest sharing $RUNNER_TEMP) must never
      // see — let alone clobber or truncate — each other's spill files.
      const std::string pid_subdir = "idf-spill-" + std::to_string(::getpid());
      if (std::filesystem::path(spill_dir).filename().string() != pid_subdir) {
        spill_dir_ = (std::filesystem::path(spill_dir) / pid_subdir).string();
      } else {
        spill_dir_ = spill_dir;
      }
    }
    budget_.store(budget_bytes, std::memory_order_relaxed);
    if (budget_bytes > 0) engaged_.store(true, std::memory_order_relaxed);
    MemMetrics::Get().budget.Set(static_cast<double>(budget_bytes));
  }
  if (budget_bytes > 0) EnforceBudget();
}

std::string MemoryGovernor::spill_dir() {
  std::lock_guard<std::mutex> lock(mutex_);
  return SpillDirLocked();
}

const std::string& MemoryGovernor::SpillDirLocked() {
  if (spill_dir_.empty()) {
    std::error_code ec;
    std::filesystem::path dir =
        std::filesystem::temp_directory_path(ec) /
        ("idf-spill-" + std::to_string(::getpid()));
    spill_dir_ = dir.string();
  }
  std::error_code ec;
  std::filesystem::create_directories(spill_dir_, ec);
  return spill_dir_;
}

Status MemoryGovernor::TryReserve(uint64_t bytes) {
  const uint64_t budget = budget_.load(std::memory_order_relaxed);
  if (budget == 0) {
    // No budget, no admission limit — still account so /queries can show
    // outstanding reservations.
    reserved_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    MemMetrics::Get().reserved.Set(
        static_cast<double>(reserved_bytes_.load(std::memory_order_relaxed)));
    return Status::OK();
  }
  uint64_t current = reserved_bytes_.load(std::memory_order_relaxed);
  while (true) {
    if (current + bytes > budget) {
      return Status::ResourceExhausted(
          "reservation of " + std::to_string(bytes) + " bytes exceeds budget (" +
          std::to_string(current) + " of " + std::to_string(budget) +
          " already reserved)");
    }
    if (reserved_bytes_.compare_exchange_weak(current, current + bytes,
                                              std::memory_order_relaxed)) {
      MemMetrics::Get().reserved.Set(static_cast<double>(current + bytes));
      return Status::OK();
    }
  }
}

void MemoryGovernor::ReleaseReservation(uint64_t bytes) {
  uint64_t current = reserved_bytes_.load(std::memory_order_relaxed);
  while (true) {
    const uint64_t next = current >= bytes ? current - bytes : 0;
    if (reserved_bytes_.compare_exchange_weak(current, next,
                                              std::memory_order_relaxed)) {
      MemMetrics::Get().reserved.Set(static_cast<double>(next));
      return;
    }
  }
}

void MemoryGovernor::OnAllocated(Evictable* e, uint64_t bytes) {
  (void)e;
  resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  MemMetrics::Get().resident.Set(static_cast<double>(resident_bytes()));
  const uint64_t budget = budget_.load(std::memory_order_relaxed);
  if (budget > 0 && resident_bytes() > budget) EnforceBudget();
}

void MemoryGovernor::OnSealed(Evictable* e) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!e->registered_) {
      e->registered_ = true;
      registry_.push_back(e);
    }
  }
  const uint64_t budget = budget_.load(std::memory_order_relaxed);
  if (budget > 0 && resident_bytes() > budget) EnforceBudget();
}

void MemoryGovernor::OnRetired(Evictable* e) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (e->registered_) {
    registry_.erase(std::remove(registry_.begin(), registry_.end(), e),
                    registry_.end());
    e->registered_ = false;
  }
  // Scrub transient pins on the dying payload so no thread's slot dangles
  // into freed memory (the pin itself dies with the object).
  for (auto& [tid, pinned] : transient_pins_) {
    if (pinned == e) pinned = nullptr;
  }
  // Final accounting: a resident payload frees RAM, a spilled one its
  // spilled bytes; its spill file is removed with it.
  if (e->state_.load(std::memory_order_seq_cst) == Evictable::kResident) {
    resident_bytes_.fetch_sub(e->PayloadBytes(), std::memory_order_relaxed);
  } else {
    spilled_bytes_.fetch_sub(e->spill_bytes_, std::memory_order_relaxed);
  }
  e->spill_file_.reset();
  MemMetrics& mm = MemMetrics::Get();
  mm.resident.Set(static_cast<double>(resident_bytes()));
  mm.spilled.Set(static_cast<double>(spilled_bytes()));
}

void MemoryGovernor::EnforceBudget() {
  std::lock_guard<std::mutex> lock(mutex_);
  EnforceBudgetLocked();
}

void MemoryGovernor::EnforceBudgetLocked() {
  const uint64_t budget = budget_.load(std::memory_order_relaxed);
  if (budget == 0) return;
  MemMetrics& mm = MemMetrics::Get();
  bool blocked = false;
  while (resident_bytes() > budget) {
    // Cost-aware LRU: oldest last-access first; among candidates of the
    // same age generation, prefer payloads that already have a spill file
    // (reload cost is a read with no write). Pinned payloads are skipped —
    // that is the "weighted by pin count" degenerate case: a pin makes the
    // eviction cost infinite for as long as it is held.
    Evictable* victim = nullptr;
    uint64_t best_age = 0;
    const uint64_t now = clock_.load(std::memory_order_relaxed);
    for (Evictable* e : registry_) {
      if (e->state_.load(std::memory_order_seq_cst) != Evictable::kResident) {
        continue;
      }
      if (e->pins_.load(std::memory_order_seq_cst) > 0) continue;
      const uint64_t last = e->last_access_.load(std::memory_order_relaxed);
      uint64_t age = now - std::min(now, last) + 1;
      if (e->spill_file_ != nullptr) age *= 2;  // reload is cheap: read-only
      if (victim == nullptr || age > best_age) {
        victim = e;
        best_age = age;
      }
    }
    if (victim == nullptr) {
      // Everything evictable is pinned (or already out): the budget is
      // temporarily overcommitted by the live working set.
      mm.pin_blocks.Increment();
      blocked = true;
      break;
    }
    if (!EvictLocked(victim)) break;
  }
  // Warn once per overcommit episode, not per enforcement call — a tight
  // budget triggers enforcement on every fault, which would flood the log.
  if (blocked && !warned_overcommit_) {
    warned_overcommit_ = true;
    IDF_LOG_WARN("memory budget overcommitted: resident=%llu budget=%llu "
                 "(all evictable payloads pinned)",
                 static_cast<unsigned long long>(resident_bytes()),
                 static_cast<unsigned long long>(budget));
  } else if (!blocked) {
    warned_overcommit_ = false;
  }
}

bool MemoryGovernor::EvictLocked(Evictable* victim) {
  MemMetrics& mm = MemMetrics::Get();
  // Dekker handshake with concurrent pinners (see header).
  victim->state_.store(Evictable::kEvicting, std::memory_order_seq_cst);
  if (victim->pins_.load(std::memory_order_seq_cst) > 0) {
    victim->state_.store(Evictable::kResident, std::memory_order_seq_cst);
    mm.pin_blocks.Increment();
    return true;  // not an error; the enforcement loop picks another victim
  }
  if (victim->spill_file_ == nullptr) {
    // Pid-qualified so concurrent processes pointed at one IDF_SPILL_DIR
    // (e.g. parallel ctest under $RUNNER_TEMP) never clobber each other.
    const std::string path = SpillDirLocked() + "/seg-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(next_spill_file_++) + ".spill";
    Result<uint64_t> written = victim->SpillPayload(path);
    if (!written.ok()) {
      victim->state_.store(Evictable::kResident, std::memory_order_seq_cst);
      IDF_LOG_WARN("spill failed, keeping payload resident: %s",
                   written.status().message().c_str());
      return false;
    }
    victim->spill_bytes_ = *written;
    victim->spill_file_ = std::make_unique<SpillFile>(path);
    obs::FlightRecorder::Global().Record(obs::EventType::kSpillWrite, 0,
                                         *written, victim->identity_.owner,
                                         victim->identity_.shard);
  }
  // Sealed payloads are immutable, so the spill file stays valid forever: a
  // re-eviction after a reload frees the buffer without rewriting the file.
  const uint64_t bytes = victim->PayloadBytes();
  victim->ReleasePayload();
  victim->state_.store(Evictable::kEvicted, std::memory_order_seq_cst);
  resident_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  spilled_bytes_.fetch_add(victim->spill_bytes_, std::memory_order_relaxed);
  mm.resident.Set(static_cast<double>(resident_bytes()));
  mm.spilled.Set(static_cast<double>(spilled_bytes()));
  obs::FlightRecorder::Global().Record(obs::EventType::kEvict, 0, bytes,
                                       victim->identity_.owner,
                                       victim->identity_.shard);
  return true;
}

Status MemoryGovernor::FaultIn(Evictable* e) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (e->state_.load(std::memory_order_seq_cst) == Evictable::kResident) {
    return Status::OK();  // raced with another reloader (or evict aborted)
  }
  IDF_CHECK_MSG(e->spill_file_ != nullptr, "evicted payload has no spill file");
  IDF_RETURN_IF_ERROR(RunReloadChaos(e->identity_));
  IDF_RETURN_IF_ERROR(e->ReloadPayload(e->spill_file_->path()));
  e->state_.store(Evictable::kResident, std::memory_order_seq_cst);
  const uint64_t bytes = e->PayloadBytes();
  resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  spilled_bytes_.fetch_sub(e->spill_bytes_, std::memory_order_relaxed);
  MemMetrics& mm = MemMetrics::Get();
  mm.resident.Set(static_cast<double>(resident_bytes()));
  mm.spilled.Set(static_cast<double>(spilled_bytes()));
  obs::FlightRecorder::Global().Record(obs::EventType::kReloadDemand, 0,
                                       e->spill_bytes_, e->identity_.owner,
                                       e->identity_.shard);
  // Reloading may push residency over budget; the caller holds a pin on
  // `e`, so enforcement will pick other victims.
  EnforceBudgetLocked();
  return Status::OK();
}

void MemoryGovernor::TransientPin(Evictable* e) {
  // The mutex serializes this with EvictLocked and OnRetired: a non-null
  // slot always points at a live payload, and the new pin is visible to
  // any evictor before it can pick a victim.
  std::lock_guard<std::mutex> lock(mutex_);
  Evictable*& slot = transient_pins_[std::this_thread::get_id()];
  if (slot == e) return;
  if (slot != nullptr) slot->pins_.fetch_sub(1, std::memory_order_seq_cst);
  e->pins_.fetch_add(1, std::memory_order_seq_cst);
  slot = e;
}

ResidencyMap MemoryGovernor::ResidencySnapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  ResidencyMap map;
  for (Evictable* e : registry_) {
    if (e->identity_.owner == 0) continue;  // anonymous payloads: no key
    ResidencyInfo& info = map[{e->identity_.owner, e->identity_.shard}];
    // kEvicting never shows here: eviction runs under the same mutex.
    if (e->state_.load(std::memory_order_seq_cst) == Evictable::kEvicted) {
      info.spilled_bytes += e->spill_bytes_;
    } else {
      info.resident_bytes += e->PayloadBytes();
    }
    info.last_access = std::max(
        info.last_access, e->last_access_.load(std::memory_order_relaxed));
  }
  return map;
}

size_t MemoryGovernor::EvictPartition(uint64_t owner, uint32_t shard) {
  // Forced eviction implies out-of-core behavior: readers must start taking
  // the pin/fault-in path even if no budget was ever configured.
  engaged_.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  size_t evicted = 0;
  // EvictLocked mutates neither the registry nor our iteration position.
  for (Evictable* e : registry_) {
    if (e->identity_.owner != owner || e->identity_.shard != shard) continue;
    if (e->state_.load(std::memory_order_seq_cst) != Evictable::kResident) {
      continue;
    }
    if (e->pins_.load(std::memory_order_seq_cst) > 0) continue;
    if (EvictLocked(e) &&
        e->state_.load(std::memory_order_seq_cst) == Evictable::kEvicted) {
      ++evicted;
    }
  }
  return evicted;
}

uint64_t MemoryGovernor::TotalPinsForTesting() {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t pins = 0;
  for (Evictable* e : registry_) {
    pins += e->pins_.load(std::memory_order_seq_cst);
  }
  return pins;
}

size_t MemoryGovernor::ScrubTransientPinsForTesting() {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t released = 0;
  for (auto& entry : transient_pins_) {
    if (entry.second == nullptr) continue;
    entry.second->pins_.fetch_sub(1, std::memory_order_seq_cst);
    entry.second = nullptr;
    ++released;
  }
  return released;
}

// ---- AccessScope ------------------------------------------------------------

AccessScope::AccessScope() {
  if (t_current_scope != nullptr) return;  // nested: inert
  static std::atomic<uint64_t> next_id{1};
  id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  owner_ = true;
  t_current_scope = this;
}

AccessScope::~AccessScope() {
  if (!owner_) return;
  t_current_scope = nullptr;
  for (Evictable* e : pinned_) {
    e->pins_.fetch_sub(1, std::memory_order_seq_cst);
  }
  if (profile_ != nullptr) profile_->ReleasePinned(profile_pinned_bytes_);
}

void AccessScope::ForgetDying(Evictable* e) {
  AccessScope* scope = t_current_scope;
  if (scope == nullptr || e->pins_.load(std::memory_order_seq_cst) == 0) {
    return;
  }
  std::vector<Evictable*>& pinned = scope->pinned_;
  pinned.erase(std::remove(pinned.begin(), pinned.end(), e), pinned.end());
}

void AccessScope::PinSlow(Evictable* e) {
  MemoryGovernor& governor = MemoryGovernor::Global();
  AccessScope* scope = t_current_scope;
  if (scope != nullptr &&
      e->scope_hint_.load(std::memory_order_relaxed) == scope->id_) {
    return;  // already pinned by this scope; still pinned, still resident
  }
  e->last_access_.store(
      governor.clock_.fetch_add(1, std::memory_order_relaxed),
      std::memory_order_relaxed);
  if (scope == nullptr) {
    // No scope: take a transient pin — released by this thread's next
    // scope-less pin — so the payload cannot be evicted (by a concurrent
    // enforcer, or a same-thread allocation pushing over budget) while the
    // caller still holds the pointer it is about to read.
    governor.TransientPin(e);
    if (e->state_.load(std::memory_order_seq_cst) != Evictable::kResident) {
      Status reloaded = governor.FaultIn(e);
      if (!reloaded.ok()) throw ReloadFault(std::move(reloaded));
    }
    return;
  }
  e->pins_.fetch_add(1, std::memory_order_seq_cst);
  scope->pinned_.push_back(e);
  e->scope_hint_.store(scope->id_, std::memory_order_relaxed);
  if (e->state_.load(std::memory_order_seq_cst) != Evictable::kResident) {
    Status reloaded = governor.FaultIn(e);
    if (!reloaded.ok()) throw ReloadFault(std::move(reloaded));
  }
  // Charge the payload to the current query's pinned-byte high-water mark
  // only after it is resident (PayloadBytes of an evicted payload would
  // under-count). Released in bulk when the outermost scope closes.
  if (scope->profile_ == nullptr) {
    scope->profile_ = obs::CurrentQueryProfile();
  }
  const uint64_t payload = e->PayloadBytes();
  scope->profile_->AddPinned(payload);
  scope->profile_pinned_bytes_ += payload;
}

// ---- ScopedBudget -----------------------------------------------------------

ScopedBudget::ScopedBudget(uint64_t budget_bytes, const std::string& spill_dir)
    : previous_(MemoryGovernor::Global().budget_bytes()) {
  MemoryGovernor::Global().Configure(budget_bytes, spill_dir);
}

ScopedBudget::~ScopedBudget() {
  MemoryGovernor::Global().Configure(previous_);
}

// ---- ParseByteSize ----------------------------------------------------------

Result<uint64_t> ParseByteSize(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty byte size");
  // std::stoull accepts a leading '-' and wraps ("-1" -> UINT64_MAX), and
  // skips whitespace / accepts '+'; a byte size must start with a digit.
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) {
    return Status::InvalidArgument("bad byte size '" + text + "'");
  }
  size_t pos = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &pos);
  } catch (const std::exception&) {
    return Status::InvalidArgument("bad byte size '" + text + "'");
  }
  uint64_t multiplier = 1;
  if (pos < text.size()) {
    std::string suffix = text.substr(pos);
    while (!suffix.empty() && suffix.back() == 'b') suffix.pop_back();
    if (suffix.size() == 1) {
      switch (std::tolower(static_cast<unsigned char>(suffix[0]))) {
        case 'k': multiplier = 1ull << 10; break;
        case 'm': multiplier = 1ull << 20; break;
        case 'g': multiplier = 1ull << 30; break;
        default: return Status::InvalidArgument("bad byte size '" + text + "'");
      }
    } else if (!suffix.empty()) {
      return Status::InvalidArgument("bad byte size '" + text + "'");
    }
  }
  return static_cast<uint64_t>(value) * multiplier;
}

}  // namespace idf::mem
