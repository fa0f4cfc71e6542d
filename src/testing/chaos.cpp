#include "testing/chaos.h"

#include <chrono>

#include "common/hash.h"
#include "obs/flight_recorder.h"

namespace idf::chaos {

namespace {

/// The one upward dependency: "evict every governed payload", wired by the
/// engine at startup (Cluster construction). Guarded by its own mutex so
/// registration and the evictor thread never race.
std::mutex g_actuator_mutex;
std::function<size_t()> g_evict_world;  // guarded by g_actuator_mutex

size_t RunEvictWorld() {
  std::function<size_t()> actuator;
  {
    std::lock_guard<std::mutex> lock(g_actuator_mutex);
    actuator = g_evict_world;
  }
  return actuator ? actuator() : 0;
}

}  // namespace

std::atomic<bool> ChaosEngine::active_{false};

ChaosConfig ChaosConfig::Mixed(uint64_t seed) {
  ChaosConfig config;
  config.seed = seed;
  config.task_delay_p = 0.05;
  config.task_evict_p = 0.08;
  config.task_kill_p = 0.02;
  config.task_cancel_p = 0.02;
  config.task_deadline_p = 0.02;
  config.budget_squeeze_p = 0.03;
  config.reload_fail_p = 0.03;
  config.reload_delay_p = 0.10;
  config.admit_delay_p = 0.10;
  config.max_delay_us = 300;
  return config;
}

ChaosEngine& ChaosEngine::Global() {
  static ChaosEngine* engine = new ChaosEngine();
  return *engine;
}

void ChaosEngine::RecomputeActive() {
  ChaosEngine& engine = Global();
  bool hooks_installed;
  {
    std::lock_guard<std::mutex> lock(engine.hooks_mutex_);
    hooks_installed = engine.hooks_ != nullptr;
  }
  active_.store(engine.armed() || hooks_installed,
                std::memory_order_relaxed);
}

void ChaosEngine::Arm(const ChaosConfig& config) {
  Disarm();  // joins a previous evictor; re-arming replaces everything
  {
    std::lock_guard<std::mutex> lock(mutex_);
    config_ = config;
    visits_.clear();
  }
  reload_ordinal_.store(0, std::memory_order_relaxed);
  total_faults_.store(0, std::memory_order_relaxed);
  for (auto& count : fault_counts_) count.store(0, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
  RecomputeActive();
  obs::FlightRecorder::Global().Record(obs::EventType::kChaosArm, 0,
                                       config.seed, 0, 0);
  if (config.evictor_period_us > 0) {
    {
      std::lock_guard<std::mutex> lock(evictor_mutex_);
      evictor_stop_ = false;
    }
    evictor_ = std::thread(&ChaosEngine::EvictorLoop, this);
  }
}

void ChaosEngine::Disarm() {
  armed_.store(false, std::memory_order_release);
  RecomputeActive();
  if (evictor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(evictor_mutex_);
      evictor_stop_ = true;
    }
    evictor_cv_.notify_all();
    evictor_.join();
  }
}

uint64_t ChaosEngine::seed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return config_.seed;
}

void ChaosEngine::SetHooks(ChaosHooks hooks) {
  ChaosEngine& engine = Global();
  const bool installed =
      hooks.on_reload != nullptr || hooks.on_task_start != nullptr;
  {
    std::lock_guard<std::mutex> lock(engine.hooks_mutex_);
    engine.hooks_ = installed
                        ? std::make_shared<const ChaosHooks>(std::move(hooks))
                        : nullptr;
    engine.hook_reload_ordinal_.store(0, std::memory_order_relaxed);
  }
  RecomputeActive();
}

void ChaosEngine::SetEvictWorldActuator(std::function<size_t()> actuator) {
  std::lock_guard<std::mutex> lock(g_actuator_mutex);
  if (!g_evict_world) g_evict_world = std::move(actuator);
}

uint64_t ChaosEngine::faults_of(Fault kind) const {
  return fault_counts_[static_cast<size_t>(kind)].load(
      std::memory_order_relaxed);
}

void ChaosEngine::RecordFault(Site site, Fault kind, uint64_t key,
                              uint64_t aux) {
  total_faults_.fetch_add(1, std::memory_order_relaxed);
  fault_counts_[static_cast<size_t>(kind)].fetch_add(
      1, std::memory_order_relaxed);
  obs::FlightRecorder::Global().Record(obs::EventType::kChaosFault, 0,
                                       static_cast<uint64_t>(site) << 8 |
                                           static_cast<uint64_t>(kind),
                                       key, aux);
}

uint64_t ChaosEngine::VisitHash(Site site, uint64_t key) {
  const uint64_t site_key =
      HashCombine(Mix64(static_cast<uint64_t>(site) + 0x5157), key);
  uint64_t seed;
  uint64_t visit;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    seed = config_.seed;
    visit = ++visits_[site_key];
  }
  return HashCombine(HashCombine(Mix64(seed), site_key), visit);
}

bool ChaosEngine::Roll(uint64_t visit_hash, Fault kind, double p) {
  if (p <= 0.0) return false;
  const uint64_t h =
      Mix64(visit_hash ^ (static_cast<uint64_t>(kind) * 0x9e3779b97f4a7c15ULL));
  // Top 53 bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
}

uint32_t ChaosEngine::RollDelayUs(uint64_t visit_hash, Fault kind) const {
  uint32_t max_delay;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    max_delay = config_.max_delay_us;
  }
  if (max_delay == 0) return 1;
  const uint64_t h = Mix64(visit_hash + static_cast<uint64_t>(kind) + 0xde1a);
  return 1 + static_cast<uint32_t>(h % max_delay);
}

TaskAction ChaosEngine::OnTaskStart(uint64_t stage_hash, uint32_t task_index) {
  TaskAction action;
  {
    std::shared_ptr<const ChaosHooks> hooks;
    {
      std::lock_guard<std::mutex> lock(hooks_mutex_);
      hooks = hooks_;
    }
    if (hooks != nullptr && hooks->on_task_start) hooks->on_task_start();
  }
  if (!armed()) return action;
  ChaosConfig config;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    config = config_;
  }
  const uint64_t key = HashCombine(stage_hash, task_index);
  const uint64_t h = VisitHash(Site::kTask, key);
  if (Roll(h, Fault::kTaskDelay, config.task_delay_p)) {
    action.delay_us = RollDelayUs(h, Fault::kTaskDelay);
    RecordFault(Site::kTask, Fault::kTaskDelay, key, action.delay_us);
  }
  if (Roll(h, Fault::kEvictWorld, config.task_evict_p)) {
    action.evict_world = true;
    RecordFault(Site::kTask, Fault::kEvictWorld, key, 0);
  }
  if (Roll(h, Fault::kBudgetSqueeze, config.budget_squeeze_p)) {
    action.squeeze_budget = true;
    RecordFault(Site::kTask, Fault::kBudgetSqueeze, key, 0);
  }
  // The remaining task faults are recorded by the applier (RecordFault from
  // the cluster) because they sit behind guards the engine cannot see:
  // kill needs >1 alive executor, cancel/deadline need an owning query.
  action.kill_executor = Roll(h, Fault::kKillExecutor, config.task_kill_p);
  action.cancel_query = Roll(h, Fault::kCancelQuery, config.task_cancel_p);
  action.expire_query = Roll(h, Fault::kExpireQuery, config.task_deadline_p);
  return action;
}

Status ChaosEngine::OnReload(uint64_t owner, uint32_t shard, uint32_t index) {
  {
    std::shared_ptr<const ChaosHooks> hooks;
    {
      std::lock_guard<std::mutex> lock(hooks_mutex_);
      hooks = hooks_;
    }
    if (hooks != nullptr && hooks->on_reload) {
      const uint64_t ordinal =
          hook_reload_ordinal_.fetch_add(1, std::memory_order_relaxed) + 1;
      IDF_RETURN_IF_ERROR(hooks->on_reload(owner, shard, index, ordinal));
    }
  }
  if (!armed()) return Status::OK();
  ChaosConfig config;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    config = config_;
  }
  const uint64_t key =
      HashCombine(HashCombine(Mix64(owner), shard), index);
  const uint64_t h = VisitHash(Site::kReload, key);
  if (Roll(h, Fault::kReloadDelay, config.reload_delay_p)) {
    const uint32_t delay_us = RollDelayUs(h, Fault::kReloadDelay);
    RecordFault(Site::kReload, Fault::kReloadDelay, key, delay_us);
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
  // The armed ordinal counts every reload since Arm(); a failure's journal
  // event carries it.
  const uint64_t ordinal =
      reload_ordinal_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Roll(h, Fault::kReloadFail, config.reload_fail_p)) {
    RecordFault(Site::kReload, Fault::kReloadFail, key, ordinal);
    return Status::Unavailable("chaos: demand reload failed");
  }
  return Status::OK();
}

uint32_t ChaosEngine::OnAdmissionDelayUs(uint64_t query_id) {
  if (!armed()) return 0;
  ChaosConfig config;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    config = config_;
  }
  const uint64_t h = VisitHash(Site::kAdmission, Mix64(query_id));
  if (!Roll(h, Fault::kAdmitDelay, config.admit_delay_p)) return 0;
  const uint32_t delay_us = RollDelayUs(h, Fault::kAdmitDelay);
  RecordFault(Site::kAdmission, Fault::kAdmitDelay, Mix64(query_id),
              delay_us);
  return delay_us;
}

void ChaosEngine::EvictorLoop() {
  uint32_t period_us;
  uint64_t seed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    period_us = config_.evictor_period_us;
    seed = config_.seed;
  }
  uint64_t tick = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(evictor_mutex_);
      evictor_cv_.wait_for(lock, std::chrono::microseconds(period_us),
                           [&] { return evictor_stop_; });
      if (evictor_stop_) return;
    }
    // Seeded decision, wall-clock timing: every other tick evicts, with
    // the phase drawn from the seed so different seeds shear differently
    // against the workload.
    ++tick;
    if (((tick + seed) & 1) == 0) continue;
    const size_t evicted = RunEvictWorld();
    if (evicted > 0) {
      RecordFault(Site::kTask, Fault::kEvictWorld, /*key=*/tick, evicted);
    }
  }
}

}  // namespace idf::chaos
