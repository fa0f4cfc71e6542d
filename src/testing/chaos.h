// ChaosEngine: seeded, probability-configured cross-subsystem fault
// injection (the repo's robustness subsystem; docs/TESTING.md).
//
// Every subsystem with a failure surface consults one process-wide hook bus
// at its injection sites:
//   - the stage scheduler (Cluster::ExecuteTask): delay a lane's task (which
//     forces steals by the other lanes), force-evict the world between
//     tasks, kill an executor mid-stage, squeeze the budget, or fire the
//     owning query's cancel/deadline at a task boundary;
//   - the memory governor (FaultIn): fail or delay a payload reload;
//   - the query service (WorkerLoop): admission-queue churn delays.
//
// Determinism contract: every fault decision is a pure function of
//   (seed, site, stable logical coordinates, per-coordinate visit count)
// via hash mixing — never of wall-clock time or global arrival order. Two
// runs with the same seed and the same per-query work visit each logical
// coordinate the same number of times, so they draw the same fault
// schedule; thread interleaving cannot perturb it. (The one intentional
// exception is the optional background evictor, whose *timing* is
// wall-clock — it exists precisely to evict "during" tasks; its decisions
// are still armed by the seed.) Concurrent queries sharing coordinates
// share visit counters, so a multi-client storm replays approximately; a
// single-query run replays exactly. The differential gate is built to
// tolerate the residue: a chaos run must be byte-identical to clean OR
// fail with a retryable status and zero leaks, for ANY schedule.
//
// Arming: ChaosEngine::Global().Arm(config), from code only (the ChaosTest
// sweep arms ChaosConfig::Mixed(seed)). Every armed fault is recorded as a
// flight-recorder event (kChaosArm carries the seed; kChaosFault one line
// per injected fault), so a failing run's schedule is in the journal and
// replayable from the seed alone.
//
// Test hooks: SetHooks installs deterministic scripted callbacks on the
// same bus (the successor of the deleted mem::GovernorHooks) — on_reload is
// consulted before every payload reload with a 1-based ordinal, and
// on_task_start fires at every task boundary without governor locks held.
// Hooks and armed-probability chaos compose; production code installs
// neither, keeping every site's fast path a single relaxed load.
//
// Layering: this library sits below mem/engine/server (links only
// idf_common + idf_obs). It *decides* faults; each site applies them with
// its own layer's facilities (the governor fails the reload, the cluster
// kills the executor). The one upward call it needs — "evict every
// governed payload" for the background evictor — is injected by the engine
// at startup via SetEvictWorldActuator.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "common/status.h"

namespace idf::chaos {

/// Injection sites (flight-recorder payload `a` of chaos_fault events).
/// Values are journal-stable: 3 and 4 are retired and stay unused.
enum class Site : uint8_t {
  kTask = 1,         // Cluster::ExecuteTask, before the task body
  kReload = 2,       // MemoryGovernor::FaultIn, before the payload read
  kAdmission = 5,    // QueryService::WorkerLoop, after dequeue
};

/// Fault kinds (flight-recorder payload `b` of chaos_fault events). Values
/// are journal-stable: 9 (the deleted prefetcher's reload failure), 10 and
/// 11 are retired and stay unused.
enum class Fault : uint8_t {
  kTaskDelay = 1,      // sleep before the task body (forces steals)
  kEvictWorld = 2,     // force-evict every governed payload
  kKillExecutor = 3,   // kill the task's executor mid-stage
  kCancelQuery = 4,    // fire the owning query's cancel at a task boundary
  kExpireQuery = 5,    // fire the owning query's deadline at a task boundary
  kBudgetSqueeze = 6,  // halve the budget, enforce, restore
  kReloadFail = 7,     // fail a reload (kUnavailable)
  kReloadDelay = 8,    // sleep inside the reload (governor lock held)
  kAdmitDelay = 12,    // admission-queue churn delay
  kMaxFault = 13,
};

/// Probability-per-site configuration. All probabilities are in [0, 1] and
/// independent; 0 disables the fault. Delays draw a duration in
/// [1, max_delay_us] from the same seeded hash that armed them.
struct ChaosConfig {
  uint64_t seed = 1;

  // Stage-scheduler task boundary.
  double task_delay_p = 0;
  double task_evict_p = 0;
  double task_kill_p = 0;      // applied only while >1 executor is alive
  double task_cancel_p = 0;    // no-op outside a served/controlled query
  double task_deadline_p = 0;  // no-op outside a served/controlled query
  double budget_squeeze_p = 0;

  // Memory-governor reloads.
  double reload_fail_p = 0;
  double reload_delay_p = 0;

  // Query service admission.
  double admit_delay_p = 0;

  uint32_t max_delay_us = 500;

  /// Period of the background evictor thread, which force-evicts every
  /// governed payload *while tasks run* (not just between them). 0 = off.
  /// Its decisions are seeded; its timing is wall-clock by design.
  uint32_t evictor_period_us = 0;

  /// A moderate everything-on mix used by the ChaosTest sweep and the CI
  /// chaos leg: every fault class armed at a probability low enough that
  /// most queries still complete, high enough that a 20-seed sweep crosses
  /// every failure x eviction x concurrency pair.
  static ChaosConfig Mixed(uint64_t seed);
};

/// What the task-boundary site should do before running the task body.
/// The cluster applies these with engine/mem facilities (see chaos.h top).
struct TaskAction {
  uint32_t delay_us = 0;
  bool evict_world = false;
  bool kill_executor = false;
  bool cancel_query = false;
  bool expire_query = false;
  bool squeeze_budget = false;
};

/// Deterministic scripted callbacks on the same bus (successor of the old
/// mem::GovernorHooks; tests/pressure_test.cpp). Install with SetHooks;
/// pass {} to clear.
struct ChaosHooks {
  /// Consulted before every payload reload (MemoryGovernor::FaultIn).
  /// (owner, shard, index) are the payload's SpillIdentity coordinates;
  /// `ordinal` counts reloads since the hooks were installed (1-based).
  /// Returning non-OK fails the reload exactly as a disk error would;
  /// sleeping inside delays the fault-in (the governor lock is held, so
  /// concurrent readers of the same payload queue behind it). Must not call
  /// back into the governor.
  std::function<Status(uint64_t owner, uint32_t shard, uint32_t index,
                       uint64_t ordinal)>
      on_reload;
  /// Invoked at every task boundary (Cluster::ExecuteTask, before the task
  /// body), without governor locks held — may call EvictPartition etc. to
  /// force evictions *between* tasks deterministically.
  std::function<void()> on_task_start;
};

class ChaosEngine {
 public:
  /// The process-wide engine (leaky singleton, like obs::Registry).
  static ChaosEngine& Global();

  /// True while armed OR hooks are installed — the single relaxed load
  /// every site checks before doing anything else.
  static bool Active() { return active_.load(std::memory_order_relaxed); }

  /// Arms probability-driven injection with `config` (records kChaosArm
  /// with the seed, resets visit counters and fault tallies, starts the
  /// background evictor if configured). Re-arming replaces the config.
  void Arm(const ChaosConfig& config);

  /// Stops injecting (joins the evictor thread). Installed hooks survive.
  void Disarm();

  bool armed() const { return armed_.load(std::memory_order_acquire); }
  uint64_t seed() const;

  /// Installs (or, with {}, clears) the scripted test hooks.
  static void SetHooks(ChaosHooks hooks);

  // ---- site entry points (cheap no-ops unless Active()) -----------------

  /// Task boundary. Runs the on_task_start hook, then rolls the armed task
  /// faults for (stage_hash, task_index). `stage_hash` should be a stable
  /// hash of the stage name.
  TaskAction OnTaskStart(uint64_t stage_hash, uint32_t task_index);

  /// Reload of payload (owner, shard, index). Runs the on_reload hook,
  /// then the armed reload faults; sleeps armed delays in place (governor
  /// lock held — that is the point). Non-OK fails the reload.
  Status OnReload(uint64_t owner, uint32_t shard, uint32_t index);

  uint32_t OnAdmissionDelayUs(uint64_t query_id);

  // ---- actuators & accounting -------------------------------------------

  /// Injects "evict every governed payload" (the engine wires
  /// mem::EvictPartition over a residency snapshot here at startup). Used
  /// by the background evictor; idempotent first-wins.
  static void SetEvictWorldActuator(std::function<size_t()> actuator);

  /// Faults actually injected since the last Arm().
  uint64_t faults_injected() const {
    return total_faults_.load(std::memory_order_relaxed);
  }
  uint64_t faults_of(Fault kind) const;

  /// Tells the site-side applier a fault it was handed has been applied
  /// after a guard the engine cannot evaluate (e.g. the >1-alive-executor
  /// check before a kill). Records the flight-recorder event and tallies.
  void RecordFault(Site site, Fault kind, uint64_t key, uint64_t aux);

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

 private:
  ChaosEngine() = default;

  /// One seeded draw for this visit of (site, key): bumps the per-key visit
  /// counter and mixes (seed, site, key, visit) into a 64-bit hash all of
  /// the visit's fault rolls derive from.
  uint64_t VisitHash(Site site, uint64_t key);
  /// True with probability p, as a pure function of (visit_hash, kind).
  static bool Roll(uint64_t visit_hash, Fault kind, double p);
  /// Delay in [1, max_delay_us], as a pure function of (visit_hash, kind).
  uint32_t RollDelayUs(uint64_t visit_hash, Fault kind) const;

  void EvictorLoop();
  static void RecomputeActive();

  static std::atomic<bool> active_;

  mutable std::mutex mutex_;  // config_, visits_, evictor bookkeeping
  std::atomic<bool> armed_{false};
  ChaosConfig config_;
  std::map<uint64_t, uint64_t> visits_;       // visit count per (site, key)
  std::atomic<uint64_t> reload_ordinal_{0};   // reloads since Arm()
  std::atomic<uint64_t> total_faults_{0};
  std::atomic<uint64_t> fault_counts_[static_cast<size_t>(Fault::kMaxFault)] =
      {};

  // Scripted hooks (shared_ptr swap, same pattern the governor used).
  std::mutex hooks_mutex_;
  std::shared_ptr<const ChaosHooks> hooks_;
  std::atomic<uint64_t> hook_reload_ordinal_{0};

  // Background evictor: force-evicts the world every evictor_period_us
  // while armed. Joined by Disarm.
  std::thread evictor_;
  std::mutex evictor_mutex_;
  std::condition_variable evictor_cv_;
  bool evictor_stop_ = false;  // guarded by evictor_mutex_
};

}  // namespace idf::chaos
