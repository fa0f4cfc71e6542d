#include "engine/cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/hash.h"
#include "common/logging.h"
#include "common/timer.h"
#include "engine/cancel.h"
#include "engine/scheduler.h"
#include "mem/governor.h"
#include "obs/flight_recorder.h"
#include "obs/introspect.h"
#include "obs/metrics_registry.h"
#include "obs/query_profile.h"
#include "testing/chaos.h"

namespace idf {

namespace {

/// Cached registry handles for the engine's per-stage/per-task metrics —
/// resolved once, then one relaxed atomic op per update.
struct EngineMetrics {
  obs::Counter& stages = obs::Registry::Global().GetCounter("engine.stages");
  obs::Histogram& task_seconds =
      obs::Registry::Global().GetHistogram("engine.task.seconds");
  obs::Histogram& stage_real_seconds =
      obs::Registry::Global().GetHistogram("engine.stage.real_seconds");
  obs::Histogram& stage_wall_seconds =
      obs::Registry::Global().GetHistogram("engine.stage.wall_seconds");
  obs::Histogram& stage_simulated_seconds =
      obs::Registry::Global().GetHistogram("engine.stage.simulated_seconds");
  obs::Histogram& recovery_seconds =
      obs::Registry::Global().GetHistogram("engine.recovery.seconds");

  static EngineMetrics& Get() {
    static EngineMetrics* metrics = new EngineMetrics();
    return *metrics;
  }
};

/// True while this thread is executing a task body. A task that itself runs
/// a stage (nested RunStage) executes it in-line, sequentially: submitting
/// nested work to the pool could leave every pool thread blocked waiting
/// for work that only the pool itself could run.
thread_local bool t_in_stage_task = false;

/// The governor's live residency view as JSON, served at /residency by the
/// introspection server. Registered here (not in obs) so the obs layer
/// stays free of upward dependencies on mem.
std::string ResidencyJson() {
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const mem::ResidencyMap residency = gov.ResidencySnapshot();
  std::string partitions;
  for (const auto& [key, info] : residency) {
    if (!partitions.empty()) partitions += ",";
    partitions += "{\"rdd\":" + std::to_string(key.first) +
                  ",\"partition\":" + std::to_string(key.second) +
                  ",\"resident_bytes\":" + std::to_string(info.resident_bytes) +
                  ",\"spilled_bytes\":" + std::to_string(info.spilled_bytes) +
                  ",\"last_access\":" + std::to_string(info.last_access) + "}";
  }
  return "{\"engaged\":" +
         std::string(mem::MemoryGovernor::Engaged() ? "true" : "false") +
         ",\"budget_bytes\":" + std::to_string(gov.budget_bytes()) +
         ",\"resident_bytes\":" + std::to_string(gov.resident_bytes()) +
         ",\"spilled_bytes\":" + std::to_string(gov.spilled_bytes()) +
         ",\"partitions\":[" + partitions + "]}";
}

/// Force-evicts every governed payload (chaos kEvictWorld). Iterates a
/// residency snapshot rather than calling EnforceBudget so it evicts even
/// when the budget is satisfied — that is the point of the fault. Pinned
/// payloads survive (EvictPartition skips them), exactly like a real
/// worst-case pressure wave.
size_t ChaosEvictWorld() {
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  size_t evicted = 0;
  for (const auto& [key, info] : gov.ResidencySnapshot()) {
    evicted += gov.EvictPartition(key.first, key.second);
  }
  return evicted;
}

/// Chaos kBudgetSqueeze: halve the budget, enforce it (evicting down to the
/// squeezed ceiling), then restore. Serialized so two racing squeezes can't
/// observe each other's halved budget as the "previous" value and wedge the
/// budget low permanently.
void ChaosSqueezeBudget() {
  static std::mutex squeeze_mutex;
  std::lock_guard<std::mutex> lock(squeeze_mutex);
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const uint64_t prev = gov.budget_bytes();
  if (prev < 2) return;  // unbudgeted runs have nothing to squeeze
  gov.Configure(prev / 2);  // Configure(>0) enforces the squeezed budget
  gov.Configure(prev);
}

/// One-time observability wiring, done at first Cluster construction: the
/// /residency JSON source, the IDF_OBS_PORT server, and the IDF_EVENTS_DIR
/// crash handler. All opt-in; without the env vars only the (always-cheap)
/// handler registration happens. Also hands the chaos engine its one upward
/// actuator ("evict every governed payload", used by the background
/// evictor) — registration is unconditional and costs one mutex'd store.
void WireIntrospectionOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    obs::IntrospectionServer::Global().AddJsonHandler("/residency",
                                                      ResidencyJson);
    obs::IntrospectionServer::StartFromEnv();
    if (std::getenv("IDF_EVENTS_DIR") != nullptr) {
      obs::FlightRecorder::InstallCrashHandler();
    }
    chaos::ChaosEngine::SetEvictWorldActuator(ChaosEvictWorld);
  });
}

/// Records a finished stage under the query id its tasks carry, so the
/// stage's trace slice groups with its task slices (tools/idf_events.py
/// --chrome). Its wall micros run on the recorder clock from `start_us`,
/// stamped when the stage began: the event's timestamp minus its wall
/// micros is that stamp, so the slice covers every task event of the stage.
void RecordStageFinish(uint64_t query_id, uint32_t name_id,
                       const StageMetrics& metrics, uint64_t start_us) {
  obs::QueryScope query_scope(query_id);
  obs::FlightRecorder::Global().RecordSpanEnd(
      obs::EventType::kStageFinish, name_id, metrics.num_tasks,
      static_cast<uint64_t>(metrics.simulated_seconds * 1e6), start_us);
}

}  // namespace

/// Outcome slot for one task, written by whichever host thread ran it and
/// merged by the driver in task-index order.
struct Cluster::TaskResult {
  Status status = Status::OK();
  bool ran = false;       // false => cancelled after an earlier failure
  double elapsed = 0;
  TaskMetrics metrics;
  std::vector<SimRead> reads;
};

/// Leases reach their cluster through this cell. The mutex orders a
/// release against the cluster's destruction; it is recursive because what
/// a release destroys (a lineage closure) may hold the last lease of
/// another RDD.
struct RddLease::Anchor {
  std::recursive_mutex mutex;
  Cluster* cluster;  // null once the cluster is gone
};

RddLease::~RddLease() {
  std::lock_guard<std::recursive_mutex> lock(anchor_->mutex);
  if (anchor_->cluster != nullptr) anchor_->cluster->ReleaseRdd(rdd_);
}

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      simulator_(config),
      alive_(config.total_executors(), true),
      anchor_(std::make_shared<RddLease::Anchor>()) {
  anchor_->cluster = this;
  IDF_CHECK_OK(config_.Validate());
  scheduler_threads_ = ResolveSchedulerThreads(config_);

  // Engage the memory governor if a budget is configured. Environment
  // overrides win so a budget can be imposed on any binary without code
  // changes (IDF_MEMORY_BUDGET=256m ./sql_test).
  uint64_t budget = config_.memory_budget_bytes;
  if (const char* env = std::getenv("IDF_MEMORY_BUDGET")) {
    Result<uint64_t> parsed = mem::ParseByteSize(env);
    if (parsed.ok()) {
      budget = *parsed;
    } else {
      IDF_LOG_WARN("ignoring unparsable IDF_MEMORY_BUDGET='%s'", env);
    }
  }
  std::string spill_dir = config_.spill_dir;
  if (const char* env = std::getenv("IDF_SPILL_DIR")) spill_dir = env;
  if (budget > 0 || !spill_dir.empty()) {
    mem::MemoryGovernor::Global().Configure(budget, spill_dir);
  }
  WireIntrospectionOnce();
}

ThreadPool& Cluster::pool() {
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<ThreadPool>(scheduler_threads_);
  });
  return *pool_;
}

void Cluster::ApplyTaskChaos(const StageSpec& stage, uint32_t index,
                             ExecutorId executor, QueryControl* control) {
  if (!chaos::ChaosEngine::Active()) return;
  chaos::ChaosEngine& engine = chaos::ChaosEngine::Global();
  const uint64_t stage_hash = HashString(stage.name);
  const uint64_t key = HashCombine(stage_hash, index);
  const chaos::TaskAction action = engine.OnTaskStart(stage_hash, index);
  // Delaying this lane's task is also how "force a steal" is injected: the
  // lane sits on its claimed task while the other lanes drain their queues
  // and start stealing from it.
  if (action.delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(action.delay_us));
  }
  if (action.evict_world) ChaosEvictWorld();
  if (action.squeeze_budget) ChaosSqueezeBudget();
  // Kill/cancel/deadline sit behind guards the engine cannot evaluate, so
  // the decision came back unrecorded; record only what actually fired.
  if (action.kill_executor && TryKillExecutor(executor)) {
    engine.RecordFault(chaos::Site::kTask, chaos::Fault::kKillExecutor, key,
                       executor);
  }
  if (control != nullptr) {
    if (action.cancel_query) {
      control->Cancel();
      engine.RecordFault(chaos::Site::kTask, chaos::Fault::kCancelQuery, key,
                         0);
    }
    if (action.expire_query) {
      control->SetDeadlineMicros(QueryControl::NowMicros());
      engine.RecordFault(chaos::Site::kTask, chaos::Fault::kExpireQuery, key,
                         0);
    }
  }
}

void Cluster::ExecuteTask(const StageSpec& stage, uint32_t index,
                          ExecutorId executor, uint32_t stage_name_id,
                          QueryControl* control, TaskResult& out) {
  EngineMetrics& em = EngineMetrics::Get();
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  // Per-query attribution for everything this task does — the start/finish
  // events below, and every governor/shuffle event the body triggers on
  // this thread. The control's id wins (it is the served query's identity);
  // the ambient id covers unserved work (benches, tests, EXPLAIN ANALYZE).
  obs::QueryScope query_scope(control != nullptr && control->query_id() != 0
                                  ? control->query_id()
                                  : obs::CurrentQueryId());
  // Task-boundary cancellation check: a cancelled or past-deadline query
  // fails this task before its body runs, and first-error-wins unwinds the
  // rest of the stage. Cheap (two relaxed-ish atomic loads) and it runs on
  // the host thread that claimed the task, so every lane observes a cancel
  // within one task of it being requested. Its task_fail counts the task in
  // engine.tasks and the query's profile, like a body that failed.
  if (control != nullptr) {
    Status check = control->Check();
    if (!check.ok()) {
      out.status = std::move(check);
      out.ran = true;
      fr.Record(obs::EventType::kTaskFail, stage_name_id, index, executor, 0);
      return;
    }
  }
  // Propagate the driver's control onto this (pool) thread for the body's
  // duration: nested in-line stages and polling bodies pick it up via
  // CurrentQueryControl().
  ScopedQueryControl scoped_control(control);
  TaskContext ctx(this, executor);
  const bool was_in_task = t_in_stage_task;
  t_in_stage_task = true;
  // Chaos task-boundary site: scripted hooks (deterministic pressure
  // harnesses evicting between tasks) and armed probability faults. One
  // relaxed load when inactive.
  ApplyTaskChaos(stage, index, executor, control);
  fr.Record(obs::EventType::kTaskStart, stage_name_id, index, executor, 0);
  Stopwatch timer;
  try {
    out.status = stage.tasks[index].body(ctx);
  } catch (const mem::ReloadFault& fault) {
    // A spilled batch could not be reloaded (spill file lost, disk error).
    // Pointer-returning read paths have no Status channel, so the failure
    // unwinds to here; fail the task with its kUnavailable status — the
    // same class as a lost block — instead of crashing the process.
    out.status = fault.status();
  }
  out.elapsed = timer.ElapsedSeconds();
  t_in_stage_task = was_in_task;
  out.ran = true;
  em.task_seconds.Observe(out.elapsed);
  fr.Record(out.status.ok() ? obs::EventType::kTaskFinish
                            : obs::EventType::kTaskFail,
            stage_name_id, index, executor,
            static_cast<uint64_t>(out.elapsed * 1e6));
  if (!out.status.ok()) return;

  ctx.metrics().compute_seconds += out.elapsed;
  out.metrics = ctx.metrics();
  out.reads = ctx.reads();
}

Cluster::StagePlan Cluster::BuildStagePlan(
    const StageSpec& stage, const std::vector<ExecutorId>& alive) {
  const size_t n = stage.tasks.size();
  StagePlan plan;

  // Assignment: fix every task's executor up front, in task-index order. A
  // task keeps its preferred executor when alive; dead or unpinned
  // (kAnyExecutor) tasks round-robin across the alive set so they spread
  // instead of piling onto the first alive executor. The assignment depends
  // only on task order and the alive snapshot — work stealing moves tasks
  // between *host threads*, never between executors, so DES placement,
  // block homes, and shuffle accounting are identical to a sequential run.
  std::vector<uint32_t> lane_of_executor(config_.total_executors(), 0);
  std::vector<char> executor_alive(config_.total_executors(), 0);
  for (uint32_t lane = 0; lane < alive.size(); ++lane) {
    lane_of_executor[alive[lane]] = lane;
    executor_alive[alive[lane]] = 1;
  }
  plan.assigned.resize(n);
  plan.lane_of.resize(n);
  size_t rr = 0;
  for (size_t i = 0; i < n; ++i) {
    ExecutorId e = stage.tasks[i].preferred;
    if (e == kAnyExecutor || e >= executor_alive.size() ||
        !executor_alive[e]) {
      e = alive[rr++ % alive.size()];
    }
    plan.assigned[i] = e;
    plan.lane_of[i] = lane_of_executor[e];
  }

  // Residency-preferred dispatch order. One snapshot of the governor's
  // residency map per stage; tasks whose declared inputs are fully resident
  // dispatch ahead of tasks that would fault spilled bytes back in, so they
  // run while their inputs are still in memory, before later fault-ins can
  // evict them (stable on task index, so the order is deterministic and
  // collapses to task-index order when residency is moot). Only the *claim*
  // order changes — executor assignment (above) and the task-index merge
  // are untouched, so results, metrics totals, and DES accounting stay
  // identical to a sequential run.
  plan.order.resize(n);
  std::iota(plan.order.begin(), plan.order.end(), 0u);
  plan.resident.assign(n, 1);
  if (mem::MemoryGovernor::Engaged()) {
    bool any_inputs = false;
    for (const TaskSpec& t : stage.tasks) {
      if (!t.inputs.empty()) {
        any_inputs = true;
        break;
      }
    }
    if (any_inputs) {
      const mem::ResidencyMap residency =
          mem::MemoryGovernor::Global().ResidencySnapshot();
      for (size_t i = 0; i < n && !plan.have_residency; ++i) {
        for (const PartitionInput& in : stage.tasks[i].inputs) {
          auto it = residency.find({in.rdd, in.partition});
          if (it != residency.end() && it->second.spilled_bytes > 0) {
            plan.have_residency = true;
            break;
          }
        }
      }
      if (plan.have_residency) {
        for (size_t i = 0; i < n; ++i) {
          for (const PartitionInput& in : stage.tasks[i].inputs) {
            auto it = residency.find({in.rdd, in.partition});
            if (it != residency.end() && it->second.spilled_bytes > 0) {
              plan.resident[i] = 0;
              break;
            }
          }
        }
        std::stable_sort(plan.order.begin(), plan.order.end(),
                         [&](uint32_t a, uint32_t b) {
                           return plan.resident[a] > plan.resident[b];
                         });
      }
    }
  }
  return plan;
}

Result<StageMetrics> Cluster::RunStage(const StageSpec& stage) {
  // The owning query's cancellation token, captured once on the driver
  // thread (pool workers receive it through ExecuteTask). Null outside a
  // served query — all checks below collapse to a pointer compare.
  QueryControl* const control = CurrentQueryControl();
  if (control != nullptr) IDF_RETURN_IF_ERROR(control->Check());
  EngineMetrics& em = EngineMetrics::Get();
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  // The owning query id, re-installed on every pool worker below so steal
  // and residency events (recorded on the worker before/after ExecuteTask)
  // attribute to this query, not to whatever ran on that thread last.
  const uint64_t query_id = control != nullptr && control->query_id() != 0
                                ? control->query_id()
                                : obs::CurrentQueryId();
  // Interned once per stage (cold); tasks reuse the id on their hot path.
  const uint32_t stage_name_id = fr.InternName(stage.name);
  const uint64_t stage_start_us = fr.NowMicros();
  Stopwatch stage_timer;
  StageMetrics metrics;
  metrics.num_tasks = static_cast<uint32_t>(stage.tasks.size());
  const size_t n = stage.tasks.size();

  // Phases 1 + 1.5 (driver): executor assignment and residency-preferred
  // claim order.
  const std::vector<ExecutorId> alive = AliveExecutors();
  IDF_CHECK_MSG(!alive.empty(), "no alive executors");
  const StagePlan plan = BuildStagePlan(stage, alive);
  std::vector<TaskResult> results(n);

  // Runs one claimed task; returns false when it failed.
  auto run_task = [&](uint32_t index) {
    ExecuteTask(stage, index, plan.assigned[index], stage_name_id, control,
                results[index]);
    if (plan.have_residency) {
      fr.Record(plan.resident[index] ? obs::EventType::kResidentHit
                                     : obs::EventType::kResidentMiss,
                stage_name_id, index, 0, 0);
    }
    return results[index].status.ok();
  };

  // Phase 2: execute. Parallel on the pool when the scheduler has threads
  // to spare; in-line sequential otherwise, and always in-line for a stage
  // launched from inside a task body (re-entrancy guard above).
  const size_t workers = std::min<size_t>(scheduler_threads_, n);
  if (workers <= 1 || t_in_stage_task) {
    for (uint32_t index : plan.order) {
      if (!run_task(index)) break;
    }
  } else {
    TaskLanes lanes(plan.lane_of, alive.size(), plan.order);
    std::atomic<bool> cancelled{false};
    std::vector<std::future<void>> done;
    done.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      done.push_back(pool().Submit([&, w] {
        obs::QueryScope query_scope(query_id);
        uint32_t index = 0;
        bool stolen = false;
        // First error wins: a failure flips `cancelled`, workers stop
        // claiming tasks, and already-running tasks finish undisturbed.
        while (!cancelled.load(std::memory_order_relaxed) &&
               lanes.Pop(w % alive.size(), &index, &stolen)) {
          if (stolen) {
            fr.Record(obs::EventType::kSteal, stage_name_id, index, w, 0);
          }
          if (!run_task(index)) {
            cancelled.store(true, std::memory_order_relaxed);
          }
        }
      }));
    }
    for (std::future<void>& f : done) f.get();
  }

  // Phase 3 (driver): merge outcomes in task-index order — the same
  // accounting, in the same order, as when tasks ran one by one. The
  // first failed task in index order aborts the stage.
  std::vector<SimTask> sim_tasks;
  sim_tasks.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    TaskResult& r = results[i];
    if (!r.ran) continue;
    if (!r.status.ok()) {
      return Status(r.status.code(), "stage '" + stage.name +
                                         "' task failed: " +
                                         r.status.message());
    }
    metrics.totals.MergeFrom(r.metrics);
    metrics.real_seconds += r.elapsed;
    if (r.metrics.recovery_seconds > 0) ++metrics.recovered_tasks;

    SimTask sim;
    sim.compute_seconds = r.elapsed + stage.tasks[i].extra_sim_seconds;
    sim.preferred = plan.assigned[i];
    sim.reads = stage.tasks[i].static_reads;
    sim.reads.insert(sim.reads.end(), r.reads.begin(), r.reads.end());
    sim_tasks.push_back(std::move(sim));
  }

  const SimOutcome outcome = simulator_.RunStage(sim_tasks);
  metrics.simulated_seconds = outcome.makespan_seconds;
  metrics.network_seconds = outcome.network_seconds;
  metrics.wall_seconds = stage_timer.ElapsedSeconds();
  RecordStageFinish(query_id, stage_name_id, metrics, stage_start_us);
  em.stages.Increment();
  em.stage_real_seconds.Observe(metrics.real_seconds);
  em.stage_wall_seconds.Observe(metrics.wall_seconds);
  em.stage_simulated_seconds.Observe(metrics.simulated_seconds);
  obs::Registry::Global()
      .GetHistogram(obs::TaggedName("engine.stage.seconds",
                                    {{"stage", stage.name}}))
      .Observe(metrics.real_seconds);
  IDF_LOG_DEBUG("stage '%s': %u tasks, real %.3fs, wall %.3fs, "
                "simulated %.3fs",
                stage.name.c_str(), metrics.num_tasks, metrics.real_seconds,
                metrics.wall_seconds, metrics.simulated_seconds);
  if (control != nullptr) control->OnStageComplete();
  return metrics;
}

Status Cluster::RunExchange(const ExchangeSpec& spec, QueryMetrics& metrics) {
  // Owns the exchange's shuffles: released on every path out of here.
  struct Shuffles {
    explicit Shuffles(ShuffleService& s) : service(s) {}
    Shuffles(const Shuffles&) = delete;
    Shuffles& operator=(const Shuffles&) = delete;
    ~Shuffles() {
      for (uint64_t id : ids) service.Release(id);
    }
    ShuffleService& service;
    std::vector<uint64_t> ids;
  } shuffles(shuffle_);
  for (const ExchangeSide& side : spec.sides) {
    shuffles.ids.push_back(
        shuffle_.NewShuffle(side.num_map_tasks, spec.num_reduce));
  }

  for (size_t s = 0; s < spec.sides.size(); ++s) {
    IDF_RETURN_IF_ERROR(spec.sides[s].produce(
        MapOutput(shuffle_, shuffles.ids[s], spec.num_reduce)));
  }

  StageSpec reduce_stage;
  reduce_stage.name = spec.reduce_stage_name;
  for (uint32_t r = 0; r < spec.num_reduce; ++r) {
    std::vector<PartitionInput> inputs;
    if (spec.reduce_reads_rdd) inputs.push_back({spec.reduce_rdd, r});
    reduce_stage.tasks.push_back(TaskSpec{
        HomeExecutorFor(spec.reduce_rdd, r),
        {},
        0,
        [&, r](TaskContext& ctx) -> Status {
          std::vector<ShuffleInputs> routed;
          for (uint64_t id : shuffles.ids) {
            routed.push_back(shuffle_.FetchReduceInputs(id, r));
            for (const auto& buf : routed.back()) {
              ctx.AddRead(buf->source, buf->bytes.size());
            }
          }
          return spec.reduce(ctx, r, routed);
        },
        std::move(inputs)});
  }
  IDF_ASSIGN_OR_RETURN(StageMetrics reduce_metrics, RunStage(reduce_stage));
  metrics.MergeStage(reduce_metrics);
  return Status::OK();
}

ExecutorId Cluster::HomeExecutorFor(uint64_t rdd, uint32_t partition) const {
  const auto candidates = AliveExecutors();
  IDF_CHECK_MSG(!candidates.empty(), "no alive executors");
  const uint64_t h = HashCombine(Mix64(rdd), partition);
  return candidates[h % candidates.size()];
}

bool Cluster::IsAlive(ExecutorId e) const {
  std::lock_guard<std::mutex> lock(alive_mutex_);
  return e < alive_.size() && alive_[e];
}

std::vector<ExecutorId> Cluster::AliveExecutorsLocked() const {
  std::vector<ExecutorId> out;
  for (ExecutorId e = 0; e < alive_.size(); ++e) {
    if (alive_[e]) out.push_back(e);
  }
  return out;
}

std::vector<ExecutorId> Cluster::AliveExecutors() const {
  std::lock_guard<std::mutex> lock(alive_mutex_);
  return AliveExecutorsLocked();
}

size_t Cluster::KillExecutor(ExecutorId e) {
  {
    std::lock_guard<std::mutex> lock(alive_mutex_);
    IDF_CHECK(e < alive_.size());
    IDF_CHECK_MSG(AliveExecutorsLocked().size() > 1,
                  "cannot kill the last executor");
    alive_[e] = false;
  }
  return DropKilledExecutor(e);
}

bool Cluster::TryKillExecutor(ExecutorId e) {
  {
    std::lock_guard<std::mutex> lock(alive_mutex_);
    if (e >= alive_.size() || !alive_[e] ||
        AliveExecutorsLocked().size() <= 1) {
      return false;
    }
    alive_[e] = false;
  }
  DropKilledExecutor(e);
  return true;
}

size_t Cluster::DropKilledExecutor(ExecutorId e) {
  const size_t lost = blocks_.DropExecutor(e);
  obs::FlightRecorder::Global().Record(obs::EventType::kExecutorKill, 0, e,
                                       lost, 0);
  IDF_LOG_INFO("killed executor %u (%zu blocks lost)", e, lost);
  return lost;
}

void Cluster::ReviveExecutor(ExecutorId e) {
  std::lock_guard<std::mutex> lock(alive_mutex_);
  IDF_CHECK(e < alive_.size());
  alive_[e] = true;
}

void Cluster::RegisterLineage(uint64_t rdd, PartitionComputeFn fn) {
  std::lock_guard<std::mutex> lock(lineage_mutex_);
  lineage_[rdd] = std::move(fn);
}

Cluster::~Cluster() {
  std::lock_guard<std::recursive_mutex> lock(anchor_->mutex);
  anchor_->cluster = nullptr;
}

RddLeasePtr Cluster::NewRdd() {
  return RddLeasePtr(new RddLease(anchor_, NewRddId()));
}

void Cluster::ReleaseRdd(uint64_t rdd) {
  blocks_.DropRdd(rdd);
  PartitionComputeFn fn;  // destroyed after lineage_mutex_ is released
  std::lock_guard<std::mutex> lock(lineage_mutex_);
  auto it = lineage_.find(rdd);
  if (it == lineage_.end()) return;
  fn = std::move(it->second);
  lineage_.erase(it);
}

Result<BlockPtr> Cluster::GetOrCompute(const BlockId& id, TaskContext& ctx) {
  {
    Result<BlockPtr> found = blocks_.Get(id);
    if (found.ok()) {
      auto home = blocks_.LocationOf(id);
      if (home.has_value() && *home != ctx.executor()) {
        // Reading a block homed elsewhere: model the transfer.
        ctx.AddRead(*home, (*found)->ByteSize());
      }
      return found;
    }
  }

  PartitionComputeFn fn;
  {
    std::lock_guard<std::mutex> lock(lineage_mutex_);
    auto it = lineage_.find(id.rdd);
    if (it == lineage_.end()) {
      return Status::Unavailable(id.ToString() +
                                 " lost and no lineage registered");
    }
    fn = it->second;
  }

  IDF_LOG_INFO("recomputing %s from lineage on executor %u",
               id.ToString().c_str(), ctx.executor());
  Stopwatch timer;
  Result<BlockPtr> recomputed = fn(id.partition, id.version, ctx);
  IDF_RETURN_IF_ERROR(recomputed.status());
  const double elapsed = timer.ElapsedSeconds();
  ctx.metrics().recovery_seconds += elapsed;
  EngineMetrics::Get().recovery_seconds.Observe(elapsed);
  obs::FlightRecorder::Global().Record(
      obs::EventType::kRecoveryBlock, 0, id.rdd, id.partition,
      static_cast<uint64_t>(elapsed * 1e6));
  blocks_.Put(id, ctx.executor(), *recomputed);
  return recomputed;
}

}  // namespace idf
