// Rule-based optimizer + physical planner (the Catalyst substitute, §III-B).
//
// Logical rules rewrite plans to a fixpoint; strategies then translate each
// logical node into a physical operator. Both lists are extensible at
// runtime — this is the hook src/core uses to install its index-aware
// strategies ("through our library, we use the extensibility of Catalyst to
// add index-aware optimization rules") without the SQL layer knowing about
// indexes. Strategies are consulted in order; the first one that claims a
// node wins, and the built-in strategies act as the vanilla fallback.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/physical.h"
#include "sql/plan.h"

namespace idf {

class Planner;

/// A logical rewrite. Returns the (possibly unchanged) node; rules are
/// applied bottom-up repeatedly until no rule changes the plan.
struct LogicalRule {
  std::string name;
  std::function<Result<PlanPtr>(const PlanPtr&)> apply;
};

/// Maps one logical node to a physical operator, or declines (nullptr).
class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual std::string name() const = 0;
  virtual Result<PhysOpPtr> TryPlan(const PlanPtr& plan,
                                    Planner& planner) const = 0;
};
using StrategyPtr = std::shared_ptr<const Strategy>;

/// Thread-safe for concurrent Plan()/Optimize() against concurrent
/// AddRule/PrependStrategy: rule/strategy lists are guarded by a mutex and
/// snapshotted per planning pass (plans in flight keep the list they
/// started with — newly installed strategies apply from the next pass).
/// Concurrent queries of one Session share this planner (docs/SERVER.md).
class Planner {
 public:
  /// Installs the default rules (CombineFilters, PushFilterBelowProject)
  /// and the vanilla strategies.
  explicit Planner(JoinExec::Mode default_join_mode = JoinExec::Mode::kAuto);

  void AddRule(LogicalRule rule) {
    std::lock_guard<std::mutex> lock(mutex_);
    rules_.push_back(std::move(rule));
  }

  /// Index-aware strategies are *prepended* so they outrank the vanilla
  /// fallbacks, mirroring how the paper's library injects rules into
  /// Catalyst ahead of stock planning.
  void PrependStrategy(StrategyPtr strategy) {
    std::lock_guard<std::mutex> lock(mutex_);
    strategies_.insert(strategies_.begin(), std::move(strategy));
  }

  /// Applies logical rules bottom-up to a fixpoint.
  Result<PlanPtr> Optimize(const PlanPtr& plan) const;

  /// Optimizes then physically plans the tree.
  Result<PhysOpPtr> Plan(const PlanPtr& plan);

  /// Physically plans an already-optimized subtree (for strategies planning
  /// their children).
  Result<PhysOpPtr> PlanNode(const PlanPtr& plan);

  JoinExec::Mode default_join_mode() const { return default_join_mode_; }

  std::vector<LogicalRule> rules() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return rules_;
  }

 private:
  mutable std::mutex mutex_;  // guards rules_ and strategies_
  std::vector<LogicalRule> rules_;
  std::vector<StrategyPtr> strategies_;
  const JoinExec::Mode default_join_mode_;
};

/// Rebuilds a logical node with new children (used by rule application).
Result<PlanPtr> WithNewChildren(const PlanPtr& node,
                                std::vector<PlanPtr> children);

}  // namespace idf
