// Versioned block storage — the engine's equivalent of Spark's BlockManager.
//
// Consistency (§III-D): every append on an Indexed Batch RDD increments the
// RDD's version; blocks are keyed (rdd, partition, version) and a task that
// requires version v refuses any replica with version < v ("the version
// number aids the scheduler not to send tasks to stale partitions").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.h"
#include "engine/topology.h"

namespace idf {

struct BlockId {
  uint64_t rdd = 0;
  uint32_t partition = 0;
  uint64_t version = 0;

  bool operator<(const BlockId& o) const {
    if (rdd != o.rdd) return rdd < o.rdd;
    if (partition != o.partition) return partition < o.partition;
    return version < o.version;
  }
  bool operator==(const BlockId& o) const {
    return rdd == o.rdd && partition == o.partition && version == o.version;
  }
  std::string ToString() const {
    return "block(rdd=" + std::to_string(rdd) +
           ", part=" + std::to_string(partition) +
           ", v=" + std::to_string(version) + ")";
  }
};

/// Anything a partition can materialize to: a columnar chunk (vanilla cache),
/// an indexed partition, a broadcast hash table, ...
class Block {
 public:
  virtual ~Block() = default;
  /// Approximate in-memory footprint; drives network-transfer modeling.
  virtual uint64_t ByteSize() const = 0;
};
using BlockPtr = std::shared_ptr<const Block>;

/// Cluster-wide block registry with per-block home executor.
///
/// Thread-safe: tasks running concurrently register/fetch blocks.
class BlockManager {
 public:
  void Put(const BlockId& id, ExecutorId executor, BlockPtr block) {
    std::lock_guard<std::mutex> lock(mutex_);
    blocks_[id] = Entry{executor, std::move(block)};
  }

  /// Exact-version fetch. Returns NotFound if absent (e.g. lost with a
  /// failed executor) — callers then go through lineage recomputation.
  Result<BlockPtr> Get(const BlockId& id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = blocks_.find(id);
    if (it == blocks_.end()) {
      return Status::NotFound(id.ToString() + " not in block manager");
    }
    return it->second.block;
  }

  /// Home executor of a block (locality scheduling), if present.
  std::optional<ExecutorId> LocationOf(const BlockId& id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = blocks_.find(id);
    if (it == blocks_.end()) return std::nullopt;
    return it->second.executor;
  }

  /// All stored versions of (rdd, partition), ascending. Used by staleness
  /// tests and by the scheduler to detect out-of-date replicas.
  std::vector<uint64_t> VersionsOf(uint64_t rdd, uint32_t partition) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<uint64_t> versions;
    for (auto it = blocks_.lower_bound(BlockId{rdd, partition, 0});
         it != blocks_.end() &&
         it->first.rdd == rdd && it->first.partition == partition;
         ++it) {
      versions.push_back(it->first.version);
    }
    return versions;
  }

  /// Drops every block homed on `executor` (failure injection). Returns how
  /// many blocks were lost.
  size_t DropExecutor(ExecutorId executor) {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t dropped = 0;
    for (auto it = blocks_.begin(); it != blocks_.end();) {
      if (it->second.executor == executor) {
        it = blocks_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  /// Removes every partition's block at exactly `version` of one RDD.
  /// Used to unwind a failed or cancelled append: reduce tasks that
  /// completed before the stage unwound have already Put blocks at the
  /// aborted new version, and leaving them behind would poison a later
  /// append that mints the same version number. Returns blocks dropped.
  size_t DropVersion(uint64_t rdd, uint64_t version) {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t dropped = 0;
    for (auto it = blocks_.lower_bound(BlockId{rdd, 0, 0});
         it != blocks_.end() && it->first.rdd == rdd;) {
      if (it->first.version == version) {
        it = blocks_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  /// Removes every partition and version of one RDD (the last RddLease
  /// going away). Proportional to that RDD's blocks: one range erase. The
  /// erased blocks die after the lock is released — a chunk's destructor
  /// takes the governor mutex and may delete its spill file, neither of
  /// which belongs under this lock. Returns blocks dropped.
  size_t DropRdd(uint64_t rdd) {
    std::vector<BlockPtr> doomed;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto first = blocks_.lower_bound(BlockId{rdd, 0, 0});
      const auto last = blocks_.lower_bound(BlockId{rdd + 1, 0, 0});
      for (auto it = first; it != last; ++it) {
        doomed.push_back(std::move(it->second.block));
      }
      blocks_.erase(first, last);
    }
    return doomed.size();
  }

  size_t NumBlocks() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return blocks_.size();
  }

  uint64_t TotalBytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t total = 0;
    for (const auto& [id, entry] : blocks_) total += entry.block->ByteSize();
    return total;
  }

 private:
  struct Entry {
    ExecutorId executor;
    BlockPtr block;
  };

  mutable std::mutex mutex_;
  std::map<BlockId, Entry> blocks_;
};

}  // namespace idf
