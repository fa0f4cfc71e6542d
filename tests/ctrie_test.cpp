// Tests for the concurrent hash trie (CTrie) — the Indexed DataFrame's index
// structure. Covers single-threaded semantics, hash-collision paths (LNode),
// O(1) snapshots with isolation, the memory-stats walk of a live trie,
// epoch-based reclamation of replaced nodes, and multi-threaded stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ctrie/ctrie.h"

namespace idf {
namespace {

/// Number of entries, counted by the memory-stats walk.
template <typename Trie>
size_t Entries(const Trie& trie) {
  const auto stats = trie.ComputeMemoryStats();
  return stats.snodes + stats.lnodes;
}

TEST(CTrieTest, EmptyLookupMisses) {
  CTrie<uint64_t, uint64_t> trie;
  EXPECT_FALSE(trie.Lookup(42).has_value());
  EXPECT_EQ(Entries(trie), 0u);
}

TEST(CTrieTest, PutThenLookup) {
  CTrie<uint64_t, uint64_t> trie;
  EXPECT_FALSE(trie.Put(1, 100).has_value());
  auto v = trie.Lookup(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 100u);
  EXPECT_EQ(Entries(trie), 1u);
}

TEST(CTrieTest, PutReturnsPreviousValue) {
  // This is the contract the backward-pointer chain relies on (§III-C):
  // inserting a row for an existing key must yield the previous row pointer.
  CTrie<uint64_t, uint64_t> trie;
  EXPECT_FALSE(trie.Put(7, 1).has_value());
  auto old1 = trie.Put(7, 2);
  ASSERT_TRUE(old1.has_value());
  EXPECT_EQ(*old1, 1u);
  auto old2 = trie.Put(7, 3);
  ASSERT_TRUE(old2.has_value());
  EXPECT_EQ(*old2, 2u);
  EXPECT_EQ(*trie.Lookup(7), 3u);
}

TEST(CTrieTest, ManyKeysRoundTrip) {
  CTrie<uint64_t, uint64_t> trie;
  constexpr uint64_t kN = 50000;
  for (uint64_t i = 0; i < kN; ++i) trie.Put(i, i * 2);
  EXPECT_EQ(Entries(trie), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    auto v = trie.Lookup(i);
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, i * 2);
  }
  EXPECT_FALSE(trie.Lookup(kN + 1).has_value());
}

TEST(CTrieTest, InterleavedInsertRemove) {
  // Model check against std::map: random Puts (inserts and overwrites)
  // interleaved with Lookups.
  CTrie<uint64_t, uint64_t> trie;
  std::map<uint64_t, uint64_t> model;
  Rng rng(2024);
  for (int step = 0; step < 20000; ++step) {
    uint64_t key = rng.Below(500);
    auto expected = model.count(key) ? std::optional<uint64_t>(model[key])
                                     : std::nullopt;
    if (rng.Chance(0.6)) {
      auto old = trie.Put(key, step);
      EXPECT_EQ(old, expected);
      model[key] = step;
    } else {
      EXPECT_EQ(trie.Lookup(key), expected);
    }
  }
  EXPECT_EQ(Entries(trie), model.size());
  for (const auto& [k, v] : model) {
    auto found = trie.Lookup(k);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, v);
  }
}

TEST(CTrieTest, StringKeys) {
  CTrie<std::string, uint64_t> trie;
  trie.Put("alpha", 1);
  trie.Put("beta", 2);
  trie.Put("alpha", 3);
  EXPECT_EQ(*trie.Lookup("alpha"), 3u);
  EXPECT_EQ(*trie.Lookup("beta"), 2u);
  EXPECT_FALSE(trie.Lookup("gamma").has_value());
}

// ---- hash collisions (LNode path) -----------------------------------------

// Degenerate hasher mapping every key to one of two buckets: all operations
// funnel through deep CNode chains and LNode collision lists.
struct CollidingHash {
  uint64_t operator()(const uint64_t& k) const { return k % 2; }
};

TEST(CTrieTest, FullHashCollisionsUseLNodes) {
  CTrie<uint64_t, uint64_t, CollidingHash> trie;
  constexpr uint64_t kN = 64;
  for (uint64_t i = 0; i < kN; ++i) trie.Put(i, i + 1000);
  EXPECT_EQ(Entries(trie), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    auto v = trie.Lookup(i);
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, i + 1000);
  }
}

TEST(CTrieTest, CollidingUpdateReturnsOld) {
  CTrie<uint64_t, uint64_t, CollidingHash> trie;
  for (uint64_t i = 0; i < 16; ++i) trie.Put(i, i);
  auto old = trie.Put(6, 999);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(*old, 6u);
  EXPECT_EQ(*trie.Lookup(6), 999u);
  EXPECT_EQ(Entries(trie), 16u);
}

// ---- snapshots -------------------------------------------------------------

TEST(CTrieSnapshotTest, ReadOnlySnapshotSeesStateAtCreation) {
  CTrie<uint64_t, uint64_t> trie;
  trie.Put(1, 10);
  trie.Put(2, 20);
  auto snap = trie.Snapshot();
  trie.Put(3, 30);
  trie.Put(1, 11);
  trie.Put(2, 21);

  EXPECT_EQ(*snap.Lookup(1), 10u);
  EXPECT_EQ(*snap.Lookup(2), 20u);
  EXPECT_FALSE(snap.Lookup(3).has_value());
  EXPECT_EQ(Entries(snap), 2u);

  EXPECT_EQ(*trie.Lookup(1), 11u);
  EXPECT_EQ(*trie.Lookup(2), 21u);
  EXPECT_EQ(*trie.Lookup(3), 30u);
}

TEST(CTrieSnapshotTest, WritableSnapshotDiverges) {
  // Paper Listing 2: two divergent children of one parent must both work.
  CTrie<uint64_t, uint64_t> parent;
  for (uint64_t i = 0; i < 100; ++i) parent.Put(i, i);

  auto child_a = parent.Snapshot();
  auto child_b = parent.Snapshot();
  child_a.Put(1000, 1);
  child_b.Put(2000, 2);
  child_a.Put(5, 555);

  EXPECT_TRUE(child_a.Lookup(1000).has_value());
  EXPECT_FALSE(child_a.Lookup(2000).has_value());
  EXPECT_FALSE(child_b.Lookup(1000).has_value());
  EXPECT_TRUE(child_b.Lookup(2000).has_value());
  EXPECT_EQ(*child_a.Lookup(5), 555u);
  EXPECT_EQ(*child_b.Lookup(5), 5u);
  EXPECT_EQ(*parent.Lookup(5), 5u);
  EXPECT_FALSE(parent.Lookup(1000).has_value());
  EXPECT_FALSE(parent.Lookup(2000).has_value());

  // Shared ancestry is still readable everywhere.
  for (uint64_t i = 0; i < 100; ++i) {
    if (i == 5) continue;
    EXPECT_EQ(*child_a.Lookup(i), i);
    EXPECT_EQ(*child_b.Lookup(i), i);
    EXPECT_EQ(*parent.Lookup(i), i);
  }
}

TEST(CTrieSnapshotTest, SnapshotOfSnapshot) {
  CTrie<uint64_t, uint64_t> trie;
  trie.Put(1, 1);
  auto s1 = trie.Snapshot();
  s1.Put(2, 2);
  auto s2 = s1.Snapshot();
  s2.Put(3, 3);
  EXPECT_EQ(Entries(trie), 1u);
  EXPECT_EQ(Entries(s1), 2u);
  EXPECT_EQ(Entries(s2), 3u);
}

TEST(CTrieSnapshotTest, SnapshotIsCheapStructurally) {
  // Snapshot must not copy the trie eagerly: taking one on a large trie and
  // writing a handful of keys should leave almost all nodes shared. We can't
  // observe sharing directly, but we can bound the node count growth of the
  // child after K writes: it should be O(K * depth), far below a full copy.
  CTrie<uint64_t, uint64_t> trie;
  constexpr uint64_t kN = 100000;
  for (uint64_t i = 0; i < kN; ++i) trie.Put(i, i);
  auto before = trie.ComputeMemoryStats();

  auto snap = trie.Snapshot();
  for (uint64_t i = 0; i < 10; ++i) snap.Put(kN + i, i);
  auto after_child = snap.ComputeMemoryStats();

  EXPECT_EQ(after_child.snodes, before.snodes + 10);
  // CNode count can only grow by the rewritten paths, not double.
  EXPECT_LT(after_child.cnodes, before.cnodes + 200);
}

TEST(CTrieSnapshotTest, ForEachIsConsistent) {
  // Every entry of a snapshot reads back as it was when the snapshot was
  // taken, whatever the trie writes afterwards.
  CTrie<uint64_t, uint64_t> trie;
  for (uint64_t i = 0; i < 1000; ++i) trie.Put(i, i * 3);
  auto snap = trie.Snapshot();
  for (uint64_t i = 0; i < 1000; ++i) trie.Put(i, 0);
  std::map<uint64_t, uint64_t> seen;
  for (uint64_t k = 0; k < 1000; ++k) {
    if (auto v = snap.Lookup(k)) seen[k] = *v;
  }
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(Entries(snap), 1000u);
  for (const auto& [k, v] : seen) EXPECT_EQ(v, k * 3);
}

TEST(CTrieSnapshotTest, MemoryStatsCountEntries) {
  CTrie<uint64_t, uint64_t> trie;
  for (uint64_t i = 0; i < 5000; ++i) trie.Put(i, i);
  auto stats = trie.ComputeMemoryStats();
  EXPECT_EQ(stats.snodes + stats.lnodes, 5000u);
  EXPECT_GT(stats.cnodes, 0u);
  EXPECT_GT(stats.approx_bytes, 5000 * sizeof(uint64_t) * 2);
}

// ---- concurrency -------------------------------------------------------------

TEST(CTrieConcurrencyTest, ParallelDisjointInserts) {
  CTrie<uint64_t, uint64_t> trie;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trie, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        trie.Put(static_cast<uint64_t>(t) * kPerThread + i, i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(Entries(trie), kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; i += 97) {
      auto v = trie.Lookup(static_cast<uint64_t>(t) * kPerThread + i);
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, i);
    }
  }
}

TEST(CTrieConcurrencyTest, ParallelOverlappingPutsConverge) {
  CTrie<uint64_t, uint64_t> trie;
  constexpr int kThreads = 8;
  constexpr uint64_t kKeys = 256;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trie, t] {
      for (uint64_t round = 0; round < 2000; ++round) {
        trie.Put(round % kKeys, static_cast<uint64_t>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(Entries(trie), kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    auto v = trie.Lookup(k);
    ASSERT_TRUE(v.has_value());
    EXPECT_LT(*v, static_cast<uint64_t>(kThreads));
  }
}

TEST(CTrieConcurrencyTest, ReadersDuringWrites) {
  CTrie<uint64_t, uint64_t> trie;
  for (uint64_t i = 0; i < 1000; ++i) trie.Put(i, i);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      Rng rng(static_cast<uint64_t>(reads.load()) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t k = rng.Below(1000);
        auto v = trie.Lookup(k);
        ASSERT_TRUE(v.has_value());
        // Values only move forward: base i, or i + multiple of 1000.
        EXPECT_EQ(*v % 1000, k);
        reads++;
      }
    });
  }
  for (uint64_t round = 1; round <= 20; ++round) {
    for (uint64_t i = 0; i < 1000; ++i) trie.Put(i, i + round * 1000);
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_GT(reads.load(), 0u);
}

TEST(CTrieConcurrencyTest, SnapshotsDuringWrites) {
  CTrie<uint64_t, uint64_t> trie;
  for (uint64_t i = 0; i < 500; ++i) trie.Put(i, 0);
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto snap = trie.Snapshot();
      // Within one snapshot all values must come from the same "round" or
      // the one in flight — but critically each key must still be present.
      EXPECT_EQ(Entries(snap), 500u);
    }
  });
  for (uint64_t round = 1; round <= 50; ++round) {
    for (uint64_t i = 0; i < 500; ++i) trie.Put(i, round);
  }
  stop.store(true);
  snapshotter.join();
}

TEST(CTrieConcurrencyTest, ReadersWriterAndSnapshotterShareNodes) {
  // Four readers follow raw pointers while a writer replaces (and retires)
  // nodes under them and a third thread keeps taking snapshots and writing
  // through them, so reclamation races every read path. Run under
  // TSan/ASan.
  constexpr uint64_t kKeys = 1000;
  CTrie<uint64_t, uint64_t> trie;
  for (uint64_t k = 0; k < kKeys; ++k) trie.Put(k, k);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t k = rng.Below(kKeys);
        auto v = trie.Lookup(k);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v % kKeys, k);
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto frozen = trie.Snapshot();
      size_t n = 0;
      for (uint64_t k = 0; k < kKeys; ++k) {
        if (auto v = frozen.Lookup(k)) {
          ++n;
          EXPECT_EQ(*v % kKeys, k);
        }
      }
      EXPECT_EQ(n, kKeys);
      auto fork = trie.Snapshot();  // writable: diverges lazily
      fork.Put(0, kKeys);
      EXPECT_EQ(*fork.Lookup(0), kKeys);
    }
  });
  // The writer overwrites the stable keys and inserts a fresh key range
  // each round, so levels keep growing under the readers.
  constexpr uint64_t kRounds = 20;
  for (uint64_t round = 1; round <= kRounds; ++round) {
    for (uint64_t k = 0; k < kKeys; ++k) {
      trie.Put(k, k + round * kKeys);
      trie.Put(round * kKeys + k, k);
    }
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(Entries(trie), (kRounds + 1) * kKeys);
}

TEST(CTrieConcurrencyTest, MemoryStatsWalkTheLiveRootUnderWrites) {
  // The stats walk reads the live root while one thread Puts fresh keys and
  // another takes snapshots: every walk counts at least the keys whose Put
  // had returned when it started, at most those whose Put had begun when
  // it finished, and nothing twice.
  constexpr uint64_t kBase = 2000;
  constexpr uint64_t kAdded = 20000;
  CTrie<uint64_t, uint64_t> trie;
  for (uint64_t k = 0; k < kBase; ++k) trie.Put(k, k);
  ASSERT_EQ(Entries(trie), kBase);
  std::atomic<uint64_t> done{0};  // Puts returned
  std::atomic<bool> writing{true};
  std::thread writer([&] {
    for (uint64_t i = 0; i < kAdded; ++i) {
      trie.Put(kBase + i, i);
      done.store(i + 1);
    }
    writing.store(false);
  });
  std::thread snapshotter([&] {
    while (writing.load()) {
      auto snap = trie.Snapshot();
      EXPECT_GE(Entries(snap), kBase);
    }
  });
  uint64_t walks = 0;
  do {
    const uint64_t lower = kBase + done.load();
    const size_t n = Entries(trie);
    const uint64_t upper = std::min(kBase + done.load() + 1, kBase + kAdded);
    EXPECT_GE(n, lower);
    EXPECT_LE(n, upper);
    ++walks;
  } while (writing.load());
  writer.join();
  snapshotter.join();
  EXPECT_GT(walks, 0u);
  EXPECT_EQ(Entries(trie), kBase + kAdded);
}

// ---- reclamation -------------------------------------------------------------

/// A value that counts its live instances, to observe when the trie
/// releases replaced nodes.
struct Counted {
  static inline std::atomic<int64_t> live{0};
  uint64_t v = 0;
  explicit Counted(uint64_t x) : v(x) { live.fetch_add(1); }
  Counted(const Counted& other) : v(other.v) { live.fetch_add(1); }
  ~Counted() { live.fetch_sub(1); }
};

TEST(CTrieReclamationTest, OverwritesReclaimAsTheWriterGoes) {
  // Replaced values are freed in bounded batches while the writer runs (no
  // reader is open), and the writer's exit drains what is left.
  constexpr uint64_t kKeys = 1000;
  constexpr int64_t kSlack = 512;  // retired but not yet reclaimed
  const int64_t base = Counted::live.load();
  CTrie<uint64_t, Counted> trie;
  int64_t peak = 0;
  std::thread writer([&] {
    for (uint64_t i = 0; i < 200000; ++i) {
      trie.Put(i % kKeys, Counted(i));
      if (i % 1000 == 999) peak = std::max(peak, Counted::live.load() - base);
    }
  });
  writer.join();
  EXPECT_LE(peak, static_cast<int64_t>(kKeys) + kSlack);
  EXPECT_GE(Counted::live.load() - base, static_cast<int64_t>(kKeys));
  EXPECT_LE(Counted::live.load() - base, static_cast<int64_t>(kKeys) + kSlack);
  for (uint64_t k = 0; k < kKeys; k += 37) {
    EXPECT_EQ(trie.Lookup(k)->v, 199000 + k);
  }
}

TEST(CTrieReclamationTest, SnapshotHeldValuesSurviveOverwrites) {
  constexpr uint64_t kKeys = 100;
  const int64_t base = Counted::live.load();
  CTrie<uint64_t, Counted> trie;
  // All writes happen on the worker, so its exit drains every retirement
  // (a retired CNode still references the SNodes it shared).
  std::thread worker([&] {
    for (uint64_t k = 0; k < kKeys; ++k) trie.Put(k, Counted(k));
    CTrie<uint64_t, Counted> snap = trie.Snapshot();
    CTrie<uint64_t, Counted> frozen = trie.Snapshot();
    for (uint64_t round = 1; round <= 50; ++round) {
      for (uint64_t k = 0; k < kKeys; ++k) {
        trie.Put(k, Counted(round * 1000 + k));
      }
    }
    // The originals are only reachable from the snapshots now, and still
    // intact after thousands of retirements.
    for (uint64_t k = 0; k < kKeys; ++k) {
      EXPECT_EQ(snap.Lookup(k)->v, k);
      EXPECT_EQ(frozen.Lookup(k)->v, k);
    }
    EXPECT_GE(Counted::live.load() - base, static_cast<int64_t>(2 * kKeys));
  });  // both snapshots die here; the thread's exit drains its retirements
  worker.join();
  EXPECT_EQ(Counted::live.load() - base, static_cast<int64_t>(kKeys));
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(trie.Lookup(k)->v, 50000 + k);
  }
}

// ---- parameterized sweeps --------------------------------------------------

class CTrieSizeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CTrieSizeSweep, InsertLookupRemoveAtScale) {
  const uint64_t n = GetParam();
  CTrie<uint64_t, uint64_t> trie;
  Rng rng(n);
  std::vector<uint64_t> keys;
  keys.reserve(n);
  for (uint64_t i = 0; i < n; ++i) keys.push_back(rng.Next());
  for (uint64_t i = 0; i < n; ++i) trie.Put(keys[i], i);
  const size_t entries = Entries(trie);
  EXPECT_LE(entries, n);  // random keys may repeat
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(trie.Lookup(keys[i]).has_value());
  }
  // Overwrite the even-index keys (value n + i): no key may be lost, and
  // each key reads back the value of a write to that same key.
  for (uint64_t i = 0; i < n; i += 2) trie.Put(keys[i], n + i);
  EXPECT_EQ(Entries(trie), entries);
  for (uint64_t i = 1; i < n; i += 2) {
    const std::optional<uint64_t> v = trie.Lookup(keys[i]);
    ASSERT_TRUE(v.has_value()) << "lost key at index " << i;
    const uint64_t writer = *v < n ? *v : *v - n;
    EXPECT_EQ(keys[writer], keys[i]) << "foreign value at index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CTrieSizeSweep,
                         ::testing::Values(1, 2, 16, 64, 65, 1000, 20000));

class CTrieThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(CTrieThreadSweep, ConcurrentPutsAllLand) {
  const int threads = GetParam();
  CTrie<uint64_t, uint64_t> trie;
  std::vector<std::thread> pool;
  constexpr uint64_t kPerThread = 2000;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&trie, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        trie.Put(static_cast<uint64_t>(t) << 32 | i, i);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(Entries(trie), static_cast<size_t>(threads) * kPerThread);
}

INSTANTIATE_TEST_SUITE_P(Threads, CTrieThreadSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace idf
