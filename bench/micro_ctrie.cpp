// Micro-benchmarks (google-benchmark) for the cTrie: the index structure's
// raw insert / lookup / snapshot / miss costs that underpin every indexed
// operation in the paper, lookup scaling across threads on one shared trie,
// and the index-build pattern (Lookup + Put per row).
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "ctrie/ctrie.h"

namespace idf {
namespace {

void BM_CTrieInsert(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    CTrie<uint64_t, uint64_t> trie;
    Rng rng(7);
    state.ResumeTiming();
    for (uint64_t i = 0; i < n; ++i) trie.Put(rng.Next(), i);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_CTrieInsert)->Arg(1000)->Arg(100000);

void BM_CTrieLookupHit(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  CTrie<uint64_t, uint64_t> trie;
  for (uint64_t i = 0; i < n; ++i) trie.Put(i, i);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.Lookup(rng.Below(n)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CTrieLookupHit)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_CTrieLookupMiss(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  CTrie<uint64_t, uint64_t> trie;
  for (uint64_t i = 0; i < n; ++i) trie.Put(i, i);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.Lookup(n + rng.Below(n)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CTrieLookupMiss)->Arg(100000);

// One trie shared by every thread of the threaded rung; built once, never
// freed (benchmark threads may still be reading when the process exits).
const CTrie<uint64_t, uint64_t>& SharedTrie100k() {
  static const auto* trie = [] {
    auto* t = new CTrie<uint64_t, uint64_t>;
    for (uint64_t i = 0; i < 100000; ++i) t->Put(i, i);
    return t;
  }();
  return *trie;
}

void BM_CTrieLookupThreaded(benchmark::State& state) {
  // Aggregate items/s across threads: reads must scale, not contend.
  const auto& trie = SharedTrie100k();
  Rng rng(11 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.Lookup(rng.Below(100000)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CTrieLookupThreaded)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

void BM_CTrieIndexBuild(benchmark::State& state) {
  // The per-row insert pattern (IndexedPartition::InsertRow): fetch the
  // key's previous row pointer, then overwrite it, spread over 8 tries
  // (partitions) of about 1250 distinct keys each. createIndex's grouped
  // insert does this once per key instead of once per row.
  constexpr int kTries = 8;
  constexpr uint64_t kKeysPerTrie = 1250;
  const auto rows = static_cast<uint64_t>(state.range(0));
  Rng rng(13);
  std::vector<uint64_t> keys(rows);
  for (uint64_t& k : keys) k = rng.Below(kTries * kKeysPerTrie);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<CTrie<uint64_t, uint64_t>> tries(kTries);
    state.ResumeTiming();
    for (uint64_t i = 0; i < rows; ++i) {
      auto& trie = tries[keys[i] % kTries];
      const std::optional<uint64_t> prev = trie.Lookup(keys[i]);
      trie.Put(keys[i], prev.value_or(0) + i);
    }
    benchmark::DoNotOptimize(tries.data());
    state.PauseTiming();
    tries.clear();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_CTrieIndexBuild)->Arg(100000);

void BM_CTrieSnapshot(benchmark::State& state) {
  // The paper's O(1) snapshot claim: cost must not grow with trie size.
  const auto n = static_cast<uint64_t>(state.range(0));
  CTrie<uint64_t, uint64_t> trie;
  for (uint64_t i = 0; i < n; ++i) trie.Put(i, i);
  for (auto _ : state) {
    auto snap = trie.Snapshot();
    benchmark::DoNotOptimize(snap);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CTrieSnapshot)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_CTrieInsertAfterSnapshot(benchmark::State& state) {
  // Lazy generational copying: the first writes after a snapshot re-stamp
  // their path; steady-state inserts stay close to plain insert cost.
  CTrie<uint64_t, uint64_t> trie;
  for (uint64_t i = 0; i < 100000; ++i) trie.Put(i, i);
  Rng rng(9);
  for (auto _ : state) {
    state.PauseTiming();
    auto snap = trie.Snapshot();
    state.ResumeTiming();
    for (int i = 0; i < 100; ++i) snap.Put(rng.Below(100000), 1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_CTrieInsertAfterSnapshot);

}  // namespace
}  // namespace idf
