// Ablation: multi-version batch management — seal-and-reopen with size
// hints (production, §III-E "children share the parent data and only store
// the deltas") vs naive full-size batches per version, vs eager full-copy
// (the copy-on-write strawman the paper rejects: "this incurs large
// performance penalties (full data copies) and storage overheads").
#include <cstdio>

#include "bench/bench_util.h"
#include "core/indexed_partition.h"
#include "workload/snb.h"

using namespace idf;

namespace {

/// Every stored row of `part`, in storage order.
std::vector<const uint8_t*> StoredRows(const IndexedPartition& part) {
  std::vector<const uint8_t*> rows;
  part.ForEachBatch([&](const uint8_t* data, uint32_t used) {
    IDF_CHECK_MSG(RowLayout::SplitRows(data, used, rows), "corrupt row batch");
  });
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  idf::bench::ObsGuard obs(argc, argv);
  const double scale = bench::ScaleEnv();
  SessionOptions options;
  bench::PrintHeader("Ablation", "versioned append storage strategies",
                     "hint-sized sealed batches append fast with tiny "
                     "allocations; full copies are catastrophic",
                     options);

  SnbConfig snb;
  snb.num_edges = static_cast<uint64_t>(200000 * scale);
  snb.num_vertices = snb.num_edges / 100;
  SnbGenerator generator(snb);
  RowLayout layout(SnbGenerator::EdgeSchema());

  const int kVersions = 100;
  const int kRowsPerAppend = 64;

  auto base_rows = [&](IndexedPartition& part) {
    for (uint64_t i = 0; i < snb.num_edges; ++i) {
      IDF_CHECK_OK(part.InsertRow(generator.EdgeRow(i)));
    }
  };
  auto append_row = [&](uint64_t version, int i) {
    return generator.EdgeRow((version * 1000 + static_cast<uint64_t>(i)) %
                             snb.num_edges);
  };

  // (a) Production: snapshot + hint-sized fresh batch per version.
  {
    IndexedPartition base(SnbGenerator::EdgeSchema(), 0);
    base_rows(base);
    std::shared_ptr<IndexedPartition> current = base.Snapshot();
    Stopwatch timer;
    for (int v = 0; v < kVersions; ++v) {
      auto next = current->Snapshot();
      next->ReserveHint(static_cast<uint64_t>(kRowsPerAppend) * 56);
      for (int i = 0; i < kRowsPerAppend; ++i) {
        IDF_CHECK_OK(next->InsertRow(append_row(v, i)));
      }
      current = next;
    }
    std::printf("%-34s %8.1f ms (final data footprint %.1f MB; appended "
                "batches are hint-sized)\n",
                "seal + hint-sized batches:", timer.ElapsedSeconds() * 1e3,
                current->data_bytes() / 1048576.0);
  }

  // (b) No hint: every version opens a default 4 MB batch.
  {
    IndexedPartition base(SnbGenerator::EdgeSchema(), 0);
    base_rows(base);
    std::shared_ptr<IndexedPartition> current = base.Snapshot();
    Stopwatch timer;
    for (int v = 0; v < kVersions; ++v) {
      auto next = current->Snapshot();  // no ReserveHint
      for (int i = 0; i < kRowsPerAppend; ++i) {
        IDF_CHECK_OK(next->InsertRow(append_row(v, i)));
      }
      current = next;
    }
    std::printf("%-34s %8.1f ms (each tiny append allocates+touches a full "
                "4 MB batch)\n",
                "seal + full-size batches:", timer.ElapsedSeconds() * 1e3);
  }

  // (c) Eager copy-on-write strawman: each version deep-copies all rows.
  {
    IndexedPartition base(SnbGenerator::EdgeSchema(), 0);
    base_rows(base);
    auto current = std::make_shared<IndexedPartition>(
        SnbGenerator::EdgeSchema(), 0);
    std::vector<const uint8_t*> base_copy = StoredRows(base);
    IDF_CHECK_OK(current->InsertEncodedRows(base_copy));
    Stopwatch timer;
    const int copy_versions = 5;  // 100 would take minutes; extrapolate
    for (int v = 0; v < copy_versions; ++v) {
      auto next = std::make_shared<IndexedPartition>(
          SnbGenerator::EdgeSchema(), 0);
      std::vector<const uint8_t*> copy = StoredRows(*current);
      IDF_CHECK_OK(next->InsertEncodedRows(copy));
      for (int i = 0; i < kRowsPerAppend; ++i) {
        IDF_CHECK_OK(next->InsertRow(append_row(static_cast<uint64_t>(v), i)));
      }
      current = next;
    }
    const double per_version = timer.ElapsedSeconds() / copy_versions;
    std::printf("%-34s %8.1f ms per version -> %.1f s for %d versions "
                "(full data copies)\n",
                "eager copy-on-write:", per_version * 1e3,
                per_version * kVersions, kVersions);
  }
  bench::PrintFooter();
  return 0;
}
