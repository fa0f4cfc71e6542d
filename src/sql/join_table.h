// The hash table of the vanilla joins (sql/physical.h): build rows grouped
// by key code in one array, found by open addressing.
//
// A probe returns its code's rows in build order, the order in which they
// were added, so a join's output order does not depend on the table. Codes
// of strings and doubles hash, so a probe's rows may hold other keys with
// the same code: the caller verifies them (KeysEqual).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace idf {

/// Build rows of type Row (a row pointer, a RowRef) grouped by key code.
/// Add every build row, then Build() once; Find() is then thread-safe.
template <typename Row>
class JoinHashTable {
 public:
  void Reserve(size_t rows) {
    codes_.reserve(rows);
    rows_.reserve(rows);
  }
  /// Adds a build row with key code `code`.
  void Add(uint64_t code, Row row) {
    codes_.push_back(code);
    rows_.push_back(row);
  }

  /// Groups the added rows by code: a counting pass sizes each code's run,
  /// and a backward pass places the rows, so each run keeps build order.
  void Build() {
    const size_t n = rows_.size();
    IDF_CHECK_MSG(n < (uint64_t{1} << 32), "join build side too large");
    // At most half full. The slot comes from the hash's high bits: the
    // shuffle routes on Mix64(code) % partitions, so the low bits of every
    // code in one reduce partition may agree.
    int bits = 4;
    while ((size_t{1} << bits) < 2 * n) ++bits;
    shift_ = 64 - bits;
    slots_.assign(size_t{1} << bits, Slot{});
    std::vector<uint32_t> slot_of(n);
    for (size_t i = 0; i < n; ++i) {
      size_t s = Mix64(codes_[i]) >> shift_;
      while (slots_[s].size != 0 && slots_[s].code != codes_[i]) {
        s = (s + 1) & (slots_.size() - 1);
      }
      slots_[s].code = codes_[i];
      ++slots_[s].size;
      slot_of[i] = static_cast<uint32_t>(s);
    }
    // Each run's begin starts at its end and counts down as it fills.
    uint32_t end = 0;
    for (Slot& slot : slots_) {
      end += slot.size;
      slot.begin = end;
    }
    std::vector<Row> grouped(n);
    for (size_t i = n; i-- > 0;) grouped[--slots_[slot_of[i]].begin] = rows_[i];
    rows_ = std::move(grouped);
    codes_ = {};
  }

  /// The rows added with code `code`, in build order; empty when none was.
  std::span<const Row> Find(uint64_t code) const {
    for (size_t s = Mix64(code) >> shift_;; s = (s + 1) & (slots_.size() - 1)) {
      const Slot& slot = slots_[s];
      if (slot.size == 0) return {};
      if (slot.code == code) return {rows_.data() + slot.begin, slot.size};
    }
  }

 private:
  /// One code's run of rows_; size 0 marks an empty slot.
  struct Slot {
    uint64_t code = 0;
    uint32_t begin = 0;
    uint32_t size = 0;
  };

  std::vector<uint64_t> codes_;  // one per added row, until Build
  std::vector<Row> rows_;        // grouped by code once built
  std::vector<Slot> slots_;
  int shift_ = 64;
};

}  // namespace idf
