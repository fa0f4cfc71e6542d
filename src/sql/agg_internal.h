// Aggregation internals shared between the vanilla HashAggExec and the
// Indexed DataFrame's row-direct aggregation (core/indexed_agg.h).
//
// Both produce identical *partial rows* — group columns followed by five
// flat state columns per aggregate (count, isum, fsum, min, max) — so the
// shuffle format and the final-merge phase are interchangeable.
//
// The partial phase is one typed kernel, PartialAggregator, that both
// operators drive a run of rows at a time: HashAggExec over a columnar
// chunk (ChunkRun), RowAggExec over the rows of one row batch (RowRun).
// Group keys are hashed a column at a time into a per-row group slot, then
// each aggregate runs one typed loop over the run, so no Value is boxed per
// input row and a group's RowVec key is built once, when the group opens.
#pragma once

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "sql/columnar.h"
#include "sql/plan.h"
#include "storage/row_layout.h"
#include "types/schema.h"

namespace idf::agg_internal {

/// Mutable accumulator state for one aggregate function (final merge).
struct Accum {
  int64_t count = 0;
  int64_t isum = 0;
  double fsum = 0;
  Value min;  // null until first value
  Value max;

  void Merge(const AggSpec& spec, const Accum& other) {
    switch (spec.fn) {
      case AggSpec::Fn::kCount:
        count += other.count;
        return;
      case AggSpec::Fn::kSum:
      case AggSpec::Fn::kAvg:
        count += other.count;
        isum += other.isum;
        fsum += other.fsum;
        return;
      case AggSpec::Fn::kMin:
        if (!other.min.is_null() &&
            (min.is_null() || other.min.Compare(min) < 0)) {
          min = other.min;
        }
        return;
      case AggSpec::Fn::kMax:
        if (!other.max.is_null() &&
            (max.is_null() || other.max.Compare(max) > 0)) {
          max = other.max;
        }
        return;
    }
  }

  Value Finish(const AggSpec& spec, TypeId input_type) const {
    switch (spec.fn) {
      case AggSpec::Fn::kCount:
        return Value::Int64(count);
      case AggSpec::Fn::kSum:
        if (input_type == TypeId::kFloat64) return Value::Float64(fsum);
        return Value::Int64(isum);
      case AggSpec::Fn::kAvg: {
        if (count == 0) return Value::Null(TypeId::kFloat64);
        const double total =
            input_type == TypeId::kFloat64 ? fsum : static_cast<double>(isum);
        return Value::Float64(total / static_cast<double>(count));
      }
      case AggSpec::Fn::kMin:
        return min;
      case AggSpec::Fn::kMax:
        return max;
    }
    return Value();
  }
};

struct GroupState {
  RowVec group_values;
  std::vector<Accum> accums;
};

/// Seed of every group code; a global aggregate's single group has it.
inline constexpr uint64_t kGroupCodeSeed = 0x9e3779b97f4a7c15ULL;

inline uint64_t GroupCode(const RowVec& group_values) {
  uint64_t code = kGroupCodeSeed;
  for (const Value& v : group_values) code = HashCombine(code, v.Hash());
  return code;
}

inline bool SameGroup(const RowVec& a, const RowVec& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_null() != b[i].is_null()) return false;
    if (!a[i].is_null() && !(a[i] == b[i])) return false;
  }
  return true;
}

using GroupMap = std::unordered_map<uint64_t, std::vector<GroupState>>;

inline GroupState& FindOrCreateGroup(GroupMap& groups, RowVec group_values,
                                     size_t num_aggs) {
  auto& bucket = groups[GroupCode(group_values)];
  for (GroupState& state : bucket) {
    if (SameGroup(state.group_values, group_values)) return state;
  }
  bucket.push_back(
      GroupState{std::move(group_values), std::vector<Accum>(num_aggs)});
  return bucket.back();
}

/// Resolved aggregation plan against an input schema: column indices, input
/// types, the partial-row schema used on the shuffle wire and the output
/// schema of the final phase.
struct ResolvedAggs {
  std::vector<size_t> group_idx;
  std::vector<int> agg_idx;  // -1 for COUNT(*)
  std::vector<TypeId> agg_type;
  SchemaPtr partial_schema;
  SchemaPtr output_schema;

  static Result<ResolvedAggs> Resolve(const Schema& in_schema,
                                      const std::vector<std::string>& group_by,
                                      const std::vector<AggSpec>& aggs) {
    ResolvedAggs out;
    std::vector<Field> partial_fields;
    for (const std::string& g : group_by) {
      IDF_ASSIGN_OR_RETURN(size_t idx, in_schema.FieldIndex(g));
      out.group_idx.push_back(idx);
      partial_fields.push_back(in_schema.field(idx));
    }
    std::vector<Field> output_fields = partial_fields;
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggSpec& spec = aggs[a];
      if (spec.fn == AggSpec::Fn::kCount) {
        out.agg_idx.push_back(-1);
        out.agg_type.push_back(TypeId::kInt64);
      } else {
        IDF_ASSIGN_OR_RETURN(size_t idx, in_schema.FieldIndex(spec.column));
        out.agg_idx.push_back(static_cast<int>(idx));
        out.agg_type.push_back(in_schema.field(idx).type);
      }
      if ((spec.fn == AggSpec::Fn::kSum || spec.fn == AggSpec::Fn::kAvg) &&
          out.agg_type[a] == TypeId::kString) {
        return Status::InvalidArgument("cannot sum string column '" +
                                       spec.column + "'");
      }
      const std::string base = "agg" + std::to_string(a);
      partial_fields.push_back({base + "_count", TypeId::kInt64, false});
      partial_fields.push_back({base + "_isum", TypeId::kInt64, false});
      partial_fields.push_back({base + "_fsum", TypeId::kFloat64, false});
      partial_fields.push_back({base + "_min", out.agg_type[a], true});
      partial_fields.push_back({base + "_max", out.agg_type[a], true});
      output_fields.push_back(
          {spec.output_name, spec.OutputType(out.agg_type[a]), true});
    }
    out.partial_schema = std::make_shared<Schema>(Schema(partial_fields));
    out.output_schema = std::make_shared<Schema>(Schema(output_fields));
    return out;
  }

  /// Splits a decoded partial row back into (group values, accumulators).
  void DecodePartial(const RowVec& partial, RowVec* group,
                     std::vector<Accum>* accums) const {
    group->assign(partial.begin(),
                  partial.begin() + static_cast<long>(group_idx.size()));
    accums->resize(agg_idx.size());
    for (size_t a = 0; a < agg_idx.size(); ++a) {
      const size_t base = group_idx.size() + a * 5;
      Accum& acc = (*accums)[a];
      acc.count = partial[base].int64_value();
      acc.isum = partial[base + 1].int64_value();
      acc.fsum = partial[base + 2].float64_value();
      acc.min = partial[base + 3];
      acc.max = partial[base + 4];
    }
  }
};

// ---- input runs --------------------------------------------------------------
//
// A run exposes `size()` and `column<T>(col)`, a typed reader with
// `IsNull(i)` and `operator[](i)`; T is bool, int32_t, int64_t, double or
// std::string_view. Readers are built once per block of rows, so a column
// is pinned and type-checked once, not once per value.

/// All rows of one columnar chunk.
class ChunkRun {
 public:
  explicit ChunkRun(const ColumnarChunk& chunk) : chunk_(chunk) {}

  template <typename T>
  class Column {
   public:
    explicit Column(const ColumnVector& column)
        : column_(&column),
          nulls_(column.null_bitmap().data()),
          null_bits_(column.null_bitmap().size() * 8) {
      if constexpr (std::is_same_v<T, bool>) {
        values_ = column.values<uint8_t>();
      } else if constexpr (!std::is_same_v<T, std::string_view>) {
        values_ = column.values<T>();
      }
    }
    bool IsNull(size_t i) const {
      return i < null_bits_ && ((nulls_[i / 8] >> (i % 8)) & 1);
    }
    T operator[](size_t i) const {
      if constexpr (std::is_same_v<T, std::string_view>) {
        return column_->StringAt(i);
      } else {
        return static_cast<T>(values_[i]);
      }
    }

   private:
    using Stored = std::conditional_t<std::is_same_v<T, bool>, uint8_t, T>;
    const ColumnVector* column_;
    const uint8_t* nulls_;
    size_t null_bits_;
    const Stored* values_ = nullptr;
  };

  size_t size() const { return chunk_.num_rows(); }
  template <typename T>
  Column<T> column(size_t col) const {
    return Column<T>(chunk_.column(col));
  }

 private:
  const ColumnarChunk& chunk_;
};

/// Encoded rows of one layout, e.g. one row batch split at its row headers.
/// Every column sits at a fixed slot offset, so a reader is a strided load
/// plus a null-bit test per row.
class RowRun {
 public:
  RowRun(const RowLayout& layout, const std::vector<const uint8_t*>& rows)
      : layout_(layout), rows_(rows) {}

  template <typename T>
  class Column {
   public:
    Column(const uint8_t* const* rows, size_t col, uint32_t slot)
        : rows_(rows),
          null_byte_(RowLayout::kNullBitmapOffset +
                     static_cast<uint32_t>(col / 8)),
          null_mask_(static_cast<uint8_t>(1u << (col % 8))),
          slot_(slot) {}
    bool IsNull(size_t i) const {
      return (rows_[i][null_byte_] & null_mask_) != 0;
    }
    T operator[](size_t i) const {
      const uint8_t* row = rows_[i];
      if constexpr (std::is_same_v<T, std::string_view>) {
        uint32_t off, len;
        std::memcpy(&off, row + slot_, sizeof(off));
        std::memcpy(&len, row + slot_ + 4, sizeof(len));
        return std::string_view(reinterpret_cast<const char*>(row) + off, len);
      } else if constexpr (std::is_same_v<T, bool>) {
        return row[slot_] != 0;
      } else {
        T v;
        std::memcpy(&v, row + slot_, sizeof(v));
        return v;
      }
    }

   private:
    const uint8_t* const* rows_;
    uint32_t null_byte_;
    uint8_t null_mask_;
    uint32_t slot_;
  };

  size_t size() const { return rows_.size(); }
  template <typename T>
  Column<T> column(size_t col) const {
    return Column<T>(rows_.data(), col, layout_.slot_offset(col));
  }

 private:
  const RowLayout& layout_;
  const std::vector<const uint8_t*>& rows_;
};

/// Calls fn(T{}) with the C++ type a kernel reads a column of `type` as.
template <typename Fn>
decltype(auto) VisitType(TypeId type, Fn&& fn) {
  switch (type) {
    case TypeId::kBool: return fn(bool{});
    case TypeId::kInt32: return fn(int32_t{});
    case TypeId::kInt64: return fn(int64_t{});
    case TypeId::kFloat64: return fn(double{});
    case TypeId::kString: break;
  }
  return fn(std::string_view{});
}

// ---- the partial-aggregation kernel -----------------------------------------

/// Map side of a two-phase aggregation: accumulates runs of input rows into
/// per-group partial state, then yields one partial row per group.
///
/// Bit-identical to folding the rows one at a time through Value
/// semantics: group codes equal GroupCode, keys compare like SameGroup
/// (so every NaN row opens its own group and -0.0 joins 0.0's group, which
/// keeps the first-seen key), float sums add in row order within a group,
/// and MIN/MAX compare like Value::Compare (numbers through double, so
/// int64 values above 2^53 may tie, and a tie keeps the first-seen value).
/// Partial rows come out in the order a GroupMap filled in row order would
/// iterate, so the final phase sees the same input order too.
class PartialAggregator {
 public:
  PartialAggregator(const ResolvedAggs& resolved,
                    const std::vector<AggSpec>& aggs)
      : resolved_(resolved),
        aggs_(aggs),
        keys_(resolved.group_idx.size()),
        table_(global() ? 0 : 64) {}

  /// Folds every row of `run`, in order, into the partial state.
  template <class Run>
  void Add(const Run& run) {
    for (size_t begin = 0; begin < run.size(); begin += kBlockRows) {
      const size_t end = std::min(run.size(), begin + kBlockRows);
      if (!global()) {
        AssignGroups(run, begin, end);
      } else if (num_groups() == 0) {
        first_groups_.push_back({kGroupCodeSeed, 0});
        OpenGroup(run, begin);
      }
      for (size_t a = 0; a < aggs_.size(); ++a) {
        Accumulate(run, a, begin, end);
      }
    }
  }

  const ResolvedAggs& resolved() const { return resolved_; }
  size_t num_groups() const { return next_same_code_.size(); }

  /// Calls fn(group code, partial row) -> Status for each group in emission
  /// order; stops at and returns the first error.
  template <class Fn>
  Status ForEachPartial(Fn&& fn) const {
    // Codes inserted in first-seen order iterate as the row-at-a-time
    // GroupMap did.
    std::unordered_map<uint64_t, uint32_t> order;
    for (const auto& [code, first] : first_groups_) order.emplace(code, first);
    RowVec row;
    for (const auto& [code, first] : order) {
      for (uint32_t g = first; g != kNoGroup; g = next_same_code_[g]) {
        row.clear();
        for (size_t k = 0; k < keys_.size(); ++k) row.push_back(KeyValue(k, g));
        for (size_t a = 0; a < aggs_.size(); ++a) {
          AppendPartial(a, state(g, a), &row);
        }
        IDF_RETURN_IF_ERROR(fn(code, row));
      }
    }
    return Status::OK();
  }

 private:
  static constexpr size_t kBlockRows = 2048;
  static constexpr uint32_t kNoGroup = ~0u;

  /// A typed value held per group: a group-by key, or a MIN/MAX extremum.
  /// Bool, int32 and int64 live in `ints`.
  struct TypedSlot {
    int64_t ints = 0;
    double floats = 0;
    std::string str;

    template <typename T>
    T Get() const {
      if constexpr (std::is_same_v<T, std::string_view>) {
        return str;
      } else if constexpr (std::is_same_v<T, double>) {
        return floats;
      } else {
        return static_cast<T>(ints);
      }
    }
    template <typename T>
    void Set(T v) {
      if constexpr (std::is_same_v<T, std::string_view>) {
        str.assign(v);
      } else if constexpr (std::is_same_v<T, double>) {
        floats = v;
      } else {
        ints = static_cast<int64_t>(v);
      }
    }
  };

  /// One group-by column's key of every group.
  struct KeyColumn {
    std::vector<uint8_t> null;
    std::vector<TypedSlot> values;

    template <typename T>
    T Get(uint32_t g) const {
      return values[g].Get<T>();
    }
  };

  /// COUNT, SUM and AVG state.
  struct Sums {
    int64_t count = 0;
    int64_t isum = 0;
    double fsum = 0;
  };
  /// MIN or MAX state.
  struct Extreme {
    bool seen = false;  // `value` holds the extremum
    TypedSlot value;
  };
  /// One aggregate's state in one group.
  struct State {
    Sums sums;
    Extreme extreme;
  };

  /// Open-addressing map from group code to the first group with that code.
  struct CodeSlot {
    uint64_t code = 0;
    uint32_t group = kNoGroup;
  };

  bool global() const { return resolved_.group_idx.empty(); }
  /// The partial schema leads with the group-by fields.
  TypeId key_type(size_t k) const {
    return resolved_.partial_schema->field(k).type;
  }
  State& state(uint32_t g, size_t a) { return states_[g * aggs_.size() + a]; }
  const State& state(uint32_t g, size_t a) const {
    return states_[g * aggs_.size() + a];
  }

  template <typename T>
  static uint64_t HashOf(T v) {
    if constexpr (std::is_same_v<T, std::string_view>) {
      return HashString(v);
    } else if constexpr (std::is_same_v<T, double>) {
      return HashDouble(v);
    } else {
      return HashInt64(static_cast<int64_t>(v));
    }
  }

  template <typename T>
  static Value ToValue(T v) {
    if constexpr (std::is_same_v<T, bool>) {
      return Value::Bool(v);
    } else if constexpr (std::is_same_v<T, int32_t>) {
      return Value::Int32(v);
    } else if constexpr (std::is_same_v<T, int64_t>) {
      return Value::Int64(v);
    } else if constexpr (std::is_same_v<T, double>) {
      return Value::Float64(v);
    } else {
      return Value::String(std::string(v));
    }
  }

  /// Value::Compare(a, b) < 0 for two non-null values of one column type.
  template <typename T>
  static bool Less(T a, T b) {
    if constexpr (std::is_same_v<T, std::string_view>) {
      return a < b;
    } else {
      return static_cast<double>(a) < static_cast<double>(b);
    }
  }

  /// Opens a group keyed by row i and returns it.
  template <class Run>
  uint32_t OpenGroup(const Run& run, size_t i) {
    const auto g = static_cast<uint32_t>(num_groups());
    for (size_t k = 0; k < keys_.size(); ++k) {
      VisitType(key_type(k), [&](auto tag) {
        using T = decltype(tag);
        const auto reader = run.template column<T>(resolved_.group_idx[k]);
        const bool null = reader.IsNull(i);
        keys_[k].null.push_back(null);
        keys_[k].values.emplace_back();
        if (!null) keys_[k].values.back().Set(reader[i]);
      });
    }
    next_same_code_.push_back(kNoGroup);
    states_.resize(states_.size() + aggs_.size());
    return g;
  }

  /// Group g's key in group-by column k.
  Value KeyValue(size_t k, uint32_t g) const {
    if (keys_[k].null[g]) return Value::Null(key_type(k));
    return VisitType(key_type(k), [&](auto tag) {
      return ToValue(keys_[k].Get<decltype(tag)>(g));
    });
  }

  /// SameGroup for row i's key column k against group g's key.
  template <typename T, class Reader>
  bool KeyEquals(const Reader& reader, size_t i, size_t k, uint32_t g) const {
    const bool null = reader.IsNull(i);
    if (null || keys_[k].null[g]) return null && keys_[k].null[g];
    return reader[i] == keys_[k].Get<T>(g);
  }

  template <class Run>
  bool RowInGroup(const Run& run, size_t i, uint32_t g) const {
    for (size_t k = 0; k < keys_.size(); ++k) {
      const bool equal = VisitType(key_type(k), [&](auto tag) {
        using T = decltype(tag);
        return KeyEquals<T>(run.template column<T>(resolved_.group_idx[k]), i,
                            k, g);
      });
      if (!equal) return false;
    }
    return true;
  }

  /// The table slot holding `code`, claimed for it if the code is new. The
  /// table stays at most a quarter full, so most probes hit the first slot.
  CodeSlot& SlotOf(uint64_t code) {
    CodeSlot* slot = &Probe(code);
    if (slot->group == kNoGroup &&
        (first_groups_.size() + 1) * 4 > table_.size()) {
      table_.assign(table_.size() * 2, CodeSlot{});
      for (const auto& [c, g] : first_groups_) Probe(c).group = g;
      slot = &Probe(code);
    }
    return *slot;
  }

  /// Linear probing; codes are already well mixed, so their low bits index.
  CodeSlot& Probe(uint64_t code) {
    const size_t mask = table_.size() - 1;
    for (size_t s = code & mask;; s = (s + 1) & mask) {
      CodeSlot& slot = table_[s];
      if (slot.group == kNoGroup || slot.code == code) {
        slot.code = code;
        return slot;
      }
    }
  }

  /// Fills slots_[i - begin] with the group of each row in [begin, end):
  /// hash the keys a column at a time, guess each row's group as the first
  /// group of its code, check the guesses a column at a time, and walk the
  /// code's chain only for rows whose guess failed.
  template <class Run>
  void AssignGroups(const Run& run, size_t begin, size_t end) {
    const size_t n = end - begin;
    codes_.assign(n, kGroupCodeSeed);
    slots_.resize(n);
    check_.assign(n, kUnchecked);
    const uint64_t null_hash = Value().Hash();
    for (size_t k = 0; k < keys_.size(); ++k) {
      VisitType(key_type(k), [&](auto tag) {
        const auto reader =
            run.template column<decltype(tag)>(resolved_.group_idx[k]);
        for (size_t i = begin; i < end; ++i) {
          const uint64_t h = reader.IsNull(i) ? null_hash : HashOf(reader[i]);
          codes_[i - begin] = HashCombine(codes_[i - begin], h);
        }
      });
    }

    for (size_t i = begin; i < end; ++i) {
      CodeSlot& slot = SlotOf(codes_[i - begin]);
      if (slot.group == kNoGroup) {
        slot.group = OpenGroup(run, i);
        first_groups_.push_back({slot.code, slot.group});
        check_[i - begin] = kOpened;
      }
      slots_[i - begin] = slot.group;
    }

    bool any_mismatch = false;
    for (size_t k = 0; k < keys_.size(); ++k) {
      VisitType(key_type(k), [&](auto tag) {
        using T = decltype(tag);
        const auto reader = run.template column<T>(resolved_.group_idx[k]);
        for (size_t i = begin; i < end; ++i) {
          if (!KeyEquals<T>(reader, i, k, slots_[i - begin])) {
            check_[i - begin] |= kMismatch;
            any_mismatch = true;
          }
        }
      });
    }
    if (!any_mismatch) return;

    for (size_t i = begin; i < end; ++i) {
      if (check_[i - begin] != kMismatch) continue;
      uint32_t g = slots_[i - begin];
      while (true) {
        const uint32_t next = next_same_code_[g];
        if (next == kNoGroup) {
          const uint32_t opened = OpenGroup(run, i);
          next_same_code_[g] = opened;
          g = opened;
          break;
        }
        g = next;
        if (RowInGroup(run, i, g)) break;
      }
      slots_[i - begin] = g;
    }
  }

  /// Runs `step(state.*part, value)` over the non-null values of one
  /// aggregate's column in row order; a global aggregate folds into a local
  /// copy of its one state so the loop keeps it in registers.
  template <class Part, class Reader, class Step>
  void ForEachValue(const Reader& reader, size_t a, size_t begin, size_t end,
                    Part State::*part, Step step) {
    if (global()) {
      Part local = std::move(state(0, a).*part);
      for (size_t i = begin; i < end; ++i) {
        if (!reader.IsNull(i)) step(local, reader[i]);
      }
      state(0, a).*part = std::move(local);
      return;
    }
    for (size_t i = begin; i < end; ++i) {
      if (!reader.IsNull(i)) step(state(slots_[i - begin], a).*part, reader[i]);
    }
  }

  template <class Run>
  void Accumulate(const Run& run, size_t a, size_t begin, size_t end) {
    if (aggs_[a].fn == AggSpec::Fn::kCount) {
      if (global()) {
        state(0, a).sums.count += static_cast<int64_t>(end - begin);
      } else {
        for (size_t i = begin; i < end; ++i) {
          ++state(slots_[i - begin], a).sums.count;
        }
      }
      return;
    }
    const size_t col = static_cast<size_t>(resolved_.agg_idx[a]);
    VisitType(resolved_.agg_type[a], [&](auto tag) {
      using T = decltype(tag);
      const auto reader = run.template column<T>(col);
      switch (aggs_[a].fn) {
        case AggSpec::Fn::kCount:
          return;
        case AggSpec::Fn::kSum:
        case AggSpec::Fn::kAvg:
          // Resolve rejects SUM/AVG over strings.
          if constexpr (!std::is_same_v<T, std::string_view>) {
            ForEachValue(reader, a, begin, end, &State::sums,
                         [](Sums& s, T v) {
                           ++s.count;
                           if constexpr (std::is_same_v<T, double>) {
                             s.fsum += v;
                           } else {
                             s.isum += static_cast<int64_t>(v);
                           }
                         });
          }
          return;
        case AggSpec::Fn::kMin:
          ForEachValue(reader, a, begin, end, &State::extreme,
                       [](Extreme& e, T v) {
                         if (!e.seen || Less(v, e.value.Get<T>())) {
                           e.seen = true;
                           e.value.Set(v);
                         }
                       });
          return;
        case AggSpec::Fn::kMax:
          ForEachValue(reader, a, begin, end, &State::extreme,
                       [](Extreme& e, T v) {
                         if (!e.seen || Less(e.value.Get<T>(), v)) {
                           e.seen = true;
                           e.value.Set(v);
                         }
                       });
          return;
      }
    });
  }

  /// Appends aggregate a's five partial columns for one group to `row`.
  void AppendPartial(size_t a, const State& s, RowVec* row) const {
    const AggSpec::Fn fn = aggs_[a].fn;
    Value extreme;  // null unless MIN/MAX saw a value
    if (s.extreme.seen) {
      extreme = VisitType(resolved_.agg_type[a], [&](auto tag) {
        return ToValue(s.extreme.value.Get<decltype(tag)>());
      });
    }
    row->push_back(Value::Int64(s.sums.count));
    row->push_back(Value::Int64(s.sums.isum));
    row->push_back(Value::Float64(s.sums.fsum));
    row->push_back(fn == AggSpec::Fn::kMin ? extreme : Value());
    row->push_back(fn == AggSpec::Fn::kMax ? extreme : Value());
  }

  const ResolvedAggs& resolved_;
  const std::vector<AggSpec>& aggs_;

  // Groups are dense from 0. first_groups_ lists (code, first group) in
  // first-seen order, table_ finds a code's entry, and next_same_code_
  // chains the later groups sharing a code in opening order.
  std::vector<KeyColumn> keys_;
  std::vector<std::pair<uint64_t, uint32_t>> first_groups_;
  std::vector<CodeSlot> table_;
  std::vector<uint32_t> next_same_code_;
  std::vector<State> states_;  // group-major, aggs_.size() per group

  // Per-block scratch: each row's group code, group, and check flags.
  static constexpr uint8_t kUnchecked = 0;
  static constexpr uint8_t kOpened = 1;    // the row opened its group
  static constexpr uint8_t kMismatch = 2;  // the row's key differs from it
  std::vector<uint64_t> codes_;
  std::vector<uint32_t> slots_;
  std::vector<uint8_t> check_;
};

}  // namespace idf::agg_internal
