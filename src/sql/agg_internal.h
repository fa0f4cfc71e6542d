// Aggregation internals of HashAggExec (sql/physical.cpp).
//
// The map side emits *partial rows* — group columns followed by five flat
// state columns per aggregate (count, isum, fsum, min, max) — which shuffle
// on their group codes to the final merge.
//
// One typed kernel, PartialAggregator, serves both phases, a run of rows
// at a time. The map side drives it over whatever block its pipeline
// pushes: a columnar chunk (ChunkRun) or an indexed source's row block,
// read in place (RowRun over the block's field map). The reduce side
// (FinalMerge) drives it over the shuffled partial rows (RowRun), since
// merging partial states is itself an aggregation over their columns. Group keys are hashed a column at a time
// into a per-row group slot, then each aggregate runs one typed loop over
// the run, so no Value is boxed per input row and a group's RowVec key is
// built once, when the group opens.
#pragma once

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "engine/shuffle.h"
#include "sql/columnar.h"
#include "sql/plan.h"
#include "storage/row_layout.h"
#include "types/schema.h"

namespace idf::agg_internal {

/// Seed of every group code; a global aggregate's single group has it.
inline constexpr uint64_t kGroupCodeSeed = 0x9e3779b97f4a7c15ULL;
/// What a null group key folds into its group's code ("null" in ASCII).
inline constexpr uint64_t kNullKeyHash = 0x6e756c6cULL;

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
};

// Input runs (sql/columnar.h): a run exposes `size()` and `column<T>(col)`,
// a typed reader with `IsNull(i)` and `operator[](i)`.
using ::idf::ChunkRun;
using ::idf::RowRun;
using ::idf::VisitType;

// ---- the partial-aggregation kernel -----------------------------------------

/// Map side of a two-phase aggregation: accumulates runs of input rows into
/// per-group partial state, then yields one partial row per group.
///
/// Bit-identical to folding the rows one at a time through Value
/// semantics: a group's code folds each key's hash (HashInt64 of an integer
/// or bool, HashDouble, HashString, kNullKeyHash for a null) into
/// kGroupCodeSeed with HashCombine, keys compare with Value equality and
/// nulls equal to each other (so every NaN row opens its own group and
/// -0.0 joins 0.0's group, which keeps the first-seen key), float sums add
/// in row order within a group, and MIN/MAX compare like Value::Compare
/// (numbers through double, so int64 values above 2^53 may tie, and a tie
/// keeps the first-seen value). Groups come out in the iteration order of
/// an unordered_map from code to the code's groups (in opening order),
/// filled in row order, so the final phase sees the same input order too.
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
    // Codes inserted in first-seen order iterate as a code map filled row
    // by row would.
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

  /// Whether row i's key column k equals group g's key (nulls equal).
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
    for (size_t k = 0; k < keys_.size(); ++k) {
      VisitType(key_type(k), [&](auto tag) {
        const auto reader =
            run.template column<decltype(tag)>(resolved_.group_idx[k]);
        for (size_t i = begin; i < end; ++i) {
          const uint64_t h =
              reader.IsNull(i) ? kNullKeyHash : HashOf(reader[i]);
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

// ---- the final merge --------------------------------------------------------

/// Reduce side of a two-phase aggregation, on the partial kernel: merging
/// partial rows is an aggregation over their state columns. COUNT merges
/// as SUM of its count column; SUM and AVG as SUMs of its count, isum and
/// fsum columns; MIN as MIN of its min column and MAX as MAX of its max
/// column. Keys and state columns are resolved by position, so a user
/// column named like a state column (`agg0_count`) cannot alias one.
class FinalMerge {
 public:
  FinalMerge(const ResolvedAggs& resolved, const std::vector<AggSpec>& aggs)
      : resolved_(resolved), aggs_(aggs), layout_(resolved.partial_schema) {
    using Fn = AggSpec::Fn;
    const size_t num_keys = resolved.group_idx.size();
    merge_.partial_schema = resolved.partial_schema;  // the key types lead it
    for (size_t k = 0; k < num_keys; ++k) merge_.group_idx.push_back(k);
    auto merge_by = [&](Fn fn, size_t col) {
      merge_aggs_.push_back({fn, "", ""});
      merge_.agg_idx.push_back(static_cast<int>(col));
      merge_.agg_type.push_back(resolved.partial_schema->field(col).type);
    };
    for (size_t a = 0; a < aggs.size(); ++a) {
      const size_t state = num_keys + 5 * a;  // count, isum, fsum, min, max
      const Fn fn = aggs[a].fn;
      merged_at_.push_back(num_keys + 5 * merge_aggs_.size());
      if (fn == Fn::kMin || fn == Fn::kMax) {
        merge_by(fn, state + (fn == Fn::kMin ? 3 : 4));
      } else {
        const size_t sums = fn == Fn::kCount ? 1 : 3;
        for (size_t c = 0; c < sums; ++c) merge_by(Fn::kSum, state + c);
      }
    }
  }

  /// Merges one reduce partition's partial rows in input order and appends
  /// one output row per group to `out`, in the kernel's emission order. A
  /// global aggregate emits its one row even for empty input.
  Status Run(const ShuffleInputs& inputs, ColumnarChunk& out) const {
    PartialAggregator merged(merge_, merge_aggs_);
    std::vector<const uint8_t*> rows;
    for (const auto& buf : inputs) {
      rows.clear();
      buf->SplitRows(rows);
      merged.Add(RowRun(layout_, rows));
    }
    if (resolved_.group_idx.empty() && merged.num_groups() == 0) {
      RowVec nothing;  // what merging no partial rows leaves
      for (size_t m = 0; m < merge_aggs_.size(); ++m) {
        nothing.insert(nothing.end(), {Value::Int64(0), Value::Int64(0),
                                       Value::Float64(0), Value(), Value()});
      }
      return out.AppendRow(Finish(nothing));
    }
    return merged.ForEachPartial([&](uint64_t, const RowVec& row) {
      return out.AppendRow(Finish(row));
    });
  }

 private:
  /// The output row of one merged row: the keys, then each aggregate's
  /// value. Each merge spans five columns (count, isum, fsum, min, max), so
  /// m[1] is the first merge's Σ, m[6] the second's and m[12] the third's
  /// float Σ.
  RowVec Finish(const RowVec& merged) const {
    const size_t num_keys = resolved_.group_idx.size();
    RowVec out(merged.begin(), merged.begin() + static_cast<long>(num_keys));
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const Value* m = &merged[merged_at_[a]];
      const bool floats = resolved_.agg_type[a] == TypeId::kFloat64;
      switch (aggs_[a].fn) {
        case AggSpec::Fn::kCount: out.push_back(m[1]); break;
        case AggSpec::Fn::kSum: out.push_back(floats ? m[12] : m[6]); break;
        case AggSpec::Fn::kAvg: {
          const auto count = static_cast<double>(m[1].int64_value());
          const double total = (floats ? m[12] : m[6]).AsFloat64();
          out.push_back(count == 0 ? Value::Null(TypeId::kFloat64)
                                   : Value::Float64(total / count));
          break;
        }
        case AggSpec::Fn::kMin: out.push_back(m[3]); break;
        case AggSpec::Fn::kMax: out.push_back(m[4]); break;
      }
    }
    return out;
  }

  const ResolvedAggs& resolved_;
  const std::vector<AggSpec>& aggs_;
  RowLayout layout_;  // of the partial rows
  ResolvedAggs merge_;
  std::vector<AggSpec> merge_aggs_;
  std::vector<size_t> merged_at_;  // aggregate a's first merged column
};

}  // namespace idf::agg_internal
