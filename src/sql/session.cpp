#include "sql/session.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>

#include "mem/governor.h"
#include "obs/query_profile.h"
#include "sql/parser.h"

namespace idf {

std::vector<std::string> CollectedTable::SortedRowStrings() const {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const RowVec& row : rows) {
    std::string s;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) s += "|";
      s += row[i].ToString();
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Session::Session(SessionOptions options)
    : options_(std::move(options)),
      cluster_(std::make_unique<Cluster>(options_.cluster)),
      planner_(options_.join_mode) {}

Result<DataFrame> Session::CreateTable(const std::string& name,
                                       SchemaPtr schema,
                                       const std::vector<RowVec>& rows,
                                       uint32_t partitions) {
  if (partitions == 0) partitions = options_.default_partitions;
  for (const RowVec& row : rows) {
    IDF_RETURN_IF_ERROR(ValidateRow(*schema, row));
  }
  // Round-robin assignment; capture by value so lineage can replay.
  auto generator = [rows, partitions](uint32_t partition) {
    std::vector<RowVec> mine;
    for (size_t i = partition; i < rows.size(); i += partitions) {
      mine.push_back(rows[i]);
    }
    return mine;
  };
  return CreateTableFromGenerator(name, std::move(schema), partitions,
                                  std::move(generator));
}

Result<DataFrame> Session::CreateTableFromGenerator(
    const std::string& name, SchemaPtr schema, uint32_t partitions,
    PartitionGenerator generator) {
  return CreateTableImpl(name, std::move(schema), partitions,
                         std::move(generator), /*register_in_catalog=*/true);
}

Result<DataFrame> Session::CreateTableImpl(const std::string& name,
                                           SchemaPtr schema,
                                           uint32_t partitions,
                                           PartitionGenerator generator,
                                           bool register_in_catalog) {
  IDF_CHECK(partitions > 0);
  IDF_CHECK(generator != nullptr);
  RddLeasePtr lease = cluster_->NewRdd();
  const uint64_t rdd_id = lease->rdd();

  auto build_chunk = [schema, generator](uint32_t partition) -> ChunkPtr {
    auto chunk = std::make_shared<ColumnarChunk>(schema);
    for (const RowVec& row : generator(partition)) {
      IDF_CHECK_OK(chunk->AppendRow(row));
    }
    return chunk;
  };

  // Lineage: regenerating a lost partition re-runs the generator (§III-D:
  // a replayable data source).
  cluster_->RegisterLineage(
      rdd_id, [build_chunk, rdd_id](uint32_t partition, uint64_t version,
                                    TaskContext&) -> Result<BlockPtr> {
        if (version != 0) {
          return Status::Internal("cached tables only have version 0");
        }
        ChunkPtr chunk = build_chunk(partition);
        chunk->SealForCache(rdd_id, partition);
        return BlockPtr(std::move(chunk));
      });

  StageSpec stage;
  stage.name = "materialize " + name;
  // Atomics: materialize tasks run concurrently on the stage scheduler.
  std::atomic<uint64_t> total_rows{0};
  std::atomic<uint64_t> total_bytes{0};
  for (uint32_t p = 0; p < partitions; ++p) {
    const ExecutorId home = cluster_->HomeExecutorFor(rdd_id, p);
    stage.tasks.push_back(TaskSpec{
        home,
        {},
        0,
        [&, p, rdd_id](TaskContext& ctx) {
          ChunkPtr chunk = build_chunk(p);
          total_rows += chunk->num_rows();
          total_bytes += chunk->ByteSize();
          ctx.metrics().rows_written += chunk->num_rows();
          chunk->SealForCache(rdd_id, p);
          ctx.cluster().blocks().Put(BlockId{rdd_id, p, 0}, ctx.executor(),
                                     chunk);
          return Status::OK();
        },
        {}});
  }
  IDF_RETURN_IF_ERROR(cluster_->RunStage(stage).status());

  TableHandle handle;
  handle.schema = schema;
  handle.rdd_id = rdd_id;
  handle.lease = std::move(lease);
  handle.num_partitions = partitions;
  handle.version = 0;
  handle.num_rows = total_rows;
  handle.total_bytes = total_bytes;

  auto dataset = std::make_shared<CachedTable>(handle, name);
  if (register_in_catalog) RegisterTable(name, dataset);
  return Read(std::move(dataset));
}

namespace {
std::string CatalogKey(const std::string& name) {
  std::string key = name;
  for (char& c : key) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return key;
}
}  // namespace

void Session::RegisterTable(const std::string& name, DatasetPtr dataset) {
  IDF_CHECK(dataset != nullptr);
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  catalog_[CatalogKey(name)] = std::move(dataset);
}

Result<DatasetPtr> Session::LookupTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  auto it = catalog_.find(CatalogKey(name));
  if (it == catalog_.end()) {
    return Status::NotFound("no table named '" + name + "' in the catalog");
  }
  return it->second;
}

Result<DataFrame> Session::Sql(const std::string& query) {
  // Peel an EXPLAIN [ANALYZE] prefix off before parsing: the remainder is a
  // complete query of its own, re-entered through this function.
  IDF_ASSIGN_OR_RETURN(std::vector<sql_detail::Token> tokens,
                       sql_detail::Lex(query));
  if (!tokens.empty() && tokens[0].kind == sql_detail::TokenKind::kIdentifier &&
      tokens[0].text == "EXPLAIN") {
    size_t next = 1;
    bool analyze = false;
    if (tokens.size() > 1 &&
        tokens[1].kind == sql_detail::TokenKind::kIdentifier &&
        tokens[1].text == "ANALYZE") {
      analyze = true;
      next = 2;
    }
    if (next >= tokens.size() ||
        tokens[next].kind == sql_detail::TokenKind::kEnd) {
      return Status::InvalidArgument("EXPLAIN requires a query");
    }
    IDF_ASSIGN_OR_RETURN(DataFrame inner,
                         Sql(query.substr(tokens[next].position)));
    std::string text;
    if (analyze) {
      IDF_ASSIGN_OR_RETURN(text, inner.ExplainAnalyze());
    } else {
      IDF_ASSIGN_OR_RETURN(text, inner.ExplainPhysical());
    }
    // One row per plan line, in a single driver-side partition. Not
    // registered in the catalog: the result is an anonymous table.
    auto schema = std::make_shared<Schema>(
        Schema({{"plan", TypeId::kString, false}}));
    std::vector<RowVec> lines;
    size_t start = 0;
    while (start < text.size()) {
      size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      lines.push_back({Value::String(text.substr(start, end - start))});
      start = end + 1;
    }
    auto generator = [lines](uint32_t) { return lines; };
    return CreateTableImpl("explain result", schema, 1, std::move(generator),
                           /*register_in_catalog=*/false);
  }

  IDF_ASSIGN_OR_RETURN(PlanPtr plan, ParseSql(query, *this));
  // Surface binding errors (unknown columns, arity problems) at Sql() time
  // rather than at execution.
  IDF_RETURN_IF_ERROR(plan->OutputSchema().status());
  return DataFrame(this, std::move(plan));
}

DataFrame Session::Read(DatasetPtr dataset) {
  return DataFrame(this, std::make_shared<ScanNode>(std::move(dataset)));
}

Result<CollectedTable> Session::Collect(const TableHandle& handle) {
  CollectedTable out;
  out.schema = handle.schema;
  out.rows.reserve(handle.num_rows);
  TaskContext ctx(cluster_.get(), cluster_->AliveExecutors().front());
  for (uint32_t p = 0; p < handle.num_partitions; ++p) {
    // Per-partition scope: the chunk stays pinned for its row loop, then
    // unpins so a tight budget never has to hold the whole result resident.
    BlockPtr block;  // outlives the scope, which unpins it
    mem::AccessScope scope;
    IDF_ASSIGN_OR_RETURN(
        block,
        cluster_->GetOrCompute(BlockId{handle.rdd_id, p, handle.version}, ctx));
    const auto& chunk = static_cast<const ColumnarChunk&>(*block);
    try {
      for (size_t i = 0; i < chunk.num_rows(); ++i) {
        out.rows.push_back(chunk.RowAt(i));
      }
    } catch (const mem::ReloadFault& fault) {
      // The chunk's payload was evicted and could not be reloaded while this
      // driver-side loop was reading it. Unlike stage bodies (whose faults
      // ExecuteTask catches), this loop runs outside any task; surface the
      // same kUnavailable status instead of unwinding into the caller.
      return fault.status();
    }
  }
  return out;
}

Result<TableHandle> DataFrame::Execute(QueryMetrics* metrics) const {
  IDF_CHECK_MSG(valid(), "Execute on an empty DataFrame");
  QueryMetrics local;
  QueryMetrics& m = metrics != nullptr ? *metrics : local;
  IDF_ASSIGN_OR_RETURN(PhysOpPtr op, session_->planner().Plan(plan_));
  try {
    return op->Execute(*session_, m);
  } catch (const mem::ReloadFault& fault) {
    // Driver-side reads (broadcast hash builds, inline chunk walks) pin
    // payloads outside any stage task, so a failed reload unwinds to here
    // rather than to ExecuteTask's catch. Same contract: the query fails
    // with the reload's kUnavailable status, the process does not.
    return fault.status();
  }
}

Result<std::string> DataFrame::ExplainAnalyze(QueryMetrics* metrics) const {
  IDF_CHECK_MSG(valid(), "ExplainAnalyze on an empty DataFrame");
  QueryMetrics local;
  QueryMetrics& m = metrics != nullptr ? *metrics : local;
  m.op_profile = std::make_shared<std::map<const void*, OpProfile>>();
  // Inside a query service the run keeps the service's query id; standalone
  // runs get an ephemeral id of their own, so the profile footer below
  // reports this execution rather than the unattributed bucket. An id this
  // call allocated is retired once the footer has read it.
  const bool standalone = obs::CurrentQueryId() == 0;
  const uint64_t query_id =
      standalone ? obs::AllocateQueryId() : obs::CurrentQueryId();
  struct RetireOwnId {
    uint64_t id;
    ~RetireOwnId() {
      if (id != 0) obs::QueryProfileRegistry::Global().Retire(id);
    }
  } retire{standalone ? query_id : 0};
  obs::QueryScope query_scope(query_id);
  // Plan once and execute that exact tree: the profile is keyed by the
  // physical nodes' addresses.
  IDF_ASSIGN_OR_RETURN(PhysOpPtr op, session_->planner().Plan(plan_));
  IDF_RETURN_IF_ERROR(op->Execute(*session_, m).status());
  std::string out = op->ExplainAnalyze(m);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "-- %u stages, real %.3fms, simulated %.3fms, network %.3fms",
                m.num_stages, m.real_seconds * 1e3, m.simulated_seconds * 1e3,
                m.network_seconds * 1e3);
  out += buf;
  out += "\n";
  obs::QueryProfileSnapshot snap;
  if (obs::QueryProfileRegistry::Global().Snapshot(query_id, &snap)) {
    std::snprintf(buf, sizeof(buf),
                  "-- query %llu: tasks %llu, resident hits/misses %llu/%llu, "
                  "spilled %llu B, reloaded %llu B, peak pinned %llu B",
                  static_cast<unsigned long long>(snap.id),
                  static_cast<unsigned long long>(snap.tasks),
                  static_cast<unsigned long long>(snap.resident_hits),
                  static_cast<unsigned long long>(snap.resident_misses),
                  static_cast<unsigned long long>(snap.bytes_spilled),
                  static_cast<unsigned long long>(snap.bytes_reloaded),
                  static_cast<unsigned long long>(snap.peak_pinned_bytes));
    out += buf;
    out += "\n";
  }
  return out;
}

Result<CollectedTable> DataFrame::Collect(QueryMetrics* metrics) const {
  IDF_ASSIGN_OR_RETURN(TableHandle handle, Execute(metrics));
  return session_->Collect(handle);
}

Result<uint64_t> DataFrame::Count(QueryMetrics* metrics) const {
  IDF_ASSIGN_OR_RETURN(CollectedTable counted,
                       Agg({}, {AggSpec::Count()}).Collect(metrics));
  IDF_CHECK(counted.rows.size() == 1);
  return static_cast<uint64_t>(counted.rows[0][0].int64_value());
}

Result<DataFrame> DataFrame::Distinct() const {
  IDF_CHECK_MSG(valid(), "Distinct on an empty DataFrame");
  IDF_ASSIGN_OR_RETURN(Schema schema, plan_->OutputSchema());
  std::vector<std::string> all_columns;
  for (const Field& field : schema.fields()) all_columns.push_back(field.name);
  // Group by every column, then project the group keys back out.
  PlanPtr agg = std::make_shared<AggregateNode>(
      plan_, all_columns, std::vector<AggSpec>{AggSpec::Count("__distinct")});
  return DataFrame(session_,
                   std::make_shared<ProjectNode>(std::move(agg), all_columns));
}

Result<std::string> DataFrame::ExplainOptimized() const {
  IDF_ASSIGN_OR_RETURN(PlanPtr optimized, session_->planner().Optimize(plan_));
  return optimized->Explain();
}

Result<std::string> DataFrame::ExplainPhysical() const {
  IDF_ASSIGN_OR_RETURN(PhysOpPtr op, session_->planner().Plan(plan_));
  return op->Explain();
}

}  // namespace idf
