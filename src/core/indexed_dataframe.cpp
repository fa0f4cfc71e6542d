#include "core/indexed_dataframe.h"

#include "core/indexed_ops.h"

namespace idf {

Result<IndexedDataFrame> IndexedDataFrame::Create(const DataFrame& df,
                                                  const std::string& column,
                                                  const IndexOptions& options,
                                                  QueryMetrics* metrics) {
  IDF_CHECK_MSG(df.valid(), "createIndex on an empty DataFrame");
  Session& session = *df.session();
  InstallIndexedExtensions(session);

  QueryMetrics local;
  QueryMetrics& m = metrics != nullptr ? *metrics : local;
  IDF_ASSIGN_OR_RETURN(TableHandle base, df.Execute(&m));
  IDF_ASSIGN_OR_RETURN(size_t key_column, base.schema->FieldIndex(column));
  IDF_ASSIGN_OR_RETURN(
      std::shared_ptr<IndexedRdd> rdd,
      IndexedRdd::Create(session, base, key_column, options, m));
  return IndexedDataFrame(std::move(rdd), 0, column);
}

Result<CollectedTable> IndexedDataFrame::GetRows(const Value& key,
                                                 QueryMetrics* metrics) const {
  IDF_CHECK_MSG(valid(), "GetRows on an invalid IndexedDataFrame");
  QueryMetrics local;
  QueryMetrics& m = metrics != nullptr ? *metrics : local;
  auto dataset = std::make_shared<IndexedDataset>(rdd_, version_);
  IndexLookupExec lookup(std::move(dataset), key);
  IDF_ASSIGN_OR_RETURN(TableHandle handle, lookup.Execute(rdd_->session(), m));
  return rdd_->session().Collect(handle);
}

Result<IndexedDataFrame> IndexedDataFrame::AppendRows(
    const DataFrame& rows, QueryMetrics* metrics) const {
  IDF_CHECK_MSG(valid(), "AppendRows on an invalid IndexedDataFrame");
  QueryMetrics local;
  QueryMetrics& m = metrics != nullptr ? *metrics : local;
  IDF_ASSIGN_OR_RETURN(TableHandle handle, rows.Execute(&m));
  IDF_ASSIGN_OR_RETURN(uint64_t new_version,
                       rdd_->Append(version_, handle, m));
  return IndexedDataFrame(rdd_, new_version, column_name_);
}

DataFrame IndexedDataFrame::AsDataFrame() const {
  IDF_CHECK_MSG(valid(), "AsDataFrame on an invalid IndexedDataFrame");
  return rdd_->session().Read(
      std::make_shared<IndexedDataset>(rdd_, version_));
}

DataFrame IndexedDataFrame::Join(const DataFrame& probe,
                                 const std::string& probe_key) const {
  return AsDataFrame().Join(probe, column_name_, probe_key);
}

void IndexedDataFrame::RegisterAs(const std::string& name) const {
  IDF_CHECK_MSG(valid(), "RegisterAs on an invalid IndexedDataFrame");
  rdd_->session().RegisterTable(
      name, std::make_shared<IndexedDataset>(rdd_, version_));
}

Result<std::vector<PartitionMemory>> IndexedDataFrame::MemoryReport() const {
  IDF_CHECK_MSG(valid(), "MemoryReport on an invalid IndexedDataFrame");
  Cluster& cluster = rdd_->session().cluster();
  TaskContext ctx(&cluster, cluster.AliveExecutors().front());
  std::vector<PartitionMemory> report;
  for (uint32_t p = 0; p < rdd_->num_partitions(); ++p) {
    IDF_ASSIGN_OR_RETURN(std::shared_ptr<const IndexedPartition> part,
                         rdd_->GetPartition(p, version_, ctx));
    PartitionMemory pm;
    pm.partition = p;
    pm.data_bytes = part->data_bytes();
    pm.allocated_bytes = part->allocated_bytes();
    pm.num_batches = part->num_batches();
    pm.index_bytes = part->IndexBytes();
    pm.num_rows = part->num_rows();
    report.push_back(pm);
  }
  return report;
}

}  // namespace idf
