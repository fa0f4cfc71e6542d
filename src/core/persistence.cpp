#include "core/persistence.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace idf {
namespace {

constexpr char kPartitionMagic[] = "IDFPART1";
constexpr char kManifestMagic[] = "IDFMANIFEST1";

template <typename T>
void WritePod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return static_cast<bool>(in);
}

void WriteString(std::ofstream& out, const std::string& s) {
  WritePod(out, static_cast<uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool ReadString(std::ifstream& in, std::string* s) {
  uint32_t len;
  if (!ReadPod(in, &len)) return false;
  if (len > (64u << 10)) return false;  // sanity bound for names
  s->resize(len);
  in.read(s->data(), len);
  return static_cast<bool>(in);
}

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::InvalidArgument("corrupt partition file '" + path +
                                 "': " + what);
}

}  // namespace

Status SavePartition(const IndexedPartition& partition,
                     const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Unavailable("cannot open '" + path + "' for writing");
  }
  out.write(kPartitionMagic, 8);
  const Schema& schema = partition.schema();
  WritePod(out, static_cast<uint32_t>(partition.key_column()));
  WritePod(out, static_cast<uint32_t>(schema.num_fields()));
  WritePod(out, static_cast<uint32_t>(schema.num_fields()));
  for (const Field& field : schema.fields()) {
    WriteString(out, field.name);
    WritePod(out, static_cast<uint8_t>(field.type));
    WritePod(out, static_cast<uint8_t>(field.nullable ? 1 : 0));
  }

  WritePod(out, partition.num_rows());
  WritePod(out, partition.data_bytes());
  // Rows are self-delimiting; write them in storage order. Backward-pointer
  // headers are rewritten on load, so the raw bytes round-trip safely even
  // though batch boundaries may differ (and a version with appends loads
  // with each key's rows regrouped into one run, chain order unchanged).
  partition.ForEachBatch([&](const uint8_t* data, uint32_t used) {
    out.write(reinterpret_cast<const char*>(data), used);
  });
  out.flush();
  if (!out) return Status::Unavailable("short write to '" + path + "'");
  return Status::OK();
}

Result<std::shared_ptr<IndexedPartition>> LoadPartition(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");

  char magic[8];
  in.read(magic, 8);
  if (!in || std::string(magic, 8) != kPartitionMagic) {
    return Corrupt(path, "bad magic");
  }
  uint32_t key_column, layout_fields, num_fields;
  if (!ReadPod(in, &key_column) || !ReadPod(in, &layout_fields) ||
      !ReadPod(in, &num_fields) || num_fields != layout_fields ||
      num_fields == 0 || num_fields > 4096) {
    return Corrupt(path, "bad header");
  }
  std::vector<Field> fields;
  for (uint32_t i = 0; i < num_fields; ++i) {
    Field field;
    uint8_t type, nullable;
    if (!ReadString(in, &field.name) || !ReadPod(in, &type) ||
        !ReadPod(in, &nullable) || type > 4) {
      return Corrupt(path, "bad field descriptor");
    }
    field.type = static_cast<TypeId>(type);
    field.nullable = nullable != 0;
    fields.push_back(std::move(field));
  }
  uint64_t num_rows, data_bytes;
  if (!ReadPod(in, &num_rows) || !ReadPod(in, &data_bytes)) {
    return Corrupt(path, "truncated row header");
  }

  auto schema = std::make_shared<Schema>(Schema(std::move(fields)));
  if (key_column >= schema->num_fields()) {
    return Corrupt(path, "key column out of range");
  }
  auto partition = std::make_shared<IndexedPartition>(schema, key_column);
  partition->ReserveHint(data_bytes);

  std::vector<char> buffer(data_bytes);
  in.read(buffer.data(), static_cast<std::streamsize>(data_bytes));
  if (!in) return Corrupt(path, "truncated row data");

  std::vector<const uint8_t*> rows;
  rows.reserve(std::min<uint64_t>(num_rows, data_bytes / 16));
  if (!RowLayout::SplitRows(reinterpret_cast<const uint8_t*>(buffer.data()),
                            buffer.size(), rows)) {
    return Corrupt(path, "row overruns file");
  }
  if (rows.size() != num_rows) return Corrupt(path, "row count mismatch");
  // A saved base is in grouped order already, so this reproduces its layout.
  IDF_RETURN_IF_ERROR(partition->InsertEncodedRows(rows));
  partition->SealStorage();  // loaded: evictable from here on
  return partition;
}

Status SaveIndexedDataFrame(const IndexedDataFrame& df,
                            const std::string& dir) {
  IDF_CHECK_MSG(df.valid(), "SaveIndexedDataFrame on an invalid handle");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Unavailable("cannot create directory '" + dir +
                               "': " + ec.message());
  }

  const std::shared_ptr<IndexedRdd>& rdd = df.rdd();
  Cluster& cluster = rdd->session().cluster();
  TaskContext ctx(&cluster, cluster.AliveExecutors().front());
  for (uint32_t p = 0; p < rdd->num_partitions(); ++p) {
    IDF_ASSIGN_OR_RETURN(std::shared_ptr<const IndexedPartition> part,
                         rdd->GetPartition(p, df.version(), ctx));
    IDF_RETURN_IF_ERROR(
        SavePartition(*part, dir + "/part-" + std::to_string(p) + ".bin"));
  }

  std::ofstream manifest(dir + "/manifest.idf", std::ios::trunc);
  if (!manifest) {
    return Status::Unavailable("cannot write manifest in '" + dir + "'");
  }
  manifest << kManifestMagic << "\n";
  manifest << "key_column " << df.indexed_column_name() << "\n";
  manifest << "partitions " << rdd->num_partitions() << "\n";
  manifest << "fields " << rdd->schema()->num_fields() << "\n";
  for (const Field& field : rdd->schema()->fields()) {
    manifest << field.name << " " << static_cast<int>(field.type) << " "
             << (field.nullable ? 1 : 0) << "\n";
  }
  manifest.flush();
  return manifest ? Status::OK()
                  : Status::Unavailable("short manifest write");
}

Result<IndexedDataFrame> LoadIndexedDataFrame(Session& session,
                                              const std::string& dir) {
  std::ifstream manifest(dir + "/manifest.idf");
  if (!manifest) {
    return Status::NotFound("no manifest in '" + dir + "'");
  }
  std::string magic;
  manifest >> magic;
  if (magic != kManifestMagic) {
    return Status::InvalidArgument("'" + dir + "' is not a saved index");
  }
  std::string tag, key_column_name;
  uint32_t partitions = 0;
  size_t num_fields = 0;
  manifest >> tag >> key_column_name;
  if (tag != "key_column") return Status::InvalidArgument("bad manifest");
  manifest >> tag >> partitions;
  if (tag != "partitions" || partitions == 0) {
    return Status::InvalidArgument("bad manifest partition count");
  }
  manifest >> tag >> num_fields;
  if (tag != "fields" || num_fields == 0) {
    return Status::InvalidArgument("bad manifest field count");
  }
  std::vector<Field> fields;
  for (size_t i = 0; i < num_fields; ++i) {
    Field field;
    int type, nullable;
    manifest >> field.name >> type >> nullable;
    if (!manifest || type < 0 || type > 4) {
      return Status::InvalidArgument("bad manifest field");
    }
    field.type = static_cast<TypeId>(type);
    field.nullable = nullable != 0;
    fields.push_back(std::move(field));
  }
  auto schema = std::make_shared<Schema>(Schema(std::move(fields)));
  IDF_ASSIGN_OR_RETURN(size_t key_column,
                       schema->FieldIndex(key_column_name));

  InstallIndexedExtensions(session);
  QueryMetrics metrics;
  IDF_ASSIGN_OR_RETURN(
      std::shared_ptr<IndexedRdd> rdd,
      IndexedRdd::Restore(
          session, schema, key_column, partitions,
          RowBatch::kDefaultCapacity,
          [dir](uint32_t p) {
            return LoadPartition(dir + "/part-" + std::to_string(p) + ".bin");
          },
          metrics));
  return IndexedDataFrame::FromRdd(std::move(rdd), 0, key_column_name);
}

}  // namespace idf
