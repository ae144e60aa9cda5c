#include "wire/protocol.h"

#include "common/hash.h"
#include "wire/serde.h"

namespace gisql {
namespace wire {

std::vector<uint8_t> SealFrame(std::vector<uint8_t> payload) {
  ByteWriter header;
  header.PutU32(Crc32(payload.data(), payload.size()));
  header.PutU32(static_cast<uint32_t>(payload.size()));
  payload.insert(payload.begin(), header.data().begin(), header.data().end());
  return payload;
}

void WriteResultBatch(ByteWriter* w, const RowBatch& rows) {
  Result<ColumnBatch> columnar = ColumnBatch::FromRows(rows);
  if (columnar.ok()) {
    w->PutU8(kBatchFormatColumnar);
    WriteColumnBatch(w, *columnar);
  } else {
    w->PutU8(kBatchFormatRow);
    WriteBatch(w, rows);
  }
}

Result<ResultBatch> ReadResultBatch(ByteReader* r) {
  ResultBatch out;
  GISQL_ASSIGN_OR_RETURN(uint8_t format, r->GetU8());
  if (format == kBatchFormatColumnar) {
    GISQL_ASSIGN_OR_RETURN(ColumnBatch cols, ReadColumnBatch(r));
    out.rows = cols.ToRows();
    out.columnar = std::make_shared<ColumnBatch>(std::move(cols));
  } else if (format == kBatchFormatRow) {
    GISQL_ASSIGN_OR_RETURN(out.rows, ReadBatch(r));
  } else {
    return Status::SerializationError("bad batch format byte ", int(format));
  }
  return out;
}

Result<std::vector<uint8_t>> OpenFrame(std::vector<uint8_t> frame) {
  ByteReader r(frame);
  GISQL_ASSIGN_OR_RETURN(uint32_t crc, r.GetU32());
  GISQL_ASSIGN_OR_RETURN(uint32_t declared, r.GetU32());
  if (declared != r.remaining()) {
    return Status::SerializationError(
        "frame truncated: ", declared, " payload bytes declared, ",
        r.remaining(), " present");
  }
  const uint32_t actual = Crc32(frame.data() + kFrameHeaderBytes, declared);
  if (actual != crc) {
    return Status::SerializationError(
        "frame checksum mismatch: expected ", crc, ", computed ", actual,
        " over ", declared, " bytes");
  }
  frame.erase(frame.begin(), frame.begin() + kFrameHeaderBytes);
  return frame;
}

void WriteTableStats(ByteWriter* w, const TableStats& stats) {
  w->PutSignedVarint(stats.row_count);
  w->PutVarint(stats.columns.size());
  for (const auto& c : stats.columns) {
    WriteValue(w, c.min);
    WriteValue(w, c.max);
    w->PutSignedVarint(c.null_count);
    w->PutSignedVarint(c.distinct_count);
    w->PutDouble(c.avg_width);
    w->PutVarint(c.histogram_bounds.size());
    for (const auto& edge : c.histogram_bounds) WriteValue(w, edge);
  }
  w->PutVarint(stats.hash_indexed_columns.size());
  for (int64_t col : stats.hash_indexed_columns) w->PutSignedVarint(col);
  w->PutVarint(stats.ordered_indexed_columns.size());
  for (int64_t col : stats.ordered_indexed_columns) w->PutSignedVarint(col);
}

Result<TableStats> ReadTableStats(ByteReader* r) {
  TableStats stats;
  GISQL_ASSIGN_OR_RETURN(stats.row_count, r->GetSignedVarint());
  GISQL_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n > 1 << 16) {
    return Status::SerializationError("too many column stats");
  }
  stats.columns.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ColumnStats c;
    GISQL_ASSIGN_OR_RETURN(c.min, ReadValue(r));
    GISQL_ASSIGN_OR_RETURN(c.max, ReadValue(r));
    GISQL_ASSIGN_OR_RETURN(c.null_count, r->GetSignedVarint());
    GISQL_ASSIGN_OR_RETURN(c.distinct_count, r->GetSignedVarint());
    GISQL_ASSIGN_OR_RETURN(c.avg_width, r->GetDouble());
    GISQL_ASSIGN_OR_RETURN(uint64_t nbounds, r->GetVarint());
    if (nbounds > 1 << 12) {
      return Status::SerializationError("too many histogram bounds");
    }
    c.histogram_bounds.reserve(nbounds);
    for (uint64_t b = 0; b < nbounds; ++b) {
      GISQL_ASSIGN_OR_RETURN(Value edge, ReadValue(r));
      c.histogram_bounds.push_back(std::move(edge));
    }
    stats.columns.push_back(std::move(c));
  }
  GISQL_ASSIGN_OR_RETURN(uint64_t nhash, r->GetVarint());
  if (nhash > 1 << 16) {
    return Status::SerializationError("too many indexed columns");
  }
  stats.hash_indexed_columns.reserve(nhash);
  for (uint64_t i = 0; i < nhash; ++i) {
    GISQL_ASSIGN_OR_RETURN(int64_t col, r->GetSignedVarint());
    stats.hash_indexed_columns.push_back(col);
  }
  GISQL_ASSIGN_OR_RETURN(uint64_t nordered, r->GetVarint());
  if (nordered > 1 << 16) {
    return Status::SerializationError("too many indexed columns");
  }
  stats.ordered_indexed_columns.reserve(nordered);
  for (uint64_t i = 0; i < nordered; ++i) {
    GISQL_ASSIGN_OR_RETURN(int64_t col, r->GetSignedVarint());
    stats.ordered_indexed_columns.push_back(col);
  }
  return stats;
}

}  // namespace wire
}  // namespace gisql
