/// \file protocol.h
/// \brief Opcodes and checksummed response frames of the
/// mediator↔wrapper protocol.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "storage/statistics.h"
#include "types/column_batch.h"
#include "types/row.h"

namespace gisql {
namespace wire {

/// \brief Request opcodes a component source understands.
enum class Opcode : uint8_t {
  kPing = 1,             ///< liveness probe, empty payload
  kListTables = 2,       ///< → string list
  kGetSchema = 3,        ///< payload: table name → schema
  kGetStats = 4,         ///< payload: table name → serialized stats
  kExecuteFragment = 5,  ///< payload: FragmentPlan → row batch
  kAdminSql = 6,         ///< payload: DDL/DML text → empty (admin channel)
  kTxnPrepare = 7,       ///< payload: txn id + stmt seq + INSERT sql → empty
  kTxnCommit = 8,        ///< payload: txn id → empty (apply staged rows)
  kTxnAbort = 9,         ///< payload: txn id → empty (drop staged rows)
  /// payload: FragmentPlan → format byte (see kBatchFormat*) + batch.
  /// Like kExecuteFragment, but the source answers with a columnar
  /// batch when the fragment's rows fit their declared column types,
  /// and falls back to the row encoding otherwise.
  kExecuteFragmentColumnar = 10,
  /// \name Cursor-based streaming (wire/cursor.h carries the payloads)
  ///
  /// Instead of shipping a fragment's whole result in one response, the
  /// mediator opens a *cursor* at the source and pulls it in bounded
  /// chunks. The trio is retry-safe over the faulty WAN: open is
  /// idempotent by a client-chosen token (a redelivered or retried open
  /// returns the same cursor instead of leaking a second one), fetch is
  /// idempotent within a one-chunk window (the source re-serves the
  /// last chunk when asked for its sequence number again), and close of
  /// an unknown cursor is OK.
  /// @{
  kOpenCursor = 11,   ///< payload: OpenCursorRequest → OpenCursorResponse
  kFetchChunk = 12,   ///< payload: FetchChunkRequest → CursorChunk
  kCloseCursor = 13,  ///< payload: CloseCursorRequest → empty
  /// @}
  /// payload: table name + wire::WriteBatch(rows) → empty. Creates the
  /// table from the batch schema (same index conventions as CREATE
  /// TABLE) and loads every row in one shot — the advisor's replica
  /// copy mechanism, priced as a single bulk transfer on the simulated
  /// WAN instead of a per-row INSERT storm.
  kBulkLoad = 14,
};

/// \name Tagged result batches
///
/// The body of kExecuteFragmentColumnar responses and of cursor
/// chunks: one format byte, then the batch — columnar when every value
/// fits its declared column type, the row encoding otherwise (e.g. an
/// expression whose value type differs from the projected column's).
/// @{
constexpr uint8_t kBatchFormatRow = 0;       ///< wire::ReadBatch follows
constexpr uint8_t kBatchFormatColumnar = 1;  ///< wire::ReadColumnBatch follows

/// \brief A decoded tagged batch.
struct ResultBatch {
  RowBatch rows;
  /// The decoded columns (same rows as `rows`) when the wire carried
  /// the columnar encoding, so vectorized kernels need no re-pivot.
  std::shared_ptr<ColumnBatch> columnar;
};

void WriteResultBatch(ByteWriter* w, const RowBatch& rows);
Result<ResultBatch> ReadResultBatch(ByteReader* r);
/// @}

/// \name Checksummed transport frames
///
/// Every successful RPC response crosses the simulated network inside a
/// frame carrying a CRC-32 of the payload, so in-flight corruption and
/// mid-transfer truncation are *detected* — the decoder returns a typed
/// SerializationError, never garbage rows and never UB. The 8-byte
/// header is [crc32 u32][payload length u32]. Both calls take
/// ownership of their buffer and work in place: sealing inserts the
/// header in front of the payload, opening erases it after the checks.
/// Neither copies the payload into a new buffer (sealing reallocates
/// only when the payload vector has no spare capacity).
/// @{
constexpr size_t kFrameHeaderBytes = 8;

/// \brief Wraps a payload in a checksummed frame.
std::vector<uint8_t> SealFrame(std::vector<uint8_t> payload);

/// \brief Validates a frame's length and checksum; returns the payload
/// or a SerializationError naming the defect (truncation / checksum
/// mismatch / length mismatch).
Result<std::vector<uint8_t>> OpenFrame(std::vector<uint8_t> frame);
/// @}

/// \name Table statistics serde (catalog refresh path)
/// @{
void WriteTableStats(ByteWriter* w, const TableStats& stats);
Result<TableStats> ReadTableStats(ByteReader* r);
/// @}

}  // namespace wire
}  // namespace gisql
