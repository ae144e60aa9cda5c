/// \file paged_heap.h
/// \brief A slot-stable heap file of rows over buffer-pool pages.
///
/// Rows are wire-encoded back to back into fixed-size pages. Each page
/// owns a contiguous run of row ids, assigned once at append, and an
/// in-memory page directory maps a row id to its (page, slot). Row ids
/// never move: freeing a slot rewrites only the page that holds it (the
/// page keeps its surviving rows, the directory marks the slot free),
/// and a page left with no live slot is deleted back to the pool. Freed
/// row ids are not reused. Every access goes through the buffer pool,
/// so point reads and scans charge honest page hits/misses and virtual
/// disk time.
///
/// A scan decodes only the columns its caller names: the other cells
/// are stepped over without decoding and read as NULLs of their
/// declared type. Point reads decode whole rows and keep a one-page
/// decode memo, so consecutive probes of one page decode it once.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "types/row.h"
#include "types/schema.h"

namespace gisql {

/// \brief The columns a scan decodes: column c is decoded when
/// `c < size()` and its flag is set; every other cell is skipped and
/// reads as a NULL of its declared type.
using ColumnSet = std::vector<bool>;

/// \brief Every column of a `width`-wide row.
inline ColumnSet AllColumns(size_t width) { return ColumnSet(width, true); }

/// \brief The `columns` of a `width`-wide row (entries at or past
/// `width` are ignored).
ColumnSet ColumnsOf(size_t width, const std::vector<size_t>& columns);

class PagedHeap {
 public:
  PagedHeap(BufferPoolPtr pool, SchemaPtr schema);
  ~PagedHeap();

  PagedHeap(const PagedHeap&) = delete;
  PagedHeap& operator=(const PagedHeap&) = delete;

  /// \brief Appends one row; returns its row id. Fails when the buffer
  /// pool cannot grow (global memory budget).
  Result<size_t> Append(const Row& row);

  /// \brief Bulk append; the rows take the ids end_rid(), end_rid()+1,
  /// ... On failure the prefix that fit stays appended.
  Status AppendBatch(const std::vector<Row>& rows);

  /// \brief Point read of row `rid` through the buffer pool. NotFound
  /// for a freed slot.
  Result<Row> Get(size_t rid);

  /// \brief Scan of the live slots in row-id order, decoding only
  /// `columns`. Each page is pinned once and unpinned before the
  /// callbacks see its rows, which they may move from. The callback may
  /// return a non-OK status to stop the scan.
  Status Scan(const ColumnSet& columns,
              const std::function<Status(size_t rid, Row& row)>& fn);

  /// \brief Frees the live slots `rids` (ascending): each page holding
  /// one is fetched once and rewritten with its surviving rows, or
  /// deleted when none survives. `on_free` sees every freed row before
  /// it goes.
  Status Free(const std::vector<size_t>& rids,
              const std::function<void(size_t rid, const Row& row)>& on_free);

  /// \brief Live slots.
  int64_t num_rows() const { return live_rows_; }
  /// \brief One past the highest row id ever assigned.
  size_t end_rid() const { return end_rid_; }
  int64_t num_pages() const { return static_cast<int64_t>(pages_.size()); }

 private:
  /// Directory entry of one page.
  struct PageEntry {
    uint64_t page_id = 0;
    size_t first_rid = 0;  ///< the page owns [first_rid, first_rid + slots)
    uint32_t slots = 0;
    uint32_t live = 0;
    std::vector<bool> freed;  ///< per slot; empty while none is freed

    bool is_free(size_t slot) const { return !freed.empty() && freed[slot]; }
  };

  /// Index of the page holding live row `rid`, or pages_.size() when
  /// its slot was freed (or its page, emptied, was deleted).
  size_t PageOf(size_t rid) const;

  /// Decodes the `columns` of the live rows of page `page_index` from
  /// `bytes` into `rows` (replacing its contents).
  Status DecodePage(size_t page_index, const std::vector<uint8_t>& bytes,
                    const ColumnSet& columns, std::vector<Row>* rows) const;

  /// Live rows of page `page_index` in slot order for Get, fetched
  /// (counting hit/miss) and decoded — with a one-page decode memo so
  /// consecutive probes of the same page skip the re-decode CPU, never
  /// the pool accounting.
  Result<const std::vector<Row>*> PageRows(size_t page_index);

  void DropAllPages();

  BufferPoolPtr pool_;
  SchemaPtr schema_;
  ColumnSet all_columns_;
  std::vector<PageEntry> pages_;  ///< ascending first_rid
  int64_t live_rows_ = 0;
  size_t end_rid_ = 0;
  uint64_t epoch_ = 0;  ///< bumped on every mutation (invalidates memo)

  // Decode memo of Get: the most recently read page.
  bool memo_valid_ = false;
  uint64_t memo_page_id_ = 0;
  uint64_t memo_epoch_ = 0;
  std::vector<Row> memo_rows_;
};

}  // namespace gisql
