#include "storage/paged_heap.h"

#include <algorithm>
#include <utility>

#include "common/bytes.h"
#include "wire/serde.h"

namespace gisql {

namespace {

/// Wire-encodes one row (schema arity is implicit: pages store cells
/// back to back; the directory knows how many live rows each page
/// holds).
void EncodeRow(ByteWriter* w, const Row& row) {
  for (const Value& v : row) wire::WriteValue(w, v);
}

}  // namespace

ColumnSet ColumnsOf(size_t width, const std::vector<size_t>& columns) {
  ColumnSet set(width, false);
  for (size_t c : columns) {
    if (c < width) set[c] = true;
  }
  return set;
}

PagedHeap::PagedHeap(BufferPoolPtr pool, SchemaPtr schema)
    : pool_(std::move(pool)),
      schema_(std::move(schema)),
      all_columns_(AllColumns(schema_->num_fields())) {}

PagedHeap::~PagedHeap() { DropAllPages(); }

void PagedHeap::DropAllPages() {
  for (const PageEntry& page : pages_) pool_->DeletePage(page.page_id);
  pages_.clear();
  live_rows_ = 0;
  memo_valid_ = false;
  ++epoch_;
}

Result<size_t> PagedHeap::Append(const Row& row) {
  ByteWriter encoded;
  EncodeRow(&encoded, row);
  const size_t row_bytes = encoded.size();

  ++epoch_;
  memo_valid_ = false;
  // Fits in the tail page? Only a page whose slot run ends at end_rid_
  // can take the next id. (A page always accepts its first row, even
  // oversized — the frame simply grows past page_size for that page.)
  if (!pages_.empty() &&
      pages_.back().first_rid + pages_.back().slots == end_rid_) {
    PageEntry& tail = pages_.back();
    GISQL_ASSIGN_OR_RETURN(std::vector<uint8_t>* data,
                           pool_->FetchPage(tail.page_id));
    if (data->size() + row_bytes <= pool_->page_size()) {
      data->insert(data->end(), encoded.data().begin(), encoded.data().end());
      pool_->UnpinPage(tail.page_id, /*dirty=*/true);
      ++tail.slots;
      ++tail.live;
      if (!tail.freed.empty()) tail.freed.push_back(false);
      ++live_rows_;
      return end_rid_++;
    }
    pool_->UnpinPage(tail.page_id, /*dirty=*/false);
  }
  std::vector<uint8_t>* data = nullptr;
  GISQL_ASSIGN_OR_RETURN(uint64_t page_id, pool_->NewPage(&data));
  data->assign(encoded.data().begin(), encoded.data().end());
  PageEntry page;
  page.page_id = page_id;
  page.first_rid = end_rid_;
  page.slots = 1;
  page.live = 1;
  pages_.push_back(std::move(page));
  pool_->UnpinPage(page_id, /*dirty=*/true);
  ++live_rows_;
  return end_rid_++;
}

Status PagedHeap::AppendBatch(const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    GISQL_RETURN_NOT_OK(Append(row).status());
  }
  return Status::OK();
}

size_t PagedHeap::PageOf(size_t rid) const {
  // Last page whose first rid is <= rid, if its slot run covers rid and
  // that slot is still live.
  auto it = std::upper_bound(
      pages_.begin(), pages_.end(), rid,
      [](size_t r, const PageEntry& p) { return r < p.first_rid; });
  if (it == pages_.begin()) return pages_.size();
  --it;
  const size_t slot = rid - it->first_rid;
  if (slot >= it->slots || it->is_free(slot)) return pages_.size();
  return static_cast<size_t>(it - pages_.begin());
}

Status PagedHeap::DecodePage(size_t page_index,
                             const std::vector<uint8_t>& bytes,
                             const ColumnSet& columns,
                             std::vector<Row>* rows) const {
  const size_t nrows = pages_[page_index].live;
  const size_t width = schema_->num_fields();
  ByteReader reader(bytes);
  rows->clear();
  rows->reserve(nrows);
  for (size_t i = 0; i < nrows; ++i) {
    Row row;
    row.reserve(width);
    for (size_t c = 0; c < width; ++c) {
      if (c < columns.size() && columns[c]) {
        GISQL_ASSIGN_OR_RETURN(Value v, wire::ReadValue(&reader));
        row.push_back(std::move(v));
      } else {
        GISQL_RETURN_NOT_OK(wire::SkipValue(&reader));
        row.push_back(Value::Null(schema_->field(c).type));
      }
    }
    rows->push_back(std::move(row));
  }
  if (!reader.AtEnd()) {
    return Status::SerializationError("heap page ", pages_[page_index].page_id,
                                      " has trailing bytes");
  }
  return Status::OK();
}

Result<const std::vector<Row>*> PagedHeap::PageRows(size_t page_index) {
  const uint64_t page_id = pages_[page_index].page_id;
  // Always fetch: the pool must see (and charge) every page touch.
  GISQL_ASSIGN_OR_RETURN(std::vector<uint8_t>* data, pool_->FetchPage(page_id));
  if (memo_valid_ && memo_page_id_ == page_id && memo_epoch_ == epoch_) {
    pool_->UnpinPage(page_id, /*dirty=*/false);
    return &memo_rows_;
  }
  // A failed decode leaves the memo invalid.
  memo_valid_ = false;
  const Status st = DecodePage(page_index, *data, all_columns_, &memo_rows_);
  pool_->UnpinPage(page_id, /*dirty=*/false);
  GISQL_RETURN_NOT_OK(st);
  memo_page_id_ = page_id;
  memo_epoch_ = epoch_;
  memo_valid_ = true;
  return &memo_rows_;
}

Result<Row> PagedHeap::Get(size_t rid) {
  if (rid >= end_rid_) {
    return Status::InvalidArgument("row id ", rid, " out of range (",
                                   end_rid_, " row ids)");
  }
  const size_t page_index = PageOf(rid);
  if (page_index == pages_.size()) {
    return Status::NotFound("row id ", rid, " was reclaimed");
  }
  const PageEntry& page = pages_[page_index];
  // Live rows are stored in slot order: skip the freed slots before it.
  const size_t slot = rid - page.first_rid;
  const size_t pos =
      page.freed.empty()
          ? slot
          : slot - static_cast<size_t>(std::count(
                       page.freed.begin(), page.freed.begin() + slot, true));
  GISQL_ASSIGN_OR_RETURN(const std::vector<Row>* rows, PageRows(page_index));
  return (*rows)[pos];
}

Status PagedHeap::Scan(
    const ColumnSet& columns,
    const std::function<Status(size_t rid, Row& row)>& fn) {
  std::vector<Row> rows;
  for (size_t p = 0; p < pages_.size(); ++p) {
    const uint64_t page_id = pages_[p].page_id;
    GISQL_ASSIGN_OR_RETURN(std::vector<uint8_t>* data,
                           pool_->FetchPage(page_id));
    const Status decoded = DecodePage(p, *data, columns, &rows);
    pool_->UnpinPage(page_id, /*dirty=*/false);
    GISQL_RETURN_NOT_OK(decoded);
    const PageEntry& page = pages_[p];
    size_t i = 0;
    for (size_t slot = 0; slot < page.slots; ++slot) {
      if (page.is_free(slot)) continue;
      GISQL_RETURN_NOT_OK(fn(page.first_rid + slot, rows[i++]));
    }
  }
  return Status::OK();
}

Status PagedHeap::Free(
    const std::vector<size_t>& rids,
    const std::function<void(size_t rid, const Row& row)>& on_free) {
  ++epoch_;
  memo_valid_ = false;
  size_t next = 0;
  while (next < rids.size()) {
    const size_t page_index = PageOf(rids[next]);
    if (page_index == pages_.size()) {
      return Status::InvalidArgument("row id ", rids[next],
                                     " is not a live slot");
    }
    PageEntry& page = pages_[page_index];
    GISQL_ASSIGN_OR_RETURN(std::vector<uint8_t>* data,
                           pool_->FetchPage(page.page_id));
    std::vector<Row> rows;
    if (Status st = DecodePage(page_index, *data, all_columns_, &rows);
        !st.ok()) {
      pool_->UnpinPage(page.page_id, /*dirty=*/false);
      return st;
    }
    // Walk the page's live slots; the ones named in `rids` go, the rest
    // are re-encoded in slot order.
    if (page.freed.empty()) page.freed.assign(page.slots, false);
    ByteWriter kept;
    size_t i = 0;
    for (size_t slot = 0; slot < page.slots; ++slot) {
      if (page.freed[slot]) continue;
      const Row& row = rows[i++];
      if (next < rids.size() && rids[next] == page.first_rid + slot) {
        on_free(rids[next], row);
        page.freed[slot] = true;
        --page.live;
        --live_rows_;
        ++next;
      } else {
        EncodeRow(&kept, row);
      }
    }
    if (page.live == 0) {
      const uint64_t page_id = page.page_id;
      pool_->UnpinPage(page_id, /*dirty=*/false);
      pool_->DeletePage(page_id);
      pages_.erase(pages_.begin() + static_cast<std::ptrdiff_t>(page_index));
    } else {
      data->assign(kept.data().begin(), kept.data().end());
      pool_->UnpinPage(page.page_id, /*dirty=*/true);
    }
  }
  return Status::OK();
}

}  // namespace gisql
