// Disk-backed tables over slotted pages, plus the StorageManager that owns
// the page files, the buffer pool, and the spill temp segments.
//
// File format (<data_dir>/<table>.btbl):
//   page 0            table meta: magic/version, row count, rows-per-page,
//                     column names (deterministically zero-padded)
//   pages 1..N        slotted data pages; one fixed-width row per record
//                     (num_columns * 8 bytes, values little-endian)
//
// The writer is deterministic: the same DataTable produces byte-identical
// files, so seeded datasets are reproducible across runs and machines
// (asserted in tests/test_storage.cc).
//
// Executors resolve a PagedTable through Database::paged(); the Database
// keeps a zero-row schema "shell" DataTable alongside so every existing
// column-binding path works unchanged. Data access goes through
// BufferManager::Pin; *accounting* (what the cost meter charges) goes
// through an AccessLedger — the run's private one, or the pool's base
// ledger via BufferManager::Access — see buffer_manager.h for why the two
// are decoupled. Maintenance reads (index builds, catalog stats) use
// ReadColumn, which pins pages transiently and never touches a ledger, so
// bulk work cannot pollute the replacement state.

#ifndef BOUQUET_STORAGE_PAGED_TABLE_H_
#define BOUQUET_STORAGE_PAGED_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/table.h"

namespace bouquet {
namespace storage {

/// Writes `table` as a .btbl page file at `path`. Deterministic;
/// overwrites any existing file; fsyncs before returning.
Status WriteTableFile(const std::string& path, const DataTable& table);

/// Read-only view of one on-disk table, resolved through a buffer pool.
class PagedTable {
 public:
  /// Parses the meta page. The file must already be registered with the
  /// buffer manager under `file_id`.
  static Result<std::unique_ptr<PagedTable>> Open(PageFile* file,
                                                  BufferManager* buffer,
                                                  uint16_t file_id);

  const std::string& name() const { return name_; }
  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(column_names_.size()); }
  int ColumnIndex(const std::string& column_name) const;
  const std::string& column_name(int i) const { return column_names_[i]; }
  int rows_per_page() const { return rows_per_page_; }
  uint16_t file_id() const { return file_id_; }
  uint32_t num_data_pages() const { return num_data_pages_; }

  /// Data page (1-based: page 0 is meta) holding `row`, and its slot.
  uint32_t PageOfRow(int64_t row) const {
    return 1 + static_cast<uint32_t>(row / rows_per_page_);
  }
  int SlotOfRow(int64_t row) const {
    return static_cast<int>(row % rows_per_page_);
  }
  PageId PageIdOfRow(int64_t row) const {
    return PageId{file_id_, PageOfRow(row)};
  }

  BufferManager* buffer() const { return buffer_; }

  /// Pins the data page holding `row` (physical only — no accounting).
  PageGuard PinRowPage(int64_t row) const {
    return buffer_->Pin(PageIdOfRow(row));
  }

  /// One column value out of a pinned data page.
  int64_t ValueIn(const PageGuard& guard, int slot, int col) const;

  /// Decodes every column of a pinned data page into column-major scratch
  /// (scratch[c * rows_per_page + i]); returns the row count of the page.
  /// The batch engine's kernels then run over contiguous columns exactly as
  /// they do over in-memory vectors.
  int DecodePage(const PageGuard& guard, int64_t* scratch) const;

  /// Streams the whole column through transient unaccounted pins — index
  /// and catalog builds. (The column materializes in memory: secondary
  /// indexes remain in-memory structures in this codebase.)
  std::vector<int64_t> ReadColumn(int col) const;

  /// Registers this table in the catalog with statistics streamed from the
  /// pages — the paged twin of DataTable::SyncCatalog.
  void SyncCatalog(Catalog* catalog, double row_width_bytes,
                   bool indexed = true, int histogram_buckets = 64) const;

 private:
  PagedTable() = default;

  std::string name_;
  std::vector<std::string> column_names_;
  int64_t num_rows_ = 0;
  int rows_per_page_ = 1;
  uint32_t num_data_pages_ = 0;
  uint16_t file_id_ = 0;
  PageFile* file_ = nullptr;
  BufferManager* buffer_ = nullptr;
};

/// Options for a StorageManager.
struct StorageOptions {
  std::string data_dir;
  size_t pool_pages = 256;
  EvictionPolicyKind policy = EvictionPolicyKind::k2Q;
};

/// Owns the buffer pool, the open table files, and the spill temp
/// segments. Loading (OpenTable/ImportTable) is single-threaded like
/// Database loading; spill segment churn is mutex-guarded because spills
/// run on the service pool.
class StorageManager {
 public:
  explicit StorageManager(StorageOptions options);
  ~StorageManager();
  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  BufferManager* buffer() { return &buffer_; }
  const std::string& data_dir() const { return options_.data_dir; }

  /// Opens <data_dir>/<name>.btbl.
  Result<PagedTable*> OpenTable(const std::string& name);

  /// Writes the table to <data_dir>/<name>.btbl and opens it.
  Result<PagedTable*> ImportTable(const DataTable& table);

  /// nullptr when the table is not open.
  PagedTable* FindTable(const std::string& name) const;
  std::vector<PagedTable*> tables() const;

  /// Creates an empty temp page file registered with the pool; the id is
  /// the PageId::file for its pages.
  Result<uint16_t> CreateSpillFile() EXCLUDES(mu_);
  PageFile* spill_file(uint16_t file_id) const EXCLUDES(mu_);
  /// Drops the segment's frames and deletes the file.
  void DropSpillFile(uint16_t file_id) EXCLUDES(mu_);

 private:
  StorageOptions options_;
  BufferManager buffer_;
  std::map<std::string, std::unique_ptr<PagedTable>> tables_;
  std::vector<std::unique_ptr<PageFile>> table_files_;

  mutable Mutex mu_;
  std::map<uint16_t, std::unique_ptr<PageFile>> spill_files_ GUARDED_BY(mu_);
  uint64_t next_spill_seq_ GUARDED_BY(mu_) = 0;
};

/// Materializes rows into spill temp pages through the buffer pool. Pages
/// are written via PinNew (dirty frames that stay cached, written back
/// only if the pool evicts them) and the whole segment — cached frames
/// included, without writeback — is deleted when the writer dies: the
/// physical half of the paper's spill-mode partial executions, with zero
/// accounting impact (jettisoned output is priced by the operators, not
/// the disk).
class SpillWriter {
 public:
  SpillWriter(StorageManager* sm, size_t num_columns);
  ~SpillWriter();
  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  bool ok() const { return sm_ != nullptr; }
  void Append(const std::vector<int64_t>& row);
  int64_t rows_written() const { return rows_written_; }
  uint32_t pages_written() const { return pages_written_; }

 private:
  void FinishPage();

  StorageManager* sm_ = nullptr;
  uint16_t file_id_ = 0;
  size_t num_columns_ = 0;
  int rows_in_page_cap_ = 0;
  PageGuard page_;
  int rows_in_page_ = 0;
  int64_t rows_written_ = 0;
  uint32_t pages_written_ = 0;
  std::vector<uint8_t> rec_buf_;
};

}  // namespace storage
}  // namespace bouquet

#endif  // BOUQUET_STORAGE_PAGED_TABLE_H_
