#include "storage/paged_table.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/str_util.h"

namespace bouquet {
namespace storage {

namespace {

constexpr uint32_t kTableMagic = 0x4251544D;  // "BQTM"
constexpr uint32_t kTableVersion = 1;

// Meta-page field offsets (page 0; zero-filled before writing).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 4;
constexpr size_t kOffNumRows = 8;
constexpr size_t kOffRowsPerPage = 16;
constexpr size_t kOffNumDataPages = 20;
constexpr size_t kOffNumCols = 24;
constexpr size_t kOffNames = 28;

template <typename T>
void StoreLe(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

template <typename T>
T LoadLe(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

Status WriteTableFile(const std::string& path, const DataTable& table) {
  if (table.num_columns() == 0) {
    return Status::InvalidArgument("cannot write a zero-column table");
  }
  const size_t record_bytes = static_cast<size_t>(table.num_columns()) * 8;
  const int rpp = SlottedPage::Capacity(record_bytes);
  if (rpp <= 0) {
    return Status::InvalidArgument(
        StrPrintf("row of %zu bytes does not fit a page", record_bytes));
  }
  auto created = PageFile::Create(path);
  if (!created.ok()) return created.status();
  PageFile* file = created.value().get();

  uint8_t frame[kPageSize];

  // Meta page.
  std::memset(frame, 0, kPageSize);
  StoreLe<uint32_t>(frame + kOffMagic, kTableMagic);
  StoreLe<uint32_t>(frame + kOffVersion, kTableVersion);
  StoreLe<int64_t>(frame + kOffNumRows, table.num_rows());
  StoreLe<uint32_t>(frame + kOffRowsPerPage, static_cast<uint32_t>(rpp));
  const uint32_t num_data_pages = static_cast<uint32_t>(
      (table.num_rows() + rpp - 1) / rpp);
  StoreLe<uint32_t>(frame + kOffNumDataPages, num_data_pages);
  StoreLe<uint32_t>(frame + kOffNumCols,
                    static_cast<uint32_t>(table.num_columns()));
  size_t off = kOffNames;
  auto put_name = [&](const std::string& s) -> bool {
    if (off + 2 + s.size() > kPageSize) return false;
    StoreLe<uint16_t>(frame + off, static_cast<uint16_t>(s.size()));
    std::memcpy(frame + off + 2, s.data(), s.size());
    off += 2 + s.size();
    return true;
  };
  if (!put_name(table.name())) {
    return Status::InvalidArgument("table name overflows the meta page");
  }
  for (int c = 0; c < table.num_columns(); ++c) {
    if (!put_name(table.column_name(c))) {
      return Status::InvalidArgument("column names overflow the meta page");
    }
  }
  Status s = file->WritePage(0, frame);
  if (!s.ok()) return s;

  // Data pages: rows in order, record = columns little-endian.
  std::vector<uint8_t> rec(record_bytes);
  int64_t row = 0;
  for (uint32_t pg = 0; pg < num_data_pages; ++pg) {
    SlottedPage page(frame);
    page.Init(pg + 1);
    const int64_t end = std::min<int64_t>(row + rpp, table.num_rows());
    for (; row < end; ++row) {
      for (int c = 0; c < table.num_columns(); ++c) {
        StoreLe<int64_t>(rec.data() + static_cast<size_t>(c) * 8,
                         table.value(c, row));
      }
      const int slot = page.Insert(rec.data(), rec.size());
      assert(slot >= 0 && "capacity formula disagrees with Insert");
      (void)slot;
    }
    s = file->WritePage(pg + 1, frame);
    if (!s.ok()) return s;
  }
  return file->Sync();
}

Result<std::unique_ptr<PagedTable>> PagedTable::Open(PageFile* file,
                                                     BufferManager* buffer,
                                                     uint16_t file_id) {
  uint8_t frame[kPageSize];
  Status s = file->ReadPage(0, frame);
  if (!s.ok()) return s;
  if (LoadLe<uint32_t>(frame + kOffMagic) != kTableMagic) {
    return Status::InvalidArgument(
        StrPrintf("%s: bad table magic", file->path().c_str()));
  }
  if (LoadLe<uint32_t>(frame + kOffVersion) != kTableVersion) {
    return Status::InvalidArgument(
        StrPrintf("%s: unsupported table version", file->path().c_str()));
  }
  auto t = std::unique_ptr<PagedTable>(new PagedTable());
  t->num_rows_ = LoadLe<int64_t>(frame + kOffNumRows);
  t->rows_per_page_ =
      static_cast<int>(LoadLe<uint32_t>(frame + kOffRowsPerPage));
  t->num_data_pages_ = LoadLe<uint32_t>(frame + kOffNumDataPages);
  const uint32_t ncols = LoadLe<uint32_t>(frame + kOffNumCols);
  if (t->rows_per_page_ <= 0 || ncols == 0) {
    return Status::InvalidArgument(
        StrPrintf("%s: corrupt table meta", file->path().c_str()));
  }
  size_t off = kOffNames;
  auto get_name = [&](std::string* out) -> bool {
    if (off + 2 > kPageSize) return false;
    const uint16_t len = LoadLe<uint16_t>(frame + off);
    if (off + 2 + len > kPageSize) return false;
    out->assign(reinterpret_cast<const char*>(frame + off + 2), len);
    off += 2 + static_cast<size_t>(len);
    return true;
  };
  if (!get_name(&t->name_)) {
    return Status::InvalidArgument("corrupt table name");
  }
  t->column_names_.resize(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    if (!get_name(&t->column_names_[c])) {
      return Status::InvalidArgument("corrupt column names");
    }
  }
  t->file_id_ = file_id;
  t->file_ = file;
  t->buffer_ = buffer;
  return t;
}

int PagedTable::ColumnIndex(const std::string& column_name) const {
  for (size_t i = 0; i < column_names_.size(); ++i) {
    if (column_names_[i] == column_name) return static_cast<int>(i);
  }
  return -1;
}

int64_t PagedTable::ValueIn(const PageGuard& guard, int slot, int col) const {
  const SlottedPage page(const_cast<uint8_t*>(guard.data()));
  size_t len = 0;
  const uint8_t* rec = page.Record(slot, &len);
  assert(rec != nullptr && static_cast<size_t>(col) * 8 + 8 <= len);
  int64_t v;
  std::memcpy(&v, rec + static_cast<size_t>(col) * 8, 8);
  return v;
}

int PagedTable::DecodePage(const PageGuard& guard, int64_t* scratch) const {
  const SlottedPage page(const_cast<uint8_t*>(guard.data()));
  const int n = page.num_records();
  const int ncols = num_columns();
  for (int i = 0; i < n; ++i) {
    size_t len = 0;
    const uint8_t* rec = page.Record(i, &len);
    for (int c = 0; c < ncols; ++c) {
      std::memcpy(&scratch[static_cast<size_t>(c) * rows_per_page_ + i],
                  rec + static_cast<size_t>(c) * 8, 8);
    }
  }
  return n;
}

std::vector<int64_t> PagedTable::ReadColumn(int col) const {
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(num_rows_));
  for (uint32_t pg = 1; pg <= num_data_pages_; ++pg) {
    PageGuard guard = buffer_->Pin(PageId{file_id_, pg});
    if (!guard.valid()) break;  // unreadable page: truncate (caller asserts)
    const SlottedPage page(const_cast<uint8_t*>(guard.data()));
    const int n = page.num_records();
    for (int i = 0; i < n; ++i) {
      size_t len = 0;
      const uint8_t* rec = page.Record(i, &len);
      int64_t v;
      std::memcpy(&v, rec + static_cast<size_t>(col) * 8, 8);
      out.push_back(v);
    }
  }
  return out;
}

void PagedTable::SyncCatalog(Catalog* catalog, double row_width_bytes,
                             bool indexed, int histogram_buckets) const {
  TableInfo info;
  info.name = name_;
  info.stats.row_count = static_cast<double>(num_rows_);
  info.stats.row_width_bytes = row_width_bytes;
  for (int c = 0; c < num_columns(); ++c) {
    ColumnInfo ci;
    ci.name = column_names_[c];
    ci.stats = ComputeColumnStatsFromValues(ReadColumn(c), histogram_buckets);
    ci.has_index = indexed;
    info.columns.push_back(std::move(ci));
  }
  catalog->AddTable(std::move(info));
}

StorageManager::StorageManager(StorageOptions options)
    : options_(std::move(options)),
      buffer_(options_.pool_pages, options_.policy) {
  // Best-effort: spill segments and imports need the directory to exist;
  // a failure here surfaces as the first Create/Open error instead.
  if (!options_.data_dir.empty()) {
    // NOLINTNEXTLINE(bouquet-discarded-status): EEXIST is the common case
    (void)::mkdir(options_.data_dir.c_str(), 0755);
  }
}

StorageManager::~StorageManager() {
  std::vector<uint16_t> spill_ids;
  {
    MutexLock lock(&mu_);
    for (const auto& [id, file] : spill_files_) spill_ids.push_back(id);
  }
  for (const uint16_t id : spill_ids) DropSpillFile(id);
}

Result<PagedTable*> StorageManager::OpenTable(const std::string& name) {
  auto opened = PageFile::Open(options_.data_dir + "/" + name + ".btbl");
  if (!opened.ok()) return opened.status();
  PageFile* file = opened.value().get();
  const uint16_t file_id = buffer_.RegisterFile(file);
  auto table = PagedTable::Open(file, &buffer_, file_id);
  if (!table.ok()) {
    buffer_.DropFile(file_id);
    return table.status();
  }
  PagedTable* raw = table.value().get();
  table_files_.push_back(std::move(opened.value()));
  tables_[name] = std::move(table.value());
  return raw;
}

Result<PagedTable*> StorageManager::ImportTable(const DataTable& table) {
  const Status s =
      WriteTableFile(options_.data_dir + "/" + table.name() + ".btbl", table);
  if (!s.ok()) return s;
  return OpenTable(table.name());
}

PagedTable* StorageManager::FindTable(const std::string& name) const {
  const auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<PagedTable*> StorageManager::tables() const {
  std::vector<PagedTable*> out;
  out.reserve(tables_.size());
  for (const auto& [name, t] : tables_) out.push_back(t.get());
  return out;
}

Result<uint16_t> StorageManager::CreateSpillFile() {
  uint64_t seq;
  {
    MutexLock lock(&mu_);
    seq = next_spill_seq_++;
  }
  auto created = PageFile::Create(
      StrPrintf("%s/spill_%llu.tmp", options_.data_dir.c_str(),
                static_cast<unsigned long long>(seq)));
  if (!created.ok()) return created.status();
  // Lock order: the pool's locks and mu_ are taken in disjoint regions
  // (never nested) so spill churn cannot invert against DropFile.
  const uint16_t id = buffer_.RegisterFile(created.value().get());
  {
    MutexLock lock(&mu_);
    spill_files_[id] = std::move(created.value());
  }
  return id;
}

PageFile* StorageManager::spill_file(uint16_t file_id) const {
  MutexLock lock(&mu_);
  const auto it = spill_files_.find(file_id);
  return it == spill_files_.end() ? nullptr : it->second.get();
}

void StorageManager::DropSpillFile(uint16_t file_id) {
  // Leave the segment map before the pool releases the id: the pool reuses
  // the ids of dropped files, so a spill created meanwhile may get it.
  std::unique_ptr<PageFile> file;
  {
    MutexLock lock(&mu_);
    auto it = spill_files_.find(file_id);
    if (it == spill_files_.end()) return;
    file = std::move(it->second);
    spill_files_.erase(it);
  }
  buffer_.DropFile(file_id);
  // Temp spill segment teardown on a destructor-reachable path; a failed
  // unlink leaks a dead file in data_dir but cannot corrupt table state.
  // NOLINTNEXTLINE(bouquet-discarded-status): best-effort temp cleanup
  (void)file->CloseAndRemove();
}

SpillWriter::SpillWriter(StorageManager* sm, size_t num_columns)
    : num_columns_(num_columns),
      rows_in_page_cap_(SlottedPage::Capacity(num_columns * 8)),
      rec_buf_(num_columns * 8) {
  auto created = sm->CreateSpillFile();
  if (!created.ok()) return;  // !ok(): Append becomes a no-op
  sm_ = sm;
  file_id_ = created.value();
}

SpillWriter::~SpillWriter() {
  if (sm_ == nullptr) return;
  page_.Release();
  sm_->DropSpillFile(file_id_);
}

void SpillWriter::FinishPage() { page_.Release(); }

void SpillWriter::Append(const std::vector<int64_t>& row) {
  if (sm_ == nullptr) return;
  assert(row.size() == num_columns_);
  if (!page_.valid() || rows_in_page_ >= rows_in_page_cap_) {
    FinishPage();
    PageFile* file = sm_->spill_file(file_id_);
    auto allocated = file->AllocatePage();
    if (!allocated.ok()) {
      sm_ = nullptr;  // disk full etc.: drop the rest silently
      return;
    }
    page_ = sm_->buffer()->PinNew(PageId{file_id_, allocated.value()});
    SlottedPage(page_.mutable_data()).Init(allocated.value());
    rows_in_page_ = 0;
    pages_written_++;
  }
  for (size_t c = 0; c < num_columns_; ++c) {
    std::memcpy(rec_buf_.data() + c * 8, &row[c], 8);
  }
  SlottedPage page(page_.mutable_data());
  const int slot = page.Insert(rec_buf_.data(), rec_buf_.size());
  assert(slot >= 0);
  (void)slot;
  rows_in_page_++;
  rows_written_++;
}

}  // namespace storage
}  // namespace bouquet
