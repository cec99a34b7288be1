// Tests for storage/: DataTable, indexes, Database registry, data
// generators, page-file allocation.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/datagen.h"
#include "storage/index.h"
#include "storage/page_file.h"
#include "storage/table.h"

namespace bouquet {
namespace {

DataTable SmallTable() {
  DataTable t("t", {"k", "v"});
  t.AppendRow({1, 10});
  t.AppendRow({2, 20});
  t.AppendRow({2, 21});
  t.AppendRow({5, 50});
  return t;
}

TEST(DataTableTest, AppendAndRead) {
  const DataTable t = SmallTable();
  EXPECT_EQ(t.num_rows(), 4);
  EXPECT_EQ(t.num_columns(), 2);
  EXPECT_EQ(t.value(0, 2), 2);
  EXPECT_EQ(t.value(1, 3), 50);
  EXPECT_EQ(t.ColumnIndex("v"), 1);
  EXPECT_EQ(t.ColumnIndex("nope"), -1);
}

TEST(DataTableTest, BulkLoad) {
  DataTable t("t", {"a", "b"});
  t.mutable_column(0) = {1, 2, 3};
  t.mutable_column(1) = {4, 5, 6};
  t.FinalizeBulkLoad();
  EXPECT_EQ(t.num_rows(), 3);
}

TEST(DataTableTest, ComputeColumnStats) {
  const DataTable t = SmallTable();
  const ColumnStats s = t.ComputeColumnStats(0, 8);
  EXPECT_DOUBLE_EQ(s.ndv, 3);  // {1, 2, 5}
  EXPECT_EQ(s.min_value, 1);
  EXPECT_EQ(s.max_value, 5);
  EXPECT_FALSE(s.histogram.empty());
}

TEST(DataTableTest, SyncCatalog) {
  Catalog c;
  SmallTable().SyncCatalog(&c, 64.0);
  ASSERT_TRUE(c.HasTable("t"));
  const TableInfo& info = c.GetTable("t");
  EXPECT_DOUBLE_EQ(info.stats.row_count, 4);
  EXPECT_DOUBLE_EQ(info.stats.row_width_bytes, 64.0);
  EXPECT_TRUE(info.columns[0].has_index);
}

TEST(HashIndexTest, LookupGroups) {
  const DataTable t = SmallTable();
  const HashIndex idx = HashIndex::Build(t, 0);
  EXPECT_EQ(idx.Lookup(2).size(), 2u);
  EXPECT_EQ(idx.Lookup(5).size(), 1u);
  EXPECT_TRUE(idx.Lookup(99).empty());
}

TEST(SortedIndexTest, RangeQueries) {
  const DataTable t = SmallTable();
  const SortedIndex idx = SortedIndex::Build(t, 0);
  EXPECT_EQ(idx.CountRange(2, 5), 3);
  EXPECT_EQ(idx.CountRange(3, 4), 0);
  EXPECT_EQ(idx.CountRange(INT64_MIN, INT64_MAX), 4);
  const auto rows = idx.Range(1, 2);
  EXPECT_EQ(rows.size(), 3u);
  // Value order: row of k=1 first.
  EXPECT_EQ(t.value(0, rows[0]), 1);
}

TEST(DatabaseTest, AddReplaceInvalidatesIndexes) {
  Database db;
  db.AddTable(SmallTable());
  const HashIndex& idx1 = db.hash_index("t", 0);
  EXPECT_EQ(idx1.Lookup(2).size(), 2u);
  // Replace with different content.
  DataTable t2("t", {"k", "v"});
  t2.AppendRow({2, 1});
  db.AddTable(std::move(t2));
  const HashIndex& idx2 = db.hash_index("t", 0);
  EXPECT_EQ(idx2.Lookup(2).size(), 1u);
}

// Regression (thread-safety capability migration): AddTable's cached-index
// invalidation used to erase from the shared index maps WITHOUT taking
// index_mu_, racing concurrent hash_index()/sorted_index() lookups of
// *other* tables — the maps are shared even when the keys differ. The
// GUARDED_BY annotations flagged it statically; under TSan this test
// reproduced the race before the fix.
TEST(DatabaseTest, AddTableInvalidationDoesNotRaceOtherTableLookups) {
  Database db;
  db.AddTable(SmallTable());  // table "t": repeatedly replaced
  DataTable stable("s", {"k"});
  for (int i = 0; i < 16; ++i) stable.AppendRow({i % 4});
  db.AddTable(std::move(stable));  // table "s": concurrently indexed

  // Prewarm so the readers stay on the cache-hit path (the shared maps are
  // what the fixed race is about; a cold miss would additionally scan the
  // table registry, which AddTable legitimately mutates).
  db.hash_index("s", 0);
  db.sorted_index("s", 0);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(2);
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&db, &stop] {
      while (!stop.load()) {
        EXPECT_EQ(db.hash_index("s", 0).Lookup(1).size(), 4u);
        EXPECT_EQ(db.sorted_index("s", 0).CountRange(0, 3), 16);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    db.AddTable(SmallTable());  // replace "t" -> invalidates its caches
    db.hash_index("t", 0);      // repopulate so the next erase has work
  }
  stop.store(true);
  for (auto& t : readers) t.join();
}

// Cache hits take the shared lock, so concurrent lookups of already-built
// indexes return the same instances (built exactly once per (table, col)).
TEST(DatabaseTest, ConcurrentLookupsShareOneBuiltIndex) {
  Database db;
  db.AddTable(SmallTable());
  const HashIndex* first = &db.hash_index("t", 0);
  std::vector<const HashIndex*> seen(8, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(seen.size());
  for (size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&db, &seen, i] { seen[i] = &db.hash_index("t", 0); });
  }
  for (auto& t : threads) t.join();
  for (const HashIndex* p : seen) EXPECT_EQ(p, first);
}

TEST(DatabaseTest, SyncCatalogAll) {
  Database db;
  db.AddTable(SmallTable());
  Catalog c;
  db.SyncCatalog(&c);
  EXPECT_TRUE(c.HasTable("t"));
}

// ---------------------------------------------------------------------------
// datagen
// ---------------------------------------------------------------------------

TEST(DatagenTest, Sequential) {
  const auto v = datagen::Sequential(5, 10);
  EXPECT_EQ(v, (std::vector<int64_t>{10, 11, 12, 13, 14}));
}

TEST(DatagenTest, UniformBounds) {
  Rng rng(3);
  const auto v = datagen::Uniform(&rng, 1000, -5, 5);
  for (int64_t x : v) {
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
  }
}

TEST(DatagenTest, ForeignKeyFullIntegrity) {
  Rng rng(4);
  const auto parents = datagen::Sequential(100);
  const auto fks = datagen::ForeignKey(&rng, 5000, parents, 1.0);
  const std::set<int64_t> parent_set(parents.begin(), parents.end());
  for (int64_t fk : fks) EXPECT_TRUE(parent_set.count(fk));
}

TEST(DatagenTest, ForeignKeyMatchFraction) {
  Rng rng(5);
  const auto parents = datagen::Sequential(100);
  const auto fks = datagen::ForeignKey(&rng, 10000, parents, 0.4);
  int matched = 0;
  for (int64_t fk : fks) matched += fk > 0;
  EXPECT_NEAR(matched / 10000.0, 0.4, 0.03);
  // Dangling keys must be unique (never accidentally join).
  std::set<int64_t> dangling;
  for (int64_t fk : fks) {
    if (fk < 0) {
      EXPECT_TRUE(dangling.insert(fk).second);
    }
  }
}

TEST(DatagenTest, DeterministicUnderSeed) {
  Rng a(9), b(9);
  EXPECT_EQ(datagen::Uniform(&a, 100, 0, 1000),
            datagen::Uniform(&b, 100, 0, 1000));
}

TEST(DatagenTest, GaussianClamped) {
  Rng rng(11);
  const auto v = datagen::Gaussian(&rng, 1000, 50.0, 100.0, 0, 100);
  for (int64_t x : v) {
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 100);
  }
}

TEST(DatagenTest, ZipfDomain) {
  Rng rng(13);
  const auto v = datagen::Zipf(&rng, 1000, 50, 0.8);
  for (int64_t x : v) {
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 50);
  }
}

off_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

// AllocatePage grows the file without writing the page: a never-written
// allocation must still read back as zeros, the file stays a whole number of
// pages (Open()'s invariant), and concurrent allocators never shrink it.
TEST(PageFileTest, AllocateGrowsFileWithZeroPages) {
  using storage::kPageSize;
  using storage::PageFile;
  const std::string path = ::testing::TempDir() + "/page_file_alloc.pages";
  const off_t page_bytes = static_cast<off_t>(kPageSize);
  auto created = PageFile::Create(path);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  PageFile& file = *created.value();

  std::vector<uint8_t> frame(kPageSize, 0xAB);
  for (uint32_t want = 0; want < 3; ++want) {
    auto page = file.AllocatePage();
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ(page.value(), want);
    EXPECT_EQ(FileSize(path), static_cast<off_t>(want + 1) * page_bytes);
  }
  // Write the middle page; the pages around it were never written.
  ASSERT_TRUE(file.WritePage(1, frame.data()).ok());
  for (const uint32_t p : {0u, 2u}) {
    std::vector<uint8_t> got(kPageSize, 0xFF);
    ASSERT_TRUE(file.ReadPage(p, got.data()).ok());
    EXPECT_TRUE(std::all_of(got.begin(), got.end(),
                            [](uint8_t b) { return b == 0; }))
        << "page " << p;
  }
  std::vector<uint8_t> got(kPageSize, 0);
  ASSERT_TRUE(file.ReadPage(1, got.data()).ok());
  EXPECT_EQ(got, frame);

  // Four threads allocate and immediately write their pages; the file size
  // a thread observes after each allocation never falls below its page.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<uint8_t> mine(kPageSize, 0x5A);
      for (int i = 0; i < kPerThread; ++i) {
        auto page = file.AllocatePage();
        if (!page.ok() || !file.WritePage(page.value(), mine.data()).ok()) {
          violations++;
          continue;
        }
        const off_t need = static_cast<off_t>(page.value() + 1) * page_bytes;
        if (FileSize(path) < need) {
          violations++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);
  const uint32_t pages = 3 + kThreads * kPerThread;
  EXPECT_EQ(file.num_pages(), pages);
  EXPECT_EQ(FileSize(path), static_cast<off_t>(pages) * page_bytes);
  auto reopened = PageFile::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->num_pages(), pages);
  ASSERT_TRUE(file.CloseAndRemove().ok());
}

}  // namespace
}  // namespace bouquet
