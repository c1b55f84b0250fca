#include <gtest/gtest.h>

#include "fs/mem_filesystem.h"
#include "metastore/catalog.h"
#include "metastore/compaction_manager.h"
#include "metastore/txn_manager.h"

namespace hive {
namespace {

TableDesc SalesTable() {
  TableDesc desc;
  desc.db = "default";
  desc.name = "store_sales";
  desc.schema.AddField("item_sk", DataType::Bigint());
  desc.schema.AddField("sales_price", DataType::Decimal(7, 2));
  desc.partition_cols.push_back({"sold_date_sk", DataType::Bigint()});
  return desc;
}

TEST(CatalogTest, CreateGetDropTable) {
  MemFileSystem fs;
  Catalog catalog(&fs);
  ASSERT_TRUE(catalog.CreateTable(SalesTable()).ok());
  auto t = catalog.GetTable("default", "STORE_SALES");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->name, "store_sales");
  EXPECT_EQ(t->location, "/warehouse/default.db/store_sales");
  EXPECT_TRUE(fs.Exists(t->location));
  EXPECT_FALSE(catalog.CreateTable(SalesTable()).ok()) << "duplicate must fail";
  ASSERT_TRUE(catalog.DropTable("default", "store_sales").ok());
  EXPECT_FALSE(fs.Exists("/warehouse/default.db/store_sales"));
  EXPECT_FALSE(catalog.GetTable("default", "store_sales").ok());
}

TEST(CatalogTest, Databases) {
  MemFileSystem fs;
  Catalog catalog(&fs);
  EXPECT_TRUE(catalog.DatabaseExists("default"));
  ASSERT_TRUE(catalog.CreateDatabase("tpcds").ok());
  EXPECT_TRUE(catalog.DatabaseExists("TPCDS"));
  TableDesc t = SalesTable();
  t.db = "missing_db";
  EXPECT_FALSE(catalog.CreateTable(t).ok());
}

TEST(CatalogTest, PartitionsCreateDirectoryLayout) {
  MemFileSystem fs;
  Catalog catalog(&fs);
  ASSERT_TRUE(catalog.CreateTable(SalesTable()).ok());
  ASSERT_TRUE(catalog.AddPartition("default", "store_sales", {Value::Bigint(1)}).ok());
  ASSERT_TRUE(catalog.AddPartition("default", "store_sales", {Value::Bigint(2)}).ok());
  // Figure 3 layout: one directory per partition value.
  EXPECT_TRUE(fs.Exists("/warehouse/default.db/store_sales/sold_date_sk=1"));
  EXPECT_TRUE(fs.Exists("/warehouse/default.db/store_sales/sold_date_sk=2"));
  auto parts = catalog.GetPartitions("default", "store_sales");
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 2u);
  // Idempotent add.
  ASSERT_TRUE(catalog.AddPartition("default", "store_sales", {Value::Bigint(1)}).ok());
  parts = catalog.GetPartitions("default", "store_sales");
  EXPECT_EQ(parts->size(), 2u);
  ASSERT_TRUE(
      catalog.DropPartition("default", "store_sales", {Value::Bigint(1)}).ok());
  EXPECT_FALSE(fs.Exists("/warehouse/default.db/store_sales/sold_date_sk=1"));
}

TEST(CatalogTest, StatsMergeAdditively) {
  MemFileSystem fs;
  Catalog catalog(&fs);
  ASSERT_TRUE(catalog.CreateTable(SalesTable()).ok());

  TableStatistics s1;
  s1.row_count = 100;
  ColumnStatistics c1;
  c1.num_values = 100;
  c1.min = Value::Bigint(1);
  c1.max = Value::Bigint(50);
  for (int i = 1; i <= 50; ++i) c1.ndv.AddInt64(i);
  s1.columns["item_sk"] = c1;
  ASSERT_TRUE(catalog.MergeStats("default", "store_sales", s1).ok());

  TableStatistics s2;
  s2.row_count = 200;
  ColumnStatistics c2;
  c2.num_values = 200;
  c2.min = Value::Bigint(30);
  c2.max = Value::Bigint(120);
  for (int i = 30; i <= 120; ++i) c2.ndv.AddInt64(i);
  s2.columns["item_sk"] = c2;
  ASSERT_TRUE(catalog.MergeStats("default", "store_sales", s2).ok());

  auto t = catalog.GetTable("default", "store_sales");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->stats.row_count, 300);
  const auto& merged = t->stats.columns.at("item_sk");
  EXPECT_EQ(merged.min.i64(), 1);
  EXPECT_EQ(merged.max.i64(), 120);
  EXPECT_NEAR(static_cast<double>(merged.Ndv()), 120, 12);
}

TEST(TxnTest, SnapshotIsolationBasics) {
  TransactionManager txns;
  int64_t t1 = txns.OpenTxn();
  TxnSnapshot snap1 = txns.GetSnapshot();
  EXPECT_FALSE(snap1.Sees(t1)) << "own open txn is in the exception list";
  ASSERT_TRUE(txns.CommitTxn(t1).ok());
  TxnSnapshot snap2 = txns.GetSnapshot();
  EXPECT_TRUE(snap2.Sees(t1));
  EXPECT_FALSE(snap1.Sees(t1)) << "old snapshot must not change";
}

TEST(TxnTest, AbortedStaysInvisible) {
  TransactionManager txns;
  int64_t t1 = txns.OpenTxn();
  ASSERT_TRUE(txns.AbortTxn(t1).ok());
  EXPECT_TRUE(txns.IsAborted(t1));
  EXPECT_FALSE(txns.GetSnapshot().Sees(t1));
  EXPECT_EQ(txns.NumAborted(), 1u);
}

TEST(TxnTest, WriteIdsArePerTableMonotonic) {
  TransactionManager txns;
  int64_t t1 = txns.OpenTxn();
  int64_t t2 = txns.OpenTxn();
  auto w1a = txns.AllocateWriteId(t1, "default.a");
  auto w2a = txns.AllocateWriteId(t2, "default.a");
  auto w1b = txns.AllocateWriteId(t1, "default.b");
  ASSERT_TRUE(w1a.ok() && w2a.ok() && w1b.ok());
  EXPECT_EQ(*w1a, 1);
  EXPECT_EQ(*w2a, 2);
  EXPECT_EQ(*w1b, 1) << "write ids are table-scoped";
  // Repeated allocation within the same txn returns the same id.
  auto again = txns.AllocateWriteId(t1, "default.a");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 1);
}

TEST(TxnTest, ValidWriteIdsFollowTxnVisibility) {
  TransactionManager txns;
  int64_t t1 = txns.OpenTxn();
  ASSERT_TRUE(txns.AllocateWriteId(t1, "default.a").ok());  // wid 1
  ASSERT_TRUE(txns.CommitTxn(t1).ok());

  int64_t t2 = txns.OpenTxn();
  ASSERT_TRUE(txns.AllocateWriteId(t2, "default.a").ok());  // wid 2, open

  int64_t t3 = txns.OpenTxn();
  ASSERT_TRUE(txns.AllocateWriteId(t3, "default.a").ok());  // wid 3
  ASSERT_TRUE(txns.CommitTxn(t3).ok());

  TxnSnapshot snap = txns.GetSnapshot();
  ValidWriteIdList wids = txns.GetValidWriteIds("default.a", snap);
  EXPECT_EQ(wids.high_watermark, 3);
  EXPECT_TRUE(wids.IsValid(1));
  EXPECT_FALSE(wids.IsValid(2)) << "open txn's write id is an exception";
  EXPECT_TRUE(wids.IsValid(3));
}

TEST(TxnTest, WriteCommittedAfterSnapshotIsNeverCompactedAway) {
  // A compactor's snapshot may see a write id's transaction open, and the
  // transaction may commit before the write-id list is derived. That id is
  // invisible to the snapshot but its rows are committed: it must be
  // flagged like an open write, or a major compaction past it drops them.
  TransactionManager txns;
  int64_t t1 = txns.OpenTxn();
  ASSERT_TRUE(txns.AllocateWriteId(t1, "default.a").ok());  // wid 1
  int64_t t2 = txns.OpenTxn();
  ASSERT_TRUE(txns.AllocateWriteId(t2, "default.a").ok());  // wid 2
  ASSERT_TRUE(txns.CommitTxn(t2).ok());
  TxnSnapshot snap = txns.GetSnapshot();  // t1 still open
  ASSERT_TRUE(txns.CommitTxn(t1).ok());
  int64_t t3 = txns.OpenTxn();
  ASSERT_TRUE(txns.AllocateWriteId(t3, "default.a").ok());  // wid 3
  ASSERT_TRUE(txns.AbortTxn(t3).ok());
  TxnSnapshot after = txns.GetSnapshot();

  ValidWriteIdList wids = txns.GetValidWriteIds("default.a", snap);
  EXPECT_EQ(wids.high_watermark, 2);
  EXPECT_FALSE(wids.IsValid(1)) << "committed after the snapshot: invisible";
  EXPECT_EQ(wids.open_writes, std::set<int64_t>{1}) << "but never compacted away";
  ValidWriteIdList later = txns.GetValidWriteIds("default.a", after);
  EXPECT_TRUE(later.IsValid(1));
  EXPECT_FALSE(later.IsValid(3));
  EXPECT_TRUE(later.open_writes.empty()) << "aborted history may be erased";
}

TEST(TxnTest, FirstCommitWinsOnUpdateConflict) {
  TransactionManager txns;
  int64_t t1 = txns.OpenTxn();
  int64_t t2 = txns.OpenTxn();
  ASSERT_TRUE(txns.RecordWriteSet(t1, "default.t/p=1", WriteOpKind::kUpdateDelete).ok());
  ASSERT_TRUE(txns.RecordWriteSet(t2, "default.t/p=1", WriteOpKind::kUpdateDelete).ok());
  ASSERT_TRUE(txns.CommitTxn(t1).ok());
  Status second = txns.CommitTxn(t2);
  EXPECT_TRUE(second.IsTxnAborted());
  EXPECT_TRUE(txns.IsAborted(t2));
}

TEST(TxnTest, InsertsDoNotConflict) {
  TransactionManager txns;
  int64_t t1 = txns.OpenTxn();
  int64_t t2 = txns.OpenTxn();
  ASSERT_TRUE(txns.RecordWriteSet(t1, "default.t", WriteOpKind::kInsert).ok());
  ASSERT_TRUE(txns.RecordWriteSet(t2, "default.t", WriteOpKind::kInsert).ok());
  EXPECT_TRUE(txns.CommitTxn(t1).ok());
  EXPECT_TRUE(txns.CommitTxn(t2).ok());
}

TEST(TxnTest, DisjointPartitionsDoNotConflict) {
  TransactionManager txns;
  int64_t t1 = txns.OpenTxn();
  int64_t t2 = txns.OpenTxn();
  ASSERT_TRUE(txns.RecordWriteSet(t1, "default.t/p=1", WriteOpKind::kUpdateDelete).ok());
  ASSERT_TRUE(txns.RecordWriteSet(t2, "default.t/p=2", WriteOpKind::kUpdateDelete).ok());
  EXPECT_TRUE(txns.CommitTxn(t1).ok());
  EXPECT_TRUE(txns.CommitTxn(t2).ok());
}

TEST(TxnTest, SharedAndExclusiveLocks) {
  TransactionManager txns;
  int64_t t1 = txns.OpenTxn();
  int64_t t2 = txns.OpenTxn();
  EXPECT_TRUE(txns.AcquireLock(t1, "default.t", LockMode::kShared).ok());
  EXPECT_TRUE(txns.AcquireLock(t2, "default.t", LockMode::kShared).ok());
  int64_t t3 = txns.OpenTxn();
  EXPECT_FALSE(txns.AcquireLock(t3, "default.t", LockMode::kExclusive).ok())
      << "DROP-style exclusive lock blocked by readers";
  ASSERT_TRUE(txns.CommitTxn(t1).ok());
  ASSERT_TRUE(txns.CommitTxn(t2).ok());
  EXPECT_TRUE(txns.AcquireLock(t3, "default.t", LockMode::kExclusive).ok());
  int64_t t4 = txns.OpenTxn();
  EXPECT_FALSE(txns.AcquireLock(t4, "default.t", LockMode::kShared).ok());
  ASSERT_TRUE(txns.AbortTxn(t3).ok());
  EXPECT_TRUE(txns.AcquireLock(t4, "default.t", LockMode::kShared).ok());
}

TEST(CompactionManagerTest, TriggersMinorAtDeltaThreshold) {
  MemFileSystem fs;
  Catalog catalog(&fs);
  TransactionManager txns;
  Config config;
  config.compaction_delta_threshold = 5;
  config.compaction_ratio_threshold = 100.0;  // effectively disable major
  CompactionManager manager(&catalog, &txns, &config);

  TableDesc desc;
  desc.db = "default";
  desc.name = "t";
  desc.schema.AddField("a", DataType::Bigint());
  ASSERT_TRUE(catalog.CreateTable(desc).ok());

  auto write_once = [&](int64_t value) {
    int64_t txn = txns.OpenTxn();
    auto wid = txns.AllocateWriteId(txn, "default.t");
    ASSERT_TRUE(wid.ok());
    AcidWriter writer(&fs, "/warehouse/default.db/t", desc.schema, *wid);
    writer.Insert({Value::Bigint(value)});
    ASSERT_TRUE(writer.Commit().ok());
    ASSERT_TRUE(txns.CommitTxn(txn).ok());
  };

  for (int i = 0; i < 4; ++i) write_once(i);
  auto decisions = manager.MaybeCompact("default", "t");
  ASSERT_TRUE(decisions.ok());
  EXPECT_EQ((*decisions)[0].action, CompactionDecision::Action::kNone);

  write_once(4);
  decisions = manager.MaybeCompact("default", "t");
  ASSERT_TRUE(decisions.ok());
  EXPECT_EQ((*decisions)[0].action, CompactionDecision::Action::kMinor);
  EXPECT_TRUE(fs.Exists("/warehouse/default.db/t/delta_1_5"));
  EXPECT_FALSE(fs.Exists("/warehouse/default.db/t/delta_1_1")) << "cleaned";
  EXPECT_EQ(manager.compactions_run(), 1);
}

TEST(CompactionManagerTest, MajorWhenDeltaRatioHigh) {
  MemFileSystem fs;
  Catalog catalog(&fs);
  TransactionManager txns;
  Config config;
  config.compaction_delta_threshold = 2;
  config.compaction_ratio_threshold = 0.01;
  CompactionManager manager(&catalog, &txns, &config);

  TableDesc desc;
  desc.db = "default";
  desc.name = "t";
  desc.schema.AddField("a", DataType::Bigint());
  ASSERT_TRUE(catalog.CreateTable(desc).ok());

  for (int w = 0; w < 3; ++w) {
    int64_t txn = txns.OpenTxn();
    auto wid = txns.AllocateWriteId(txn, "default.t");
    ASSERT_TRUE(wid.ok());
    AcidWriter writer(&fs, "/warehouse/default.db/t", desc.schema, *wid);
    for (int64_t i = 0; i < 100; ++i) writer.Insert({Value::Bigint(i)});
    ASSERT_TRUE(writer.Commit().ok());
    ASSERT_TRUE(txns.CommitTxn(txn).ok());
  }
  auto decisions = manager.MaybeCompact("default", "t");
  ASSERT_TRUE(decisions.ok());
  EXPECT_EQ((*decisions)[0].action, CompactionDecision::Action::kMajor);
  EXPECT_TRUE(fs.Exists("/warehouse/default.db/t/base_3"));
}

/// Forwards to MemFileSystem but fails DeleteRecursive while `fail_deletes`
/// is set — models a storage layer that temporarily rejects recursive
/// deletes (e.g. an object store throttling its batch-delete API).
class FlakyDeleteFs : public FileSystem {
 public:
  Status WriteFile(const std::string& path, const std::string& data) override {
    return base_.WriteFile(path, data);
  }
  Result<std::string> ReadFile(const std::string& path) override {
    return base_.ReadFile(path);
  }
  Result<std::string> ReadRange(const std::string& path, uint64_t offset,
                                uint64_t len) override {
    return base_.ReadRange(path, offset, len);
  }
  Result<FileInfo> Stat(const std::string& path) override { return base_.Stat(path); }
  Result<std::vector<FileInfo>> ListDir(const std::string& path) override {
    return base_.ListDir(path);
  }
  Status MakeDirs(const std::string& path) override { return base_.MakeDirs(path); }
  Status DeleteFile(const std::string& path) override { return base_.DeleteFile(path); }
  Status DeleteRecursive(const std::string& path) override {
    if (fail_deletes) return Status::TransientIoError("delete throttled: " + path);
    return base_.DeleteRecursive(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_.Rename(from, to);
  }
  bool Exists(const std::string& path) override { return base_.Exists(path); }

  bool fail_deletes = false;

 private:
  MemFileSystem base_;
};

TEST(CatalogTest, DropTableFailedDeleteKeepsEntryRetryable) {
  // Regression: DropTable used to erase the catalog entry even when the data
  // delete failed, orphaning the directory with nothing pointing at it. The
  // delete now runs first and a failure aborts the drop, so it can be retried.
  FlakyDeleteFs fs;
  Catalog catalog(&fs);
  TableDesc desc = SalesTable();
  desc.partition_cols.clear();
  ASSERT_TRUE(catalog.CreateTable(desc).ok());

  fs.fail_deletes = true;
  Status drop = catalog.DropTable("default", "store_sales");
  EXPECT_FALSE(drop.ok());
  EXPECT_TRUE(catalog.GetTable("default", "store_sales").ok())
      << "failed drop must keep the table registered";
  EXPECT_TRUE(fs.Exists("/warehouse/default.db/store_sales"));

  fs.fail_deletes = false;
  EXPECT_TRUE(catalog.DropTable("default", "store_sales").ok()) << "retry succeeds";
  EXPECT_FALSE(fs.Exists("/warehouse/default.db/store_sales"));
  EXPECT_FALSE(catalog.GetTable("default", "store_sales").ok());
}

TEST(CatalogTest, DropPartitionFailedDeleteKeepsPartition) {
  FlakyDeleteFs fs;
  Catalog catalog(&fs);
  ASSERT_TRUE(catalog.CreateTable(SalesTable()).ok());
  ASSERT_TRUE(
      catalog.AddPartition("default", "store_sales", {Value::Bigint(20260101)}).ok());
  const std::string part_dir =
      "/warehouse/default.db/store_sales/sold_date_sk=20260101";
  ASSERT_TRUE(fs.Exists(part_dir));

  fs.fail_deletes = true;
  EXPECT_FALSE(
      catalog.DropPartition("default", "store_sales", {Value::Bigint(20260101)}).ok());
  auto parts = catalog.GetPartitions("default", "store_sales");
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 1u) << "failed drop must keep the partition registered";
  EXPECT_TRUE(fs.Exists(part_dir));

  fs.fail_deletes = false;
  EXPECT_TRUE(
      catalog.DropPartition("default", "store_sales", {Value::Bigint(20260101)}).ok());
  EXPECT_FALSE(fs.Exists(part_dir));
}

TEST(CompactionManagerTest, FailedCleanStaysPendingAndRetries) {
  // Regression: a deferred clean whose deletes failed used to be dropped from
  // the pending list forever, leaking the superseded delta directories. It
  // now stays queued and succeeds on a later flush.
  FlakyDeleteFs fs;
  Catalog catalog(&fs);
  TransactionManager txns;
  Config config;
  config.compaction_delta_threshold = 3;
  config.compaction_ratio_threshold = 100.0;
  CompactionManager manager(&catalog, &txns, &config);

  TableDesc desc;
  desc.db = "default";
  desc.name = "t";
  desc.schema.AddField("a", DataType::Bigint());
  ASSERT_TRUE(catalog.CreateTable(desc).ok());
  for (int w = 0; w < 3; ++w) {
    int64_t txn = txns.OpenTxn();
    auto wid = txns.AllocateWriteId(txn, "default.t");
    ASSERT_TRUE(wid.ok());
    AcidWriter writer(&fs, "/warehouse/default.db/t", desc.schema, *wid);
    writer.Insert({Value::Bigint(w)});
    ASSERT_TRUE(writer.Commit().ok());
    ASSERT_TRUE(txns.CommitTxn(txn).ok());
  }

  // A reader is in flight when the compaction commits: cleaning is deferred.
  manager.BeginRead();
  auto decisions = manager.MaybeCompact("default", "t");
  ASSERT_TRUE(decisions.ok());
  ASSERT_EQ((*decisions)[0].action, CompactionDecision::Action::kMinor);
  EXPECT_EQ(manager.pending_cleans(), 1u);
  EXPECT_TRUE(fs.Exists("/warehouse/default.db/t/delta_1_1")) << "clean deferred";

  // The last reader drains while deletes are failing: the clean must stay
  // queued, not vanish.
  fs.fail_deletes = true;
  manager.EndRead();
  EXPECT_EQ(manager.pending_cleans(), 1u) << "failed clean must be retained";
  EXPECT_TRUE(fs.Exists("/warehouse/default.db/t/delta_1_1"));

  // Storage recovers: the next flush completes the clean.
  fs.fail_deletes = false;
  manager.FlushPendingCleans();
  EXPECT_EQ(manager.pending_cleans(), 0u);
  EXPECT_FALSE(fs.Exists("/warehouse/default.db/t/delta_1_1"));
  EXPECT_TRUE(fs.Exists("/warehouse/default.db/t/delta_1_3")) << "compacted delta kept";
}

}  // namespace
}  // namespace hive
