#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/bloom_filter.h"
#include "common/column_vector.h"
#include "common/hll.h"
#include "common/lrfu_cache.h"
#include "common/rng.h"
#include "common/schema.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace hive {
namespace {

TEST(StatusTest, OkAndError) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status err = Status::NotFound("missing table");
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.IsNotFound());
  EXPECT_EQ(err.ToString(), "NotFound: missing table");
}

TEST(ResultTest, ValueAndError) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  Result<int> e = Status::InvalidArgument("bad");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
}

TEST(ValueTest, CompareNumericCrossKind) {
  EXPECT_EQ(Value::Compare(Value::Bigint(3), Value::Double(3.0)), 0);
  EXPECT_LT(Value::Compare(Value::Bigint(2), Value::Double(2.5)), 0);
  EXPECT_GT(Value::Compare(Value::Decimal(250, 2), Value::Bigint(2)), 0);  // 2.50 > 2
  EXPECT_EQ(Value::Compare(Value::Decimal(200, 2), Value::Bigint(2)), 0);
}

TEST(ValueTest, DecimalEqualsFractionalDoubleLiteral) {
  // DECIMAL(7,2) 8.43 / 11.11 against the DOUBLE literals 8.43 / 11.11,
  // whose nearest doubles lie just below the exact decimals.
  EXPECT_EQ(Value::Compare(Value::Decimal(843, 2), Value::Double(8.43)), 0);
  EXPECT_EQ(Value::Compare(Value::Double(11.11), Value::Decimal(1111, 2)), 0);
  EXPECT_LT(Value::Compare(Value::Decimal(842, 2), Value::Double(8.43)), 0);
  EXPECT_GT(Value::Compare(Value::Decimal(844, 2), Value::Double(8.43)), 0);
  // Equal values hash equal (hash-join and GROUP BY contract).
  EXPECT_EQ(Value::Decimal(843, 2).Hash(), Value::Double(8.43).Hash());
}

TEST(ValueTest, NullOrdering) {
  EXPECT_LT(Value::Compare(Value::Null(), Value::Bigint(-100)), 0);
  EXPECT_EQ(Value::Compare(Value::Null(), Value::Null()), 0);
}

TEST(ValueTest, DecimalParseAndPrint) {
  auto v = Value::Parse("123.45", DataType::Decimal(7, 2));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->i64(), 12345);
  EXPECT_EQ(v->ToString(), "123.45");
  auto neg = Value::Parse("-0.07", DataType::Decimal(7, 2));
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(neg->i64(), -7);
  EXPECT_EQ(neg->ToString(), "-0.07");
}

TEST(ValueTest, DecimalScaleTruncation) {
  auto v = Value::Parse("1.999", DataType::Decimal(7, 2));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->i64(), 199);
}

TEST(ValueTest, HashEqualAcrossNumericKinds) {
  EXPECT_EQ(Value::Bigint(7).Hash(), Value::Double(7.0).Hash());
  EXPECT_EQ(Value::Bigint(7).Hash(), Value::Decimal(700, 2).Hash());
}

TEST(ValueTest, CastRoundTrips) {
  Value d = Value::Double(3.75);
  auto dec = d.CastTo(DataType::Decimal(7, 2));
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec->ToString(), "3.75");
  auto str = dec->CastTo(DataType::String());
  ASSERT_TRUE(str.ok());
  EXPECT_EQ(str->str(), "3.75");
  auto back = str->CastTo(DataType::Double());
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back->f64(), 3.75);
}

TEST(DateTest, CivilRoundTrip) {
  for (int64_t days : {-10000, -1, 0, 1, 365, 18000, 20000}) {
    int y;
    unsigned m, d;
    CivilFromDays(days, &y, &m, &d);
    EXPECT_EQ(DaysFromCivil(y, m, d), days);
  }
}

TEST(DateTest, ParseFormat) {
  auto days = ParseDate("2018-03-26");
  ASSERT_TRUE(days.ok());
  EXPECT_EQ(FormatDate(*days), "2018-03-26");
  auto ts = ParseTimestamp("2018-03-26 12:34:56");
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ(FormatTimestamp(*ts), "2018-03-26 12:34:56");
}

TEST(DateTest, ExtractFields) {
  auto days = ParseDate("2017-11-05");
  ASSERT_TRUE(days.ok());
  Value v = Value::Date(*days);
  EXPECT_EQ(ExtractDateField(DateField::kYear, v), 2017);
  EXPECT_EQ(ExtractDateField(DateField::kMonth, v), 11);
  EXPECT_EQ(ExtractDateField(DateField::kDay, v), 5);
  EXPECT_EQ(ExtractDateField(DateField::kQuarter, v), 4);
}

TEST(ColumnVectorTest, AppendGatherEqualsAppendFromLoop) {
  // Every backing kind, NULL source rows, repeated and negative indexes, and
  // a non-empty destination: the gather must leave exactly the buffers an
  // AppendFrom/AppendNull loop leaves.
  const std::vector<DataType> types = {DataType::Bigint(), DataType::Double(),
                                       DataType::Decimal(7, 2), DataType::String(),
                                       DataType::Date()};
  const std::vector<int32_t> rows = {3, -1, 0, 7, 7, -5, 2, 9, 1};
  for (const DataType& type : types) {
    ColumnVector src(type);
    for (int i = 0; i < 10; ++i) {
      if (i % 4 == 2) {
        src.AppendNull();
        continue;
      }
      switch (type.kind) {
        case TypeKind::kDouble: src.AppendF64(i * 1.5); break;
        case TypeKind::kString: src.AppendStr("v" + std::to_string(i)); break;
        default: src.AppendI64(i * 101 - 300); break;
      }
    }
    ColumnVector gathered(type), looped(type);
    gathered.AppendValue(src.GetValue(0));
    looped.AppendValue(src.GetValue(0));
    gathered.AppendGather(src, rows.data(), rows.size());
    for (int32_t r : rows) {
      if (r < 0) {
        looped.AppendNull();
      } else {
        looped.AppendFrom(src, static_cast<size_t>(r));
      }
    }
    const std::string kind = type.ToString();
    ASSERT_EQ(gathered.size(), looped.size()) << kind;
    EXPECT_EQ(gathered.validity(), looped.validity()) << kind;
    EXPECT_EQ(gathered.i64_data(), looped.i64_data()) << kind;
    EXPECT_EQ(gathered.f64_data(), looped.f64_data()) << kind;
    EXPECT_EQ(gathered.str_data(), looped.str_data()) << kind;
    for (size_t i = 0; i < gathered.size(); ++i)
      EXPECT_EQ(Value::Compare(gathered.GetValue(i), looped.GetValue(i)), 0)
          << kind << " row " << i;
  }
}

TEST(ColumnVectorTest, RowBatchAppendSelectedAndFlatten) {
  Schema schema;
  schema.AddField("k", DataType::Bigint());
  schema.AddField("s", DataType::String());
  RowBatch batch(schema);
  for (int i = 0; i < 6; ++i) {
    batch.column(0)->AppendI64(i);
    batch.column(1)->AppendStr("r" + std::to_string(i));
  }
  batch.set_num_rows(6);
  batch.SetSelection({1, 4, 5});
  RowBatch copy(schema);
  copy.AppendSelected(batch);
  copy.AppendSelected(batch);
  ASSERT_EQ(copy.num_rows(), 6u);
  EXPECT_EQ(copy.column(0)->i64_data(), (std::vector<int64_t>{1, 4, 5, 1, 4, 5}));
  batch.Flatten();
  ASSERT_EQ(batch.num_rows(), 3u);
  EXPECT_FALSE(batch.has_selection());
  EXPECT_EQ(batch.column(1)->str_data(), (std::vector<std::string>{"r1", "r4", "r5"}));
}

TEST(SchemaTest, CaseInsensitiveLookup) {
  Schema s;
  s.AddField("Sold_Date_SK", DataType::Bigint());
  s.AddField("list_price", DataType::Decimal(7, 2));
  EXPECT_EQ(s.IndexOf("sold_date_sk"), 0u);
  EXPECT_EQ(s.IndexOf("LIST_PRICE"), 1u);
  EXPECT_FALSE(s.IndexOf("missing").has_value());
}

TEST(SchemaTest, SerializeRoundTrip) {
  Schema s;
  s.AddField("a", DataType::Bigint());
  s.AddField("b", DataType::Decimal(10, 3));
  s.AddField("c", DataType::String());
  std::string buf;
  s.Serialize(&buf);
  size_t offset = 0;
  auto back = Schema::Deserialize(buf, &offset);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, s);
  EXPECT_EQ(offset, buf.size());
}

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bf(1000, 0.03);
  for (int64_t i = 0; i < 1000; ++i) bf.AddInt64(i * 7);
  for (int64_t i = 0; i < 1000; ++i) EXPECT_TRUE(bf.MightContainInt64(i * 7));
}

TEST(BloomFilterTest, FalsePositiveRateIsBounded) {
  BloomFilter bf(1000, 0.03);
  for (int64_t i = 0; i < 1000; ++i) bf.AddInt64(i);
  int fp = 0;
  for (int64_t i = 10000; i < 20000; ++i)
    if (bf.MightContainInt64(i)) ++fp;
  EXPECT_LT(fp, 800);  // 8%, generous bound over the 3% target
}

TEST(BloomFilterTest, SerializeRoundTrip) {
  BloomFilter bf(100, 0.05);
  bf.AddString("hello");
  bf.AddString("world");
  std::string buf;
  bf.Serialize(&buf);
  size_t offset = 0;
  auto back = BloomFilter::Deserialize(buf, &offset);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->MightContainString("hello"));
  EXPECT_TRUE(back->MightContainString("world"));
  EXPECT_EQ(offset, buf.size());
}

TEST(BloomFilterTest, Merge) {
  BloomFilter a(100, 0.03), b(100, 0.03);
  a.AddInt64(1);
  b.AddInt64(2);
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_TRUE(a.MightContainInt64(1));
  EXPECT_TRUE(a.MightContainInt64(2));
}

TEST(HllTest, EstimateWithinError) {
  HyperLogLog hll(12);
  const int n = 100000;
  for (int i = 0; i < n; ++i) hll.AddInt64(i);
  double est = static_cast<double>(hll.Estimate());
  EXPECT_NEAR(est, n, n * 0.05);
}

TEST(HllTest, SmallCardinalityLinearCounting) {
  HyperLogLog hll(12);
  for (int i = 0; i < 10; ++i) hll.AddInt64(i);
  EXPECT_NEAR(static_cast<double>(hll.Estimate()), 10, 2);
}

TEST(HllTest, MergeIsAdditive) {
  HyperLogLog a(12), b(12);
  for (int i = 0; i < 5000; ++i) a.AddInt64(i);
  for (int i = 2500; i < 7500; ++i) b.AddInt64(i);
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_NEAR(static_cast<double>(a.Estimate()), 7500, 7500 * 0.05);
}

TEST(HllTest, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (int rep = 0; rep < 100; ++rep)
    for (int i = 0; i < 100; ++i) hll.AddInt64(i);
  EXPECT_NEAR(static_cast<double>(hll.Estimate()), 100, 10);
}

TEST(HllTest, SerializeRoundTrip) {
  HyperLogLog hll(10);
  for (int i = 0; i < 1000; ++i) hll.AddInt64(i);
  std::string buf;
  hll.Serialize(&buf);
  size_t offset = 0;
  auto back = HyperLogLog::Deserialize(buf, &offset);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Estimate(), hll.Estimate());
}

TEST(LrfuCacheTest, BasicPutGet) {
  LrfuCache<int, std::shared_ptr<int>> cache(1024);
  cache.Put(1, std::make_shared<int>(10), 100);
  auto v = cache.Get(1);
  ASSERT_TRUE(v != nullptr);
  EXPECT_EQ(*v, 10);
  EXPECT_EQ(cache.Get(2), nullptr);
}

TEST(LrfuCacheTest, EvictsWhenFull) {
  LrfuCache<int, std::shared_ptr<int>> cache(300);
  cache.Put(1, std::make_shared<int>(1), 100);
  cache.Put(2, std::make_shared<int>(2), 100);
  cache.Put(3, std::make_shared<int>(3), 100);
  EXPECT_EQ(cache.size(), 3u);
  cache.Put(4, std::make_shared<int>(4), 100);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_LE(cache.used_bytes(), 300u);
}

TEST(LrfuCacheTest, FrequentlyUsedSurvivesScan) {
  LrfuCache<int, std::shared_ptr<int>> cache(500, 0.05);
  cache.Put(0, std::make_shared<int>(0), 100);
  for (int rep = 0; rep < 20; ++rep) cache.Get(0);  // make entry 0 hot
  // A scan of one-touch entries should not evict the hot entry.
  for (int i = 1; i <= 20; ++i) cache.Put(i, std::make_shared<int>(i), 100);
  EXPECT_NE(cache.Get(0), nullptr);
}

TEST(LrfuCacheTest, EraseIf) {
  LrfuCache<int, std::shared_ptr<int>> cache(10000);
  for (int i = 0; i < 10; ++i) cache.Put(i, std::make_shared<int>(i), 10);
  cache.EraseIf([](const int& k) { return k % 2 == 0; });
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
}

TEST(LrfuCacheTest, OversizedEntryRejected) {
  LrfuCache<int, std::shared_ptr<int>> cache(100);
  EXPECT_FALSE(cache.Put(1, std::make_shared<int>(1), 200));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, RangeBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(5, 10);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 10);
  }
}

}  // namespace
}  // namespace hive
