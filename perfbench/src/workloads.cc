// The four workloads. Each stresses different layers (see README.md):
//   tpcds_warm       exec operators on LLAP cache hits (data fits, warmed)
//   ssb_over_memory  COF decode, cache misses/evictions and spill I/O
//   bi_sessions      parse/plan/caches/admission with little exec work
//   acid_etl         the ACID write path, compaction and merge-on-read
#include <algorithm>
#include <cstdio>
#include <array>
#include <random>
#include <set>

#include "server/workload_loader.h"
#include "src/acid_model.h"
#include "src/workload.h"
#include "workloads/ssb.h"
#include "workloads/tpcds.h"

namespace perfbench {
namespace {

using hive::Config;
using hive::Connection;
using hive::HiveServer2;
using hive::QueryResult;
using hive::Result;
using hive::Status;

// TPC-DS scale of tpcds_warm ("about scale 4": ~120k store_sales rows,
// ~10.7 MB resident in the LLAP cache, far below its 256 MiB default).
constexpr int kTpcdsScale = 4;
// SSB scale of ssb_over_memory (160k lineorder rows), and the deployment
// sizes that put its working set over the program's own caches: the suite
// keeps ~17 MB resident at the default LLAP capacity, so 2 MiB is ~1/8 of
// it; the per-query limit is below the GROUP BY and ORDER BY state below.
constexpr int kSsbScale = 8;
constexpr int64_t kSsbLlapCapacityBytes = 2LL << 20;
constexpr int64_t kSsbQueryMemoryBytes = 2LL << 20;
// bi_sessions: small data, so per-statement work is small.
constexpr int kBiTpcdsScale = 1;
// Point-lookup keys walk a seeded permutation of the customers, each client
// its own quarter, so no key repeats within a run and every lookup misses
// the result cache; each lookup can skip most of the table's row groups.
constexpr int kBiCustomers = 100000;
constexpr int kBiClients = 4;          // 3 in pool bi, 1 in etl
constexpr int kBiPoolParallelism = 2;  // fewer slots than the 3 bi clients
constexpr int64_t kBiQueueTimeoutMs = 60000;
// acid_etl table shape.
constexpr int64_t kAcidIdDomain = 12000;
constexpr int64_t kAcidGroups = 16;
constexpr int kAcidInitialRows = 7000;
constexpr int kAcidFeeds = 4;
constexpr int kAcidFeedRows = 10;
constexpr int kAcidWritesPerRead = 4;
constexpr int kAcidWarmStatements = 50;
// Statements per timed round. Every write allocates a write id that each
// later snapshot walks, and the LLAP cache keeps chunks of compacted-away
// files, so both cost and memory grow with statements run; a fixed round
// keeps that growth the same in every measurement.
constexpr int64_t kAcidRoundStatements = 2500;

const char* const kTpcdsTables[] = {"date_dim", "item",        "customer",
                                    "store",    "store_sales", "store_returns"};
const char* const kSsbTables[] = {"lineorder", "dates", "customer_d", "supplier",
                                  "part"};

/// Seeded generator; the same seed gives the same stream on any run.
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}
  /// Uniform in [0, n).
  int64_t Uniform(int64_t n) {
    return static_cast<int64_t>(gen_() % static_cast<uint64_t>(n));
  }
  double Unit() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }

 private:
  std::mt19937_64 gen_;
};

Status Exec(Connection& conn, const std::string& sql) {
  return conn.Execute(sql).status();
}

Result<Rows> Query(Connection& conn, const std::string& sql) {
  HIVE_ASSIGN_OR_RETURN(QueryResult result, conn.Execute(sql));
  return std::move(result.rows);
}

/// A connection that computes references: no LLAP (its reads bypass the
/// cache the run measures), one executor, no result cache, no memory cap.
Connection ReferenceConnection(HiveServer2* server) {
  Connection conn = server->Connect("etl");
  conn.config().llap_enabled = false;
  conn.config().num_executors = 1;
  conn.config().result_cache_enabled = false;
  conn.config().query_memory_limit_bytes = 0;
  return conn;
}

template <size_t N>
Result<uint64_t> TablesUserBytes(Connection& conn, const char* const (&tables)[N],
                                 int64_t* rows) {
  uint64_t bytes = 0;
  for (const char* table : tables) {
    HIVE_ASSIGN_OR_RETURN(Rows data, Query(conn, std::string("SELECT * FROM ") + table));
    bytes += UserBytes(data);
    *rows += static_cast<int64_t>(data.size());
  }
  return bytes;
}

/// A fixed query suite run by one client in complete, seeded passes: each
/// pass is a fresh permutation of every query, and the client stops only
/// between passes, so each query has the same weight in every run.
class SuiteWorkload : public Workload {
 public:
  SuiteWorkload(uint64_t seed, std::vector<hive::BenchQuery> queries)
      : rng_(seed), queries_(std::move(queries)) {}

  void SessionOverrides(Config* config) const override {
    config->result_cache_enabled = false;
  }

  Status Warm(std::vector<Connection>* clients) override {
    for (const hive::BenchQuery& q : queries_)
      HIVE_RETURN_IF_ERROR(Exec((*clients)[0], q.sql));
    return Status::OK();
  }

  Status CaptureReferences(HiveServer2* server) override {
    Connection ref = ReferenceConnection(server);
    references_.clear();
    for (const hive::BenchQuery& q : queries_) {
      HIVE_ASSIGN_OR_RETURN(Rows rows, Query(ref, q.sql));
      SortRows(&rows);
      references_.push_back(std::move(rows));
    }
    data_rows_ = 0;
    HIVE_ASSIGN_OR_RETURN(user_bytes_, CountUserBytes(ref, &data_rows_));
    return Status::OK();
  }

  Stmt Next(int /*client*/) override {
    if (pos_ == order_.size()) {
      order_.resize(queries_.size());
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      for (size_t i = order_.size(); i > 1; --i)
        std::swap(order_[i - 1], order_[rng_.Uniform(static_cast<int64_t>(i))]);
      pos_ = 0;
    }
    const size_t q = order_[pos_++];
    Stmt stmt;
    stmt.sql = queries_[q].sql;
    stmt.replay_sql = stmt.sql;
    stmt.read = true;
    const Rows* expected = &references_[q];
    stmt.check = [expected](const QueryResult& r) { return RowsMatch(*expected, r.rows); };
    return stmt;
  }

  bool AtBoundary(int /*client*/) const override { return pos_ == order_.size(); }
  /// A run has a few hundred reads of 15-20 query shapes: the tail is taken
  /// over the whole run, so it stays among the slowest shapes.
  size_t TailChunk() const override { return 0; }
  uint64_t LiveUserBytes() const override { return user_bytes_; }

  std::vector<std::string> LayerQueries() const override {
    std::vector<std::string> sql;
    for (const hive::BenchQuery& q : queries_) sql.push_back(q.sql);
    return sql;
  }

  void Describe(Metadata* meta) const override {
    (*meta)["queries"] = std::to_string(queries_.size());
    (*meta)["data_rows"] = std::to_string(data_rows_);
    (*meta)["data_user_bytes"] = std::to_string(user_bytes_);
    (*meta)["llap_cache_capacity_bytes"] =
        std::to_string(ServerConfig().llap_cache_capacity_bytes);
  }

  void PlantWrongExpectation() override {
    for (Rows& rows : references_) {
      if (rows.empty()) {
        rows.push_back({hive::Value::String("wrong")});
      } else {
        rows[0].back() = hive::Value::String("wrong");
      }
    }
  }

 protected:
  virtual Result<uint64_t> CountUserBytes(Connection& ref, int64_t* rows) = 0;

  Rng rng_;
  std::vector<hive::BenchQuery> queries_;
  std::vector<Rows> references_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
  uint64_t user_bytes_ = 0;
  int64_t data_rows_ = 0;
};

class TpcdsWarm : public SuiteWorkload {
 public:
  explicit TpcdsWarm(uint64_t seed) : SuiteWorkload(seed, hive::TpcdsQueries()) {}

  Status Load(HiveServer2* server) override {
    Connection conn = server->Connect("etl");
    hive::TpcdsOptions options;
    options.scale = kTpcdsScale;
    return hive::LoadTpcds(conn, options);
  }
  std::string MainTable() const override { return "store_sales"; }
  void Describe(Metadata* meta) const override {
    SuiteWorkload::Describe(meta);
    (*meta)["tpcds_scale"] = std::to_string(kTpcdsScale);
  }

 protected:
  Result<uint64_t> CountUserBytes(Connection& ref, int64_t* rows) override {
    return TablesUserBytes(ref, kTpcdsTables, rows);
  }
};

std::vector<hive::BenchQuery> SsbOverMemoryQueries() {
  std::vector<hive::BenchQuery> queries = hive::SsbQueries();
  // Aggregation state and sort input both exceed the per-query limit.
  queries.push_back({"groupby_custkey_partkey",
                     "SELECT lo_custkey, lo_partkey, COUNT(*) AS n, "
                     "SUM(lo_revenue) AS revenue FROM lineorder "
                     "GROUP BY lo_custkey, lo_partkey"});
  queries.push_back({"orderby_revenue",
                     "SELECT lo_orderkey, lo_custkey, lo_revenue FROM lineorder "
                     "ORDER BY lo_revenue DESC, lo_orderkey"});
  return queries;
}

class SsbOverMemory : public SuiteWorkload {
 public:
  explicit SsbOverMemory(uint64_t seed) : SuiteWorkload(seed, SsbOverMemoryQueries()) {}

  Config ServerConfig() const override {
    Config config;
    config.llap_cache_capacity_bytes = kSsbLlapCapacityBytes;
    config.query_memory_limit_bytes = kSsbQueryMemoryBytes;
    return config;
  }
  Status Load(HiveServer2* server) override {
    Connection conn = server->Connect("etl");
    hive::SsbOptions options;
    options.scale = kSsbScale;
    return hive::LoadSsb(conn, options);
  }
  std::string MainTable() const override { return "lineorder"; }
  void Describe(Metadata* meta) const override {
    SuiteWorkload::Describe(meta);
    (*meta)["ssb_scale"] = std::to_string(kSsbScale);
    (*meta)["query_memory_limit_bytes"] = std::to_string(kSsbQueryMemoryBytes);
  }

 protected:
  Result<uint64_t> CountUserBytes(Connection& ref, int64_t* rows) override {
    return TablesUserBytes(ref, kSsbTables, rows);
  }
};

// --- bi_sessions ------------------------------------------------------------

const char* const kBiDashboards[] = {
    "SELECT s_state, COUNT(*) AS sales, SUM(ss_sales_price) AS revenue "
    "FROM store_sales, store WHERE ss_store_sk = s_store_sk GROUP BY s_state",
    "SELECT i_category, SUM(ss_quantity) AS qty FROM store_sales, item "
    "WHERE ss_item_sk = i_item_sk GROUP BY i_category",
    "SELECT d_moy, SUM(ss_sales_price) AS revenue FROM store_sales, date_dim "
    "WHERE ss_sold_date_sk = d_date_sk GROUP BY d_moy",
    "SELECT c_birth_country, COUNT(*) AS n FROM customer GROUP BY c_birth_country",
};
constexpr char kBiLookupColumns[] = "c_customer_sk, c_name, c_birth_country";

std::string Cents(int64_t cents) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%02lld", static_cast<long long>(cents / 100),
                static_cast<long long>(cents % 100));
  return buf;
}

/// Four JDBC-style clients (3 in pool `bi`, 1 in `etl`), each waiting for
/// its reply before sending the next statement: half point lookups through
/// a prepared statement, 3/10 short ad-hoc filters with seeded literals,
/// 1/5 repeated dashboard aggregates.
class BiSessions : public Workload {
 public:
  explicit BiSessions(uint64_t seed) : lookups_(kBiClients, 0) {
    for (int c = 0; c < kBiClients; ++c) rngs_.emplace_back(seed * 1000003 + c);
    Rng rng(seed);
    // Odd and not a multiple of 5: coprime with kBiCustomers = 2^5 * 5^5.
    do {
      key_step_ = 1 + 2 * rng.Uniform(kBiCustomers / 2);
    } while (key_step_ % 5 == 0);
    key_base_ = rng.Uniform(kBiCustomers);
  }

  Config ServerConfig() const override {
    Config config;
    config.wlm_queue_timeout_ms = kBiQueueTimeoutMs;
    return config;
  }
  std::vector<std::string> ClientApps() const override {
    return {"bi", "bi", "bi", "etl"};
  }

  Status Load(HiveServer2* server) override {
    Connection conn = server->Connect("etl");
    hive::TpcdsOptions options;
    options.scale = kBiTpcdsScale;
    options.customers = kBiCustomers;
    HIVE_RETURN_IF_ERROR(hive::LoadTpcds(conn, options));
    const std::string bi = std::to_string(kBiPoolParallelism);
    return conn
        .ExecuteScript(
            "CREATE RESOURCE PLAN dash;"
            "CREATE POOL dash.bi WITH alloc_fraction=0.7, query_parallelism=" + bi + ";"
            "CREATE POOL dash.etl WITH alloc_fraction=0.3, query_parallelism=1;"
            "CREATE APPLICATION MAPPING bi IN dash TO bi;"
            "CREATE APPLICATION MAPPING etl IN dash TO etl;"
            "ALTER PLAN dash SET DEFAULT POOL = bi;"
            "ALTER RESOURCE PLAN dash ENABLE ACTIVATE;")
        .status();
  }

  Status PrepareClient(Connection* conn) override {
    return Exec(*conn, std::string("PREPARE cust_lookup AS SELECT ") + kBiLookupColumns +
                           " FROM customer WHERE c_customer_sk = ?");
  }

  Status Warm(std::vector<Connection>* clients) override {
    for (const char* sql : kBiDashboards) HIVE_RETURN_IF_ERROR(Exec((*clients)[0], sql));
    for (Connection& conn : *clients)
      HIVE_RETURN_IF_ERROR(Exec(conn, "EXECUTE cust_lookup (0)"));
    return Status::OK();
  }

  Status CaptureReferences(HiveServer2* server) override {
    Connection ref = ReferenceConnection(server);
    HIVE_ASSIGN_OR_RETURN(customers_,
                          Query(ref, std::string("SELECT ") + kBiLookupColumns +
                                         " FROM customer ORDER BY c_customer_sk"));
    HIVE_ASSIGN_OR_RETURN(items_, Query(ref, "SELECT i_item_sk, i_brand, i_current_price, "
                                             "i_category FROM item"));
    std::set<std::string> categories;
    for (const Row& item : items_) categories.insert(item[3].str());
    categories_.assign(categories.begin(), categories.end());
    dashboards_.clear();
    for (const char* sql : kBiDashboards) {
      HIVE_ASSIGN_OR_RETURN(Rows rows, Query(ref, sql));
      SortRows(&rows);
      dashboards_.push_back(std::move(rows));
    }
    data_rows_ = 0;
    HIVE_ASSIGN_OR_RETURN(user_bytes_, TablesUserBytes(ref, kTpcdsTables, &data_rows_));
    return Status::OK();
  }

  Stmt Next(int client) override {
    Rng& rng = rngs_[client];
    const double u = rng.Unit();
    Stmt stmt;
    stmt.read = true;
    if (u < 0.5) {
      // Customer keys are dense 0..n-1, so customers_[key] is the expected row.
      const int64_t position = client * (kBiCustomers / kBiClients) + lookups_[client]++;
      const size_t key = static_cast<size_t>((key_base_ + position * key_step_) % kBiCustomers);
      stmt.sql = "EXECUTE cust_lookup (" + std::to_string(key) + ")";
      stmt.replay_sql = std::string("SELECT ") + kBiLookupColumns +
                        " FROM customer WHERE c_customer_sk = " + std::to_string(key);
      const Row* expected = &customers_[key];
      stmt.check = [expected](const QueryResult& r) {
        return RowsMatch({*expected}, r.rows);
      };
    } else if (u < 0.8) {
      // Price bounds in cents: nearly every filter is new text. Written as
      // >= / <= rather than BETWEEN: the engine's BETWEEN on DECIMAL drops
      // rows equal to a bound (see README.md, "Engine defects found").
      const int64_t lo = rng.Uniform(9000), hi = lo + 200 + rng.Uniform(800);
      const std::string& category =
          categories_[static_cast<size_t>(rng.Uniform(static_cast<int64_t>(categories_.size())))];
      stmt.sql = "SELECT i_item_sk, i_brand, i_current_price FROM item "
                 "WHERE i_current_price >= " + Cents(lo) + " AND i_current_price <= " +
                 Cents(hi) + " AND i_category = '" + category + "'";
      stmt.replay_sql = stmt.sql;
      const Rows* items = &items_;
      const hive::Value low = hive::Value::Decimal(lo, 2), high = hive::Value::Decimal(hi, 2);
      stmt.check = [items, low, high, category](const QueryResult& r) {
        Rows expected;
        for (const Row& item : *items) {
          if (item[3].str() != category) continue;
          if (hive::Value::Compare(item[2], low) < 0 || hive::Value::Compare(item[2], high) > 0)
            continue;
          expected.push_back({item[0], item[1], item[2]});
        }
        return RowsMatch(expected, r.rows);
      };
    } else {
      const size_t d = static_cast<size_t>(rng.Uniform(std::size(kBiDashboards)));
      stmt.sql = kBiDashboards[d];
      stmt.replay_sql = stmt.sql;
      const Rows* expected = &dashboards_[d];
      stmt.check = [expected](const QueryResult& r) { return RowsMatch(*expected, r.rows); };
    }
    return stmt;
  }

  uint64_t LiveUserBytes() const override { return user_bytes_; }
  std::vector<std::string> LayerQueries() const override {
    std::vector<std::string> sql(std::begin(kBiDashboards), std::end(kBiDashboards));
    sql.push_back(std::string("SELECT ") + kBiLookupColumns +
                  " FROM customer WHERE c_customer_sk = 7");
    sql.push_back("SELECT i_item_sk, i_brand, i_current_price FROM item "
                  "WHERE i_current_price >= 10.00 AND i_current_price <= 30.00 "
                  "AND i_category = 'Sports'");
    return sql;
  }
  std::string MainTable() const override { return "store_sales"; }
  void Describe(Metadata* meta) const override {
    (*meta)["tpcds_scale"] = std::to_string(kBiTpcdsScale);
    (*meta)["customers"] = std::to_string(kBiCustomers);
    (*meta)["clients"] = "4 (bi=3, etl=1)";
    (*meta)["pool_bi_query_parallelism"] = std::to_string(kBiPoolParallelism);
    (*meta)["pool_etl_query_parallelism"] = "1";
    (*meta)["wlm_queue_timeout_ms"] = std::to_string(kBiQueueTimeoutMs);
    (*meta)["mix"] = "0.5 EXECUTE lookup (no key repeats), 0.3 ad-hoc filter, 0.2 dashboard";
    (*meta)["data_rows"] = std::to_string(data_rows_);
    (*meta)["data_user_bytes"] = std::to_string(user_bytes_);
  }

  void PlantWrongExpectation() override {
    for (Row& customer : customers_) customer[1] = hive::Value::String("wrong");
    for (Row& item : items_) item[1] = hive::Value::String("wrong");
    for (Rows& rows : dashboards_) rows[0].back() = hive::Value::String("wrong");
  }

 private:
  std::vector<Rng> rngs_;
  std::vector<int64_t> lookups_;  // per client
  int64_t key_step_ = 1;
  int64_t key_base_ = 0;
  Rows customers_, items_;
  std::vector<std::string> categories_;
  std::vector<Rows> dashboards_;
  uint64_t user_bytes_ = 0;
  int64_t data_rows_ = 0;
};

// --- acid_etl ---------------------------------------------------------------

/// One client streaming multi-row INSERTs, UPDATEs, DELETEs and MERGEs into
/// a transactional table, with an aggregate read after every few writes.
/// Every acknowledged write is applied to an in-memory model, which every
/// read and the final table are compared against.
class AcidEtl : public Workload {
 public:
  explicit AcidEtl(uint64_t seed) : rng_(seed) {
    Rng feed_rng(seed ^ 0xfeedULL);
    for (int f = 0; f < kAcidFeeds; ++f) {
      std::vector<AcidModel::FeedRow> feed;
      std::set<int64_t> ids;
      while (static_cast<int>(ids.size()) < kAcidFeedRows) ids.insert(feed_rng.Uniform(kAcidIdDomain));
      for (int64_t id : ids)
        feed.push_back({id, feed_rng.Uniform(kAcidGroups), 1 + feed_rng.Uniform(100)});
      feeds_.push_back(std::move(feed));
    }
  }

  Status Load(HiveServer2* server) override {
    Connection conn = server->Connect("etl");
    HIVE_RETURN_IF_ERROR(Exec(conn, "CREATE TABLE acct (id INT, grp INT, amount BIGINT)"));
    for (int f = 0; f < kAcidFeeds; ++f) {
      const std::string table = "feed" + std::to_string(f);
      HIVE_RETURN_IF_ERROR(
          Exec(conn, "CREATE TABLE " + table + " (id INT, grp INT, delta BIGINT)"));
      std::string values;
      for (const AcidModel::FeedRow& row : feeds_[f])
        values += (values.empty() ? "(" : ", (") + std::to_string(row.id) + ", " +
                  std::to_string(row.grp) + ", " + std::to_string(row.delta) + ")";
      HIVE_RETURN_IF_ERROR(Exec(conn, "INSERT INTO " + table + " VALUES " + values));
    }
    Rng init(rng_.Uniform(INT64_MAX));
    std::string values;
    int pending = 0;
    while (static_cast<int>(model_.size()) < kAcidInitialRows) {
      const int64_t id = init.Uniform(kAcidIdDomain);
      if (model_.Contains(id)) continue;
      const int64_t grp = init.Uniform(kAcidGroups), amount = 1 + init.Uniform(1000);
      model_.Insert(id, grp, amount);
      values += (values.empty() ? "(" : ", (") + std::to_string(id) + ", " +
                std::to_string(grp) + ", " + std::to_string(amount) + ")";
      if (++pending == 250 || static_cast<int>(model_.size()) == kAcidInitialRows) {
        HIVE_RETURN_IF_ERROR(Exec(conn, "INSERT INTO acct VALUES " + values));
        values.clear();
        pending = 0;
      }
    }
    return Status::OK();
  }

  Status Warm(std::vector<Connection>* clients) override {
    for (int i = 0; i < kAcidWarmStatements; ++i) {
      Stmt stmt = Next(0);
      HIVE_ASSIGN_OR_RETURN(QueryResult result, (*clients)[0].Execute(stmt.sql));
      if (stmt.on_ok) stmt.on_ok();
      if (stmt.check && !stmt.check(result))
        return Status::Internal("acid_etl warm-up read disagrees with the model: " +
                                stmt.sql);
    }
    user_bytes_written_ = 0;
    return Status::OK();
  }

  Status CaptureReferences(HiveServer2* /*server*/) override {
    return Status::OK();  // the model is the reference
  }

  Stmt Next(int /*client*/) override {
    Stmt stmt;
    if (++statements_ % (kAcidWritesPerRead + 1) == 0) {
      stmt.sql = kSummarySql;
      stmt.replay_sql = stmt.sql;
      stmt.read = true;
      stmt.check = [this](const QueryResult& r) {
        return RowsMatch(model_.GroupSummary(), r.rows);
      };
      return stmt;
    }
    const double u = rng_.Unit();
    int64_t expected = 0;
    if (u < 0.35) {
      std::vector<std::array<int64_t, 3>> rows;
      std::set<int64_t> ids;
      while (ids.size() < 5) {
        const int64_t id = rng_.Uniform(kAcidIdDomain);
        if (!model_.Contains(id)) ids.insert(id);
      }
      std::string values;
      for (int64_t id : ids) {
        rows.push_back({id, rng_.Uniform(kAcidGroups), 1 + rng_.Uniform(1000)});
        values += (values.empty() ? "(" : ", (") + std::to_string(rows.back()[0]) + ", " +
                  std::to_string(rows.back()[1]) + ", " + std::to_string(rows.back()[2]) + ")";
      }
      stmt.sql = "INSERT INTO acct VALUES " + values;
      expected = static_cast<int64_t>(rows.size());
      stmt.on_ok = [this, rows] {
        for (const auto& row : rows) model_.Insert(row[0], row[1], row[2]);
        user_bytes_written_ += rows.size() * 24;
      };
    } else if (u < 0.6) {
      const int64_t delta = rng_.Uniform(2) ? 1 + rng_.Uniform(50) : -1 - rng_.Uniform(50);
      const std::string update = "UPDATE acct SET amount = amount + " + std::to_string(delta);
      if (rng_.Uniform(2)) {
        const int64_t grp = rng_.Uniform(kAcidGroups);
        stmt.sql = update + " WHERE grp = " + std::to_string(grp);
        expected = model_.CountGroup(grp);
        stmt.on_ok = [this, grp, delta, expected] {
          model_.AddToGroup(grp, delta);
          user_bytes_written_ += expected * 24;
        };
      } else {
        const int64_t lo = rng_.Uniform(kAcidIdDomain), hi = lo + 19;
        stmt.sql = update + " WHERE id BETWEEN " + std::to_string(lo) + " AND " +
                   std::to_string(hi);
        expected = model_.CountRange(lo, hi);
        stmt.on_ok = [this, lo, hi, delta, expected] {
          model_.AddToRange(lo, hi, delta);
          user_bytes_written_ += expected * 24;
        };
      }
    } else if (u < 0.85) {
      const int64_t lo = rng_.Uniform(kAcidIdDomain), hi = lo + 11;
      stmt.sql = "DELETE FROM acct WHERE id BETWEEN " + std::to_string(lo) + " AND " +
                 std::to_string(hi);
      expected = model_.CountRange(lo, hi);
      stmt.on_ok = [this, lo, hi] { model_.DeleteRange(lo, hi); };
    } else {
      const size_t f = static_cast<size_t>(rng_.Uniform(kAcidFeeds));
      stmt.sql = "MERGE INTO acct a USING feed" + std::to_string(f) +
                 " f ON a.id = f.id WHEN MATCHED THEN UPDATE SET amount = a.amount + "
                 "f.delta WHEN NOT MATCHED THEN INSERT VALUES (f.id, f.grp, f.delta)";
      expected = static_cast<int64_t>(feeds_[f].size());
      stmt.on_ok = [this, f] {
        model_.Merge(feeds_[f]);
        user_bytes_written_ += feeds_[f].size() * 24;
      };
    }
    stmt.check = [expected](const QueryResult& r) { return r.rows_affected == expected; };
    return stmt;
  }

  int64_t RoundStatements() const override { return kAcidRoundStatements; }

  bool FinalCheck(Connection* conn) override {
    Result<Rows> rows = Query(*conn, "SELECT id, grp, amount FROM acct");
    return rows.ok() && RowsMatch(model_.AllRows(), *rows);
  }

  uint64_t LiveUserBytes() const override { return model_.LiveBytes(); }
  uint64_t UserBytesWritten() const override { return user_bytes_written_; }
  std::vector<std::string> LayerQueries() const override { return {kSummarySql}; }
  std::string MainTable() const override { return "acct"; }
  void Describe(Metadata* meta) const override {
    (*meta)["acid_id_domain"] = std::to_string(kAcidIdDomain);
    (*meta)["acid_initial_rows"] = std::to_string(kAcidInitialRows);
    (*meta)["acid_live_rows"] = std::to_string(model_.size());
    (*meta)["acid_writes_per_read"] = std::to_string(kAcidWritesPerRead);
    (*meta)["mix"] =
        "writes: 0.35 INSERT x5, 0.25 UPDATE, 0.25 DELETE range, 0.15 MERGE";
    (*meta)["compaction_delta_threshold"] =
        std::to_string(Config().compaction_delta_threshold);
  }

  void PlantWrongExpectation() override {
    for (auto& [id, account] : *model_.mutable_accounts()) account.amount += 1;
  }

 private:
  static constexpr char kSummarySql[] =
      "SELECT grp, COUNT(*) AS n, SUM(amount) AS total FROM acct GROUP BY grp";

  Rng rng_;
  AcidModel model_;
  std::vector<std::vector<AcidModel::FeedRow>> feeds_;
  int64_t statements_ = 0;
  uint64_t user_bytes_written_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"tpcds_warm", "ssb_over_memory",
                                                 "bi_sessions", "acid_etl"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "tpcds_warm") return std::make_unique<TpcdsWarm>(seed);
  if (name == "ssb_over_memory") return std::make_unique<SsbOverMemory>(seed);
  if (name == "bi_sessions") return std::make_unique<BiSessions>(seed);
  if (name == "acid_etl") return std::make_unique<AcidEtl>(seed);
  return nullptr;
}

}  // namespace perfbench
