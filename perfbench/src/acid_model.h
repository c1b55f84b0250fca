#ifndef PERFBENCH_ACID_MODEL_H_
#define PERFBENCH_ACID_MODEL_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/rows.h"

namespace perfbench {

/// In-memory reference model of the acid_etl table
/// `acct (id INT, grp INT, amount BIGINT)`, keyed on id. Every write the
/// engine acknowledges is applied here too, so each read and the final
/// table can be checked against it. It shares no code with the engine.
class AcidModel {
 public:
  struct Account {
    int64_t grp = 0;
    int64_t amount = 0;
  };
  /// One source row of a MERGE (`feed` tables: id, grp, delta).
  struct FeedRow {
    int64_t id = 0;
    int64_t grp = 0;
    int64_t delta = 0;
  };

  /// INSERT: ids must be absent (the generator only inserts absent ids).
  void Insert(int64_t id, int64_t grp, int64_t amount);
  /// UPDATE acct SET amount = amount + delta WHERE grp = g.
  int64_t AddToGroup(int64_t grp, int64_t delta);
  /// UPDATE acct SET amount = amount + delta WHERE id BETWEEN lo AND hi.
  int64_t AddToRange(int64_t lo, int64_t hi, int64_t delta);
  /// DELETE FROM acct WHERE id BETWEEN lo AND hi.
  int64_t DeleteRange(int64_t lo, int64_t hi);
  /// MERGE INTO acct USING feed ON id: matched rows add delta, unmatched
  /// feed rows insert (id, grp, delta). Returns the rows affected.
  int64_t Merge(const std::vector<FeedRow>& feed);

  bool Contains(int64_t id) const { return accounts_.count(id) != 0; }
  /// Rows with this grp / with id in [lo, hi]: what an UPDATE or DELETE
  /// with that predicate must report as affected.
  int64_t CountGroup(int64_t grp) const;
  int64_t CountRange(int64_t lo, int64_t hi) const;
  size_t size() const { return accounts_.size(); }
  const std::map<int64_t, Account>& accounts() const { return accounts_; }
  /// Mutable access, so tests can plant a wrong expectation.
  std::map<int64_t, Account>* mutable_accounts() { return &accounts_; }

  /// Expected result of
  /// `SELECT grp, COUNT(*), SUM(amount) FROM acct GROUP BY grp`.
  Rows GroupSummary() const;
  /// Expected result of `SELECT id, grp, amount FROM acct`.
  Rows AllRows() const;
  /// User bytes of the live rows (see UserBytes): three 8-byte values each.
  uint64_t LiveBytes() const { return accounts_.size() * 3 * 8; }

 private:
  std::map<int64_t, Account> accounts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ACID_MODEL_H_
