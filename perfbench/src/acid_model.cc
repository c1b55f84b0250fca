#include "src/acid_model.h"

namespace perfbench {

using hive::Value;

void AcidModel::Insert(int64_t id, int64_t grp, int64_t amount) {
  accounts_[id] = Account{grp, amount};
}

int64_t AcidModel::AddToGroup(int64_t grp, int64_t delta) {
  int64_t affected = 0;
  for (auto& [id, account] : accounts_) {
    if (account.grp != grp) continue;
    account.amount += delta;
    ++affected;
  }
  return affected;
}

int64_t AcidModel::AddToRange(int64_t lo, int64_t hi, int64_t delta) {
  int64_t affected = 0;
  for (auto it = accounts_.lower_bound(lo); it != accounts_.end() && it->first <= hi;
       ++it) {
    it->second.amount += delta;
    ++affected;
  }
  return affected;
}

int64_t AcidModel::CountGroup(int64_t grp) const {
  int64_t n = 0;
  for (const auto& [id, account] : accounts_) n += account.grp == grp;
  return n;
}

int64_t AcidModel::CountRange(int64_t lo, int64_t hi) const {
  int64_t n = 0;
  for (auto it = accounts_.lower_bound(lo); it != accounts_.end() && it->first <= hi; ++it)
    ++n;
  return n;
}

int64_t AcidModel::DeleteRange(int64_t lo, int64_t hi) {
  auto first = accounts_.lower_bound(lo);
  auto last = accounts_.upper_bound(hi);
  int64_t affected = 0;
  for (auto it = first; it != last; ++it) ++affected;
  accounts_.erase(first, last);
  return affected;
}

int64_t AcidModel::Merge(const std::vector<FeedRow>& feed) {
  for (const FeedRow& row : feed) {
    auto it = accounts_.find(row.id);
    if (it != accounts_.end()) {
      it->second.amount += row.delta;
    } else {
      accounts_[row.id] = Account{row.grp, row.delta};
    }
  }
  return static_cast<int64_t>(feed.size());
}

Rows AcidModel::GroupSummary() const {
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;  // grp -> (count, sum)
  for (const auto& [id, account] : accounts_) {
    auto& g = groups[account.grp];
    ++g.first;
    g.second += account.amount;
  }
  Rows rows;
  for (const auto& [grp, g] : groups)
    rows.push_back({Value::Bigint(grp), Value::Bigint(g.first), Value::Bigint(g.second)});
  return rows;
}

Rows AcidModel::AllRows() const {
  Rows rows;
  rows.reserve(accounts_.size());
  for (const auto& [id, account] : accounts_)
    rows.push_back({Value::Bigint(id), Value::Bigint(account.grp),
                    Value::Bigint(account.amount)});
  return rows;
}

}  // namespace perfbench
