#include "server/prepared_statement.h"

namespace hive {

bool PlanCache::Lookup(const std::string& key, uint64_t catalog_version,
                       Entry* out) {
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (it->second->second.catalog_version != catalog_version) {
    // Planned against an older catalog: DDL or an ANALYZE ran since. The
    // entry can never become valid again, so drop it now.
    lru_.erase(it->second);
    index_.erase(it);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->second;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void PlanCache::Insert(const std::string& key, Entry entry) {
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(entry));
  index_[key] = lru_.begin();
  EvictLocked();
}

void PlanCache::Clear() {
  MutexLock lock(&mu_);
  lru_.clear();
  index_.clear();
}

void PlanCache::EvictLocked() {
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

size_t PlanCache::size() const {
  MutexLock lock(&mu_);
  return lru_.size();
}

std::string PlanCache::ConfigFingerprint(const Config& config) {
  std::string fp;
  fp += config.cbo_enabled ? '1' : '0';
  fp += config.shared_work_enabled ? '1' : '0';
  fp += config.semijoin_reduction_enabled ? '1' : '0';
  fp += config.dynamic_partition_pruning_enabled ? '1' : '0';
  fp += config.materialized_view_rewriting_enabled ? '1' : '0';
  fp += config.legacy_sql_only ? '1' : '0';
  fp += config.perfect_hash_join_enabled ? '1' : '0';
  fp += ':';
  fp += std::to_string(config.join_reorder_max_relations);
  return fp;
}

}  // namespace hive
