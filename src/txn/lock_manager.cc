#include "txn/lock_manager.h"

#include <algorithm>

namespace gisql {

const char* LockModeName(LockMode m) {
  switch (m) {
    case LockMode::kIntentShared:
      return "IS";
    case LockMode::kIntentExclusive:
      return "IX";
    case LockMode::kShared:
      return "S";
    case LockMode::kExclusive:
      return "X";
  }
  return "?";
}

bool LockModesCompatible(LockMode held, LockMode requested) {
  // Classic matrix:          IS    IX    S     X
  //                    IS    yes   yes   yes   no
  //                    IX    yes   yes   no    no
  //                    S     yes   no    yes   no
  //                    X     no    no    no    no
  if (held == LockMode::kExclusive || requested == LockMode::kExclusive) {
    return false;
  }
  if (held == LockMode::kIntentShared || requested == LockMode::kIntentShared) {
    return true;
  }
  // Remaining pairs are over {IX, S}: IX/IX and S/S coexist, IX/S not.
  return held == requested;
}

LockAcquisition LockManager::LockTable(uint64_t txn_id,
                                       const std::string& table,
                                       LockMode mode) {
  return Acquire(txn_id, "t:" + table, mode);
}

LockAcquisition LockManager::LockRow(uint64_t txn_id, const std::string& table,
                                     uint64_t key_hash, LockMode mode) {
  return Acquire(txn_id, "r:" + table + "#" + std::to_string(key_hash), mode);
}

LockAcquisition LockManager::Acquire(uint64_t txn_id,
                                     const std::string& resource,
                                     LockMode mode) {
  auto& holders = locks_[resource];
  LockAcquisition out;
  for (const auto& [holder, held_mode] : holders) {
    if (holder == txn_id) continue;  // own lock never conflicts
    if (!LockModesCompatible(held_mode, mode)) out.holders.push_back(holder);
  }
  if (!out.holders.empty()) {
    // Not granted; leave the table untouched (the entry may have been
    // created empty above — harmless, and erased on next ReleaseAll
    // sweep of the resource).
    if (holders.empty()) locks_.erase(resource);
    std::sort(out.holders.begin(), out.holders.end());
    out.holders.erase(std::unique(out.holders.begin(), out.holders.end()),
                      out.holders.end());
    return out;
  }
  auto it = holders.find(txn_id);
  if (it == holders.end()) {
    holders.emplace(txn_id, mode);
    held_[txn_id].push_back(resource);
  } else if (static_cast<int>(mode) > static_cast<int>(it->second)) {
    it->second = mode;  // in-place upgrade (re-acquire is idempotent)
  }
  out.granted = true;
  return out;
}

void LockManager::ReleaseAll(uint64_t txn_id) {
  auto it = held_.find(txn_id);
  if (it == held_.end()) return;
  for (const std::string& resource : it->second) {
    auto lock_it = locks_.find(resource);
    if (lock_it == locks_.end()) continue;
    lock_it->second.erase(txn_id);
    if (lock_it->second.empty()) locks_.erase(lock_it);
  }
  held_.erase(it);
}

size_t LockManager::HeldBy(uint64_t txn_id) const {
  auto it = held_.find(txn_id);
  return it == held_.end() ? 0 : it->second.size();
}

std::vector<std::string> LockManager::HeldResources(uint64_t txn_id) const {
  auto it = held_.find(txn_id);
  return it == held_.end() ? std::vector<std::string>{} : it->second;
}

}  // namespace gisql
