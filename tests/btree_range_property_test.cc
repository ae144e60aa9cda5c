/// Property tests: BPlusTree::Range boundary semantics against a
/// sorted-vector oracle — every lo/hi inclusive×exclusive combination,
/// equal bounds, inverted bounds, and NULL (= unbounded) sides, over
/// randomized seeded key sets with duplicates — and random insert/erase
/// sequences against a std::multimap, with Validate() after every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "storage/btree.h"

namespace gisql {
namespace {

struct Entry {
  Value key;
  size_t rid;
};

/// The oracle: filter the (key, rid) set by the bounds, then order by
/// key with insertion order among duplicates — exactly the contract
/// Range documents.
std::vector<size_t> OracleRange(const std::vector<Entry>& entries,
                                const Value& lo, bool lo_inclusive,
                                const Value& hi, bool hi_inclusive) {
  std::vector<std::pair<const Entry*, size_t>> kept;
  for (size_t i = 0; i < entries.size(); ++i) {
    const Value& k = entries[i].key;
    if (!lo.is_null()) {
      const int c = k.Compare(lo);
      if (lo_inclusive ? c < 0 : c <= 0) continue;
    }
    if (!hi.is_null()) {
      const int c = k.Compare(hi);
      if (hi_inclusive ? c > 0 : c >= 0) continue;
    }
    kept.emplace_back(&entries[i], i);
  }
  std::stable_sort(kept.begin(), kept.end(),
                   [](const auto& a, const auto& b) {
                     return a.first->key.Compare(b.first->key) < 0;
                   });
  std::vector<size_t> rids;
  rids.reserve(kept.size());
  for (const auto& [entry, pos] : kept) rids.push_back(entry->rid);
  return rids;
}

void CheckAllBoundCombinations(const BPlusTree& tree,
                               const std::vector<Entry>& entries,
                               const Value& lo, const Value& hi) {
  for (const bool lo_inc : {true, false}) {
    for (const bool hi_inc : {true, false}) {
      const auto got = tree.Range(lo, lo_inc, hi, hi_inc);
      const auto want = OracleRange(entries, lo, lo_inc, hi, hi_inc);
      ASSERT_EQ(got, want)
          << "lo=" << lo.ToString() << (lo_inc ? " incl" : " excl")
          << " hi=" << hi.ToString() << (hi_inc ? " incl" : " excl");
    }
  }
}

TEST(BTreeRangeProperty, RandomIntKeysAllBoundKinds) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    BPlusTree tree(8);  // small fanout: plenty of splits at this size
    std::vector<Entry> entries;
    const int n = 400;
    for (int i = 0; i < n; ++i) {
      // A narrow domain forces duplicate keys.
      const Value key = Value::Int(rng.Uniform(-40, 40));
      ASSERT_TRUE(tree.Insert(key, static_cast<size_t>(i)).ok());
      entries.push_back({key, static_cast<size_t>(i)});
    }
    ASSERT_TRUE(tree.Validate().ok()) << "seed " << seed;

    for (int probe = 0; probe < 50; ++probe) {
      const int64_t a = rng.Uniform(-45, 45);
      const int64_t b = rng.Uniform(-45, 45);
      // Both orientations: sorted bounds and inverted (empty) bounds.
      CheckAllBoundCombinations(tree, entries, Value::Int(a), Value::Int(b));
      // Equal bounds: [v, v] is the duplicates of v; half-open forms
      // of the same point are empty.
      CheckAllBoundCombinations(tree, entries, Value::Int(a), Value::Int(a));
      // NULL = unbounded on either or both sides.
      CheckAllBoundCombinations(tree, entries, Value::Null(), Value::Int(b));
      CheckAllBoundCombinations(tree, entries, Value::Int(a), Value::Null());
    }
    CheckAllBoundCombinations(tree, entries, Value::Null(), Value::Null());
  }
}

TEST(BTreeRangeProperty, RandomStringKeys) {
  Rng rng(99);
  BPlusTree tree(8);
  std::vector<Entry> entries;
  for (int i = 0; i < 300; ++i) {
    const Value key = Value::String(rng.NextString(2));  // duplicates likely
    ASSERT_TRUE(tree.Insert(key, static_cast<size_t>(i)).ok());
    entries.push_back({key, static_cast<size_t>(i)});
  }
  ASSERT_TRUE(tree.Validate().ok());
  for (int probe = 0; probe < 30; ++probe) {
    const Value a = Value::String(rng.NextString(2));
    const Value b = Value::String(rng.NextString(2));
    CheckAllBoundCombinations(tree, entries, a, b);
    CheckAllBoundCombinations(tree, entries, a, a);
    CheckAllBoundCombinations(tree, entries, Value::Null(), b);
    CheckAllBoundCombinations(tree, entries, a, Value::Null());
  }
}

TEST(BTreeRangeProperty, BoundsOutsideDomain) {
  BPlusTree tree(4);
  std::vector<Entry> entries;
  for (int i = 0; i < 20; ++i) {
    const Value key = Value::Int(i * 2);  // evens 0..38
    ASSERT_TRUE(tree.Insert(key, static_cast<size_t>(i)).ok());
    entries.push_back({key, static_cast<size_t>(i)});
  }
  // Bounds below, above, and between stored keys (never equal to one).
  for (const int64_t lo : {-5, 1, 37, 100}) {
    for (const int64_t hi : {-3, 5, 39, 200}) {
      CheckAllBoundCombinations(tree, entries, Value::Int(lo),
                                Value::Int(hi));
    }
  }
}

/// The multimap's contents in its own order: by key, insertion order
/// among duplicates — the order Range promises.
std::vector<size_t> MultimapRids(const std::multimap<int64_t, size_t>& m) {
  std::vector<size_t> rids;
  rids.reserve(m.size());
  for (const auto& [key, rid] : m) rids.push_back(rid);
  return rids;
}

TEST(BTreeRangeProperty, RandomInsertEraseAgainstMultimap) {
  for (const int fanout : {4, 5, 8, 16}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed * 31 + static_cast<uint64_t>(fanout));
      BPlusTree tree(fanout);
      std::multimap<int64_t, size_t> oracle;
      size_t next_rid = 0;
      // Grow, then shrink to empty, so both splits and merges run at
      // every height the tree reaches.
      for (int step = 0; step < 2400; ++step) {
        const bool grow = step < 1400 ? rng.Uniform(0, 9) < 6
                                      : rng.Uniform(0, 9) < 2;
        if (grow || oracle.empty()) {
          const int64_t key = rng.Uniform(0, 60);  // many duplicates
          ASSERT_TRUE(tree.Insert(Value::Int(key), next_rid).ok());
          oracle.emplace(key, next_rid++);
        } else {
          auto it = oracle.begin();
          std::advance(it, rng.Uniform(0, static_cast<int64_t>(
                                              oracle.size()) - 1));
          ASSERT_TRUE(tree.Erase(Value::Int(it->first), it->second).ok())
              << "fanout " << fanout << " seed " << seed << " step " << step;
          oracle.erase(it);
        }
        const Status valid = tree.Validate();
        ASSERT_TRUE(valid.ok()) << "fanout " << fanout << " seed " << seed
                                << " step " << step << ": "
                                << valid.ToString();
        ASSERT_EQ(tree.size(), oracle.size());
        if (step % 16 == 0) {
          ASSERT_EQ(tree.Range(Value::Null(), true, Value::Null(), true),
                    MultimapRids(oracle));
        }
      }
      while (!oracle.empty()) {
        auto it = oracle.begin();
        ASSERT_TRUE(tree.Erase(Value::Int(it->first), it->second).ok());
        oracle.erase(it);
        ASSERT_TRUE(tree.Validate().ok());
      }
      EXPECT_EQ(tree.size(), 0u);
      EXPECT_EQ(tree.height(), 0);
    }
  }
}

TEST(BTreeRangeProperty, EraseOfAbsentEntryIsNotFound) {
  BPlusTree tree(4);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(tree.Insert(Value::Int(i % 5), static_cast<size_t>(i)).ok());
  }
  // Right key, wrong rid; absent key; NULL key: all leave the tree alone.
  EXPECT_TRUE(tree.Erase(Value::Int(2), 3).IsNotFound());
  EXPECT_TRUE(tree.Erase(Value::Int(9), 0).IsNotFound());
  EXPECT_TRUE(tree.Erase(Value::Null(), 0).IsNotFound());
  EXPECT_EQ(tree.size(), 40u);
  ASSERT_TRUE(tree.Erase(Value::Int(2), 37).ok());
  EXPECT_TRUE(tree.Erase(Value::Int(2), 37).IsNotFound());
  EXPECT_EQ(tree.Lookup(Value::Int(2)),
            (std::vector<size_t>{2, 7, 12, 17, 22, 27, 32}));
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(BTreeRangeProperty, EmptyTree) {
  BPlusTree tree;
  EXPECT_TRUE(tree.Range(Value::Null(), true, Value::Null(), true).empty());
  EXPECT_TRUE(tree.Range(Value::Int(0), true, Value::Int(10), true).empty());
}

}  // namespace
}  // namespace gisql
