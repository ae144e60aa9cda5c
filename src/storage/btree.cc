#include "storage/btree.h"

#include <algorithm>
#include <iterator>

namespace gisql {

namespace {
bool ValueLess(const Value& a, const Value& b) { return a.Compare(b) < 0; }
}  // namespace

struct BPlusTree::Node {
  bool is_leaf;
  InternalNode* parent = nullptr;
  explicit Node(bool leaf) : is_leaf(leaf) {}
  virtual ~Node() = default;
};

struct BPlusTree::LeafNode : Node {
  std::vector<Value> keys;
  std::vector<size_t> rids;
  LeafNode* next = nullptr;
  LeafNode() : Node(true) {}
};

struct BPlusTree::InternalNode : Node {
  std::vector<Value> keys;        ///< separators
  std::vector<Node*> children;    ///< keys.size() + 1 entries
  InternalNode() : Node(false) {}
};

BPlusTree::BPlusTree(int fanout) : fanout_(fanout < 4 ? 4 : fanout) {}

BPlusTree::~BPlusTree() { Clear(); }

void BPlusTree::FreeTree(Node* node) {
  if (node == nullptr) return;
  if (!node->is_leaf) {
    auto* internal = static_cast<InternalNode*>(node);
    for (Node* c : internal->children) FreeTree(c);
  }
  delete node;
}

void BPlusTree::Clear() {
  FreeTree(root_);
  root_ = nullptr;
  size_ = 0;
  height_ = 0;
}

BPlusTree::LeafNode* BPlusTree::FindLeaf(const Value& key) const {
  Node* node = root_;
  while (node != nullptr && !node->is_leaf) {
    auto* internal = static_cast<InternalNode*>(node);
    // Keys equal to a separator route right (insertion goes after any
    // existing duplicates).
    const size_t idx =
        std::upper_bound(internal->keys.begin(), internal->keys.end(), key,
                         ValueLess) -
        internal->keys.begin();
    node = internal->children[idx];
  }
  return static_cast<LeafNode*>(node);
}

void BPlusTree::InsertIntoParent(Node* node, Value separator,
                                 Node* sibling) {
  InternalNode* parent = node->parent;
  if (parent == nullptr) {
    auto* new_root = new InternalNode();
    new_root->keys.push_back(std::move(separator));
    new_root->children = {node, sibling};
    node->parent = new_root;
    sibling->parent = new_root;
    root_ = new_root;
    ++height_;
    return;
  }
  const size_t pos =
      std::upper_bound(parent->keys.begin(), parent->keys.end(), separator,
                       ValueLess) -
      parent->keys.begin();
  parent->keys.insert(parent->keys.begin() + pos, std::move(separator));
  parent->children.insert(parent->children.begin() + pos + 1, sibling);
  sibling->parent = parent;

  if (static_cast<int>(parent->keys.size()) <= fanout_) return;

  // Split the internal node: the middle separator moves up.
  auto* right = new InternalNode();
  const size_t mid = parent->keys.size() / 2;
  Value up = parent->keys[mid];
  right->keys.assign(parent->keys.begin() + mid + 1, parent->keys.end());
  right->children.assign(parent->children.begin() + mid + 1,
                         parent->children.end());
  parent->keys.resize(mid);
  parent->children.resize(mid + 1);
  for (Node* c : right->children) c->parent = right;
  InsertIntoParent(parent, std::move(up), right);
}

Status BPlusTree::Insert(const Value& key, size_t row_id) {
  if (key.is_null()) {
    return Status::InvalidArgument("NULL keys are not indexable");
  }
  if (root_ == nullptr) {
    auto* leaf = new LeafNode();
    leaf->keys.push_back(key);
    leaf->rids.push_back(row_id);
    root_ = leaf;
    size_ = 1;
    height_ = 1;
    return Status::OK();
  }
  LeafNode* leaf = FindLeaf(key);
  const size_t pos =
      std::upper_bound(leaf->keys.begin(), leaf->keys.end(), key,
                       ValueLess) -
      leaf->keys.begin();
  leaf->keys.insert(leaf->keys.begin() + pos, key);
  leaf->rids.insert(leaf->rids.begin() + pos, row_id);
  ++size_;

  if (static_cast<int>(leaf->keys.size()) <= fanout_) return Status::OK();

  // Split the leaf; the right sibling's first key becomes the separator.
  auto* right = new LeafNode();
  const size_t mid = leaf->keys.size() / 2;
  right->keys.assign(leaf->keys.begin() + mid, leaf->keys.end());
  right->rids.assign(leaf->rids.begin() + mid, leaf->rids.end());
  leaf->keys.resize(mid);
  leaf->rids.resize(mid);
  right->next = leaf->next;
  leaf->next = right;
  InsertIntoParent(leaf, right->keys.front(), right);
  return Status::OK();
}

Status BPlusTree::Erase(const Value& key, size_t row_id) {
  if (root_ == nullptr || key.is_null()) {
    return Status::NotFound("no index entry for row id ", row_id);
  }
  // Descend as Range does: lower_bound routing reaches the leftmost leaf
  // that can hold `key`; the entry may sit further along the chain when
  // a duplicate run spans leaves.
  Node* node = root_;
  while (!node->is_leaf) {
    auto* internal = static_cast<InternalNode*>(node);
    const size_t idx =
        std::lower_bound(internal->keys.begin(), internal->keys.end(), key,
                         ValueLess) -
        internal->keys.begin();
    node = internal->children[idx];
  }
  for (auto* leaf = static_cast<LeafNode*>(node); leaf != nullptr;
       leaf = leaf->next) {
    for (size_t i = 0; i < leaf->keys.size(); ++i) {
      const int c = leaf->keys[i].Compare(key);
      if (c < 0) continue;
      if (c > 0) return Status::NotFound("no index entry for row id ", row_id);
      if (leaf->rids[i] != row_id) continue;
      leaf->keys.erase(leaf->keys.begin() + static_cast<std::ptrdiff_t>(i));
      leaf->rids.erase(leaf->rids.begin() + static_cast<std::ptrdiff_t>(i));
      --size_;
      Rebalance(leaf);
      return Status::OK();
    }
  }
  return Status::NotFound("no index entry for row id ", row_id);
}

void BPlusTree::Rebalance(Node* node) {
  if (node == root_) {
    if (node->is_leaf) {
      if (static_cast<LeafNode*>(node)->keys.empty()) {
        delete node;
        root_ = nullptr;
        height_ = 0;
      }
    } else if (auto* internal = static_cast<InternalNode*>(node);
               internal->keys.empty()) {
      // A root with one child hands the root down a level.
      root_ = internal->children.front();
      root_->parent = nullptr;
      delete internal;
      --height_;
    }
    return;
  }
  InternalNode* parent = node->parent;
  const size_t idx = static_cast<size_t>(
      std::find(parent->children.begin(), parent->children.end(), node) -
      parent->children.begin());
  Node* left = idx > 0 ? parent->children[idx - 1] : nullptr;
  Node* right =
      idx + 1 < parent->children.size() ? parent->children[idx + 1] : nullptr;

  if (node->is_leaf) {
    auto* leaf = static_cast<LeafNode*>(node);
    if (leaf->keys.size() >= min_keys()) return;
    auto* l = static_cast<LeafNode*>(left);
    auto* r = static_cast<LeafNode*>(right);
    if (l != nullptr && l->keys.size() > min_keys()) {
      leaf->keys.insert(leaf->keys.begin(), std::move(l->keys.back()));
      leaf->rids.insert(leaf->rids.begin(), l->rids.back());
      l->keys.pop_back();
      l->rids.pop_back();
      parent->keys[idx - 1] = leaf->keys.front();
      return;
    }
    if (r != nullptr && r->keys.size() > min_keys()) {
      leaf->keys.push_back(std::move(r->keys.front()));
      leaf->rids.push_back(r->rids.front());
      r->keys.erase(r->keys.begin());
      r->rids.erase(r->rids.begin());
      parent->keys[idx] = r->keys.front();
      return;
    }
    // Merge with a sibling: the right node of the pair folds into the
    // left one and leaves the chain.
    const size_t sep = l != nullptr ? idx - 1 : idx;
    LeafNode* into = l != nullptr ? l : leaf;
    LeafNode* from = l != nullptr ? leaf : r;
    into->keys.insert(into->keys.end(),
                      std::make_move_iterator(from->keys.begin()),
                      std::make_move_iterator(from->keys.end()));
    into->rids.insert(into->rids.end(), from->rids.begin(), from->rids.end());
    into->next = from->next;
    parent->keys.erase(parent->keys.begin() + static_cast<std::ptrdiff_t>(sep));
    parent->children.erase(parent->children.begin() +
                           static_cast<std::ptrdiff_t>(sep + 1));
    delete from;
  } else {
    auto* internal = static_cast<InternalNode*>(node);
    if (internal->keys.size() >= min_keys()) return;
    auto* l = static_cast<InternalNode*>(left);
    auto* r = static_cast<InternalNode*>(right);
    if (l != nullptr && l->keys.size() > min_keys()) {
      // Rotate right through the parent separator.
      internal->keys.insert(internal->keys.begin(),
                            std::move(parent->keys[idx - 1]));
      internal->children.insert(internal->children.begin(),
                                l->children.back());
      l->children.back()->parent = internal;
      parent->keys[idx - 1] = std::move(l->keys.back());
      l->keys.pop_back();
      l->children.pop_back();
      return;
    }
    if (r != nullptr && r->keys.size() > min_keys()) {
      // Rotate left through the parent separator.
      internal->keys.push_back(std::move(parent->keys[idx]));
      internal->children.push_back(r->children.front());
      r->children.front()->parent = internal;
      parent->keys[idx] = std::move(r->keys.front());
      r->keys.erase(r->keys.begin());
      r->children.erase(r->children.begin());
      return;
    }
    // Merge: left keys, the parent separator, right keys.
    const size_t sep = l != nullptr ? idx - 1 : idx;
    InternalNode* into = l != nullptr ? l : internal;
    InternalNode* from = l != nullptr ? internal : r;
    into->keys.push_back(std::move(parent->keys[sep]));
    into->keys.insert(into->keys.end(),
                      std::make_move_iterator(from->keys.begin()),
                      std::make_move_iterator(from->keys.end()));
    for (Node* c : from->children) c->parent = into;
    into->children.insert(into->children.end(), from->children.begin(),
                          from->children.end());
    parent->keys.erase(parent->keys.begin() + static_cast<std::ptrdiff_t>(sep));
    parent->children.erase(parent->children.begin() +
                           static_cast<std::ptrdiff_t>(sep + 1));
    delete from;
  }
  Rebalance(parent);
}

std::vector<size_t> BPlusTree::Lookup(const Value& key) const {
  return Range(key, true, key, true);
}

std::vector<size_t> BPlusTree::Range(const Value& lo, bool lo_inclusive,
                                     const Value& hi,
                                     bool hi_inclusive) const {
  std::vector<size_t> out;
  if (root_ == nullptr) return out;

  // Descend to the leftmost leaf that can contain a key ≥ lo. With
  // duplicate runs possibly spanning a separator, lower_bound routing
  // lands left of any equal separator, guaranteeing no equal key to the
  // left is missed.
  Node* node = root_;
  while (!node->is_leaf) {
    auto* internal = static_cast<InternalNode*>(node);
    size_t idx = 0;
    if (!lo.is_null()) {
      idx = std::lower_bound(internal->keys.begin(), internal->keys.end(),
                             lo, ValueLess) -
            internal->keys.begin();
    }
    node = internal->children[idx];
  }
  for (auto* leaf = static_cast<LeafNode*>(node); leaf != nullptr;
       leaf = leaf->next) {
    for (size_t i = 0; i < leaf->keys.size(); ++i) {
      const Value& k = leaf->keys[i];
      if (!lo.is_null()) {
        const int c = k.Compare(lo);
        if (c < 0 || (c == 0 && !lo_inclusive)) continue;
      }
      if (!hi.is_null()) {
        const int c = k.Compare(hi);
        if (c > 0 || (c == 0 && !hi_inclusive)) return out;
      }
      out.push_back(leaf->rids[i]);
    }
  }
  return out;
}

Status BPlusTree::ValidateNode(const Node* node, const Value* lo,
                               const Value* hi, int depth) const {
  const auto in_bounds = [&](const Value& k) {
    if (lo != nullptr && k.Compare(*lo) < 0) return false;
    if (hi != nullptr && k.Compare(*hi) > 0) return false;
    return true;
  };
  if (node->is_leaf) {
    if (depth != height_) {
      return Status::Internal("leaf at depth ", depth, ", expected ",
                              height_);
    }
    const auto* leaf = static_cast<const LeafNode*>(node);
    if (leaf->keys.size() != leaf->rids.size()) {
      return Status::Internal("leaf key/rid arity mismatch");
    }
    for (size_t i = 0; i < leaf->keys.size(); ++i) {
      if (!in_bounds(leaf->keys[i])) {
        return Status::Internal("leaf key out of separator bounds");
      }
      if (i > 0 && leaf->keys[i].Compare(leaf->keys[i - 1]) < 0) {
        return Status::Internal("leaf keys out of order");
      }
    }
    if (node != root_ && leaf->keys.size() < min_keys()) {
      return Status::Internal("underfull leaf: ", leaf->keys.size(),
                              " keys with fanout ", fanout_);
    }
    return Status::OK();
  }
  const auto* internal = static_cast<const InternalNode*>(node);
  if (internal->children.size() != internal->keys.size() + 1) {
    return Status::Internal("internal child count mismatch");
  }
  if (node != root_ && internal->keys.size() < min_keys()) {
    return Status::Internal("underfull internal node");
  }
  for (size_t i = 0; i < internal->keys.size(); ++i) {
    if (!in_bounds(internal->keys[i])) {
      return Status::Internal("separator out of bounds");
    }
    if (i > 0 && internal->keys[i].Compare(internal->keys[i - 1]) < 0) {
      return Status::Internal("separators out of order");
    }
  }
  for (size_t i = 0; i < internal->children.size(); ++i) {
    if (internal->children[i]->parent != internal) {
      return Status::Internal("broken parent pointer");
    }
    const Value* child_lo = i == 0 ? lo : &internal->keys[i - 1];
    const Value* child_hi =
        i == internal->keys.size() ? hi : &internal->keys[i];
    GISQL_RETURN_NOT_OK(
        ValidateNode(internal->children[i], child_lo, child_hi, depth + 1));
  }
  return Status::OK();
}

Status BPlusTree::Validate() const {
  if (root_ == nullptr) {
    if (size_ != 0 || height_ != 0) {
      return Status::Internal("empty tree with nonzero bookkeeping");
    }
    return Status::OK();
  }
  GISQL_RETURN_NOT_OK(ValidateNode(root_, nullptr, nullptr, 1));
  // Leaf chain: globally sorted, and covers exactly `size_` entries.
  const Node* node = root_;
  while (!node->is_leaf) {
    node = static_cast<const InternalNode*>(node)->children[0];
  }
  size_t count = 0;
  const Value* prev = nullptr;
  for (const auto* leaf = static_cast<const LeafNode*>(node);
       leaf != nullptr; leaf = leaf->next) {
    for (const auto& k : leaf->keys) {
      if (prev != nullptr && k.Compare(*prev) < 0) {
        return Status::Internal("leaf chain out of order");
      }
      prev = &k;
      ++count;
    }
  }
  if (count != size_) {
    return Status::Internal("leaf chain holds ", count, " entries, size_=",
                            size_);
  }
  return Status::OK();
}

}  // namespace gisql
