// Insert-built B+ tree: the tests' independent oracle for the library's
// read-only index::FlatBPlusTree. Nodes are heap-allocated and grow by
// preemptive splits on the way down, the textbook algorithm; the flat tree
// must reproduce the height, values and node hops that inserting its keys
// in increasing order into this tree gives.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

namespace p4lru::index::oracle {

/// B+ tree mapping Key -> Value with configurable fanout.
template <typename Key, typename Value, std::size_t Fanout = 64>
    requires(Fanout >= 4)
class BPlusTree {
  public:
    BPlusTree() : root_(new Node(/*leaf=*/true)) {}

    /// Insert or overwrite.
    void insert(const Key& key, const Value& value) {
        Node* r = root_.get();
        if (r->keys.size() == kMaxKeys) {
            auto new_root = std::make_unique<Node>(false);
            new_root->children.push_back(std::move(root_));
            split_child(new_root.get(), 0);
            root_ = std::move(new_root);
        }
        insert_nonfull(root_.get(), key, value);
    }

    struct FindResult {
        std::optional<Value> value;
        std::size_t node_hops = 0;  ///< nodes touched root..leaf
    };

    /// Lookup with traversal-cost reporting.
    [[nodiscard]] FindResult find(const Key& key) const {
        FindResult fr;
        const Node* n = root_.get();
        ++fr.node_hops;
        while (!n->leaf) {
            const std::size_t i = child_index(n, key);
            n = n->children[i].get();
            ++fr.node_hops;
        }
        const auto it =
            std::lower_bound(n->keys.begin(), n->keys.end(), key);
        if (it != n->keys.end() && *it == key) {
            fr.value = n->values[static_cast<std::size_t>(
                it - n->keys.begin())];
        }
        return fr;
    }

    [[nodiscard]] bool contains(const Key& key) const {
        return find(key).value.has_value();
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// Tree height (1 = just a leaf). The cost model charges per level.
    [[nodiscard]] std::size_t height() const {
        std::size_t h = 1;
        const Node* n = root_.get();
        while (!n->leaf) {
            n = n->children.front().get();
            ++h;
        }
        return h;
    }

    /// In-order key/value scan via the leaf chain (range queries, checks).
    template <typename Fn>
    void for_each(Fn&& fn) const {
        const Node* n = root_.get();
        while (!n->leaf) n = n->children.front().get();
        for (; n != nullptr; n = n->next_leaf) {
            for (std::size_t i = 0; i < n->keys.size(); ++i) {
                fn(n->keys[i], n->values[i]);
            }
        }
    }

    /// Structural invariant check (tests): sorted keys, child counts, uniform
    /// leaf depth, leaf chain consistency.
    [[nodiscard]] bool validate() const {
        std::size_t leaf_depth = 0;
        return validate_node(root_.get(), 1, leaf_depth, nullptr, nullptr);
    }

  private:
    static constexpr std::size_t kMaxKeys = Fanout - 1;

    struct Node {
        explicit Node(bool is_leaf) : leaf(is_leaf) {}
        bool leaf;
        std::vector<Key> keys;
        std::vector<Value> values;                  // leaves only
        std::vector<std::unique_ptr<Node>> children;  // internal only
        Node* next_leaf = nullptr;
    };

    static std::size_t child_index(const Node* n, const Key& key) {
        // Internal nodes store separator keys; child i covers keys < keys[i].
        return static_cast<std::size_t>(
            std::upper_bound(n->keys.begin(), n->keys.end(), key) -
            n->keys.begin());
    }

    void split_child(Node* parent, std::size_t i) {
        Node* child = parent->children[i].get();
        auto right = std::make_unique<Node>(child->leaf);
        const std::size_t mid = child->keys.size() / 2;

        if (child->leaf) {
            right->keys.assign(child->keys.begin() +
                                   static_cast<std::ptrdiff_t>(mid),
                               child->keys.end());
            right->values.assign(child->values.begin() +
                                     static_cast<std::ptrdiff_t>(mid),
                                 child->values.end());
            child->keys.resize(mid);
            child->values.resize(mid);
            right->next_leaf = child->next_leaf;
            child->next_leaf = right.get();
            // Leaf split copies the first right key up as separator.
            parent->keys.insert(parent->keys.begin() +
                                    static_cast<std::ptrdiff_t>(i),
                                right->keys.front());
        } else {
            const Key up = child->keys[mid];
            right->keys.assign(child->keys.begin() +
                                   static_cast<std::ptrdiff_t>(mid) + 1,
                               child->keys.end());
            for (std::size_t c = mid + 1; c < child->children.size(); ++c) {
                right->children.push_back(std::move(child->children[c]));
            }
            child->children.resize(mid + 1);
            child->keys.resize(mid);
            parent->keys.insert(parent->keys.begin() +
                                    static_cast<std::ptrdiff_t>(i),
                                up);
        }
        parent->children.insert(parent->children.begin() +
                                    static_cast<std::ptrdiff_t>(i) + 1,
                                std::move(right));
    }

    void insert_nonfull(Node* n, const Key& key, const Value& value) {
        while (!n->leaf) {
            std::size_t i = child_index(n, key);
            if (n->children[i]->keys.size() == kMaxKeys) {
                split_child(n, i);
                if (key >= n->keys[i]) ++i;
            }
            n = n->children[i].get();
        }
        const auto it = std::lower_bound(n->keys.begin(), n->keys.end(), key);
        const auto pos = static_cast<std::size_t>(it - n->keys.begin());
        if (it != n->keys.end() && *it == key) {
            n->values[pos] = value;  // overwrite
            return;
        }
        n->keys.insert(it, key);
        n->values.insert(n->values.begin() + static_cast<std::ptrdiff_t>(pos),
                         value);
        ++size_;
    }

    bool validate_node(const Node* n, std::size_t depth,
                       std::size_t& leaf_depth, const Key* lo,
                       const Key* hi) const {
        if (!std::is_sorted(n->keys.begin(), n->keys.end())) return false;
        for (const Key& k : n->keys) {
            if (lo && k < *lo) return false;
            if (hi && !(k < *hi)) return false;
        }
        if (n->leaf) {
            if (n->values.size() != n->keys.size()) return false;
            if (leaf_depth == 0) leaf_depth = depth;
            return leaf_depth == depth;
        }
        if (n->children.size() != n->keys.size() + 1) return false;
        for (std::size_t i = 0; i < n->children.size(); ++i) {
            const Key* clo = i == 0 ? lo : &n->keys[i - 1];
            const Key* chi = i == n->keys.size() ? hi : &n->keys[i];
            if (!validate_node(n->children[i].get(), depth + 1, leaf_depth,
                               clo, chi)) {
                return false;
            }
        }
        return true;
    }

    std::unique_ptr<Node> root_;
    std::size_t size_ = 0;
};

}  // namespace p4lru::index::oracle
