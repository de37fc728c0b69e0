// Read-only B+ tree: the database server's "built-in indexing" that LruIndex
// bypasses on a cache hit (the paper names the B+ Tree explicitly). Lookup
// reports the number of node hops so the server cost model can charge
// index traversals realistically.
//
// The tree is built once from a sorted load and never written again, so it
// is laid out flat instead of as heap nodes: one contiguous separator array
// per inner level, one leaf key array and one leaf value array. Its shape is
// the one that inserting the same keys in increasing order into a textbook
// B+ tree (preemptive splits at Fanout - 1 keys) builds. Sequential inserts
// only ever touch the rightmost path, so every node except the last of its
// level is the frozen left half of a split and has the same size; child
// indexes are therefore arithmetic (node * children-per-node + slot).
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace p4lru::index {

/// Read-only B+ tree mapping Key -> Value. Nothing changes after
/// construction, so lookups from several threads need no locking (the
/// threaded LruIndex replay shares one server across shard workers).
template <typename Key, typename Value, std::size_t Fanout = 64>
    requires(Fanout >= 4)
class FlatBPlusTree {
  public:
    struct FindResult {
        std::optional<Value> value;
        std::size_t node_hops = 0;  ///< nodes touched root..leaf
    };

    /// An empty tree: a single empty leaf.
    FlatBPlusTree() = default;

    /// Build from strictly increasing `keys` and their `values`.
    FlatBPlusTree(std::vector<Key> keys, std::vector<Value> values)
        : keys_(std::move(keys)), values_(std::move(values)) {
        if (keys_.size() != values_.size()) {
            throw std::invalid_argument("FlatBPlusTree: key/value count");
        }
        for (std::size_t i = 1; i < keys_.size(); ++i) {
            if (!(keys_[i - 1] < keys_[i])) {
                throw std::invalid_argument(
                    "FlatBPlusTree: keys not strictly increasing");
            }
        }
        build();
    }

    /// Lookup with traversal-cost reporting. Every lookup walks root to
    /// leaf, so node_hops is the height whether or not the key exists.
    [[nodiscard]] FindResult find(const Key& key) const {
        FindResult fr;
        fr.node_hops = height();
        std::size_t node = 0;
        for (const Level& lv : inner_) {
            const std::size_t lo = node * kInnerKeys;
            const std::size_t n =
                node + 1 == lv.nodes ? lv.seps.size() - lo : kInnerKeys;
            // Child c covers keys < seps[c] (and >= seps[c - 1]).
            node = node * kInnerChildren +
                   rank(&lv.seps[lo], n,
                        [&key](const Key& s) { return !(key < s); });
        }
        const std::size_t lo = node * kLeafKeys;
        const std::size_t n =
            node + 1 == leaves_ ? keys_.size() - lo : kLeafKeys;
        const std::size_t i =
            lo + rank(keys_.data() + lo, n,
                      [&key](const Key& k) { return k < key; });
        if (i < lo + n && keys_[i] == key) fr.value = values_[i];
        return fr;
    }

    [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

    /// Tree height (1 = just a leaf). The cost model charges per level.
    [[nodiscard]] std::size_t height() const noexcept {
        return inner_.size() + 1;
    }

  private:
    static constexpr std::size_t kMaxKeys = Fanout - 1;
    // A full node splits at its middle key: the left half keeps kMid keys
    // (an inner left half also keeps kMid + 1 children) and is frozen.
    static constexpr std::size_t kMid = kMaxKeys / 2;
    static constexpr std::size_t kLeafKeys = kMid;
    static constexpr std::size_t kInnerKeys = kMid;
    static constexpr std::size_t kInnerChildren = kMid + 1;
    // What the right half starts with after the split.
    static constexpr std::size_t kLeafRight = kMaxKeys - kMid;
    static constexpr std::size_t kInnerRight = kMaxKeys - kMid - 1;

    struct Level {
        std::size_t nodes = 0;
        std::vector<Key> seps;  ///< node j's start at j * kInnerKeys
    };

    /// Number of leading elements of p[0..n) for which `pred` holds
    /// (`pred` is true on a prefix). Branch-free halving.
    template <typename Pred>
    static std::size_t rank(const Key* p, std::size_t n, Pred pred) {
        if (n == 0) return 0;
        const Key* base = p;
        while (n > 1) {
            const std::size_t half = n / 2;
            base = pred(base[half]) ? base + half : base;
            n -= half;
        }
        return static_cast<std::size_t>(base - p) + (pred(*base) ? 1 : 0);
    }

    /// Node count per level, leaves first, of the tree that inserting n
    /// increasing keys builds. Replays the key counts of the rightmost path
    /// (the only nodes sequential inserts touch) and counts the frozen left
    /// halves each split leaves behind; integers only.
    static std::vector<std::size_t> level_nodes(std::size_t n) {
        // Key count of the rightmost node and number of frozen nodes, per
        // level, leaf first.
        std::vector<std::size_t> path{0};
        std::vector<std::size_t> frozen{0};
        const auto split = [&](std::size_t l) {
            ++frozen[l];
            path[l] = l == 0 ? kLeafRight : kInnerRight;
        };
        for (std::size_t i = 0; i < n; ++i) {
            if (path.back() == kMaxKeys) {  // full root: grow a new root
                split(path.size() - 1);
                path.push_back(1);
                frozen.push_back(0);
            }
            for (std::size_t l = path.size() - 1; l-- > 0;) {  // top-down
                if (path[l] == kMaxKeys) {
                    split(l);
                    ++path[l + 1];
                }
            }
            ++path[0];
        }
        for (std::size_t& f : frozen) ++f;  // plus the rightmost node
        return frozen;
    }

    void build() {
        const std::vector<std::size_t> nodes = level_nodes(keys_.size());
        leaves_ = nodes.front();
        if (nodes.size() == 1) return;
        // First key under each node of the level below, leaves to start.
        std::vector<Key> mins(leaves_);
        for (std::size_t j = 0; j < leaves_; ++j) {
            mins[j] = keys_[j * kLeafKeys];
        }
        inner_.resize(nodes.size() - 1);
        for (std::size_t l = 1; l < nodes.size(); ++l) {
            Level& lv = inner_[nodes.size() - 1 - l];  // root first
            lv.nodes = nodes[l];
            if ((lv.nodes - 1) * kInnerChildren >= mins.size()) {
                throw std::logic_error("FlatBPlusTree: inconsistent shape");
            }
            lv.seps.reserve(mins.size() - lv.nodes);
            std::vector<Key> up(lv.nodes);
            for (std::size_t j = 0; j < lv.nodes; ++j) {
                const std::size_t first = j * kInnerChildren;
                const std::size_t last = j + 1 == lv.nodes
                                             ? mins.size()
                                             : first + kInnerChildren;
                up[j] = mins[first];
                lv.seps.insert(lv.seps.end(), mins.begin() + first + 1,
                               mins.begin() + last);
            }
            mins = std::move(up);
        }
    }

    std::vector<Key> keys_;
    std::vector<Value> values_;
    std::size_t leaves_ = 1;
    std::vector<Level> inner_;  ///< inner levels, root first
};

}  // namespace p4lru::index
