// Uniform cache-policy interface and every replacement policy evaluated in
// the paper's comparative experiments (Figures 12-14), plus two extensions.
// One implementation per replacement family:
//
//   ArrayPolicy<Unit>    - a parallel-connected array of P4LRU units:
//     P4lruArrayPolicy<N>  P4LRU_N (N=1 is the paper's "Baseline" hash-table
//                          cache, N=3 the contribution)
//     P4lru4ArrayPolicy    the encoded P4LRU4 of Section 2.3.3
//   BucketPolicy<Rule>   - one entry per bucket, with a collision rule:
//     TimeoutPolicy        BeauCoup-style last-access-timestamp replacement
//     ElasticPolicy        Elastic-sketch vote-based replacement
//     CocoPolicy           CocoSketch probabilistic replacement
//     LfuPolicy            per-bucket frequency aging (extension)
//   IdealLruPolicy       - the unconstrained strict-LRU upper bound
//   ClockPolicy          - CLOCK second-chance approximation (extension,
//                          what MemC3 uses; its scanning hand is exactly
//                          what a pipeline cannot provide)
//
// Two entry points mirror the two ways packets touch a data plane cache:
//   access(k, v, now) - read path: a hit keeps the stored value;
//   fill(k, v, now)   - write path: a hit merges v in (Merge template
//                       parameter: ReplaceMerge for refills, AddMerge for
//                       LruMon byte counters).
// Both insert on a miss, per the policy's replacement rule.
//
// All policies expose entry-count-normalized capacity so the comparative
// benches sweep them at equal memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "p4lru/common/byte_io.hpp"
#include "p4lru/common/hash.hpp"
#include "p4lru/common/random.hpp"
#include "p4lru/common/types.hpp"
#include "p4lru/core/parallel_array.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/core/p4lru4.hpp"

namespace p4lru::cache {

/// Result of one access (lookup-and-update) against a policy.
template <typename Key, typename Value>
struct Access {
    bool hit = false;       ///< key was cached before the access
    bool inserted = false;  ///< key is cached after the access
    bool evicted = false;   ///< a different key was displaced
    Key evicted_key{};
    Value evicted_value{};
    Value value{};          ///< value associated with k after the access
};

/// Type-erased replacement policy; the comparative benches drive every
/// competitor through this interface.
template <typename Key, typename Value>
class ReplacementPolicy {
  public:
    virtual ~ReplacementPolicy() = default;

    /// Read-path packet for key k; v is only used if the policy inserts.
    virtual Access<Key, Value> access(const Key& k, const Value& v,
                                      TimeNs now) = 0;

    /// Write-path packet: a hit merges v into the stored value.
    virtual Access<Key, Value> fill(const Key& k, const Value& v,
                                    TimeNs now) = 0;

    /// Non-mutating lookup.
    [[nodiscard]] virtual std::optional<Value> peek(const Key& k) const = 0;

    /// Enumerate every cached entry (teardown flush in LruMon, tests).
    virtual void for_each(
        const std::function<void(const Key&, const Value&)>& fn) const = 0;

    /// Total key-value entries the policy can hold (memory normalization).
    [[nodiscard]] virtual std::size_t capacity_entries() const = 0;

    [[nodiscard]] virtual std::string name() const = 0;

    /// Serialize the policy's full mutable state into `out` (appending),
    /// for the checkpoint snapshot plane of the system replay targets.
    /// Returns false when the policy does not support snapshotting (the
    /// default); array-backed policies save their storage plane image.
    [[nodiscard]] virtual bool save_state(
        std::vector<std::byte>& /*out*/) const {
        return false;
    }

    /// Restore state written by save_state() on an identically-configured
    /// policy; false when unsupported or the image does not fit.
    [[nodiscard]] virtual bool load_state(std::span<const std::byte> /*in*/) {
        return false;
    }
};

/// Append `policy`'s state as one framed record of a snapshot image:
/// u8 has_state (save_state's verdict), u64 length, the state bytes.  The
/// system targets write one such record per partition.
template <typename Key, typename Value>
void save_policy_record(const ReplacementPolicy<Key, Value>& policy,
                        io::ByteWriter& w) {
    std::vector<std::byte> state;
    const bool ok = policy.save_state(state);
    w.u8(ok ? 1 : 0);
    w.u64(state.size());
    w.bytes(state.data(), state.size());
}

/// Restore a record written by save_policy_record.  False when the record
/// is truncated, was saved by a policy without state serialization (such a
/// policy cannot be restored), or its state does not fit `policy`.
template <typename Key, typename Value>
[[nodiscard]] bool load_policy_record(ReplacementPolicy<Key, Value>& policy,
                                      io::ByteReader& r) {
    std::uint8_t has_state = 0;
    std::span<const std::byte> state;
    return r.u8(has_state) && has_state != 0 && r.sub(state) &&
           policy.load_state(state);
}

/// Parallel-connected array of P4LRU units: P4lru<N> (N=1 is the paper's
/// "Baseline" hash-table cache, N=3 the contribution) or the encoded P4LRU4
/// of Section 2.3.3.  capacity_entries = units * Unit::capacity().
template <typename Unit, typename Key, typename Value,
          typename Merge = core::ReplaceMerge>
class ArrayPolicy final : public ReplacementPolicy<Key, Value> {
  public:
    ArrayPolicy(std::size_t total_entries, std::uint32_t seed)
        : array_(std::max<std::size_t>(1, total_entries / Unit::capacity()),
                 seed) {}

    Access<Key, Value> access(const Key& k, const Value& v,
                              TimeNs /*now*/) override {
        return run(k, v, core::KeepMerge{});
    }

    Access<Key, Value> fill(const Key& k, const Value& v,
                            TimeNs /*now*/) override {
        return run(k, v, Merge{});
    }

    std::optional<Value> peek(const Key& k) const override {
        return array_.find(k);
    }

    std::size_t capacity_entries() const override { return array_.capacity(); }

    std::string name() const override {
        return "P4LRU" + std::to_string(Unit::capacity());
    }

    void for_each(const std::function<void(const Key&, const Value&)>& fn)
        const override {
        for (std::size_t u = 0; u < array_.unit_count(); ++u) {
            const auto& unit = array_.unit(u);
            for (std::size_t i = 1; i <= unit.size(); ++i) {
                fn(unit.key_at(i), unit.value_at(i));
            }
        }
    }

    bool save_state(std::vector<std::byte>& out) const override {
        for (const auto plane : array_.storage().planes()) {
            out.insert(out.end(), plane.begin(), plane.end());
        }
        return true;
    }

    bool load_state(std::span<const std::byte> in) override {
        return array_.storage().load_planes(in);
    }

  private:
    /// The bucket is computed once per access/fill and threaded through to
    /// the post-update readback, so each packet pays exactly one hash.
    template <typename MergeFn>
    Access<Key, Value> run(const Key& k, const Value& v, MergeFn merge) {
        const std::size_t b = array_.bucket(k);
        const auto r = array_.update_at(b, k, v, merge);
        Access<Key, Value> a;
        a.hit = r.hit;
        a.inserted = true;
        a.evicted = r.evicted;
        a.evicted_key = r.evicted_key;
        a.evicted_value = r.evicted_value;
        a.value = array_.find_at(b, k).value_or(Value{});
        return a;
    }

    core::ParallelCache<Unit, Key, Value> array_;
};

template <typename Key, typename Value, std::size_t N,
          typename Merge = core::ReplaceMerge>
using P4lruArrayPolicy =
    ArrayPolicy<core::P4lru<Key, Value, N>, Key, Value, Merge>;

template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
using P4lru4ArrayPolicy =
    ArrayPolicy<core::P4lru4Encoded<Key, Value, Merge>, Key, Value, Merge>;

/// A direct-mapped table, one entry per bucket: the shape of the Timeout,
/// Elastic, Coco and LFU baselines, which differ only in their collision
/// rule.  A Rule, constructed from (seed, extra constructor args...), has
///   Meta                      per-bucket replacement metadata;
///   kName                     the policy's name;
///   fresh(now)                the Meta of a key inserted into an empty
///                             bucket;
///   on_hit(meta, now)         the resident was accessed;
///   replaces(meta, now)       a different key collides: update the
///                             resident's meta and return whether the
///                             newcomer takes the bucket (meta then belongs
///                             to the newcomer).
template <typename Rule, typename Key, typename Value,
          typename Merge = core::ReplaceMerge>
class BucketPolicy final : public ReplacementPolicy<Key, Value> {
  public:
    template <typename... RuleArgs>
    BucketPolicy(std::size_t total_entries, std::uint32_t seed,
                 RuleArgs&&... rule_args)
        : buckets_(std::max<std::size_t>(1, total_entries)),
          hasher_(seed, buckets_.size()),
          rule_(seed, std::forward<RuleArgs>(rule_args)...) {}

    Access<Key, Value> access(const Key& k, const Value& v,
                              TimeNs now) override {
        return run(k, v, now, /*write_hit=*/false);
    }
    Access<Key, Value> fill(const Key& k, const Value& v,
                            TimeNs now) override {
        return run(k, v, now, /*write_hit=*/true);
    }

    std::optional<Value> peek(const Key& k) const override {
        const auto& b = buckets_[core::bucket_of(hasher_, k)];
        if (b.occupied && b.key == k) return b.value;
        return std::nullopt;
    }

    std::size_t capacity_entries() const override { return buckets_.size(); }
    std::string name() const override { return Rule::kName; }

    void for_each(const std::function<void(const Key&, const Value&)>& fn)
        const override {
        for (const auto& b : buckets_) {
            if (b.occupied) fn(b.key, b.value);
        }
    }

  private:
    Access<Key, Value> run(const Key& k, const Value& v, TimeNs now,
                           bool write_hit) {
        auto& b = buckets_[core::bucket_of(hasher_, k)];
        Access<Key, Value> a;
        if (b.occupied && b.key == k) {
            a.hit = true;
            a.inserted = true;
            if (write_hit) b.value = Merge{}(b.value, v);
            rule_.on_hit(b.meta, now);
            a.value = b.value;
            return a;
        }
        if (!b.occupied) {
            b.meta = rule_.fresh(now);
        } else if (rule_.replaces(b.meta, now)) {
            a.evicted = true;
            a.evicted_key = b.key;
            a.evicted_value = b.value;
        } else {
            return a;  // miss, occupant retained, newcomer dropped
        }
        b.occupied = true;
        b.key = k;
        b.value = v;
        a.inserted = true;
        a.value = v;
        return a;
    }

    struct Bucket {
        bool occupied = false;
        Key key{};
        Value value{};
        typename Rule::Meta meta{};
    };
    std::vector<Bucket> buckets_;
    hash::FlowHasher hasher_;
    Rule rule_;
};

/// Timeout (BeauCoup-style): the occupant is only replaced once its
/// last-access timestamp is older than `timeout`. The paper notes the
/// threshold needs careful tuning; the benches sweep it.
struct TimeoutRule {
    struct Meta {
        TimeNs last = 0;
    };
    static constexpr const char* kName = "Timeout";
    TimeoutRule(std::uint32_t /*seed*/, TimeNs t) : timeout(t) {}

    Meta fresh(TimeNs now) const { return {now}; }
    void on_hit(Meta& m, TimeNs now) const { m.last = now; }
    bool replaces(Meta& m, TimeNs now) const {
        if (now - m.last <= timeout) return false;
        m = fresh(now);
        return true;
    }

    TimeNs timeout;
};

/// Elastic-sketch votes: the resident's positive votes against the
/// colliders' negative votes; the resident is ousted when
/// negative >= lambda * positive (lambda = 8 in the Elastic paper).
struct ElasticRule {
    struct Meta {
        std::uint32_t positive = 0;
        std::uint32_t negative = 0;
    };
    static constexpr const char* kName = "Elastic";
    explicit ElasticRule(std::uint32_t /*seed*/, std::uint32_t l = 8)
        : lambda(l) {
        if (l == 0) throw std::invalid_argument("ElasticPolicy: lambda 0");
    }

    Meta fresh(TimeNs /*now*/) const { return {1, 0}; }
    void on_hit(Meta& m, TimeNs /*now*/) const { ++m.positive; }
    bool replaces(Meta& m, TimeNs now) const {
        if (++m.negative < lambda * m.positive) return false;
        m = fresh(now);
        return true;
    }

    std::uint32_t lambda;
};

/// CocoSketch: on a collision the newcomer takes over with probability
/// 1/(count+1), keeping per-key estimates unbiased; the count carries over
/// to the newcomer.  The rule owns the policy's RNG.
struct CocoRule {
    struct Meta {
        std::uint64_t count = 0;
    };
    static constexpr const char* kName = "Coco";
    explicit CocoRule(std::uint32_t seed) : rng(0xC0C0ULL ^ seed) {}

    Meta fresh(TimeNs /*now*/) const { return {1}; }
    void on_hit(Meta& m, TimeNs /*now*/) const { ++m.count; }
    bool replaces(Meta& m, TimeNs /*now*/) {
        ++m.count;
        return rng.chance(1.0 / static_cast<double>(m.count));
    }

    rng::Xoshiro256 rng;
};

/// Per-bucket frequency aging (HashPipe-flavoured LFU extension): a miss
/// decays the resident's counter; at zero the newcomer takes the slot.
struct LfuRule {
    struct Meta {
        std::uint32_t freq = 0;
    };
    static constexpr const char* kName = "LFU";
    explicit LfuRule(std::uint32_t /*seed*/) {}

    Meta fresh(TimeNs /*now*/) const { return {1}; }
    void on_hit(Meta& m, TimeNs /*now*/) const { ++m.freq; }
    bool replaces(Meta& m, TimeNs now) const {
        if (--m.freq != 0) return false;
        m = fresh(now);
        return true;
    }
};

template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
using TimeoutPolicy = BucketPolicy<TimeoutRule, Key, Value, Merge>;
template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
using ElasticPolicy = BucketPolicy<ElasticRule, Key, Value, Merge>;
template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
using CocoPolicy = BucketPolicy<CocoRule, Key, Value, Merge>;
template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
using LfuPolicy = BucketPolicy<LfuRule, Key, Value, Merge>;

/// The unconstrained strict LRU (doubly linked list + hash map, as in
/// Memcached): the upper bound every data-plane scheme approximates.
template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
class IdealLruPolicy final : public ReplacementPolicy<Key, Value> {
  public:
    explicit IdealLruPolicy(std::size_t total_entries)
        : capacity_(std::max<std::size_t>(1, total_entries)) {}

    Access<Key, Value> access(const Key& k, const Value& v,
                              TimeNs now) override {
        return run(k, v, now, false);
    }
    Access<Key, Value> fill(const Key& k, const Value& v,
                            TimeNs now) override {
        return run(k, v, now, true);
    }

    std::optional<Value> peek(const Key& k) const override {
        if (auto it = index_.find(k); it != index_.end()) {
            return it->second->second;
        }
        return std::nullopt;
    }

    std::size_t capacity_entries() const override { return capacity_; }
    std::string name() const override { return "LRU_IDEAL"; }

    void for_each(const std::function<void(const Key&, const Value&)>& fn)
        const override {
        for (const auto& [k, v] : order_) fn(k, v);
    }

  private:
    Access<Key, Value> run(const Key& k, const Value& v, TimeNs /*now*/,
                           bool write_hit) {
        Access<Key, Value> a;
        a.inserted = true;
        if (auto it = index_.find(k); it != index_.end()) {
            a.hit = true;
            if (write_hit) it->second->second = Merge{}(it->second->second, v);
            order_.splice(order_.begin(), order_, it->second);
            a.value = it->second->second;
            return a;
        }
        order_.emplace_front(k, v);
        index_[k] = order_.begin();
        a.value = v;
        if (order_.size() > capacity_) {
            a.evicted = true;
            a.evicted_key = order_.back().first;
            a.evicted_value = order_.back().second;
            index_.erase(order_.back().first);
            order_.pop_back();
        }
        return a;
    }

    std::size_t capacity_;
    std::list<std::pair<Key, Value>> order_;
    std::unordered_map<Key,
                       typename std::list<std::pair<Key, Value>>::iterator>
        index_;
};

/// CLOCK (second chance): global ring with reference bits and a scanning
/// hand. Approximates LRU well but the hand's scan is exactly what a
/// pipeline cannot do — included to quantify the gap P4LRU closes.
template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
class ClockPolicy final : public ReplacementPolicy<Key, Value> {
  public:
    explicit ClockPolicy(std::size_t total_entries)
        : slots_(std::max<std::size_t>(1, total_entries)) {}

    Access<Key, Value> access(const Key& k, const Value& v,
                              TimeNs now) override {
        return run(k, v, now, false);
    }
    Access<Key, Value> fill(const Key& k, const Value& v,
                            TimeNs now) override {
        return run(k, v, now, true);
    }

    std::optional<Value> peek(const Key& k) const override {
        if (auto it = index_.find(k); it != index_.end()) {
            return slots_[it->second].value;
        }
        return std::nullopt;
    }

    std::size_t capacity_entries() const override { return slots_.size(); }
    std::string name() const override { return "CLOCK"; }

    void for_each(const std::function<void(const Key&, const Value&)>& fn)
        const override {
        for (const auto& s : slots_) {
            if (s.occupied) fn(s.key, s.value);
        }
    }

  private:
    Access<Key, Value> run(const Key& k, const Value& v, TimeNs /*now*/,
                           bool write_hit) {
        Access<Key, Value> a;
        a.inserted = true;
        if (auto it = index_.find(k); it != index_.end()) {
            a.hit = true;
            auto& s = slots_[it->second];
            if (write_hit) s.value = Merge{}(s.value, v);
            s.referenced = true;
            a.value = s.value;
            return a;
        }
        while (true) {
            auto& s = slots_[hand_];
            if (!s.occupied || !s.referenced) break;
            s.referenced = false;
            hand_ = (hand_ + 1) % slots_.size();
        }
        auto& s = slots_[hand_];
        if (s.occupied) {
            a.evicted = true;
            a.evicted_key = s.key;
            a.evicted_value = s.value;
            index_.erase(s.key);
        }
        // Insert with the reference bit clear: only a genuine re-reference
        // earns the second chance.
        s = {true, false, k, v};
        index_[k] = hand_;
        hand_ = (hand_ + 1) % slots_.size();
        a.value = v;
        return a;
    }

    struct Slot {
        bool occupied = false;
        bool referenced = false;
        Key key{};
        Value value{};
    };
    std::vector<Slot> slots_;
    std::unordered_map<Key, std::size_t> index_;
    std::size_t hand_ = 0;
};

}  // namespace p4lru::cache
