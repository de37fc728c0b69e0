// Shared helpers for the p4lru test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "p4lru/common/random.hpp"
#include "p4lru/common/types.hpp"
#include "p4lru/core/simd/scan_kernels.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace p4lru::testutil {

/// Every scan kernel this CPU and build can execute, scalar first.
inline std::vector<core::simd::ScanKernel> available_kernels() {
    using core::simd::ScanKernel;
    std::vector<ScanKernel> v{ScanKernel::kScalar};
    for (const ScanKernel k :
         {ScanKernel::kSse2, ScanKernel::kAvx2, ScanKernel::kNeon}) {
        if (core::simd::kernel_available(k)) v.push_back(k);
    }
    return v;
}

/// A unique per-test scratch directory, removed (recursively) on scope
/// exit.  Every test that touches disk goes through one of these so a
/// parallel `ctest -j` run can never collide on a shared /tmp path — each
/// instance mkdtemp()s its own directory under TMPDIR (default /tmp).
class ScopedTempDir {
  public:
    explicit ScopedTempDir(const std::string& tag = "p4lru_test") {
        namespace fs = std::filesystem;
        std::error_code ec;
        fs::path base = fs::temp_directory_path(ec);
        if (ec) base = "/tmp";
        std::string tmpl = (base / (tag + ".XXXXXX")).string();
        // mkdtemp mutates its argument in place and creates the directory
        // with mode 0700 — unique even across concurrent processes.
        if (::mkdtemp(tmpl.data()) != nullptr) {
            path_ = tmpl;
        } else {
            // Fall back to a pid-qualified name; tests still run.
            path_ = (base / (tag + "." + std::to_string(::getpid()))).string();
            fs::create_directories(path_, ec);
        }
    }

    ScopedTempDir(const ScopedTempDir&) = delete;
    ScopedTempDir& operator=(const ScopedTempDir&) = delete;

    ~ScopedTempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    [[nodiscard]] const std::string& path() const noexcept { return path_; }

    /// A file (or subdirectory) path inside the directory.
    [[nodiscard]] std::string file(const std::string& name) const {
        return (std::filesystem::path(path_) / name).string();
    }

  private:
    std::string path_;
};

/// Reference strict-LRU cache, written in the most obvious way possible
/// (MRU-ordered vector, linear scans): the oracle the pipeline-friendly
/// implementations are checked against.
template <typename Key, typename Value>
class NaiveLru {
  public:
    explicit NaiveLru(std::size_t capacity) : capacity_(capacity) {}

    struct Result {
        bool hit = false;
        std::optional<std::pair<Key, Value>> evicted;
    };

    /// merge(old, incoming) applied on hit; replace on insert.
    template <typename MergeFn>
    Result update(const Key& k, const Value& v, MergeFn&& merge) {
        Result r;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].first == k) {
                r.hit = true;
                entries_[i].second = merge(entries_[i].second, v);
                std::rotate(entries_.begin(), entries_.begin() + i,
                            entries_.begin() + i + 1);
                return r;
            }
        }
        entries_.insert(entries_.begin(), {k, v});
        if (entries_.size() > capacity_) {
            r.evicted = entries_.back();
            entries_.pop_back();
        }
        return r;
    }

    Result update(const Key& k, const Value& v) {
        return update(k, v, [](const Value&, const Value& in) { return in; });
    }

    [[nodiscard]] std::optional<Value> find(const Key& k) const {
        for (const auto& [key, value] : entries_) {
            if (key == k) return value;
        }
        return std::nullopt;
    }

    /// Key at 1-based MRU position.
    [[nodiscard]] const Key& key_at(std::size_t pos) const {
        return entries_.at(pos - 1).first;
    }

    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  private:
    std::size_t capacity_;
    std::vector<std::pair<Key, Value>> entries_;
};

/// Zipf-ish random key stream over a small universe — compact driver for
/// equivalence tests.
inline std::vector<std::uint32_t> random_keys(std::size_t count,
                                              std::uint32_t universe,
                                              std::uint64_t seed,
                                              double repeat_bias = 0.5) {
    rng::Xoshiro256 rng(seed);
    std::vector<std::uint32_t> keys;
    keys.reserve(count);
    std::uint32_t last = 1;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint32_t k;
        if (!keys.empty() && rng.chance(repeat_bias)) {
            k = last;  // temporal locality
        } else {
            k = static_cast<std::uint32_t>(rng.between(1, universe));
        }
        keys.push_back(k);
        last = k;
    }
    return keys;
}

/// Small deterministic flow key.
inline FlowKey make_flow(std::uint32_t id) {
    FlowKey f;
    f.src_ip = 0x0A000000u | id;
    f.dst_ip = 0xC0A80000u | (id * 7919u);
    f.src_port = static_cast<std::uint16_t>(1000 + id % 50000);
    f.dst_port = 443;
    f.proto = 6;
    return f;
}

}  // namespace p4lru::testutil
