// Cross-kernel equivalence for the SoaSlab scan kernels: every kernel the
// running CPU offers (scalar, SSE2, AVX2, NEON) must return bit-identical
// match masks to the scalar reference on every row — random rows and the
// adversarial shapes: duplicate keys in one row, probes of Key{} against
// empty units, FlowKeys that differ only in their pad bytes (lane_eq
// ignores them; a naive 16-byte compare would not), and MRU fast-path hits.
// Also covers the dispatch machinery itself: env/cpuid resolution, the
// set_kernel_override rebind hook, and slab-level stream equivalence under
// each forced kernel.
#include "p4lru/core/simd/scan_kernels.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "p4lru/core/soa_slab.hpp"
#include "../test_util.hpp"
#include "../checkpoint_util.hpp"

namespace p4lru::core::simd {
namespace {

using testutil::available_kernels;

/// Compare every available kernel of one shape against the scalar
/// reference on one row/probe pair.
template <typename Key, std::size_t Stride, std::size_t N>
void expect_kernels_agree(const Key (&row)[Stride], const Key& probe) {
    using K = ScanKernels<Key, Stride, N>;
    const unsigned ref = K::scalar(row, probe);
    for (const ScanKernel k : available_kernels()) {
        EXPECT_EQ(K::get(k)(row, probe), ref)
            << "kernel " << kernel_name(k) << " stride " << Stride << " N "
            << N;
    }
    // The mask must never carry bits for pad lanes >= N.
    EXPECT_EQ(ref & ~((1u << N) - 1u), 0u);
}

template <typename Key, std::size_t Stride, std::size_t N, typename Gen>
void fuzz_shape(Gen&& gen, int rounds) {
    std::mt19937_64 rng(0x5CA7u ^ (Stride << 8) ^ N);
    for (int r = 0; r < rounds; ++r) {
        alignas(64) Key row[Stride];
        // A small pool makes in-row duplicates and row/probe collisions
        // common — the interesting cases for a first-match scan.
        for (auto& lane : row) lane = gen(rng() % 5);
        const Key probe = gen(rng() % 5);
        expect_kernels_agree<Key, Stride, N>(row, probe);
        // Empty-unit shape: lanes hold Key{} (what the slab's constructor
        // writes) and the probe is Key{} — the mask reports lane equality;
        // occupancy masking to zero is the caller's job, but pad lanes must
        // not leak.
        alignas(64) Key zeros[Stride] = {};
        expect_kernels_agree<Key, Stride, N>(zeros, Key{});
        expect_kernels_agree<Key, Stride, N>(zeros, probe);
    }
}

TEST(SimdScan, U32KernelsMatchScalar) {
    const auto gen = [](std::uint64_t i) {
        return static_cast<std::uint32_t>(0xABCD0000u + i * 0x1111u);
    };
    fuzz_shape<std::uint32_t, 2, 2>(gen, 400);
    fuzz_shape<std::uint32_t, 4, 3>(gen, 400);
    fuzz_shape<std::uint32_t, 4, 4>(gen, 400);
}

TEST(SimdScan, U64KernelsMatchScalar) {
    const auto gen = [](std::uint64_t i) {
        // Values whose two 32-bit halves collide across pool entries, so a
        // half-matching (but not whole-matching) lane exists — the case the
        // SSE2 fold of two 32-bit compares must not mistake for a match.
        return (i << 32) | 0xFEEDBEEFull;
    };
    fuzz_shape<std::uint64_t, 2, 2>(gen, 400);
    fuzz_shape<std::uint64_t, 4, 3>(gen, 400);
    fuzz_shape<std::uint64_t, 4, 4>(gen, 400);
}

FlowKey flow(std::uint64_t i) {
    FlowKey k;
    k.src_ip = static_cast<std::uint32_t>(0x0A000000u + i);
    k.dst_ip = static_cast<std::uint32_t>(0xC0A80000u + i * 7);
    k.src_port = static_cast<std::uint16_t>(1000 + i);
    k.dst_port = 443;
    k.proto = 6;
    return k;
}

TEST(SimdScan, FlowKeyKernelsMatchScalar) {
    fuzz_shape<FlowKey, 2, 2>(flow, 400);
    fuzz_shape<FlowKey, 4, 3>(flow, 400);
    fuzz_shape<FlowKey, 4, 4>(flow, 400);
}

/// The defining FlowKey case: a lane whose 13 defined bytes equal the probe
/// but whose pad bytes were corrupted (corrupt_key_at can hit them) must
/// still match — lane_eq never reads the pad, so neither may any kernel.
TEST(SimdScan, FlowKeyPadBytesAreIgnored) {
    for (std::size_t pad_byte = 13; pad_byte < 16; ++pad_byte) {
        alignas(64) FlowKey row[4] = {flow(1), flow(2), flow(3), flow(4)};
        reinterpret_cast<unsigned char*>(&row[1])[pad_byte] ^= 0xA5;
        const FlowKey probe = flow(2);
        ASSERT_TRUE(core::detail::lane_eq(row[1], probe));
        using K = ScanKernels<FlowKey, 4, 3>;
        for (const ScanKernel k : available_kernels()) {
            EXPECT_EQ(K::get(k)(row, probe), 0b010u)
                << "kernel " << kernel_name(k) << " pad byte " << pad_byte;
        }
    }
    // And the converse: a defined-byte difference is a real mismatch.
    alignas(64) FlowKey row[4] = {flow(1), flow(2), flow(3), flow(4)};
    reinterpret_cast<unsigned char*>(&row[1])[12] ^= 0x01;  // proto byte
    using K = ScanKernels<FlowKey, 4, 3>;
    for (const ScanKernel k : available_kernels()) {
        EXPECT_EQ(K::get(k)(row, flow(2)), 0u) << kernel_name(k);
    }
}

TEST(SimdScan, DuplicateLanesReportEveryMatch) {
    const FlowKey dup = flow(9);
    alignas(64) FlowKey row[4] = {flow(1), dup, dup, dup};
    using K = ScanKernels<FlowKey, 4, 4>;
    for (const ScanKernel k : available_kernels()) {
        EXPECT_EQ(K::get(k)(row, dup), 0b1110u) << kernel_name(k);
    }
}

// -- dispatch machinery ----------------------------------------------------

TEST(SimdDispatch, KernelNamesAndAvailability) {
    EXPECT_STREQ(kernel_name(ScanKernel::kScalar), "scalar");
    EXPECT_STREQ(kernel_name(ScanKernel::kSse2), "sse2");
    EXPECT_STREQ(kernel_name(ScanKernel::kAvx2), "avx2");
    EXPECT_STREQ(kernel_name(ScanKernel::kNeon), "neon");
    EXPECT_TRUE(kernel_available(ScanKernel::kScalar));
    // The dispatched kernel is always one the CPU can run.
    EXPECT_TRUE(kernel_available(dispatched_kernel()));
    const CpuFeatures f = cpu_features();
    EXPECT_EQ(kernel_available(ScanKernel::kSse2), f.sse2);
    EXPECT_EQ(kernel_available(ScanKernel::kAvx2), f.avx2);
    EXPECT_EQ(kernel_available(ScanKernel::kNeon), f.neon);
}

TEST(SimdDispatch, OverrideRefusesUnavailableKernels) {
    const CpuFeatures f = cpu_features();
    // At most one of the SIMD families exists in one build; the other is
    // always refusable.
    const ScanKernel missing =
        f.neon ? ScanKernel::kAvx2 : ScanKernel::kNeon;
    EXPECT_FALSE(kernel_available(missing));
    EXPECT_FALSE(set_kernel_override(missing));
    EXPECT_EQ(active_kernel(), dispatched_kernel());
}

TEST(SimdDispatch, OverrideRebindsAndClears) {
    ASSERT_TRUE(set_kernel_override(ScanKernel::kScalar));
    EXPECT_EQ(active_kernel(), ScanKernel::kScalar);
    clear_kernel_override();
    EXPECT_EQ(active_kernel(), dispatched_kernel());
}

// -- slab-level stream equivalence under each forced kernel ----------------

using Slab = SoaSlab<FlowKey, std::uint32_t, 3>;

struct SlabTrace {
    std::vector<std::uint64_t> results;  // packed UpdateResult stream
    std::vector<std::byte> planes;
};

/// Drive one slab through a mixed op stream — updates (heavy MRU re-hits),
/// finds, touches, and key-plane corruption that can land on pad bytes —
/// and fingerprint every observable outcome.
SlabTrace run_slab_trace() {
    constexpr std::size_t kUnits = 64;
    Slab slab(kUnits);
    SlabTrace t;
    std::mt19937_64 rng(0xB07A);
    const auto pack = [](const UpdateResult<FlowKey, std::uint32_t>& r) {
        return (std::uint64_t{r.hit} << 63) | (std::uint64_t{r.evicted} << 62) |
               (std::uint64_t{r.hit_pos} << 56) |
               (std::uint64_t{r.evicted_value} << 16) |
               (r.evicted_key.src_ip & 0xFFFFu);
    };
    for (int i = 0; i < 20'000; ++i) {
        const std::size_t b = rng() % kUnits;
        const auto key = flow(rng() % 8);  // few keys: MRU fast path dominates
        const auto v = static_cast<std::uint32_t>(rng());
        switch (rng() % 8) {
            case 6:
                t.results.push_back(slab.find_at(b, key).value_or(0xDEAD));
                break;
            case 7:
                // Corruption that may hit pad bytes (offset % 48 covers the
                // pad of all three lanes) — the scan must keep agreeing
                // with lane_eq afterwards.
                slab.corrupt_key_at(b, rng() % 48,
                                    static_cast<std::uint8_t>(rng() | 1));
                break;
            default:
                t.results.push_back(pack(slab.update_at(b, key, v)));
                break;
        }
    }
    t.planes = testutil::plane_bytes(slab);
    return t;
}

TEST(SimdSlabEquivalence, ForcedKernelsProduceIdenticalStreams) {
    clear_kernel_override();
    const SlabTrace ref = run_slab_trace();  // dispatched kernel
    for (const ScanKernel k : available_kernels()) {
        ASSERT_TRUE(set_kernel_override(k));
        const SlabTrace got = run_slab_trace();
        EXPECT_EQ(got.results, ref.results) << kernel_name(k);
        EXPECT_EQ(got.planes, ref.planes) << kernel_name(k);
        clear_kernel_override();
    }
}

}  // namespace
}  // namespace p4lru::core::simd
