// Generational durable checkpoint store (DESIGN.md §12).
//
// target_checkpoint renders a checkpoint to a sealed P4LRUTGC image
// (checkpoint_io); this layer owns getting that image onto disk so that a
// crash at ANY instant leaves the store recoverable:
//
//   * atomic install — the image is written to `<final>.tmp`, fsync'd,
//     renamed over the final name, and the directory entry is fsync'd.  A
//     crash before the rename leaves only a `.tmp` the discovery scan
//     ignores; a crash after it leaves a complete, sealed generation.
//     POSIX rename is atomic, so no reader ever observes a half-file at a
//     final name — and if the filesystem lies (or the image was torn some
//     other way), the per-section CRC seal catches it at read time.
//
//   * generations — each install lands at `gen-000001.ckpt`,
//     `gen-000002.ckpt`, ...; the newest `retain` generations are kept.
//     Pruning never deletes the newest generation that actually verifies,
//     even when fresher (torn) files exist above it, so the recovery ladder
//     cannot be left empty by a burst of crashes.
//
//   * recovery ladder — recover_newest walks generations newest→oldest,
//     parsing each with the caller's parser (format parse + CRC check +
//     whatever semantic validation the caller adds) and returns the first
//     one that passes, together with a typed fault::Status for every
//     fresher generation it had to skip.  No valid generation → cold
//     start, reported as found=false, never as an error.
//
// The store is format-agnostic: it moves SerializedCheckpoint images and
// raw bytes.  Its one format question — does a generation verify, for
// pruning's immunity rule? — goes to verify_checkpoint_image
// (checkpoint_io.hpp), which judges an image without knowing its Stats
// type; the p4lru_ckpt CLI uses the same probe.
//
// Crash injection: install_with_crash executes the install protocol up to
// a fault::CrashPoint and then stops, leaving exactly the on-disk state a
// real death at that instant would — including deliberately torn images
// for the kTorn* points.  The supervisor (supervisor.hpp) drives it from a
// FaultPlan; the fuzz/crash sweeps in tests/fault prove every reachable
// state recovers.
#pragma once

#include <climits>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/fault/status.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/replay/checkpoint_io.hpp"

namespace p4lru::replay {

struct DurableStoreConfig {
    std::size_t retain = 4;  ///< generations kept after each install (>= 1)
    bool sync = true;        ///< fsync file + directory on install (POSIX)
    /// Live metrics sink (obs/metrics.hpp); null = no instrumentation.
    /// Histograms store_install_ns (whole atomic install) and
    /// store_fsync_ns (file + directory fsync within it).
    obs::Registry* metrics = nullptr;
};

/// One installed generation file.
struct GenerationInfo {
    std::uint64_t seq = 0;  ///< monotonically increasing generation number
    std::string path;

    friend bool operator==(const GenerationInfo&,
                           const GenerationInfo&) = default;
};

/// A generation the recovery scan had to skip, and why (torn write,
/// flipped bit, wrong shape, ...).
struct GenerationRejection {
    std::uint64_t seq = 0;
    std::string path;
    Status status;
};

/// What install_with_crash actually did.
struct InstallOutcome {
    bool installed = false;  ///< a complete generation landed at gen.path
    bool crashed = false;    ///< the injected crash fired during this install
    GenerationInfo gen;      ///< valid when installed
};

/// Slurp a whole regular file; kIoError (path + errno) on any failure,
/// including a path that cannot be sized (a directory, a pipe).
[[nodiscard]] Expected<std::vector<std::byte>> read_file_bytes(
    const std::string& path);

/// Write `image` to `path` atomically: temp file + (optional) fsync +
/// rename + directory fsync.  The parts go out through one writev loop
/// (detail::write_gather), straight from where they live; a plain buffer
/// is a one-part image.  On failure the temp file is removed and the final
/// path is untouched.  A non-null `metrics` records the fsync time (file +
/// directory) into histogram store_fsync_ns.
[[nodiscard]] Status atomic_write_file(const std::string& path,
                                       const io::GatherImage& image,
                                       bool sync = true,
                                       obs::Registry* metrics = nullptr);

namespace detail {

/// Most parts one writev call takes (POSIX IOV_MAX; 1024 on Linux).
#ifdef IOV_MAX
inline constexpr std::size_t kMaxGatherParts = IOV_MAX;
#else
inline constexpr std::size_t kMaxGatherParts = 1024;
#endif

/// One writev-shaped call: write the parts in order and return the bytes
/// written — possibly fewer than asked, even mid-part — or -1 with errno.
using GatherWriteFn =
    std::function<long(std::span<const std::span<const std::byte>>)>;

/// The gather writer: every byte of `image`, in order, through `write` —
/// at most kMaxGatherParts parts per call, a short count resumed mid-part,
/// EINTR retried.  kIoError naming `path` on a failed or stalled call.
[[nodiscard]] Status write_gather(const io::GatherImage& image,
                                  const GatherWriteFn& write,
                                  const std::string& path);

}  // namespace detail

class DurableStore {
  public:
    explicit DurableStore(std::string dir, DurableStoreConfig cfg = {})
        : dir_(std::move(dir)), cfg_(cfg) {
        if (cfg_.retain == 0) cfg_.retain = 1;
    }

    [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
    [[nodiscard]] const DurableStoreConfig& config() const noexcept {
        return cfg_;
    }

    /// Create the store directory if missing (one level).
    [[nodiscard]] Status ensure_dir() const;

    /// Installed generations, ascending by sequence number.  `.tmp` files
    /// and foreign names are ignored; a missing directory lists as empty.
    [[nodiscard]] std::vector<GenerationInfo> list() const;

    /// Atomically install `image` as the next generation, then prune.
    [[nodiscard]] Expected<GenerationInfo> install(
        const SerializedCheckpoint& image);

    /// install() driven up to an injected crash: executes the atomic-
    /// install protocol until `crash` (nullptr = no crash, full install)
    /// and stops there, leaving the exact on-disk state a process death at
    /// that point would.  The torn points cut the image at section
    /// boundary `crash->arg` (mod the section count), so the remains are
    /// a strict prefix ending between sections — the hardest torn file to
    /// tell from a real one without the seal.
    [[nodiscard]] Expected<InstallOutcome> install_with_crash(
        const SerializedCheckpoint& image, const fault::CrashEvent* crash);

    /// Delete old generations: keeps the newest `retain`, plus — always —
    /// the newest generation whose image verifies, so a burst of torn
    /// installs can never prune the last recoverable state.  install()
    /// calls this; public for tests and the CLI.
    [[nodiscard]] Status prune() const;

    /// Walk generations newest→oldest and return the first one `parse`
    /// accepts.  `parse` is called as
    /// `Expected<T> parse(const std::vector<std::byte>& image,
    ///                    const std::string& origin)`
    /// and should layer semantic validation (does this checkpoint fit MY
    /// target?) on top of the format parse, so shape-mismatched
    /// generations are skipped like corrupt ones.  Unreadable or rejected
    /// generations are recorded in `rejected` (newest first) and skipped;
    /// an empty store (or one with no acceptable generation) is a cold
    /// start: found == false, not an error.
    template <typename Parse>
    [[nodiscard]] auto recover_newest(Parse&& parse) const {
        using ExpectedT = std::invoke_result_t<
            Parse&, const std::vector<std::byte>&, const std::string&>;
        using T = std::remove_cvref_t<
            decltype(std::declval<ExpectedT>().value())>;
        struct Result {
            bool found = false;
            T checkpoint{};
            GenerationInfo gen;
            std::vector<GenerationRejection> rejected;  ///< newest first
        } result;
        std::vector<GenerationInfo> gens = list();
        for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
            Expected<std::vector<std::byte>> image =
                read_file_bytes(it->path);
            if (!image.is_ok()) {
                result.rejected.push_back(
                    {it->seq, it->path, image.status()});
                continue;
            }
            ExpectedT parsed = parse(image.value(), it->path);
            if (!parsed.is_ok()) {
                result.rejected.push_back(
                    {it->seq, it->path, parsed.status()});
                continue;
            }
            result.found = true;
            result.checkpoint = std::move(parsed).value();
            result.gen = *it;
            return result;
        }
        return result;
    }

  private:
    std::string dir_;
    DurableStoreConfig cfg_;
};

}  // namespace p4lru::replay
