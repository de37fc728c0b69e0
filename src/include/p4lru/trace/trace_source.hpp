// Streaming bounded-memory trace ingestion (DESIGN.md §14).
//
// Every replay path used to materialize the whole trace as a
// std::vector<PacketRecord> before the first op ran, capping trace size at
// available RAM.  TraceSource replaces the full span with a pull-based
// batch contract over the P4LRUTRC on-disk format (trace_io.hpp), so the
// engine's resident set is O(batch) plus, for the file source, one mapping
// window — regardless of trace length.
//
// Contract:
//   * next_batch(max) returns exactly min(max, size() - tell()) records
//     (max is clamped to kMaxBatchRecords first); an empty span means end
//     of stream.  The span stays valid until the next next_batch()/seek()
//     call and is never mutated by the source.  Errors (rot discovered
//     mid-stream, a file that shrank under the reader) surface as a typed
//     Status at the batch boundary — never an exception, never a crash —
//     and are sticky: every later next_batch() returns the same Status.
//   * seek(i) repositions the stream so the next batch starts at record i
//     (byte offset kTraceHeaderBytes + i * kTraceRecordBytes).  Checkpoint
//     cursors are op-index-based, so kill-and-resume seeks instead of
//     re-reading the prefix; a seek also clears a sticky error.
//   * size() is the total record count from the validated header; tell()
//     is the index of the next record next_batch() would return.
//
// Implementations:
//   * VectorSource — wrapper over an in-memory vector (or a borrowed span);
//     the equivalence oracle.
//   * MmapSource — the one file reader (read_trace_checked drains it too).
//     It validates the header through validate_trace_header, so a corrupt
//     count field cannot drive a multi-gigabyte reserve, and maps the file
//     through one bounded window of kMmapWindowBytes, so a trace far larger
//     than the address space streams as well as one that fits.  Off POSIX
//     it degrades to plain buffered reads with identical semantics.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "p4lru/common/types.hpp"
#include "p4lru/fault/status.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/trace/trace_io.hpp"

namespace p4lru::trace {

/// Upper bound on the records any single next_batch() call hands out (and
/// therefore on the decode buffer behind it): 16 MiB of PacketRecords.
inline constexpr std::size_t kMaxBatchRecords =
    (16u << 20) / sizeof(PacketRecord);

/// Bytes of the file MmapSource maps at once.  A batch that leaves the
/// current window remaps at the batch's page-aligned start, so the window
/// must hold the largest batch plus the alignment slack of one page (64 KiB
/// bounds every common base page).  A trace that fits in one window is
/// mapped once, at its first batch.
inline constexpr std::size_t kMmapWindowBytes = std::size_t{64} << 20;
static_assert(kMmapWindowBytes >= kMaxBatchRecords * kTraceRecordBytes +
                                      (std::size_t{64} << 10),
              "a batch must always fit inside one mapping window");

/// Pull-based record stream over a packet trace (contract in the file
/// header).
class TraceSource {
  public:
    virtual ~TraceSource() = default;

    /// Exactly min(max, size() - tell()) records (after clamping max to
    /// kMaxBatchRecords); empty span = end of stream.  Span valid until the
    /// next next_batch()/seek().
    [[nodiscard]] virtual Expected<std::span<const PacketRecord>> next_batch(
        std::size_t max) = 0;

    /// Reposition so the next batch starts at record `record_index`
    /// (kInvalidArgument past size()).  Clears a sticky error.
    [[nodiscard]] virtual Status seek(std::uint64_t record_index) = 0;

    [[nodiscard]] virtual std::uint64_t size() const = 0;
    [[nodiscard]] virtual std::uint64_t tell() const = 0;
    [[nodiscard]] virtual const char* name() const = 0;
};

/// Zero-change wrapper over today's in-memory vector: batches are subspans,
/// no copies, infallible.  Owns the records (moved in) or borrows a span
/// whose lifetime the caller guarantees.
class VectorSource final : public TraceSource {
  public:
    explicit VectorSource(std::vector<PacketRecord> records)
        : owned_(std::move(records)), view_(owned_) {}
    explicit VectorSource(std::span<const PacketRecord> records)
        : view_(records) {}

    [[nodiscard]] Expected<std::span<const PacketRecord>> next_batch(
        std::size_t max) override {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(std::min(max, kMaxBatchRecords),
                                    view_.size() - cursor_));
        auto out = view_.subspan(static_cast<std::size_t>(cursor_), n);
        cursor_ += n;
        return Expected<std::span<const PacketRecord>>(out);
    }

    [[nodiscard]] Status seek(std::uint64_t record_index) override {
        if (record_index > view_.size()) {
            return Status(ErrorCode::kInvalidArgument,
                          "seek to record " + std::to_string(record_index) +
                              " past trace of " +
                              std::to_string(view_.size()));
        }
        cursor_ = record_index;
        return Status::ok();
    }

    [[nodiscard]] std::uint64_t size() const override { return view_.size(); }
    [[nodiscard]] std::uint64_t tell() const override { return cursor_; }
    [[nodiscard]] const char* name() const override { return "vector"; }

  private:
    std::vector<PacketRecord> owned_;
    std::span<const PacketRecord> view_;
    std::uint64_t cursor_ = 0;
};

struct MmapSourceOptions {
    /// Live metrics sink; null disables instrumentation (counter
    /// trace_bytes_read).
    obs::Registry* metrics = nullptr;
};

/// The P4LRUTRC file reader: batches are decoded straight from a read-only
/// mapping of at most kMmapWindowBytes into a reusable buffer (the on-disk
/// record is 28 packed bytes, the in-memory PacketRecord 32 aligned ones, so
/// a zero-copy reinterpret is impossible — but the input side is: no read
/// syscalls after open).  The window slides forward (or back, after a seek)
/// to whichever part of the file the next batch needs, advised sequential.
/// The file shrinking under the reader is detected by re-checking the
/// on-disk size before each decode, returning kTruncated instead of dying
/// on SIGBUS.  Off POSIX the mapping degrades to one buffered read per
/// batch.
class MmapSource final : public TraceSource {
  public:
    [[nodiscard]] static Expected<std::unique_ptr<MmapSource>> open(
        const std::string& path, const MmapSourceOptions& opts = {});

    ~MmapSource() override;
    MmapSource(const MmapSource&) = delete;
    MmapSource& operator=(const MmapSource&) = delete;

    [[nodiscard]] Expected<std::span<const PacketRecord>> next_batch(
        std::size_t max) override;
    [[nodiscard]] Status seek(std::uint64_t record_index) override;
    [[nodiscard]] std::uint64_t size() const override { return count_; }
    [[nodiscard]] std::uint64_t tell() const override { return cursor_; }
    [[nodiscard]] const char* name() const override { return "mmap"; }

  private:
    MmapSource() = default;

    /// Current on-disk size, for shrink detection.
    [[nodiscard]] Expected<std::uint64_t> file_size() const;
    /// Pointer to file bytes [begin, end): slides the window on POSIX,
    /// reads them into raw_ elsewhere.  Null with error_ set on failure.
    const std::uint8_t* bytes(std::uint64_t begin, std::uint64_t end);
    void unmap() noexcept;

    std::string path_;
    std::uint64_t count_ = 0;
    std::uint64_t cursor_ = 0;
    std::uint64_t mapped_size_ = 0;     ///< file size validated at open
    Status error_ = Status::ok();       ///< sticky mid-stream failure
    std::vector<PacketRecord> batch_;   ///< reusable decode buffer
    const std::uint8_t* win_ = nullptr; ///< mapped window (POSIX path)
    std::uint64_t win_off_ = 0;         ///< file offset of win_[0]
    std::uint64_t win_len_ = 0;
    std::uint64_t page_ = 0;            ///< mmap offset granularity
    int fd_ = -1;                       ///< kept open for remaps + fstat
    std::FILE* file_ = nullptr;         ///< non-POSIX fallback
    std::vector<std::uint8_t> raw_;     ///< non-POSIX read buffer
    obs::Counter* obs_bytes_ = nullptr;
};

}  // namespace p4lru::trace
