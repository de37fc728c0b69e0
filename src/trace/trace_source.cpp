#include "p4lru/trace/trace_source.hpp"

#include <cerrno>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define P4LRU_TRACE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define P4LRU_TRACE_HAVE_MMAP 0
#endif

namespace p4lru::trace {

Expected<std::unique_ptr<MmapSource>> MmapSource::open(
    const std::string& path, const MmapSourceOptions& opts) {
    // Owned from the first handle on: every early return below closes it
    // through the destructor.
    std::unique_ptr<MmapSource> src(new MmapSource());
    src->path_ = path;
    errno = 0;
#if P4LRU_TRACE_HAVE_MMAP
    src->fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (src->fd_ < 0) {
        return io_error_errno("trace_source: cannot open", path);
    }
    src->page_ = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
#else
    src->file_ = std::fopen(path.c_str(), "rb");
    if (src->file_ == nullptr) {
        return io_error_errno("trace_source: cannot open", path);
    }
#endif
    const Expected<std::uint64_t> size = src->file_size();
    if (!size.is_ok()) return size.status();
    std::uint8_t hdr[kTraceHeaderBytes] = {};
    if (size.value() >= kTraceHeaderBytes) {
        errno = 0;
#if P4LRU_TRACE_HAVE_MMAP
        const bool read_ok =
            ::pread(src->fd_, hdr, sizeof(hdr), 0) ==
            static_cast<ssize_t>(sizeof(hdr));
#else
        const bool read_ok =
            std::fseek(src->file_, 0, SEEK_SET) == 0 &&
            std::fread(hdr, 1, sizeof(hdr), src->file_) == sizeof(hdr);
#endif
        if (!read_ok) {
            return io_error_errno("trace_source: header read failed on",
                                  path);
        }
    }
    const Expected<TraceHeaderInfo> info =
        validate_trace_header(hdr, size.value(), path);
    if (!info.is_ok()) return info.status();

    src->count_ = info.value().count;
    src->mapped_size_ = info.value().file_size;
    if (opts.metrics != nullptr) {
        src->obs_bytes_ = opts.metrics->counter("trace_bytes_read");
    }
    return Expected<std::unique_ptr<MmapSource>>(std::move(src));
}

MmapSource::~MmapSource() {
    unmap();
#if P4LRU_TRACE_HAVE_MMAP
    if (fd_ >= 0) ::close(fd_);
#endif
    if (file_ != nullptr) std::fclose(file_);
}

void MmapSource::unmap() noexcept {
#if P4LRU_TRACE_HAVE_MMAP
    if (win_ != nullptr) {
        ::munmap(const_cast<std::uint8_t*>(win_),
                 static_cast<std::size_t>(win_len_));
    }
#endif
    win_ = nullptr;
    win_off_ = 0;
    win_len_ = 0;
}

Expected<std::uint64_t> MmapSource::file_size() const {
    errno = 0;
#if P4LRU_TRACE_HAVE_MMAP
    struct stat st{};
    if (::fstat(fd_, &st) != 0) {
        return io_error_errno("trace_source: fstat failed on", path_);
    }
    return static_cast<std::uint64_t>(st.st_size);
#else
    if (std::fseek(file_, 0, SEEK_END) != 0) {
        return io_error_errno("trace_source: size probe failed on", path_);
    }
    const long end = std::ftell(file_);
    if (end < 0) {
        return io_error_errno("trace_source: size probe failed on", path_);
    }
    return static_cast<std::uint64_t>(end);
#endif
}

const std::uint8_t* MmapSource::bytes(std::uint64_t begin,
                                      std::uint64_t end) {
    errno = 0;
#if P4LRU_TRACE_HAVE_MMAP
    if (win_ == nullptr || begin < win_off_ || end > win_off_ + win_len_) {
        unmap();
        // kMmapWindowBytes holds a whole batch plus the alignment slack,
        // so [begin, end) lies inside the new window.
        const std::uint64_t off = begin - begin % page_;
        const std::uint64_t len =
            std::min<std::uint64_t>(kMmapWindowBytes, mapped_size_ - off);
        void* m = ::mmap(nullptr, static_cast<std::size_t>(len), PROT_READ,
                         MAP_PRIVATE, fd_, static_cast<off_t>(off));
        if (m == MAP_FAILED) {
            error_ = io_error_errno("trace_source: mmap failed on", path_);
            return nullptr;
        }
        // Advisory only: a kernel that ignores it just reads ahead less.
        (void)::madvise(m, static_cast<std::size_t>(len), MADV_SEQUENTIAL);
        win_ = static_cast<const std::uint8_t*>(m);
        win_off_ = off;
        win_len_ = len;
    }
    return win_ + (begin - win_off_);
#else
    raw_.resize(static_cast<std::size_t>(end - begin));
    if (std::fseek(file_, static_cast<long>(begin), SEEK_SET) != 0 ||
        std::fread(raw_.data(), 1, raw_.size(), file_) != raw_.size()) {
        error_ = io_error_errno("trace_source: read failed on", path_);
        return nullptr;
    }
    return raw_.data();
#endif
}

Expected<std::span<const PacketRecord>> MmapSource::next_batch(
    std::size_t max) {
    if (!error_.is_ok()) return error_;
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
        std::min(max, kMaxBatchRecords), count_ - cursor_));
    if (n == 0) {
        return Expected<std::span<const PacketRecord>>(
            std::span<const PacketRecord>{});
    }
    const std::uint64_t begin =
        kTraceHeaderBytes + cursor_ * kTraceRecordBytes;
    const std::uint64_t end = begin + n * kTraceRecordBytes;

    // A mapping outlives the file contents: if the file shrank since open,
    // touching pages past the new EOF raises SIGBUS.  Re-check the on-disk
    // size before every decode and turn a shrink into a typed error at the
    // batch boundary.
    const Expected<std::uint64_t> sz = file_size();
    if (!sz.is_ok()) {
        error_ = sz.status();
        return error_;
    }
    if (sz.value() < end) {
        error_ = Status(ErrorCode::kTruncated,
                        "trace shrank to " + std::to_string(sz.value()) +
                            " bytes under an open reader ('" + path_ + "')",
                        sz.value());
        return error_;
    }

    const std::uint8_t* p = bytes(begin, end);
    if (p == nullptr) return error_;
    batch_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        batch_[i] = decode_trace_record(p + i * kTraceRecordBytes);
    }
    cursor_ += n;
    if (obs_bytes_ != nullptr) {
        obs_bytes_->add(static_cast<std::uint64_t>(n) * kTraceRecordBytes);
    }
    return Expected<std::span<const PacketRecord>>(
        std::span<const PacketRecord>(batch_.data(), n));
}

Status MmapSource::seek(std::uint64_t record_index) {
    if (record_index > count_) {
        return Status(ErrorCode::kInvalidArgument,
                      "seek to record " + std::to_string(record_index) +
                          " past trace of " + std::to_string(count_));
    }
    cursor_ = record_index;
    error_ = Status::ok();
    return Status::ok();
}

}  // namespace p4lru::trace
