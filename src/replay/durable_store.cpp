#include "p4lru/replay/durable_store.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>
#define P4LRU_POSIX_IO 1
#endif

namespace p4lru::replay {
namespace {

namespace fs = std::filesystem;

constexpr char kGenPrefix[] = "gen-";
constexpr char kGenSuffix[] = ".ckpt";
constexpr char kTmpSuffix[] = ".tmp";

/// Record elapsed ns since `t0` into `hist` (null = no-op); shared by every
/// timed IO site below.
class [[nodiscard]] ScopedNsTimer {
  public:
    explicit ScopedNsTimer(obs::Histogram* hist)
        : hist_(hist),
          t0_(hist != nullptr ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{}) {}
    ~ScopedNsTimer() {
        if (hist_ != nullptr) {
            hist_->record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0_)
                    .count()));
        }
    }
    ScopedNsTimer(const ScopedNsTimer&) = delete;
    ScopedNsTimer& operator=(const ScopedNsTimer&) = delete;

  private:
    obs::Histogram* hist_;
    std::chrono::steady_clock::time_point t0_;
};

#ifdef P4LRU_POSIX_IO
Status fsync_path(const std::string& path, bool directory,
                  obs::Histogram* fsync_ns = nullptr) {
    errno = 0;
    const int fd =
        ::open(path.c_str(), directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
    if (fd < 0) {
        return io_error_errno("atomic_write_file: cannot open for fsync",
                              path);
    }
    errno = 0;
    int rc = 0;
    {
        ScopedNsTimer timer(fsync_ns);
        rc = ::fsync(fd);
    }
    ::close(fd);
    if (rc != 0) {
        return io_error_errno("atomic_write_file: fsync failed on", path);
    }
    return Status::ok();
}
#endif

/// Write `image` to `path` (plain, non-atomic) — the torn-crash
/// injector's tool and atomic_write_file's first phase.
Status write_bytes_plain(const std::string& path,
                         const io::GatherImage& image, bool sync,
                         obs::Histogram* fsync_ns = nullptr) {
#ifdef P4LRU_POSIX_IO
    errno = 0;
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        return io_error_errno("durable_store: cannot open for write", path);
    }
    const auto writev_fd = [fd](std::span<const std::span<const std::byte>>
                                    parts) -> long {
        std::array<iovec, detail::kMaxGatherParts> iov;
        for (std::size_t i = 0; i < parts.size(); ++i) {
            // writev only reads the buffers; iovec just has no const.
            iov[i] = {const_cast<std::byte*>(parts[i].data()),
                      parts[i].size()};
        }
        return ::writev(fd, iov.data(), static_cast<int>(parts.size()));
    };
    if (Status st = detail::write_gather(image, writev_fd, path);
        !st.is_ok()) {
        ::close(fd);
        return st;
    }
    if (sync) {
        errno = 0;
        int rc = 0;
        {
            ScopedNsTimer timer(fsync_ns);
            rc = ::fsync(fd);
        }
        if (rc != 0) {
            const Status st =
                io_error_errno("durable_store: fsync failed on", path);
            ::close(fd);
            return st;
        }
    }
    errno = 0;
    if (::close(fd) != 0) {
        return io_error_errno("durable_store: close failed on", path);
    }
    return Status::ok();
#else
    errno = 0;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        return io_error_errno("durable_store: cannot open for write", path);
    }
    for (std::size_t i = 0; i < image.part_count(); ++i) {
        const std::span<const std::byte> part = image.part(i);
        os.write(reinterpret_cast<const char*>(part.data()),
                 static_cast<std::streamsize>(part.size()));
    }
    os.flush();
    if (!os) {
        return io_error_errno("durable_store: write failed to", path);
    }
    (void)sync;  // no portable fsync without POSIX
    (void)fsync_ns;
    return Status::ok();
#endif
}

std::string gen_filename(std::uint64_t seq) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%06llu%s", kGenPrefix,
                  static_cast<unsigned long long>(seq), kGenSuffix);
    return buf;
}

/// gen-000123.ckpt -> 123; anything else (including .tmp leftovers) -> 0.
std::uint64_t parse_gen_seq(const std::string& name) {
    const std::size_t prefix = sizeof(kGenPrefix) - 1;
    const std::size_t suffix = sizeof(kGenSuffix) - 1;
    if (name.size() <= prefix + suffix) return 0;
    if (name.compare(0, prefix, kGenPrefix) != 0) return 0;
    if (name.compare(name.size() - suffix, suffix, kGenSuffix) != 0) {
        return 0;
    }
    std::uint64_t seq = 0;
    for (std::size_t i = prefix; i < name.size() - suffix; ++i) {
        const char c = name[i];
        if (c < '0' || c > '9') return 0;
        seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return seq;
}

/// The byte boundary a torn crash cuts the image at: one of the section
/// ends strictly before the file end, selected by the event's arg.
std::uint64_t torn_cut(const SerializedCheckpoint& image,
                       std::uint64_t section) {
    if (image.section_ends.size() < 2) {
        return image.image.size() / 2;
    }
    const std::size_t cuts = image.section_ends.size() - 1;  // strict only
    return image.section_ends[static_cast<std::size_t>(section % cuts)];
}

}  // namespace

namespace detail {

Status write_gather(const io::GatherImage& image, const GatherWriteFn& write,
                    const std::string& path) {
    std::vector<std::span<const std::byte>> parts;
    parts.reserve(image.part_count());
    for (std::size_t i = 0; i < image.part_count(); ++i) {
        if (!image.part(i).empty()) parts.push_back(image.part(i));
    }
    std::size_t next = 0;  // first part not yet fully written
    while (next < parts.size()) {
        const std::size_t count =
            std::min(parts.size() - next, kMaxGatherParts);
        errno = 0;
        const long n = write(std::span(parts).subspan(next, count));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
            if (n == 0) errno = EIO;  // no progress on a non-empty request
            return io_error_errno("durable_store: write failed to", path);
        }
        // Skip the parts the call finished; trim a part it cut short.
        auto left = static_cast<std::size_t>(n);
        while (next < parts.size() && left >= parts[next].size()) {
            left -= parts[next].size();
            ++next;
        }
        if (left != 0) parts[next] = parts[next].subspan(left);
    }
    return Status::ok();
}

}  // namespace detail

Expected<std::vector<std::byte>> read_file_bytes(const std::string& path) {
    errno = 0;
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is) {
        return io_error_errno("read_file_bytes: cannot open", path);
    }
    // A directory opens fine but "ends" at -1 or at LLONG_MAX depending on
    // the filesystem; either would size the buffer.  Only regular files
    // have a byte length to read.
    std::error_code ec;
    const std::streamoff end = is.tellg();
    if (!fs::is_regular_file(path, ec) || end < 0) {
        return io_error("read_file_bytes: not a regular file '" + path + "'");
    }
    const auto size = static_cast<std::uint64_t>(end);
    is.seekg(0);
    std::vector<std::byte> bytes(static_cast<std::size_t>(size));
    if (size != 0) {
        errno = 0;
        is.read(reinterpret_cast<char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        if (is.gcount() != static_cast<std::streamsize>(bytes.size())) {
            return io_error_errno("read_file_bytes: read failed on", path);
        }
    }
    return bytes;
}

Status atomic_write_file(const std::string& path,
                         const io::GatherImage& image, bool sync,
                         obs::Registry* metrics) {
    obs::Histogram* fsync_ns =
        metrics != nullptr ? metrics->histogram("store_fsync_ns") : nullptr;
    const std::string tmp = path + kTmpSuffix;
    if (Status st = write_bytes_plain(tmp, image, sync, fsync_ns);
        !st.is_ok()) {
        std::error_code ec;
        fs::remove(tmp, ec);
        return st;
    }
    errno = 0;
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const Status st = io_error_errno(
            "atomic_write_file: rename to '" + path + "' failed from", tmp);
        std::error_code ec;
        fs::remove(tmp, ec);
        return st;
    }
#ifdef P4LRU_POSIX_IO
    if (sync) {
        // Durability of the *name*: the rename is only on disk once the
        // directory entry is.  Failure here is reported but the install
        // itself already happened.
        const std::string dir = fs::path(path).parent_path().string();
        if (Status st = fsync_path(dir.empty() ? "." : dir, true, fsync_ns);
            !st.is_ok()) {
            return st;
        }
    }
#endif
    return Status::ok();
}

Status DurableStore::ensure_dir() const {
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        return io_error("durable_store: cannot create directory '" + dir_ +
                        "': " + ec.message());
    }
    return Status::ok();
}

std::vector<GenerationInfo> DurableStore::list() const {
    std::vector<GenerationInfo> gens;
    std::error_code ec;
    fs::directory_iterator it(dir_, ec);
    if (ec) return gens;  // missing directory == empty store
    for (const auto& entry : it) {
        if (!entry.is_regular_file(ec)) continue;
        const std::string name = entry.path().filename().string();
        const std::uint64_t seq = parse_gen_seq(name);
        if (seq == 0) continue;  // .tmp leftovers, foreign files
        gens.push_back({seq, entry.path().string()});
    }
    std::sort(gens.begin(), gens.end(),
              [](const GenerationInfo& a, const GenerationInfo& b) {
                  return a.seq < b.seq;
              });
    return gens;
}

Expected<GenerationInfo> DurableStore::install(
    const SerializedCheckpoint& image) {
    Expected<InstallOutcome> out = install_with_crash(image, nullptr);
    if (!out.is_ok()) return out.status();
    return out.value().gen;
}

Expected<InstallOutcome> DurableStore::install_with_crash(
    const SerializedCheckpoint& image, const fault::CrashEvent* crash) {
    obs::Histogram* install_ns =
        cfg_.metrics != nullptr ? cfg_.metrics->histogram("store_install_ns")
                                : nullptr;
    ScopedNsTimer install_timer(install_ns);
    if (Status st = ensure_dir(); !st.is_ok()) return st;
    std::uint64_t seq = 0;
    for (const auto& g : list()) seq = std::max(seq, g.seq);
    ++seq;
    const std::string final_path =
        (fs::path(dir_) / gen_filename(seq)).string();
    InstallOutcome out;
    out.gen = {seq, final_path};
    if (crash != nullptr) {
        out.crashed = true;
        using fault::CrashPoint;
        switch (crash->point) {
            case CrashPoint::kBeforeWrite:
                return out;  // died before any byte hit disk
            case CrashPoint::kTornTemp:
            case CrashPoint::kTornInstall: {
                // Died mid-write: a strict prefix of the image, cut at a
                // section boundary, remains — at the temp name (normal
                // protocol) or at the final name (a filesystem whose
                // rename/overwrite is not atomic).  Either way the next
                // recovery must skip it.
                const std::uint64_t cut = torn_cut(image, crash->arg);
                const std::string where =
                    crash->point == CrashPoint::kTornTemp
                        ? final_path + kTmpSuffix
                        : final_path;
                if (Status st = write_bytes_plain(
                        where,
                        image.image.prefix(static_cast<std::size_t>(cut)),
                        false);
                    !st.is_ok()) {
                    return st;
                }
                return out;
            }
            case CrashPoint::kBeforeRename: {
                // Full temp written and synced; the rename never happened.
                if (Status st = write_bytes_plain(final_path + kTmpSuffix,
                                                  image.image, cfg_.sync);
                    !st.is_ok()) {
                    return st;
                }
                return out;
            }
            case CrashPoint::kAfterInstall: {
                // Generation installed; died before pruning.
                if (Status st = atomic_write_file(final_path, image.image,
                                                  cfg_.sync, cfg_.metrics);
                    !st.is_ok()) {
                    return st;
                }
                out.installed = true;
                return out;
            }
            case CrashPoint::kBetweenEpochs:
                // The install itself completes; the crash fires later,
                // between dispatch epochs (handled by the supervisor).
                break;
        }
    }
    if (Status st = atomic_write_file(final_path, image.image, cfg_.sync,
                                      cfg_.metrics);
        !st.is_ok()) {
        return st;
    }
    out.installed = true;
    if (Status st = prune(); !st.is_ok()) return st;
    return out;
}

Status DurableStore::prune() const {
    std::vector<GenerationInfo> gens = list();
    if (gens.size() <= cfg_.retain) return Status::ok();
    // The newest generation that actually verifies is immune: a burst of
    // torn installs above it must never push the last recoverable state
    // out of the window.
    std::uint64_t newest_valid = 0;
    for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
        Expected<std::vector<std::byte>> image = read_file_bytes(it->path);
        if (image.is_ok() &&
            verify_checkpoint_image(image.value(), it->path).is_ok()) {
            newest_valid = it->seq;
            break;
        }
    }
    Status first_error = Status::ok();
    const std::size_t drop = gens.size() - cfg_.retain;
    for (std::size_t i = 0; i < drop; ++i) {
        if (gens[i].seq == newest_valid) continue;
        std::error_code ec;
        fs::remove(gens[i].path, ec);
        if (ec && first_error.is_ok()) {
            first_error =
                io_error("durable_store: cannot remove old generation '" +
                         gens[i].path + "': " + ec.message());
        }
    }
    return first_error;
}

}  // namespace p4lru::replay
