#include "store/persistent_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "util/crc32.hpp"

namespace locs::store {

namespace {

constexpr std::size_t kFrameHeader = 8;  // u32 length + u32 crc

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

Status io_error(const char* what) {
  return Status(StatusCode::kIoError,
                std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

PersistentLog::~PersistentLog() {
  if (fd_ >= 0) ::close(fd_);
}

PersistentLog::PersistentLog(PersistentLog&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      fsync_each_(other.fsync_each_),
      appended_(other.appended_) {
  other.fd_ = -1;
}

PersistentLog& PersistentLog::operator=(PersistentLog&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    fsync_each_ = other.fsync_each_;
    appended_ = other.appended_;
    other.fd_ = -1;
  }
  return *this;
}

Result<PersistentLog> PersistentLog::open(const std::string& path, bool fsync_each) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return io_error("open log");
  PersistentLog log;
  log.path_ = path;
  log.fd_ = fd;
  log.fsync_each_ = fsync_each;
  return log;
}

Status PersistentLog::append(const wire::Buffer& record) {
  return append_batch(std::span<const wire::Buffer>(&record, 1));
}

Status PersistentLog::append_batch(std::span<const wire::Buffer> records) {
  if (fd_ < 0) return Status(StatusCode::kFailedPrecondition, "log not open");
  if (records.empty()) return Status::ok();
  std::size_t total = 0;
  for (const wire::Buffer& r : records) total += kFrameHeader + r.size();
  std::vector<std::uint8_t> frames(total);
  std::uint8_t* p = frames.data();
  for (const wire::Buffer& r : records) {
    put_u32(p, static_cast<std::uint32_t>(r.size()));
    put_u32(p + 4, crc32(r.data(), r.size()));
    std::memcpy(p + kFrameHeader, r.data(), r.size());
    p += kFrameHeader + r.size();
  }
  std::size_t written = 0;
  while (written < frames.size()) {
    const ssize_t n = ::write(fd_, frames.data() + written, frames.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_error("append");
    }
    written += static_cast<std::size_t>(n);
  }
  if (fsync_each_ && ::fsync(fd_) != 0) return io_error("fsync");
  appended_ += records.size();
  return Status::ok();
}

Status PersistentLog::replay(
    const std::function<void(const std::uint8_t*, std::size_t)>& fn) const {
  if (fd_ < 0) return Status(StatusCode::kFailedPrecondition, "log not open");
  // Reads through the append descriptor at explicit offsets, so an open log
  // always replays: a read error ends it like a torn tail.
  std::vector<std::uint8_t> header(kFrameHeader);
  std::vector<std::uint8_t> payload;
  off_t off = 0;
  const auto read_at = [&](std::uint8_t* out, std::size_t len) {
    std::size_t got = 0;
    while (got < len) {
      const ssize_t m = ::pread(fd_, out + got, len - got, off);
      if (m <= 0) return false;
      got += static_cast<std::size_t>(m);
      off += m;
    }
    return true;
  };
  for (;;) {
    if (!read_at(header.data(), kFrameHeader)) break;  // clean end or torn tail
    const std::uint32_t len = get_u32(header.data());
    const std::uint32_t expected_crc = get_u32(header.data() + 4);
    if (len > 64 * 1024 * 1024) break;  // corrupt length
    payload.resize(len);
    if (!read_at(payload.data(), len)) break;  // torn tail
    if (crc32(payload.data(), payload.size()) != expected_crc) break;
    fn(payload.data(), payload.size());
  }
  return Status::ok();
}

Status PersistentLog::rewrite(const std::vector<wire::Buffer>& records) {
  if (fd_ < 0) return Status(StatusCode::kFailedPrecondition, "log not open");
  const std::string tmp_path = path_ + ".tmp";
  const int tmp = ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (tmp < 0) return io_error("open tmp");
  for (const auto& record : records) {
    std::vector<std::uint8_t> frame(kFrameHeader + record.size());
    put_u32(frame.data(), static_cast<std::uint32_t>(record.size()));
    put_u32(frame.data() + 4, crc32(record.data(), record.size()));
    std::memcpy(frame.data() + kFrameHeader, record.data(), record.size());
    std::size_t written = 0;
    while (written < frame.size()) {
      const ssize_t n = ::write(tmp, frame.data() + written, frame.size() - written);
      if (n < 0) {
        ::close(tmp);
        return io_error("write tmp");
      }
      written += static_cast<std::size_t>(n);
    }
  }
  if (::fsync(tmp) != 0) {
    ::close(tmp);
    return io_error("fsync tmp");
  }
  ::close(tmp);
  if (::rename(tmp_path.c_str(), path_.c_str()) != 0) return io_error("rename");
  // Reopen the append handle onto the new file.
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return io_error("reopen");
  appended_ = 0;  // appended() counts mutations since the last rewrite
  return Status::ok();
}

}  // namespace locs::store
