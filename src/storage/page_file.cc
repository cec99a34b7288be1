#include "storage/page_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/str_util.h"

namespace bouquet {
namespace storage {

PageFile::~PageFile() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<PageFile>> PageFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::NotFound(
        StrPrintf("open %s: %s", path.c_str(), std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal(
        StrPrintf("fstat %s: %s", path.c_str(), std::strerror(errno)));
  }
  if (st.st_size % static_cast<off_t>(kPageSize) != 0) {
    ::close(fd);
    return Status::InvalidArgument(
        StrPrintf("%s: size %lld is not page-aligned", path.c_str(),
                  static_cast<long long>(st.st_size)));
  }
  auto f = std::make_unique<PageFile>();
  f->path_ = path;
  f->fd_ = fd;
  {
    MutexLock lock(&f->mu_);
    f->num_pages_ =
        static_cast<uint32_t>(st.st_size / static_cast<off_t>(kPageSize));
  }
  return f;
}

Result<std::unique_ptr<PageFile>> PageFile::Create(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal(
        StrPrintf("create %s: %s", path.c_str(), std::strerror(errno)));
  }
  auto f = std::make_unique<PageFile>();
  f->path_ = path;
  f->fd_ = fd;
  return f;
}

Status PageFile::ReadPage(uint32_t page_no, uint8_t* frame) const {
  const off_t off = static_cast<off_t>(page_no) * kPageSize;
  size_t done = 0;
  while (done < kPageSize) {
    const ssize_t n = ::pread(fd_, frame + done, kPageSize - done,
                              off + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(StrPrintf("pread %s page %u: %s", path_.c_str(),
                                        page_no, std::strerror(errno)));
    }
    if (n == 0) {
      return Status::OutOfRange(StrPrintf("pread %s page %u: short read",
                                          path_.c_str(), page_no));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status PageFile::WritePage(uint32_t page_no, const uint8_t* frame) {
  const off_t off = static_cast<off_t>(page_no) * kPageSize;
  size_t done = 0;
  while (done < kPageSize) {
    const ssize_t n = ::pwrite(fd_, frame + done, kPageSize - done,
                               off + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(StrPrintf("pwrite %s page %u: %s", path_.c_str(),
                                        page_no, std::strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<uint32_t> PageFile::AllocatePage() {
  MutexLock lock(&mu_);
  // Grow the file by one page. The new bytes read back as zeros, so Open()'s
  // whole-pages invariant and ReadPage on a never-written allocation both
  // hold without writing the page. Allocations extend the file under mu_ in
  // page order, and pages are written only once allocated, so the size
  // never shrinks.
  const uint32_t page_no = num_pages_;
  const off_t size = static_cast<off_t>(page_no + 1) * kPageSize;
  if (::ftruncate(fd_, size) != 0) {
    return Status::Internal(StrPrintf("ftruncate %s to page %u: %s",
                                      path_.c_str(), page_no,
                                      std::strerror(errno)));
  }
  num_pages_ = page_no + 1;
  return page_no;
}

uint32_t PageFile::num_pages() const {
  MutexLock lock(&mu_);
  return num_pages_;
}

Status PageFile::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::Internal(
        StrPrintf("fsync %s: %s", path_.c_str(), std::strerror(errno)));
  }
  return Status::Ok();
}

Status PageFile::CloseAndRemove() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!path_.empty() && std::remove(path_.c_str()) != 0) {
    return Status::Internal(
        StrPrintf("remove %s: %s", path_.c_str(), std::strerror(errno)));
  }
  return Status::Ok();
}

}  // namespace storage
}  // namespace bouquet
