#include "nn/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/crc32.h"

namespace cews::nn {

namespace {

constexpr char kMagic[8] = {'C', 'E', 'W', 'S', 'P', 'A', 'R', '1'};
// Footer: 4-byte tag + CRC-32 (little-endian) over every preceding byte.
constexpr char kFooterTag[4] = {'C', 'R', 'C', '1'};
constexpr size_t kFooterSize = sizeof(kFooterTag) + sizeof(uint32_t);

// Sanity cap on per-tensor rank: every architecture in this repo is rank
// <= 4 (conv weights). A header claiming more is corrupt or hostile, and
// must be rejected before any allocation is sized from it.
constexpr uint64_t kMaxNdim = 8;

void AppendBytes(std::string& out, const void* p, size_t n) {
  out.append(static_cast<const char*>(p), n);
}

/// Bounds-checked forward-only reader over an in-memory file image.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  bool Read(void* dst, size_t n) {
    const char* p = Skip(n);
    if (p == nullptr) return false;
    std::memcpy(dst, p, n);
    return true;
  }

  /// Steps over the next `n` bytes and returns where they start, or nullptr
  /// (without moving) when fewer remain.
  const char* Skip(size_t n) {
    if (size_ - pos_ < n) return nullptr;
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

Status SaveParameters(const std::string& path,
                      const std::vector<Tensor>& params, SaveInfo* info) {
  // Assemble the whole file in memory: the CRC then covers exactly the
  // bytes on disk, and the on-disk write is all-or-nothing via rename.
  std::string buf;
  AppendBytes(buf, kMagic, sizeof(kMagic));
  const uint64_t count = params.size();
  AppendBytes(buf, &count, sizeof(count));
  for (const Tensor& t : params) {
    if (!t.defined()) return Status::InvalidArgument("undefined tensor");
    const uint64_t ndim = t.shape().size();
    AppendBytes(buf, &ndim, sizeof(ndim));
    for (Index d : t.shape()) {
      const int64_t dim = d;
      AppendBytes(buf, &dim, sizeof(dim));
    }
    AppendBytes(buf, t.data(), sizeof(float) * static_cast<size_t>(t.numel()));
  }
  const uint32_t crc = ComputeCrc32(buf.data(), buf.size());
  AppendBytes(buf, kFooterTag, sizeof(kFooterTag));
  AppendBytes(buf, &crc, sizeof(crc));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp + " for writing");
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IOError("short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " -> " + path);
  }
  if (info != nullptr) {
    info->bytes = buf.size();
    info->crc32 = crc;
  }
  return Status::OK();
}

Status LoadParameters(const std::string& path,
                      const std::vector<Tensor>& params) {
  std::string buf;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("cannot open " + path);
    std::ostringstream contents;
    contents << in.rdbuf();
    if (in.bad()) return Status::IOError("cannot read " + path);
    buf = std::move(contents).str();
  }

  if (buf.size() < sizeof(kMagic) ||
      std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + ": not a CEWS parameter file");
  }
  // Every file SaveParameters writes ends with the tag + CRC; verify the
  // checksum before trusting a single header field.
  if (buf.size() < sizeof(kMagic) + kFooterSize ||
      std::memcmp(buf.data() + buf.size() - kFooterSize, kFooterTag,
                  sizeof(kFooterTag)) != 0) {
    return Status::IOError(
        path + ": no CRC32 footer (truncated, or written before the "
               "footer existed); re-save the checkpoint with the current "
               "writer");
  }
  const size_t payload_end = buf.size() - kFooterSize;
  uint32_t stored = 0;
  std::memcpy(&stored, buf.data() + payload_end + sizeof(kFooterTag),
              sizeof(stored));
  const uint32_t actual = ComputeCrc32(buf.data(), payload_end);
  if (stored != actual) {
    std::ostringstream msg;
    msg << path << ": CRC32 mismatch (stored " << std::hex << stored
        << ", computed " << actual << ") — checkpoint is corrupt";
    return Status::IOError(msg.str());
  }

  ByteReader reader(buf.data() + sizeof(kMagic),
                    payload_end - sizeof(kMagic));
  uint64_t count = 0;
  if (!reader.Read(&count, sizeof(count))) {
    return Status::IOError(path + ": truncated header");
  }
  if (count != params.size()) {
    return Status::InvalidArgument(path +
                                   ": checkpoint tensor count mismatch (" +
                                   std::to_string(count) + " vs " +
                                   std::to_string(params.size()) + ")");
  }
  // First pass: every header, size and the trailing-byte count is checked
  // before any parameter is written, so a rejected file leaves the model as
  // it was.
  std::vector<const char*> payloads;
  payloads.reserve(params.size());
  for (const Tensor& param : params) {
    uint64_t ndim = 0;
    if (!reader.Read(&ndim, sizeof(ndim))) {
      return Status::IOError(path + ": truncated header");
    }
    if (ndim > kMaxNdim) {
      return Status::InvalidArgument(
          path + ": implausible tensor rank " + std::to_string(ndim) +
          " (cap " + std::to_string(kMaxNdim) + "); header is corrupt");
    }
    Shape shape(ndim);
    for (uint64_t i = 0; i < ndim; ++i) {
      int64_t dim = 0;
      if (!reader.Read(&dim, sizeof(dim))) {
        return Status::IOError(path + ": truncated header");
      }
      if (dim < 0) {
        return Status::InvalidArgument(path + ": negative dimension " +
                                       std::to_string(dim) +
                                       "; header is corrupt");
      }
      shape[i] = dim;
    }
    if (shape != param.shape()) {
      return Status::InvalidArgument(
          path + ": shape mismatch, checkpoint " + ShapeToString(shape) +
          " vs model " + ShapeToString(param.shape()));
    }
    // shape == param.shape(), so the byte count is bounded by the model,
    // never by untrusted header fields; a short file fails here cleanly.
    const char* payload =
        reader.Skip(sizeof(float) * static_cast<size_t>(param.numel()));
    if (payload == nullptr) {
      return Status::IOError(path + ": truncated data");
    }
    payloads.push_back(payload);
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument(
        path + ": " + std::to_string(reader.remaining()) +
        " trailing bytes after the last tensor");
  }
  // Second pass: the file is valid, copy it in.
  for (size_t i = 0; i < params.size(); ++i) {
    Tensor t = params[i];
    std::memcpy(t.data(), payloads[i],
                sizeof(float) * static_cast<size_t>(t.numel()));
  }
  return Status::OK();
}

}  // namespace cews::nn
