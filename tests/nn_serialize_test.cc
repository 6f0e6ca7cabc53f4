#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/status.h"
#include "nn/tensor.h"

namespace cews::nn {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<Tensor> MakeParams(float base) {
  std::vector<Tensor> params;
  std::vector<float> a(12);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = base + static_cast<float>(i) * 0.25f;
  }
  params.push_back(Tensor::FromData({3, 4}, a));
  std::vector<float> b(5);
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = -base * static_cast<float>(i + 1);
  }
  params.push_back(Tensor::FromData({5}, b));
  return params;
}

void ExpectSameValues(const std::vector<Tensor>& a,
                      const std::vector<Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].shape(), b[i].shape());
    for (Index j = 0; j < a[i].numel(); ++j) {
      EXPECT_EQ(a[i].data()[j], b[i].data()[j]) << "tensor " << i;
    }
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// What SaveParameters writes before its footer: magic | count | per tensor
/// ndim, dims, data — byte-for-byte a checkpoint with the footer cut off.
std::string FooterlessBytes(const std::vector<Tensor>& params) {
  std::string buf;
  buf.append("CEWSPAR1", 8);
  const uint64_t count = params.size();
  buf.append(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Tensor& t : params) {
    const uint64_t ndim = t.shape().size();
    buf.append(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
    for (Index d : t.shape()) {
      const int64_t dim = d;
      buf.append(reinterpret_cast<const char*>(&dim), sizeof(dim));
    }
    buf.append(reinterpret_cast<const char*>(t.data()),
               sizeof(float) * static_cast<size_t>(t.numel()));
  }
  return buf;
}

/// `bytes` plus a valid footer ("CRC1" + CRC-32 of `bytes`), so a corrupt
/// header or payload inside gets past the checksum to the check it targets.
std::string WithCrcFooter(std::string bytes) {
  const uint32_t crc = ComputeCrc32(bytes.data(), bytes.size());
  bytes.append("CRC1", 4);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return bytes;
}

TEST(SerializeTest, RoundTripWithCrcFooter) {
  const std::string path = TempPath("roundtrip.bin");
  const std::vector<Tensor> saved = MakeParams(1.5f);
  SaveInfo info;
  ASSERT_TRUE(SaveParameters(path, saved, &info).ok());

  const std::string bytes = ReadFile(path);
  EXPECT_EQ(info.bytes, bytes.size());
  EXPECT_NE(info.crc32, 0u);
  // Footer: tag + little-endian CRC as the final 8 bytes.
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(bytes.size() - 8, 4), "CRC1");

  std::vector<Tensor> loaded = MakeParams(0.0f);
  for (Tensor& t : loaded) {
    std::memset(t.data(), 0, sizeof(float) * static_cast<size_t>(t.numel()));
  }
  ASSERT_TRUE(LoadParameters(path, loaded).ok());
  ExpectSameValues(saved, loaded);
}

TEST(SerializeTest, SaveLeavesNoTmpFile) {
  const std::string path = TempPath("notmp.bin");
  ASSERT_TRUE(SaveParameters(path, MakeParams(2.0f)).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
}

TEST(SerializeTest, InterruptedRewriteLeavesPreviousCheckpointReadable) {
  const std::string path = TempPath("interrupted.bin");
  const std::vector<Tensor> v1 = MakeParams(3.0f);
  ASSERT_TRUE(SaveParameters(path, v1).ok());

  // Simulate a crash mid-way through saving v2: the writer fills
  // `<path>.tmp` and dies before the rename. The live checkpoint must be
  // untouched.
  const std::string full = ReadFile(path);
  WriteFile(path + ".tmp", full.substr(0, full.size() / 3));

  std::vector<Tensor> loaded = MakeParams(0.0f);
  ASSERT_TRUE(LoadParameters(path, loaded).ok());
  ExpectSameValues(v1, loaded);

  // A later complete save still lands cleanly over the stale tmp file.
  const std::vector<Tensor> v2 = MakeParams(4.0f);
  ASSERT_TRUE(SaveParameters(path, v2).ok());
  ASSERT_TRUE(LoadParameters(path, loaded).ok());
  ExpectSameValues(v2, loaded);
}

TEST(SerializeTest, TruncatedFileRejectedWithoutCrash) {
  const std::string path = TempPath("truncated.bin");
  ASSERT_TRUE(SaveParameters(path, MakeParams(5.0f)).ok());
  const std::string full = ReadFile(path);
  // Cut into the tensor-data region (keep the header intact).
  WriteFile(path, full.substr(0, full.size() * 3 / 5));

  std::vector<Tensor> loaded = MakeParams(0.0f);
  const Status status = LoadParameters(path, loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
}

TEST(SerializeTest, BitFlipFailsCrcCheck) {
  const std::string path = TempPath("bitflip.bin");
  ASSERT_TRUE(SaveParameters(path, MakeParams(6.0f)).ok());
  std::string bytes = ReadFile(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  WriteFile(path, bytes);

  std::vector<Tensor> loaded = MakeParams(0.0f);
  const Status status = LoadParameters(path, loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("CRC32"), std::string::npos)
      << status.ToString();
}

TEST(SerializeTest, FooterlessFileRejected) {
  const std::string path = TempPath("footerless.bin");
  WriteFile(path, FooterlessBytes(MakeParams(7.0f)));

  // A well-formed payload without the footer carries no integrity check,
  // so it is refused like any other unverifiable file, and the model is
  // left as it was.
  std::vector<Tensor> loaded = MakeParams(0.0f);
  const Status status = LoadParameters(path, loaded);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("CRC"), std::string::npos)
      << status.ToString();
  ExpectSameValues(MakeParams(0.0f), loaded);
}

TEST(SerializeTest, ImplausibleRankRejectedBeforeAllocation) {
  const std::string path = TempPath("absurd_ndim.bin");
  // magic | count=1 | ndim = 2^40 — an attacker-sized header that must be
  // rejected by the sanity cap, not used to size an allocation.
  std::string buf;
  buf.append("CEWSPAR1", 8);
  const uint64_t count = 1;
  buf.append(reinterpret_cast<const char*>(&count), sizeof(count));
  const uint64_t ndim = uint64_t{1} << 40;
  buf.append(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
  WriteFile(path, WithCrcFooter(buf));

  std::vector<Tensor> loaded = {Tensor::Zeros({2, 2})};
  const Status status = LoadParameters(path, loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_NE(status.message().find("rank"), std::string::npos);
}

TEST(SerializeTest, NegativeDimensionRejected) {
  const std::string path = TempPath("negdim.bin");
  std::string buf;
  buf.append("CEWSPAR1", 8);
  const uint64_t count = 1;
  buf.append(reinterpret_cast<const char*>(&count), sizeof(count));
  const uint64_t ndim = 1;
  buf.append(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
  const int64_t dim = -4;
  buf.append(reinterpret_cast<const char*>(&dim), sizeof(dim));
  WriteFile(path, WithCrcFooter(buf));

  std::vector<Tensor> loaded = {Tensor::Zeros({4})};
  const Status status = LoadParameters(path, loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("negative dimension"), std::string::npos)
      << status.ToString();
}

TEST(SerializeTest, CountMismatchRejected) {
  const std::string path = TempPath("count.bin");
  ASSERT_TRUE(SaveParameters(path, MakeParams(8.0f)).ok());
  std::vector<Tensor> fewer = {Tensor::Zeros({3, 4})};
  const Status status = LoadParameters(path, fewer);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("count mismatch"), std::string::npos);
}

TEST(SerializeTest, ShapeMismatchRejected) {
  const std::string path = TempPath("shape.bin");
  ASSERT_TRUE(SaveParameters(path, MakeParams(9.0f)).ok());
  std::vector<Tensor> transposed = {Tensor::Zeros({4, 3}),
                                    Tensor::Zeros({5})};
  const Status status = LoadParameters(path, transposed);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("shape mismatch"), std::string::npos);
}

TEST(SerializeTest, TrailingGarbageRejected) {
  const std::string path = TempPath("trailing.bin");
  std::string buf = FooterlessBytes(MakeParams(10.0f));
  buf.append("junkjunkjunk");
  WriteFile(path, WithCrcFooter(buf));
  std::vector<Tensor> loaded = MakeParams(0.0f);
  const Status status = LoadParameters(path, loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("trailing"), std::string::npos);
}

/// LoadParameters must refuse `path` with a message naming `why` and leave
/// every byte of `model` as it was.
void ExpectRejectedAndUntouched(const std::string& path,
                                const std::vector<Tensor>& model,
                                const std::string& why) {
  std::vector<std::vector<float>> before;
  for (const Tensor& t : model) before.push_back(t.ToVector());
  const Status status = LoadParameters(path, model);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(why), std::string::npos)
      << status.ToString();
  for (size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ(std::memcmp(before[i].data(), model[i].data(),
                          sizeof(float) * before[i].size()),
              0)
        << "tensor " << i << " was written by a rejected load";
  }
}

TEST(SerializeTest, LastTensorShapeMismatchLeavesModelUnchanged) {
  const std::string path = TempPath("untouched_shape.bin");
  ASSERT_TRUE(SaveParameters(path, MakeParams(11.0f)).ok());
  ExpectRejectedAndUntouched(
      path, {MakeParams(0.5f)[0], Tensor::Full({5, 1}, 0.5f)},
      "shape mismatch");
}

TEST(SerializeTest, CutInsideLastTensorLeavesModelUnchanged) {
  const std::string path = TempPath("untouched_cut.bin");
  const std::string payload = FooterlessBytes(MakeParams(12.0f));
  // Two floats short of the end: inside the last tensor's data.
  WriteFile(path, WithCrcFooter(
                      payload.substr(0, payload.size() - 2 * sizeof(float))));
  ExpectRejectedAndUntouched(path, MakeParams(0.5f), "truncated data");
}

TEST(SerializeTest, TrailingGarbageLeavesModelUnchanged) {
  const std::string path = TempPath("untouched_trailing.bin");
  WriteFile(path, WithCrcFooter(FooterlessBytes(MakeParams(13.0f)) + "junk"));
  ExpectRejectedAndUntouched(path, MakeParams(0.5f), "trailing");
}

TEST(SerializeTest, GarbageFileRejected) {
  const std::string path = TempPath("garbage.bin");
  WriteFile(path, "this is definitely not a checkpoint file at all");
  std::vector<Tensor> loaded = MakeParams(0.0f);
  const Status status = LoadParameters(path, loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, MissingFileIsIOError) {
  std::vector<Tensor> loaded = MakeParams(0.0f);
  const Status status =
      LoadParameters(TempPath("does_not_exist.bin"), loaded);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace cews::nn
