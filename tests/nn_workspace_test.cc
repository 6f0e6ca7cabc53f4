// The transient-buffer workspace (nn/workspace.h): bucketed reuse on one
// thread, and the hand-over of an exiting thread's chunks to the threads
// that follow it (retired chunks are adopted, never freed at exit, and stay
// counted in bytes_in_use).
#include "nn/workspace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace cews::nn {
namespace {

TEST(WorkspaceTest, RecycleThenAcquireReusesStorageZeroFilled) {
  Workspace::TrimThisThread();
  const Workspace::Stats s0 = Workspace::GlobalStats();
  std::vector<float> v = Workspace::AcquireVec(1000);  // non-pow2 on purpose
  ASSERT_EQ(v.size(), 1000u);
  for (float& f : v) f = 3.5f;
  Workspace::Recycle(std::move(v));
  std::vector<float> w = Workspace::AcquireVec(1000);
  const Workspace::Stats s1 = Workspace::GlobalStats();
  EXPECT_EQ(s1.misses, s0.misses + 1);
  EXPECT_EQ(s1.reuse_hits, s0.reuse_hits + 1);
  EXPECT_EQ(s1.recycles, s0.recycles + 1);
  ASSERT_EQ(w.size(), 1000u);
  for (float f : w) ASSERT_EQ(f, 0.0f);  // recycled storage comes back zeroed
}

TEST(WorkspaceTest, SmallerRequestReusesLargerChunk) {
  Workspace::TrimThisThread();
  Workspace::Recycle(std::vector<float>(512));
  const Workspace::Stats s0 = Workspace::GlobalStats();
  std::vector<float> v = Workspace::AcquireVec(300);  // same bucket as 512
  const Workspace::Stats s1 = Workspace::GlobalStats();
  EXPECT_EQ(s1.reuse_hits, s0.reuse_hits + 1);
  EXPECT_EQ(v.size(), 300u);
  EXPECT_GE(v.capacity(), 512u);
}

TEST(WorkspaceTest, AcquireZeroIsFreeAndUncounted) {
  const Workspace::Stats s0 = Workspace::GlobalStats();
  std::vector<float> v = Workspace::AcquireVec(0);
  EXPECT_TRUE(v.empty());
  Workspace::Recycle(std::move(v));
  const Workspace::Stats s1 = Workspace::GlobalStats();
  EXPECT_EQ(s1.misses, s0.misses);
  EXPECT_EQ(s1.reuse_hits, s0.reuse_hits);
  EXPECT_EQ(s1.recycles, s0.recycles);
}

TEST(WorkspaceTest, ScopedVecRecyclesOnDestruction) {
  Workspace::TrimThisThread();
  const Workspace::Stats s0 = Workspace::GlobalStats();
  { ScopedVec v(256); EXPECT_EQ(v.size(), 256); }
  { ScopedVec v(256); }  // must be served from the recycled chunk
  const Workspace::Stats s1 = Workspace::GlobalStats();
  EXPECT_EQ(s1.misses, s0.misses + 1);
  EXPECT_EQ(s1.reuse_hits, s0.reuse_hits + 1);
  EXPECT_EQ(s1.recycles, s0.recycles + 2);
}

TEST(WorkspaceTest, TrimReleasesRetainedBytes) {
  Workspace::Recycle(std::vector<float>(4096));
  EXPECT_GT(Workspace::GlobalStats().bytes_in_use, 0);
  Workspace::TrimThisThread();
  // Other threads' arenas may retain bytes, but this thread's 4096-float
  // chunk is gone; a re-acquire must miss.
  const Workspace::Stats s0 = Workspace::GlobalStats();
  std::vector<float> v = Workspace::AcquireVec(4096);
  EXPECT_EQ(Workspace::GlobalStats().misses, s0.misses + 1);
}

/// A size no other test uses, so its bucket holds only this test's chunks.
constexpr Index kRetiredFloats = (Index{1} << 21) + 7;
constexpr int64_t kRetiredChunkBytes = (int64_t{1} << 22) * sizeof(float);

TEST(WorkspaceRetireTest, NextThreadReusesAnExitedThreadsChunk) {
  Workspace::TrimThisThread();
  std::thread([] {
    Workspace::Recycle(Workspace::AcquireVec(kRetiredFloats));
  }).join();
  const Workspace::Stats s0 = Workspace::GlobalStats();
  std::thread([] {
    std::vector<float> v = Workspace::AcquireVec(kRetiredFloats);
    EXPECT_EQ(v.size(), static_cast<size_t>(kRetiredFloats));
    for (float f : v) ASSERT_EQ(f, 0.0f);
  }).join();
  const Workspace::Stats s1 = Workspace::GlobalStats();
  EXPECT_EQ(s1.reuse_hits, s0.reuse_hits + 1);
  EXPECT_EQ(s1.misses, s0.misses);
}

TEST(WorkspaceRetireTest, RetiredBytesStayCountedUntilTrimmed) {
  Workspace::TrimThisThread();
  const int64_t before = Workspace::GlobalStats().bytes_in_use;
  std::thread([] {
    Workspace::Recycle(Workspace::AcquireVec(kRetiredFloats));
  }).join();
  // The thread exited; its chunk was retired, not freed.
  EXPECT_EQ(Workspace::GlobalStats().bytes_in_use,
            before + kRetiredChunkBytes);
  Workspace::TrimThisThread();
  EXPECT_EQ(Workspace::GlobalStats().bytes_in_use, before);
  const Workspace::Stats s0 = Workspace::GlobalStats();
  std::vector<float> v = Workspace::AcquireVec(kRetiredFloats);
  EXPECT_EQ(Workspace::GlobalStats().misses, s0.misses + 1);
}

TEST(WorkspaceRetireTest, ConcurrentRetireAndAdoptKeepExactAccounting) {
  Workspace::TrimThisThread();
  // Waves of short-lived threads overlap: each acquires and recycles a few
  // sizes, then exits (retiring) while the next wave is adopting.
  constexpr int kWaves = 6, kPerWave = 4;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int wave = 0; wave < kWaves; ++wave) {
    for (int t = 0; t < kPerWave; ++t) {
      threads.emplace_back([t, &ready] {
        ready.fetch_add(1);
        for (int i = 0; i < 20; ++i) {
          ScopedVec small(100 + t);
          ScopedVec large(70000 + 1000 * t);
          small.data()[0] = 1.0f;
          large.data()[0] = 1.0f;
        }
      });
    }
    while (ready.load() < (wave + 1) * kPerWave) std::this_thread::yield();
  }
  for (std::thread& th : threads) th.join();
  const Workspace::Stats s = Workspace::GlobalStats();
  EXPECT_GT(s.reuse_hits, 0u);
  // Every chunk is now retired or in this thread's arena: trimming both
  // leaves nothing retained.
  Workspace::TrimThisThread();
  EXPECT_EQ(Workspace::GlobalStats().bytes_in_use, 0);
}

}  // namespace
}  // namespace cews::nn
