#include "nn/workspace.h"

#include <atomic>
#include <bit>
#include <cstddef>
#include <mutex>

#include "obs/metrics.h"

namespace cews::nn {

namespace {

/// Power-of-two buckets: bucket b retains chunks with capacity in
/// [2^b, 2^(b+1)). Requests of up to 2^33 floats (32 GiB) are bucketed;
/// anything larger falls through to the plain allocator.
constexpr int kNumBuckets = 34;

/// Retention caps. Small buckets hold the per-step activation population of
/// a trainer (hundreds of tensors die together at tape teardown); large
/// buckets hold a handful of padded conv inputs and pack panels. Beyond the
/// cap a recycle becomes a free, bounding arena growth under pathological
/// churn.
constexpr size_t kSmallBucketFloats = size_t{1} << 14;  // 64 KiB
constexpr size_t kSmallBucketCap = 512;
constexpr size_t kLargeBucketCap = 16;

/// Process-wide running totals (relaxed; telemetry only).
std::atomic<uint64_t> g_reuse_hits{0};
std::atomic<uint64_t> g_misses{0};
std::atomic<uint64_t> g_recycles{0};
std::atomic<uint64_t> g_evictions{0};
std::atomic<int64_t> g_bytes_in_use{0};

struct WorkspaceMetrics {
  obs::Counter* const reuse_hits = obs::GetCounter("workspace.reuse_hits");
  obs::Counter* const misses = obs::GetCounter("workspace.misses");
  obs::Counter* const recycles = obs::GetCounter("workspace.recycles");
  obs::Counter* const evictions = obs::GetCounter("workspace.evictions");
  obs::Gauge* const bytes_in_use = obs::GetGauge("workspace.bytes_in_use");
};

WorkspaceMetrics& Metrics() {
  static WorkspaceMetrics* m = new WorkspaceMetrics();
  return *m;
}

void AddRetainedBytes(int64_t delta) {
  const int64_t now =
      g_bytes_in_use.fetch_add(delta, std::memory_order_relaxed) + delta;
  Metrics().bytes_in_use->Set(static_cast<double>(now));
}

/// Smallest b with 2^b >= n (bucket an acquisition looks in).
int CeilBucket(size_t n) {
  return n <= 1 ? 0 : std::bit_width(n - 1);
}

/// Largest b with 2^b <= cap (bucket a chunk of that capacity serves).
int FloorBucket(size_t cap) { return std::bit_width(cap) - 1; }

using Buckets = std::vector<std::vector<float>>[kNumBuckets];

/// Bytes of every chunk in `buckets`.
int64_t BucketBytes(const Buckets& buckets) {
  int64_t bytes = 0;
  for (const auto& bucket : buckets) {
    for (const auto& v : bucket) {
      bytes += static_cast<int64_t>(v.capacity() * sizeof(float));
    }
  }
  return bytes;
}

/// Chunks of arenas whose thread has exited. Retiring frees nothing, so a
/// thread's exit (and the join waiting on it) never pays for returning its
/// chunks to the allocator, and a thread that replaces it starts warm.
/// Retired chunks stay counted in bytes_in_use. An arena adopts from here
/// whenever its own bucket is empty, so a retired chunk is reused before any
/// new allocation of its size, and no arena takes more than it asks for.
struct RetiredList {
  std::mutex mu;
  Buckets buckets;  // guarded by mu
};

RetiredList& Retired() {
  static RetiredList* r = new RetiredList();  // outlives every arena
  return *r;
}

/// Pops a retired chunk from bucket `b`; empty when there is none.
std::vector<float> AdoptRetired(int b) {
  RetiredList& r = Retired();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.buckets[b].empty()) return {};
  std::vector<float> v = std::move(r.buckets[b].back());
  r.buckets[b].pop_back();
  return v;
}

/// One thread's freelists. Only ever touched by its owning thread; handed
/// to the retired list when the thread exits.
struct Arena {
  Buckets buckets;

  ~Arena() {
    RetiredList& r = Retired();
    std::lock_guard<std::mutex> lock(r.mu);
    for (int b = 0; b < kNumBuckets; ++b) {
      for (auto& v : buckets[b]) r.buckets[b].push_back(std::move(v));
    }
  }
};

/// The calling thread's arena, or nullptr once it has been destroyed
/// (thread exit / static teardown) — callers then fall back to the plain
/// allocator. The raw pointer is trivially destructible, so reading it after
/// Holder's destructor ran (which nulls it) is safe.
Arena* ThisArena() {
  thread_local struct Holder {
    Arena* arena = new Arena();
    ~Holder() {
      delete arena;
      arena = nullptr;
    }
  } holder;
  return holder.arena;
}

}  // namespace

std::vector<float> Workspace::AcquireVec(Index n) {
  const size_t want = static_cast<size_t>(n < 0 ? 0 : n);
  if (want == 0) return {};  // nothing to recycle or count
  Arena* arena = ThisArena();
  const int b = CeilBucket(want);
  std::vector<float> v;
  if (arena != nullptr && b < kNumBuckets) {
    if (!arena->buckets[b].empty()) {
      v = std::move(arena->buckets[b].back());
      arena->buckets[b].pop_back();
    } else {
      v = AdoptRetired(b);
    }
  }
  if (v.capacity() > 0) {
    AddRetainedBytes(-static_cast<int64_t>(v.capacity() * sizeof(float)));
    g_reuse_hits.fetch_add(1, std::memory_order_relaxed);
    Metrics().reuse_hits->Increment();
    v.clear();
    v.resize(want);  // value-init: zero-filled, like std::vector<float>(n)
    return v;
  }
  g_misses.fetch_add(1, std::memory_order_relaxed);
  Metrics().misses->Increment();
  // Reserve the full bucket so the chunk's capacity files back into bucket
  // `b` on Recycle — the same bucket this size acquires from. A plain
  // vector(want) would have capacity `want`, land one bucket *down*, and
  // never be found again by an equal-sized request.
  if (b < kNumBuckets) v.reserve(size_t{1} << b);
  v.resize(want);
  return v;
}

void Workspace::Recycle(std::vector<float>&& v) {
  if (v.capacity() == 0) return;
  std::vector<float> victim = std::move(v);
  g_recycles.fetch_add(1, std::memory_order_relaxed);
  Metrics().recycles->Increment();
  Arena* arena = ThisArena();
  const size_t cap_floats = victim.capacity();
  const int b = FloorBucket(cap_floats);
  const size_t max_retained =
      cap_floats <= kSmallBucketFloats ? kSmallBucketCap : kLargeBucketCap;
  if (arena == nullptr || b >= kNumBuckets ||
      arena->buckets[b].size() >= max_retained) {
    g_evictions.fetch_add(1, std::memory_order_relaxed);
    Metrics().evictions->Increment();
    return;  // victim frees normally
  }
  AddRetainedBytes(static_cast<int64_t>(cap_floats * sizeof(float)));
  arena->buckets[b].push_back(std::move(victim));
}

Workspace::Stats Workspace::GlobalStats() {
  Stats s;
  s.reuse_hits = g_reuse_hits.load(std::memory_order_relaxed);
  s.misses = g_misses.load(std::memory_order_relaxed);
  s.recycles = g_recycles.load(std::memory_order_relaxed);
  s.evictions = g_evictions.load(std::memory_order_relaxed);
  s.bytes_in_use = g_bytes_in_use.load(std::memory_order_relaxed);
  return s;
}

void Workspace::TrimThisThread() {
  int64_t freed = 0;
  Arena* arena = ThisArena();
  if (arena != nullptr) {
    freed += BucketBytes(arena->buckets);
    for (auto& bucket : arena->buckets) bucket.clear();
  }
  {
    RetiredList& r = Retired();
    std::lock_guard<std::mutex> lock(r.mu);
    freed += BucketBytes(r.buckets);
    for (auto& bucket : r.buckets) bucket.clear();
  }
  if (freed > 0) AddRetainedBytes(-freed);
}

}  // namespace cews::nn
