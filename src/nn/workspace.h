// cews::nn — per-thread transient-buffer workspace.
//
// The NN hot path (MatMul, Conv2d, and every elementwise op) used to
// heap-allocate a fresh std::vector<float> for each output, each conv
// scratch buffer, and each packed GEMM panel, on every forward *and* backward
// call. The workspace turns those into recycled acquisitions: each thread
// owns a size-bucketed arena of float vectors, Acquire pops a vector whose
// capacity covers the request (power-of-two buckets), and Recycle pushes the
// storage back for the next call. In steady state a training step touches
// the allocator zero times for kernel transients — the reuse counters below
// prove it (tests/nn_gemm_test.cc, agents_trainer_core_test.cc).
//
// Ownership rules:
//  * Arenas are strictly per-thread (thread_local): Acquire and Recycle
//    always operate on the *calling* thread's arena, so the hot path takes
//    no locks and TSan sees no shared mutable state. A vector acquired on
//    thread A and recycled on thread B simply migrates A→B; totals are
//    global.
//  * Recycling is optional. An acquired vector is an ordinary
//    std::vector<float>; letting it die normally just frees the memory
//    (and forfeits the reuse).
//  * A thread's arena is retired when the thread exits: its chunks move to
//    one process-wide list (under a mutex) without being freed, and any
//    arena whose own bucket is empty adopts from that list before it
//    allocates. A join therefore never waits on the exiting thread's frees,
//    and the next thread reuses the chunks.
//  * After a thread's arena is torn down (thread exit / process teardown),
//    Recycle degrades to a plain free and Acquire to a plain allocation.
//
// Telemetry (cews::obs):
//  * workspace.reuse_hits    — acquisitions served from a freelist
//  * workspace.misses        — acquisitions that had to allocate
//  * workspace.recycles      — vectors returned to an arena
//  * workspace.evictions     — recycles dropped because a bucket was full
//  * workspace.bytes_in_use  — gauge: bytes currently retained in freelists
//                              across all arenas and the retired list
#ifndef CEWS_NN_WORKSPACE_H_
#define CEWS_NN_WORKSPACE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "nn/tensor.h"

namespace cews::nn {

class Workspace {
 public:
  /// Returns a zero-filled vector of exactly `n` elements whose storage is
  /// recycled from this thread's arena when a compatible chunk is retained
  /// (capacity is the enclosing power of two). Semantically identical to
  /// `std::vector<float>(n)` — only the allocation is (usually) saved.
  static std::vector<float> AcquireVec(Index n);

  /// Returns `v`'s storage to this thread's arena for future AcquireVec
  /// calls. Empty or capacity-less vectors are ignored; buckets past their
  /// retention cap drop the storage (counted as an eviction).
  static void Recycle(std::vector<float>&& v);

  /// Aggregated counters for tests/diagnostics; mirrors the obs metrics but
  /// readable without a registry snapshot.
  struct Stats {
    uint64_t reuse_hits = 0;
    uint64_t misses = 0;
    uint64_t recycles = 0;
    uint64_t evictions = 0;
    int64_t bytes_in_use = 0;  ///< Freelist bytes, retired ones included.
  };
  static Stats GlobalStats();

  /// Drops every chunk retained by the calling thread's arena and every
  /// retired chunk (tests that want a cold arena). Other live threads'
  /// arenas are untouched.
  static void TrimThisThread();
};

/// Alignment contract for packed GEMM panels (gemm.h, gemm_int8.h): one
/// full cache line, so the kernels' (auto-)vectorized panel loads never
/// straddle lines. int8 panels pack 4x more lanes per load than fp32, which
/// makes split loads proportionally more expensive — panel acquisitions go
/// through AlignedScopedBytes below, which rounds an arena chunk up to this
/// boundary and *asserts* the result, so a misaligned acquisition fails
/// loudly (and visibly under UBSan) instead of silently degrading.
inline constexpr std::size_t kPanelAlignment = 64;

/// RAII scratch buffer: AcquireVec on construction, Recycle on destruction.
/// Move-only; the typical holder for conv scratch, packed GEMM panels and
/// per-image scratch inside kernel bodies.
class ScopedVec {
 public:
  explicit ScopedVec(Index n) : v_(Workspace::AcquireVec(n)) {}
  ~ScopedVec() { Workspace::Recycle(std::move(v_)); }
  ScopedVec(ScopedVec&&) = default;
  ScopedVec& operator=(ScopedVec&&) = delete;
  ScopedVec(const ScopedVec&) = delete;
  ScopedVec& operator=(const ScopedVec&) = delete;

  float* data() { return v_.data(); }
  const float* data() const { return v_.data(); }
  Index size() const { return static_cast<Index>(v_.size()); }
  std::vector<float>& vec() { return v_; }

 private:
  std::vector<float> v_;
};

/// RAII byte scratch whose data() is kPanelAlignment-aligned: acquires
/// enough extra floats from the arena to round the chunk up to a 64 B
/// boundary. The holder for packed int8 GEMM panels and quantized-activation
/// rows (gemm_int8.h) — plain ScopedVec storage is only guaranteed
/// alignof(float). The alignment CHECK in the acquire path is the contract
/// assert: arena chunks always satisfy it after rounding, so a failure means
/// the arithmetic (not the allocator) regressed.
class AlignedScopedBytes {
 public:
  explicit AlignedScopedBytes(Index bytes)
      : v_(Workspace::AcquireVec(
            (bytes + static_cast<Index>(kPanelAlignment) +
             static_cast<Index>(sizeof(float)) - 1) /
            static_cast<Index>(sizeof(float)))),
        size_(bytes) {
    void* p = v_.data();
    std::size_t space = v_.size() * sizeof(float);
    data_ = static_cast<int8_t*>(
        std::align(kPanelAlignment, static_cast<std::size_t>(bytes), p,
                   space));
    CEWS_CHECK(data_ != nullptr);
    CEWS_CHECK_EQ(reinterpret_cast<std::uintptr_t>(data_) % kPanelAlignment,
                  0u);
  }
  ~AlignedScopedBytes() { Workspace::Recycle(std::move(v_)); }
  AlignedScopedBytes(AlignedScopedBytes&&) = default;
  AlignedScopedBytes& operator=(AlignedScopedBytes&&) = delete;
  AlignedScopedBytes(const AlignedScopedBytes&) = delete;
  AlignedScopedBytes& operator=(const AlignedScopedBytes&) = delete;

  int8_t* data() { return data_; }
  const int8_t* data() const { return data_; }
  Index size() const { return size_; }

 private:
  std::vector<float> v_;
  Index size_ = 0;
  int8_t* data_ = nullptr;
};

}  // namespace cews::nn

#endif  // CEWS_NN_WORKSPACE_H_
