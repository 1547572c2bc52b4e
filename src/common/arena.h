// Per-scan scratch arenas: bump allocation over retained buffers.
//
// The batched scan (ExactStore::TopKBatch) used to build its working set —
// quantized query block, per-shard score blocks, admission thresholds —
// out of fresh std::vectors on every call. At serving rates that is
// thousands of malloc/free round trips per second of identically-sized
// buffers, all churn: the sizes repeat call after call, so the allocator is
// just re-discovering the same layout. ScratchArena replaces that with a
// bump pointer over a buffer that is kept between calls; after the first
// call at a given shape, a scan performs zero scratch allocations
// (tests/memory_audit_test.cc holds this as a regression gate).
//
// Why a pooled arena and not thread_local scratch: leases nest on one OS
// thread. A pool waiter runs its own queued tasks, so the thread waiting in
// a TopKBatch's ScatterTopK runs that call's shard parts on its own stack,
// and a ShardedStore part runs a whole child TopKBatch. A thread_local
// buffer would be re-bumped by the nested lease while the outer call's
// shard tasks (on other workers too) still read the outer quantized
// queries from it. The ScratchPool instead leases one arena per live call
// or shard task (RAII Lease), so nesting just takes a second arena.
//
// Allocation lifetime: every span handed out by Alloc stays valid until the
// owning arena is Reset (leases reset on release) — growth retires the old
// block instead of reallocating it, precisely so outstanding spans survive.
// Reset then coalesces to one right-sized block, which is why the steady
// state allocates nothing.
#ifndef SEESAW_COMMON_ARENA_H_
#define SEESAW_COMMON_ARENA_H_

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace seesaw {

/// A growable bump allocator whose capacity is retained across Reset().
/// Single-owner: not thread-safe (each concurrent scan leases its own arena
/// from a ScratchPool). Allocations are kCacheLineSize-aligned, which also
/// means scratch handed to different shard tasks never shares a line.
class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Returns an uninitialized span of `n` Ts, aligned to a cache line and
  /// valid until Reset(). T must be trivial: the arena never runs
  /// constructors or destructors (this is scratch, not object storage).
  template <typename T>
  std::span<T> Alloc(size_t n) {
    static_assert(std::is_trivially_default_constructible_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "ScratchArena hands out raw memory: no ctors/dtors run");
    static_assert(alignof(T) <= kCacheLineSize);
    if (n == 0) return {};
    return {static_cast<T*>(AllocBytes(n * sizeof(T))), n};
  }

  /// Invalidates every outstanding span and makes the full capacity
  /// available again. Keeps (and coalesces) the backing memory: after the
  /// high-water shape has been seen once, Reset + re-Alloc touch the
  /// allocator zero times.
  void Reset();

  /// Total bytes of backing store currently retained.
  size_t capacity_bytes() const;

 private:
  struct Block {
    std::unique_ptr<std::byte[]> storage;
    std::byte* base = nullptr;  // storage rounded up to kCacheLineSize
    size_t capacity = 0;
    size_t used = 0;
  };

  void* AllocBytes(size_t bytes);
  static Block NewBlock(size_t capacity);

  Block current_;
  /// Blocks outgrown mid-cycle. Kept alive (not freed) until Reset so the
  /// spans allocated from them remain valid; Reset folds their capacity
  /// into one replacement block.
  std::vector<Block> retired_;
};

/// A mutex-guarded free list of arenas, one leased per concurrent scan.
/// The pool only grows (arenas are never freed while the pool lives): with
/// C concurrent scans in steady state it holds exactly max-C-observed
/// arenas, and created() going flat is the "no per-call allocation growth"
/// signal the memory-audit test asserts.
class ScratchPool {
 public:
  class Lease;

  ScratchPool() = default;
  ScratchPool(const ScratchPool&) = delete;
  ScratchPool& operator=(const ScratchPool&) = delete;

  /// Leases an idle arena, creating one only when all existing arenas are
  /// leased out. The lease resets and returns the arena on destruction and
  /// must not outlive the pool.
  Lease Acquire() SEESAW_EXCLUDES(mu_);

  /// Arenas ever created (monotone; flat once warm).
  size_t created() const SEESAW_EXCLUDES(mu_);

  /// Arenas currently leased out.
  size_t outstanding() const SEESAW_EXCLUDES(mu_);

  /// RAII arena lease. Move-only; empty after move.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          arena_(std::move(other.arena_)) {}
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();
        pool_ = std::exchange(other.pool_, nullptr);
        arena_ = std::move(other.arena_);
      }
      return *this;
    }
    ~Lease() { Release(); }

    ScratchArena& operator*() const { return *arena_; }
    ScratchArena* operator->() const { return arena_.get(); }

   private:
    friend class ScratchPool;
    Lease(ScratchPool* pool, std::unique_ptr<ScratchArena> arena)
        : pool_(pool), arena_(std::move(arena)) {}
    void Release();

    ScratchPool* pool_ = nullptr;
    std::unique_ptr<ScratchArena> arena_;
  };

 private:
  void Return(std::unique_ptr<ScratchArena> arena) SEESAW_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::vector<std::unique_ptr<ScratchArena>> idle_ SEESAW_GUARDED_BY(mu_);
  size_t created_ SEESAW_GUARDED_BY(mu_) = 0;
  size_t outstanding_ SEESAW_GUARDED_BY(mu_) = 0;
};

/// The process-wide pool behind the scan hot path (ExactStore::TopKBatch).
/// Intentionally leaked: scans may still be finishing on pool workers while
/// static destructors run, and an arena pool holds nothing that needs
/// unwinding.
ScratchPool& GlobalScanScratch();

}  // namespace seesaw

#endif  // SEESAW_COMMON_ARENA_H_
