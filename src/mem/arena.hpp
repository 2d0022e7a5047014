// Arena/MemoryPool allocator and the thread-local client memory scope.
//
// The arena owns one 64-byte-aligned slab and hands out bump allocations
// from it; frees are accounted immediately (live/high-water bookkeeping is
// exact). A freed block coalesces with its freed neighbours; when it reaches
// the top of the slab the bump pointer rewinds over it (the allocation
// pattern of a training step is almost entirely stack-like), and otherwise
// the next allocation that fits reuses it, so a layer that allocates its
// new cache before freeing the old one does not walk the bump pointer up the
// slab. Requests that fit nowhere in the slab fall back to the heap and are
// tracked the same way, so running over budget degrades gracefully and
// shows up in the measurements instead of crashing.
//
// TrackedAlloc<T> is the std::vector allocator that routes every Tensor
// buffer and layer scratch buffer through the arena bound to the current
// thread (ClientMemScope). Each allocation carries a 64-byte header naming
// its owning arena, so a buffer that outlives the scope that allocated it is
// still freed correctly (the arena is intrusively refcounted and dies with
// its last allocation). With no scope bound the allocator is a plain
// aligned-heap passthrough.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mem/budget.hpp"

namespace fp::mem {

inline constexpr std::size_t kAlign = 64;

class Arena {
 public:
  /// `slab_bytes` = 0 builds a slab-less arena (pure tracking over the heap).
  explicit Arena(std::size_t slab_bytes);

  /// 64-byte-aligned allocation: slab bump when it fits, heap otherwise.
  void* allocate(std::size_t bytes);
  void deallocate(void* p, std::size_t bytes);

  /// Payload bytes currently live (headers excluded).
  std::int64_t live_bytes() const;
  /// High-water mark of live_bytes() since construction — the measured peak.
  std::int64_t peak_bytes() const;
  /// Payload bytes that did not fit the slab and were served from the heap.
  std::int64_t overflow_bytes() const;

  /// Intrusive refcount: the owning scope holds one reference, every live
  /// allocation holds one. The arena deletes itself at zero.
  void retain();
  void release();

 private:
  ~Arena();
  struct Impl;
  Impl* impl_;
};

/// Allocates `bytes` with a tracking header. Routed through the current
/// thread's arena when a ClientMemScope is bound, plain heap otherwise.
void* tracked_allocate(std::size_t bytes);
void tracked_deallocate(void* p, std::size_t bytes) noexcept;

/// std::vector allocator over tracked_allocate (Tensor storage, layer
/// scratch). Stateless: all instances compare equal.
template <class T>
struct TrackedAlloc {
  using value_type = T;
  TrackedAlloc() = default;
  template <class U>
  TrackedAlloc(const TrackedAlloc<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(tracked_allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    tracked_deallocate(p, n * sizeof(T));
  }
  template <class U>
  friend bool operator==(const TrackedAlloc&, const TrackedAlloc<U>&) {
    return true;
  }
};

/// Binds an arena + budget + checkpointing permission to this thread for the
/// duration of one client's local training. Scopes nest (save/restore).
class ClientMemScope {
 public:
  /// Slab size defaults to the budget (capped), so staying within budget
  /// means never leaving the slab; 0/unbudgeted scopes track over the heap.
  explicit ClientMemScope(Budget budget, bool checkpointing = false);
  ~ClientMemScope();
  ClientMemScope(const ClientMemScope&) = delete;
  ClientMemScope& operator=(const ClientMemScope&) = delete;

  std::int64_t peak_bytes() const;
  std::int64_t live_bytes() const;
  const Budget& budget() const { return budget_; }

 private:
  Budget budget_;
  Arena* arena_;
  void* prev_;  ///< enclosing thread context
};

/// True when a ClientMemScope is bound to this thread.
bool scope_active();
/// The budget of the innermost bound scope; nullptr when none (or when the
/// scope is measure-only, i.e. avail_mem_bytes == 0).
const Budget* current_budget();
/// True when the bound scope permits activation checkpointing.
bool checkpointing_enabled();
/// Live bytes of the bound scope's arena (0 when none).
std::int64_t current_live_bytes();

}  // namespace fp::mem
