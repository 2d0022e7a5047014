#include "mem/arena.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <new>

#include "obs/metrics.hpp"

namespace fp::mem {

namespace {

inline std::size_t align_up(std::size_t n) {
  return (n + kAlign - 1) & ~(kAlign - 1);
}

/// Per-allocation header, one alignment unit wide so payloads stay aligned.
struct alignas(kAlign) Header {
  Arena* owner = nullptr;  ///< nullptr = plain heap allocation
  std::size_t bytes = 0;   ///< payload bytes as requested
};
static_assert(sizeof(Header) <= kAlign);

struct ThreadCtx {
  Arena* arena = nullptr;
  Budget budget;
  bool checkpointing = false;
};

ThreadCtx*& tls_ctx() {
  thread_local ThreadCtx* ctx = nullptr;
  return ctx;
}

/// Caps the slab a budgeted scope reserves up front (a budget far above what
/// the client touches should not reserve gigabytes of real memory).
constexpr std::size_t kMaxSlabBytes = std::size_t{256} << 20;

}  // namespace

struct Arena::Impl {
  std::mutex mu;
  char* slab = nullptr;
  std::size_t capacity = 0;
  std::size_t top = 0;  ///< bump offset into the slab
  /// Freed slab blocks below `top`, coalesced with their freed neighbours:
  /// end offset -> start offset. A free that reaches `top` rewinds the bump
  /// pointer instead; allocate reuses the first block that fits.
  std::map<std::size_t, std::size_t> freed;
  std::int64_t live = 0;
  std::int64_t peak = 0;
  std::int64_t overflow = 0;
  int refs = 1;  ///< owner scope's reference

  /// The low end of the first freed block at least `block` bytes long, or
  /// nullptr when none fits.
  char* reuse(std::size_t block) {
    for (auto it = freed.begin(); it != freed.end(); ++it) {
      if (it->first - it->second < block) continue;
      char* base = slab + it->second;
      it->second += block;
      if (it->second == it->first) freed.erase(it);
      return base;
    }
    return nullptr;
  }

  bool owns(const void* p) const {
    const char* c = static_cast<const char*>(p);
    return slab && c >= slab && c < slab + capacity;
  }
};

Arena::Arena(std::size_t slab_bytes) : impl_(new Impl) {
  if (slab_bytes > 0) {
    impl_->capacity = align_up(std::min(slab_bytes, kMaxSlabBytes));
    impl_->slab = static_cast<char*>(
        ::operator new(impl_->capacity, std::align_val_t(kAlign)));
  }
}

Arena::~Arena() {
  if (impl_->slab)
    ::operator delete(impl_->slab, std::align_val_t(kAlign));
  delete impl_;
}

void* Arena::allocate(std::size_t bytes) {
  const std::size_t block = align_up(bytes) + kAlign;  // header + payload
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->live += static_cast<std::int64_t>(bytes);
  impl_->peak = std::max(impl_->peak, impl_->live);
  char* base = impl_->reuse(block);
  if (!base && impl_->slab && impl_->top + block <= impl_->capacity) {
    base = impl_->slab + impl_->top;
    impl_->top += block;
  }
  if (!base) {
    base = static_cast<char*>(::operator new(block, std::align_val_t(kAlign)));
    impl_->overflow += static_cast<std::int64_t>(bytes);
  }
  auto* h = new (base) Header{this, bytes};
  (void)h;
  return static_cast<char*>(base) + kAlign;
}

void Arena::deallocate(void* p, std::size_t bytes) {
  char* base = static_cast<char*>(p) - kAlign;
  const std::size_t block = align_up(bytes) + kAlign;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->live -= static_cast<std::int64_t>(bytes);
    if (impl_->owns(base)) {
      auto& freed = impl_->freed;
      std::size_t start = static_cast<std::size_t>(base - impl_->slab);
      std::size_t end = start + block;
      // Coalesce with the freed blocks just below and just above.
      if (auto below = freed.find(start); below != freed.end()) {
        start = below->second;
        freed.erase(below);
      }
      if (auto above = freed.upper_bound(end);
          above != freed.end() && above->second == end) {
        end = above->first;
        freed.erase(above);
      }
      if (end == impl_->top)
        impl_->top = start;  // the top is free: rewind the bump pointer
      else
        freed.emplace(end, start);
    } else {
      ::operator delete(base, std::align_val_t(kAlign));
    }
  }
}

std::int64_t Arena::live_bytes() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->live;
}

std::int64_t Arena::peak_bytes() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->peak;
}

std::int64_t Arena::overflow_bytes() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->overflow;
}

void Arena::retain() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  ++impl_->refs;
}

void Arena::release() {
  bool dead;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    dead = --impl_->refs == 0;
  }
  if (dead) delete this;
}

void* tracked_allocate(std::size_t bytes) {
  ThreadCtx* ctx = tls_ctx();
  if (ctx && ctx->arena) {
    void* p = ctx->arena->allocate(bytes);
    ctx->arena->retain();  // the allocation keeps its arena alive
    return p;
  }
  void* base = ::operator new(align_up(bytes) + kAlign, std::align_val_t(kAlign));
  new (base) Header{nullptr, bytes};
  return static_cast<char*>(base) + kAlign;
}

void tracked_deallocate(void* p, std::size_t bytes) noexcept {
  char* base = static_cast<char*>(p) - kAlign;
  Arena* owner = reinterpret_cast<Header*>(base)->owner;
  if (owner) {
    owner->deallocate(p, bytes);
    owner->release();
  } else {
    ::operator delete(base, std::align_val_t(kAlign));
  }
}

ClientMemScope::ClientMemScope(Budget budget, bool checkpointing)
    : budget_(budget),
      arena_(new Arena(budget.avail_mem_bytes > 0
                           ? static_cast<std::size_t>(budget.avail_mem_bytes)
                           : 0)) {
  auto* ctx = new ThreadCtx{arena_, budget_, checkpointing};
  prev_ = tls_ctx();
  tls_ctx() = ctx;
}

ClientMemScope::~ClientMemScope() {
  ThreadCtx* ctx = tls_ctx();
  tls_ctx() = static_cast<ThreadCtx*>(prev_);
  delete ctx;
  static obs::Counter& peak = obs::counter("mem.arena_peak_bytes");
  peak.set_max(arena_->peak_bytes());
  arena_->release();
}

std::int64_t ClientMemScope::peak_bytes() const { return arena_->peak_bytes(); }
std::int64_t ClientMemScope::live_bytes() const { return arena_->live_bytes(); }

bool scope_active() { return tls_ctx() != nullptr; }

const Budget* current_budget() {
  ThreadCtx* ctx = tls_ctx();
  if (!ctx || ctx->budget.avail_mem_bytes <= 0) return nullptr;
  return &ctx->budget;
}

bool checkpointing_enabled() {
  ThreadCtx* ctx = tls_ctx();
  return ctx && ctx->checkpointing;
}

std::int64_t current_live_bytes() {
  ThreadCtx* ctx = tls_ctx();
  return ctx ? ctx->arena->live_bytes() : 0;
}

}  // namespace fp::mem
