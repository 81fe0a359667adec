// Per-thread scratch arenas for the transform hot path.
//
// Every transform call used to pay one or more std::vector allocations for
// its working buffers (fold buffer, mantissa arrays, conjugate copies). On
// the multi-thread HConv pipeline those allocations serialize in the
// allocator and dominate small-N transform cost. A ScratchArena is a bump
// allocator owned by one thread: allocation is a pointer increment, release
// is a watermark restore, and the backing chunks are retained across calls —
// so after a warmup call per (thread, shape) the steady state performs zero
// heap allocations (asserted by tests/test_alloc_free.cpp).
//
// Ownership rules (ARCHITECTURE.md §8):
//   * an arena belongs to exactly one thread; it is never shared or locked.
//     Transform APIs default to thread_scratch(), the calling thread's
//     thread-local arena, and a caller may pass its own arena only if that
//     arena is confined to the calling thread;
//   * spans returned by alloc() are valid until the enclosing ScratchFrame
//     is destroyed; frames nest like stack frames (transform calling
//     transform is fine), and must be destroyed in LIFO order;
//   * element lifetimes: alloc() returns uninitialized storage for
//     trivially-copyable, trivially-destructible element types only. Callers
//     must write before reading.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace flash::core {

class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Watermark into the chunk list; release() restores it. Opaque to callers
  /// (use ScratchFrame).
  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };

  Mark mark() const { return {active_, chunks_.empty() ? 0 : chunks_[active_].used}; }

  void release(Mark m) {
    if (chunks_.empty()) return;
    for (std::size_t c = m.chunk + 1; c < chunks_.size(); ++c) chunks_[c].used = chunks_[c].start;
    active_ = m.chunk;
    // A mark taken before the chunk existed (empty arena) restores to the
    // chunk's aligned start, never below it.
    chunks_[active_].used = m.used > chunks_[active_].start ? m.used : chunks_[active_].start;
  }

  /// Uninitialized storage for n elements of T, 64-byte aligned. Grows the
  /// arena on first use; steady-state calls never touch the heap.
  template <typename T>
  std::span<T> alloc(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                  "ScratchArena holds raw storage; element type must be trivial to copy/destroy");
    std::byte* p = bump(n * sizeof(T));
    return {reinterpret_cast<T*>(p), n};
  }

  /// Total backing capacity in bytes (monotone; retained across release()).
  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

 private:
  static constexpr std::size_t kAlign = 64;        // cache-line / AVX-512 friendly
  static constexpr std::size_t kMinChunk = 1 << 16;  // 64 KiB

  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;   // total bytes in data
    std::size_t start = 0;  // first 64-byte-aligned offset
    std::size_t used = 0;   // bump watermark; always start + k*kAlign
  };

  static std::size_t align_up(std::size_t v) { return (v + (kAlign - 1)) & ~(kAlign - 1); }

  std::byte* bump(std::size_t bytes) {
    bytes = align_up(bytes == 0 ? 1 : bytes);
    // Try the active chunk, then any later retained chunk, then grow.
    for (std::size_t c = active_; c < chunks_.size(); ++c) {
      Chunk& ch = chunks_[c];
      if (ch.size - ch.used >= bytes) {
        std::byte* p = ch.data.get() + ch.used;
        ch.used += bytes;
        active_ = c;
        return p;
      }
    }
    std::size_t size = chunks_.empty() ? kMinChunk : chunks_.back().size * 2;
    if (size < bytes + kAlign) size = bytes + kAlign;
    Chunk ch;
    // operator new guarantees alignment only up to __STDCPP_DEFAULT_NEW_ALIGNMENT__
    // (16 on x86-64); over-allocate so the aligned start always fits. Not
    // zero-filled: alloc() promises no contents, and zeroing would make every
    // page of a doubled chunk resident even where no frame reaches it.
    ch.data = std::make_unique_for_overwrite<std::byte[]>(size);
    ch.size = size;
    const auto base = reinterpret_cast<std::uintptr_t>(ch.data.get());
    ch.start = align_up(base) - base;
    ch.used = ch.start + bytes;
    std::byte* p = ch.data.get() + ch.start;
    chunks_.push_back(std::move(ch));
    active_ = chunks_.size() - 1;
    return p;
  }

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;
};

/// The calling thread's arena. Thread-local by construction, so using it is
/// race-free without locks; pool workers each warm up their own copy.
inline ScratchArena& thread_scratch() {
  thread_local ScratchArena arena;
  return arena;
}

/// RAII watermark: everything alloc()ed through (or after) the frame is
/// reclaimed when the frame dies. Frames must nest LIFO.
class ScratchFrame {
 public:
  explicit ScratchFrame(ScratchArena& arena) : arena_(arena), mark_(arena.mark()) {}
  ScratchFrame(const ScratchFrame&) = delete;
  ScratchFrame& operator=(const ScratchFrame&) = delete;
  ~ScratchFrame() { arena_.release(mark_); }

  template <typename T>
  std::span<T> alloc(std::size_t n) {
    return arena_.alloc<T>(n);
  }

  ScratchArena& arena() { return arena_; }

 private:
  ScratchArena& arena_;
  ScratchArena::Mark mark_;
};

/// Resolve an optional caller-supplied arena to a concrete one.
inline ScratchArena& scratch_or_thread(ScratchArena* arena) {
  return arena != nullptr ? *arena : thread_scratch();
}

}  // namespace flash::core
