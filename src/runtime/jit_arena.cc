#include "runtime/jit_arena.h"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstring>

#include "runtime/jit_support.h"
#include "support/log.h"

namespace mpiwasm::rt {

namespace {
constexpr size_t kChunkBytes = 256 * 1024;
std::atomic<bool> g_deny_mappings{false};
}  // namespace

void JitArena::deny_mappings_for_testing(bool deny) {
  g_deny_mappings.store(deny, std::memory_order_relaxed);
}

/// One dual-mapped (or RWX-fallback) region; code is bump-allocated.
struct JitArena::Chunk {
  u8* rw = nullptr;   // write view
  u8* rx = nullptr;   // exec view (== rw in RWX fallback)
  size_t size = 0;
  size_t top = 0;
  int fd = -1;

  ~Chunk() {
    if (rw != nullptr && rw != MAP_FAILED) munmap(rw, size);
    if (rx != nullptr && rx != MAP_FAILED && rx != rw) munmap(rx, size);
    if (fd >= 0) close(fd);
  }
};

JitArena::JitArena() = default;
JitArena::~JitArena() = default;

JitArena::Chunk* JitArena::grow_chunk(size_t min_bytes) {
  if (g_deny_mappings.load(std::memory_order_relaxed)) {
    unavailable_ = true;
    return nullptr;
  }
  size_t size = kChunkBytes;
  while (size < min_bytes) size *= 2;

  auto chunk = std::make_unique<Chunk>();
  chunk->size = size;
#ifdef __linux__
  chunk->fd = memfd_create("mpiwasm-jit", 0);
#endif
  if (chunk->fd >= 0 && ftruncate(chunk->fd, off_t(size)) == 0) {
    chunk->rw = static_cast<u8*>(mmap(nullptr, size, PROT_READ | PROT_WRITE,
                                      MAP_SHARED, chunk->fd, 0));
    chunk->rx = static_cast<u8*>(mmap(nullptr, size, PROT_READ | PROT_EXEC,
                                      MAP_SHARED, chunk->fd, 0));
    if (chunk->rw != MAP_FAILED && chunk->rx != MAP_FAILED) {
      chunks_.push_back(std::move(chunk));
      return chunks_.back().get();
    }
  }
  // Fallback: single anonymous RWX mapping (no dual-view W^X, but keeps the
  // JIT functional where memfd or the double map is denied). Drop whichever
  // half of the double map did succeed.
  if (chunk->fd >= 0) {
    close(chunk->fd);
    chunk->fd = -1;
  }
  if (chunk->rw != nullptr && chunk->rw != MAP_FAILED) munmap(chunk->rw, size);
  if (chunk->rx != nullptr && chunk->rx != MAP_FAILED) munmap(chunk->rx, size);
  chunk->rx = nullptr;
  chunk->rw = static_cast<u8*>(mmap(nullptr, size,
                                    PROT_READ | PROT_WRITE | PROT_EXEC,
                                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
  if (chunk->rw == MAP_FAILED) {
    MW_DEBUG("jit arena: mmap failed; JIT disabled for this module");
    unavailable_ = true;
    return nullptr;
  }
  chunk->rx = chunk->rw;
  chunks_.push_back(std::move(chunk));
  return chunks_.back().get();
}

bool JitArena::available() {
  if (chunks_.empty() && !unavailable_) grow_chunk(0);
  return !unavailable_;
}

void (*JitArena::install(const JitBlob& blob))(void*) {
  if (blob.code.empty() || unavailable_) return nullptr;
  const size_t need = (blob.code.size() + 15) & ~size_t(15);

  Chunk* c = chunks_.empty() ? nullptr : chunks_.back().get();
  if (c == nullptr || c->top + need > c->size) c = grow_chunk(need);
  if (c == nullptr) return nullptr;

  u8* dst_rw = c->rw + c->top;
  u8* dst_rx = c->rx + c->top;
  std::memcpy(dst_rw, blob.code.data(), blob.code.size());

  // Patch helper addresses for this process (cache-loaded blobs carry the
  // emitting process's addresses, which are meaningless here).
  for (const JitReloc& rel : blob.relocs) {
    if (u64(rel.offset) + 8 > blob.code.size() ||
        rel.helper >= u32(JitHelperId::kCount))
      return nullptr;
    u64 addr = u64(reinterpret_cast<uintptr_t>(jit_helper_address(rel.helper)));
    std::memcpy(dst_rw + rel.offset, &addr, 8);
  }
  c->top += need;
  code_bytes_ += blob.code.size();
  return reinterpret_cast<void (*)(void*)>(dst_rx);
}

}  // namespace mpiwasm::rt
