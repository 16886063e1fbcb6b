// Executable code arena for the JIT tier.
//
// True W^X: the arena is a memfd mapped twice — one PROT_READ|PROT_WRITE
// view the installer writes through, one PROT_READ|PROT_EXEC view the CPU
// executes from. No page ever holds W and X at once, and installation never
// flips protections on pages another rank thread may be executing (tiered
// promotions publish code while the module is live). Falls back to a single
// RWX anonymous mapping where memfd_create is unavailable.
#pragma once

#include <memory>
#include <vector>

#include "runtime/regcode.h"

namespace mpiwasm::rt {

class JitArena {
 public:
  JitArena();
  ~JitArena();
  JitArena(const JitArena&) = delete;
  JitArena& operator=(const JitArena&) = delete;

  /// False when no executable mapping can be created (hardened kernels).
  /// The first call maps the first chunk, so the answer is known before any
  /// code is generated; a failed map is sticky. install() always returns
  /// null on an unavailable arena and callers fall back to the threaded
  /// interpreter.
  bool available();

  /// Copies `blob.code` into the arena, patches each reloc's movabs imm64
  /// with the current process's helper address, and returns the executable
  /// entry point (blob code starts at its prologue). Returns null when the
  /// arena is unavailable or a reloc references an unknown helper.
  void (*install(const JitBlob& blob))(void*);

  /// Total machine-code bytes installed so far.
  u64 code_bytes() const { return code_bytes_; }

  /// Test seam: while set, every new mapping fails as on a hardened host
  /// that denies executable memory. Process-wide.
  static void deny_mappings_for_testing(bool deny);

 private:
  struct Chunk;
  Chunk* grow_chunk(size_t min_bytes);

  std::vector<std::unique_ptr<Chunk>> chunks_;
  u64 code_bytes_ = 0;
  bool unavailable_ = false;
};

}  // namespace mpiwasm::rt
