// Compilation engine: turns Wasm binaries into executable CompiledModules.
//
// Five static tiers; the compiled ones reproduce the paper's
// compiler-backend trade-off (Table 1):
//   kInterp     — predecode + stack-machine execution (not in Table 1;
//                 kept for differential testing and instant startup)
//   kBaseline   — linear-time stack->register lowering, no optimization
//                 (the Singlepass point of the trade-off curve)
//   kLightOpt   — one cheap pass round: copy propagation, constant
//                 folding, DCE (the Cranelift point)
//   kOptimizing — fixpoint pass pipeline with compare/branch, immediate,
//                 and mul-add fusion (the LLVM point: slowest compile,
//                 fastest run)
//   kJit        — x86-64 template codegen over kOptimizing's RegCode; the
//                 shipped default, as MPIWasm ships Wasmer's native code
//
// The compiled static tiers work one function at a time (lower, optimize,
// emit native code, resolve interpreter handlers), so only one unoptimized
// body is alive at any point.
//
// kTiered dissolves the compile-time/run-time trade-off: the unit of
// compilation becomes the *function*, not the module. compile() only
// predecodes (instant startup, like kInterp); each function carries an
// atomic call counter and is lazily lowered to Baseline regcode, then
// re-lowered + fully optimized, as its counter crosses the configured
// thresholds. Publication is thread-safe: CompiledModule is shared across
// rank threads, so promoted bodies are handed off through atomic pointers
// and never freed while the module lives.
//
// A FileSystemCache keyed by a SHA-256 module digest (paper §3.3 uses
// BLAKE-3) lets repeated executions skip recompilation entirely; in tiered
// mode the cache holds per-function entries keyed by
// (module hash, function index, tier) so hot functions warm-start.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "runtime/interp.h"
#include "runtime/jit_arena.h"
#include "runtime/jit_support.h"
#include "runtime/regcode.h"
#include "runtime/value.h"
#include "support/sha256.h"
#include "wasm/module.h"

namespace mpiwasm::rt {

class Instance;
struct CompiledModule;

enum class EngineTier : u8 {
  kInterp = 0,
  kBaseline = 1,
  kLightOpt = 2,
  kOptimizing = 3,
  kTiered = 4,  // lazy per-function compile with dynamic tier-up
  // Native x86-64 template codegen on top of the full optimizing pipeline
  // (jit_x64.h). Functions whose RegCode contains an op without a template
  // fall back to the threaded interpreter, so kJit is never worse than
  // kOptimizing. Note kTiered sits between kOptimizing and kJit numerically
  // but is a *mode*, not a code quality level; per-function tier fields
  // only ever hold the compiled tiers, whose order is monotone.
  kJit = 5,
};

const char* tier_name(EngineTier tier);

/// Reads the MPIWASM_SIMD environment variable once per process: "0",
/// "false", or "off" disable SIMD-aware optimization (and the toolchain
/// kernels' vectorized twins); anything else — including unset — enables
/// them. This is the ablation knob behind EngineConfig::opt_simd's default
/// and the benches' scalar-vs-SIMD kernel selection (docs/TUNING.md).
bool simd_enabled_from_env();

/// Reads the MPIWASM_THREADS environment variable once per process: "0",
/// "false", or "off" disable the threads proposal (shared memories are
/// rejected at compile time and the toolchain's threaded kernel twins are
/// skipped); anything else — including unset — enables it (docs/TUNING.md).
bool threads_enabled_from_env();

struct EngineConfig {
  // The shipped default: native code, degrading to kOptimizing when `jit`
  // is off (MPIWASM_JIT=0) and per function wherever a template is missing.
  EngineTier tier = EngineTier::kJit;
  bool enable_cache = false;
  std::string cache_dir;  // empty -> "<tmp>/mpiwasm-cache"
  // kTiered promotion thresholds (call counts). A function is lowered to
  // Baseline regcode once it has been entered `tierup_baseline_threshold`
  // times and re-compiled at the full Optimizing tier at
  // `tierup_opt_threshold`. Threshold 1 promotes on the first call.
  u64 tierup_baseline_threshold = 8;
  u64 tierup_opt_threshold = 512;
  // Third promotion stage: once a function has been entered this many times
  // it is recompiled to native code (only when `jit` is on; clamped to at
  // least tierup_opt_threshold).
  u64 tierup_jit_threshold = 4096;
  /// Master switch for native codegen, defaulting to the MPIWASM_JIT
  /// environment variable (docs/TUNING.md). Off: EngineTier::kJit degrades
  /// to kOptimizing and tiered promotion stops at the optimizing stage.
  bool jit = jit_enabled_from_env();
  // Optimizing-tier pass toggles (bench/test ablation; both on by default
  // and applied wherever the full pipeline runs — kOptimizing and tiered
  // promotions to it).
  bool opt_superinstructions = true;  // load+op, op+store, select, indexed
  bool opt_hoist_bounds = true;       // kMemGuard loop versioning + raw ops
  /// SIMD-aware optimization (v128 const folding, v128 load+op / op+store
  /// superinstructions, v128 indexed addressing). Defaults to the
  /// MPIWASM_SIMD environment variable so the whole test/bench suite can be
  /// ablated without recompiling; v128 code still *executes* when this is
  /// off — it just runs through the generic pipeline.
  bool opt_simd = simd_enabled_from_env();
  /// Threads-proposal master switch, defaulting to the MPIWASM_THREADS
  /// environment variable. Off: compile() rejects modules that declare a
  /// shared memory (atomics themselves never validate without one), giving
  /// a clean ablation leg with zero concurrency in the engine.
  bool threads = threads_enabled_from_env();
};

/// Raised when a module fails to decode or validate.
class CompileError : public std::runtime_error {
 public:
  explicit CompileError(const std::string& what) : std::runtime_error(what) {}
};

/// Lifecycle of one function's code in tiered mode.
enum class FuncState : u8 {
  kNone = 0,        // nothing derived from the body yet
  kPredecoded = 1,  // interpreter bytecode ready (module load)
  kRegcode = 2,     // compiled regcode published (baseline or optimizing)
};

/// Entry thunk: how a call enters one function. Tiered dispatch swaps the
/// thunk as the function is promoted so steady-state calls pay no
/// counting/promotion checks.
using EntryThunk = void (*)(Instance& inst, const CompiledModule& cm,
                            u32 defined_index, Slot* base);

/// Per-function compilation unit (tiered mode). Readers are lock-free:
/// they load `entry`/`active` with acquire semantics. Writers serialize on
/// TieredState::mu and publish with release stores. Promoted bodies are
/// kept alive for the module's lifetime (another rank thread may still be
/// executing the superseded one).
struct FuncUnit {
  std::atomic<FuncState> state{FuncState::kNone};
  std::atomic<EngineTier> tier{EngineTier::kInterp};  // tier of `active`
  std::atomic<u64> calls{0};
  std::atomic<const RFunc*> active{nullptr};  // best published body
  std::atomic<EntryThunk> entry{nullptr};
  // Writer-owned storage behind the published pointers.
  std::unique_ptr<RFunc> baseline_body;
  std::unique_ptr<RFunc> optimized_body;
  std::unique_ptr<RFunc> jit_body;  // optimized body + native entry
};

/// Monotonic tier-up counters, aggregated across all rank threads.
struct TierUpStats {
  std::atomic<u64> promoted_baseline{0};
  std::atomic<u64> promoted_optimizing{0};
  std::atomic<u64> promoted_jit{0};
  std::atomic<u64> func_cache_hits{0};   // promotions served from cache
  std::atomic<u64> tierup_compile_ns{0};  // wall time spent promoting
};

/// Plain-value copy of TierUpStats for reports, plus a census of the
/// unit table's current FuncState distribution.
struct TierUpSnapshot {
  u64 funcs_total = 0;
  u64 funcs_predecoded = 0;  // still interpreter-only
  u64 funcs_regcode = 0;     // promoted to compiled code
  u64 promoted_baseline = 0;
  u64 promoted_optimizing = 0;
  u64 promoted_jit = 0;
  u64 func_cache_hits = 0;
  f64 tierup_compile_ms = 0;
  // Calls observed while counting thunks were installed (tiered mode; a
  // function stops counting once its final-stage thunk is published).
  u64 calls_counted = 0;
  // Native-tier census — filled for kJit modules and tiered modules alike.
  u64 jit_funcs = 0;           // functions running native code
  u64 jit_fallback_funcs = 0;  // template gaps: fell back to threaded interp
  u64 jit_code_bytes = 0;      // machine code installed in the arena
};

/// Mutable tiered-execution state hanging off an otherwise immutable
/// CompiledModule.
struct TieredState {
  std::unique_ptr<FuncUnit[]> units;  // parallel to Module::bodies
  u32 num_units = 0;
  u64 baseline_threshold = 8;
  u64 opt_threshold = 512;
  u64 jit_threshold = 4096;
  bool jit_enabled = false;
  bool cache_enabled = false;
  bool opt_superinstructions = true;
  bool opt_hoist_bounds = true;
  bool opt_simd = true;
  std::string cache_dir;
  std::mutex mu;  // serializes promotion compilation/publication
  TierUpStats stats;
};

/// An immutable compiled module, shareable across rank instances. (In
/// kTiered mode `tiered` is the one mutable, internally synchronized
/// exception: code is born lazily but each published body is immutable.)
struct CompiledModule {
  wasm::Module module;
  EngineTier tier = EngineTier::kOptimizing;
  RModule regcode;              // kBaseline / kLightOpt / kOptimizing
  PreModule predecoded;         // kInterp / kTiered
  std::vector<u32> canon_type_ids;  // type index -> canonical sig id
  std::vector<u32> func_canon;      // func index (combined) -> canonical sig id
  Sha256Digest hash;
  f64 compile_ms = 0;           // excludes decode/validate
  f64 decode_ms = 0;
  bool loaded_from_cache = false;
  mutable TieredState tiered;   // kTiered only
  // Native-code state (kJit, and kTiered promotions to the jit stage). The
  // arena owns the executable mappings for the module's lifetime; installs
  // are serialized (compile() is single-threaded, tiered promotions hold
  // TieredState::mu). The counters feed TierUpSnapshot.
  mutable std::unique_ptr<JitArena> jit_arena;
  mutable std::atomic<u64> jit_funcs{0};
  mutable std::atomic<u64> jit_fallback_funcs{0};
};

/// Compiles `bytes` under `cfg`. Throws CompileError on malformed or
/// type-incorrect modules.
std::shared_ptr<const CompiledModule> compile(std::span<const u8> bytes,
                                              const EngineConfig& cfg);

/// Promotes defined function `defined_index` to `target` (kBaseline,
/// kOptimizing, or kJit) and publishes the body; no-op if the function is
/// already
/// at or above `target`, or if another thread currently holds the
/// promotion lock (callers fall through to the published body and retry
/// on a later call — promotion never stalls execution). Normally driven
/// by the counting entry thunk, exposed for tests and warm-up hooks.
void tier_up(const CompiledModule& cm, u32 defined_index, EngineTier target);

/// Reads the module's tier-up counters (zeros for non-tiered modules).
TierUpSnapshot tierup_snapshot(const CompiledModule& cm);

}  // namespace mpiwasm::rt
