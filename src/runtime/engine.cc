#include "runtime/engine.h"

#include <cstdlib>

#include "runtime/cache.h"
#include "runtime/exec.h"
#include "runtime/instance.h"
#include "runtime/jit_x64.h"
#include "runtime/lowering.h"
#include "runtime/optimizer.h"
#include "support/log.h"
#include "support/timing.h"
#include "support/trace.h"
#include "wasm/decoder.h"
#include "wasm/validator.h"

namespace mpiwasm::rt {

const char* tier_name(EngineTier tier) {
  switch (tier) {
    case EngineTier::kInterp: return "interp";
    case EngineTier::kBaseline: return "baseline";
    case EngineTier::kLightOpt: return "lightopt";
    case EngineTier::kOptimizing: return "optimizing";
    case EngineTier::kTiered: return "tiered";
    case EngineTier::kJit: return "jit";
  }
  return "?";
}

bool simd_enabled_from_env() {
  static const bool enabled = [] {
    const char* v = std::getenv("MPIWASM_SIMD");
    if (v == nullptr) return true;
    std::string s(v);
    return !(s == "0" || s == "false" || s == "off");
  }();
  return enabled;
}

bool threads_enabled_from_env() {
  static const bool enabled = [] {
    const char* v = std::getenv("MPIWASM_THREADS");
    if (v == nullptr) return true;
    std::string s(v);
    return !(s == "0" || s == "false" || s == "off");
  }();
  return enabled;
}

namespace {

/// Cache tag for a compiled artifact. The optimizing tier's ablation flags
/// change the generated code, so they are part of the key — a warm cache
/// must never serve fused/hoisted code to a run that disabled those passes
/// (or vice versa). Default flags keep the plain tier name.
std::string cache_tag(EngineTier tier, bool superinstructions,
                      bool hoist_bounds, bool simd) {
  std::string tag = tier_name(tier);
  if (tier == EngineTier::kOptimizing || tier == EngineTier::kJit) {
    if (!superinstructions) tag += "-nosuper";
    if (!hoist_bounds) tag += "-nohoist";
    if (!simd) tag += "-nosimd";
  }
  if (!threads_enabled_from_env()) tag += "-nothreads";
  return tag;
}

/// The full optimizing pipeline with the ablation flags applied (kOptimizing,
/// kJit, and tiered promotions to either).
OptOptions full_opt_options(bool superinstructions, bool hoist_bounds,
                            bool simd) {
  OptOptions opt = OptOptions::full();
  opt.fuse_super = superinstructions;
  opt.hoist_bounds = hoist_bounds;
  opt.simd = simd;
  return opt;
}

/// Gives `rf` a native entry point: reuses a cache-loaded blob when its CPU
/// features are a subset of the host's and its layout hash matches this
/// build, recompiles otherwise, and installs into the module's arena.
/// On any failure the blob is dropped and the function stays on the
/// threaded interpreter (returns false). Codegen is skipped outright once
/// the module's arena is known to be unavailable (a host that denies
/// executable memory). Caller must hold whatever lock serializes arena
/// installs for `cm`.
bool attach_jit_entry(const CompiledModule& cm, RFunc& rf) {
  const auto fallback = [&] {
    rf.jit = nullptr;
    cm.jit_fallback_funcs.fetch_add(1, std::memory_order_relaxed);
    MW_TRACE_INSTANT("engine", "jit.fallback");
    return false;
  };
  if (cm.jit_arena == nullptr) cm.jit_arena = std::make_unique<JitArena>();
  if (!cm.jit_arena->available()) return fallback();
  const u32 host = jit_cpu_features();
  if (rf.jit != nullptr && ((rf.jit->cpu_features & ~host) != 0 ||
                            rf.jit->layout_hash != jit_layout_hash())) {
    MW_DEBUG("jit: cached blob rejected (feature/layout mismatch)");
    rf.jit = nullptr;  // stale blob: recompile below
  }
  if (rf.jit == nullptr) rf.jit = jit_compile_function(rf);
  if (rf.jit == nullptr) return fallback();
  rf.jit_entry = cm.jit_arena->install(*rf.jit);
  if (rf.jit_entry == nullptr) return fallback();
  cm.jit_funcs.fetch_add(1, std::memory_order_relaxed);
  MW_TRACE_INSTANT("engine", "jit.compile", "code_bytes",
                   i64(rf.jit->code.size()));
  return true;
}

/// Canonicalizes structurally equal function types so call_indirect
/// signature checks are integer comparisons (MPI libraries lean on
/// call_indirect-heavy code for reduction op tables).
void compute_canonical_ids(CompiledModule& cm) {
  const auto& types = cm.module.types;
  cm.canon_type_ids.resize(types.size());
  for (u32 i = 0; i < types.size(); ++i) {
    u32 canon = i;
    for (u32 j = 0; j < i; ++j) {
      if (types[j] == types[i]) {
        canon = j;
        break;
      }
    }
    cm.canon_type_ids[i] = canon;
  }
  const u32 nfuncs = cm.module.total_funcs();
  cm.func_canon.resize(nfuncs);
  for (u32 f = 0; f < nfuncs; ++f) {
    // func_type returns a reference into types; find its index.
    const wasm::FuncType& ft = cm.module.func_type(f);
    u32 ti = u32(&ft - types.data());
    cm.func_canon[f] = cm.canon_type_ids.at(ti);
  }
}

// ---------------------------------------------------------------------------
// Tiered entry thunks.
//
// Steady: installed once the final-stage body is published (Optimizing, or
// Jit when native promotion is on); calls go straight to the executor with
// no counter traffic. A jit body carries its native entry; a body without
// one runs on the threaded interpreter.
void tiered_steady_entry(Instance& inst, const CompiledModule& cm,
                         u32 defined_index, Slot* base) {
  const FuncUnit& u = cm.tiered.units[defined_index];
  const RFunc& rf = *u.active.load(std::memory_order_acquire);
  if (rf.jit_entry != nullptr) {
    inst.run_jit(rf, base);
  } else {
    inst.run_regcode(rf, base);
  }
}

// Counting: bumps the call counter, requests promotion when a threshold
// is crossed, then runs whatever body is currently published (regcode if
// promoted, predecoded bytecode otherwise).
void tiered_counting_entry(Instance& inst, const CompiledModule& cm,
                           u32 defined_index, Slot* base) {
  TieredState& ts = cm.tiered;
  FuncUnit& u = ts.units[defined_index];
  const u64 n = u.calls.fetch_add(1, std::memory_order_relaxed) + 1;
  const EngineTier cur = u.tier.load(std::memory_order_relaxed);
  if (ts.jit_enabled && cur != EngineTier::kJit && n >= ts.jit_threshold) {
    tier_up(cm, defined_index, EngineTier::kJit);
  } else if (cur != EngineTier::kOptimizing && cur != EngineTier::kJit) {
    if (n >= ts.opt_threshold) {
      tier_up(cm, defined_index, EngineTier::kOptimizing);
    } else if (cur == EngineTier::kInterp && n >= ts.baseline_threshold) {
      tier_up(cm, defined_index, EngineTier::kBaseline);
    }
  }
  if (const RFunc* rf = u.active.load(std::memory_order_acquire)) {
    if (rf->jit_entry != nullptr) {
      inst.run_jit(*rf, base);
    } else {
      inst.run_regcode(*rf, base);
    }
  } else {
    inst.run_predecoded(cm.predecoded.funcs[defined_index], base);
  }
}

}  // namespace

void tier_up(const CompiledModule& cm, u32 defined_index, EngineTier target) {
  MW_CHECK(target == EngineTier::kBaseline ||
               target == EngineTier::kOptimizing ||
               target == EngineTier::kJit,
           "tier_up targets a compiled tier");
  TieredState& ts = cm.tiered;
  // Never stall a rank thread behind an in-progress promotion: if another
  // thread holds the compile lock, skip — the caller runs the currently
  // published body and promotion is retried on a later call.
  std::unique_lock<std::mutex> lock(ts.mu, std::try_to_lock);
  if (!lock.owns_lock()) return;
  FuncUnit& u = ts.units[defined_index];
  if (u.active.load(std::memory_order_relaxed) != nullptr &&
      u.tier.load(std::memory_order_relaxed) >= target) {
    return;  // another rank thread won the race
  }

  trace::Scope span("engine", "tier_up");
  Stopwatch watch;
  const std::string tag = cache_tag(target, ts.opt_superinstructions,
                                    ts.opt_hoist_bounds, ts.opt_simd);
  std::unique_ptr<RFunc> body;
  bool from_cache = false;
  std::optional<FileSystemCache> cache;
  if (ts.cache_enabled) cache.emplace(ts.cache_dir);
  if (cache) {
    if (auto cached = cache->load_func(cm.hash, defined_index, tag)) {
      body = std::make_unique<RFunc>(std::move(*cached));
      from_cache = true;
    }
    MW_TRACE_INSTANT("engine", from_cache ? "cache.hit" : "cache.miss", "func",
                     i64(defined_index));
  }
  if (!body) {
    body = std::make_unique<RFunc>(lower_function(cm.module, defined_index));
    // kJit sits on top of the full optimizing pipeline: templates cover the
    // fused superinstructions, so the native code keeps their wins.
    if (target != EngineTier::kBaseline) {
      optimize_function(*body,
                        full_opt_options(ts.opt_superinstructions,
                                         ts.opt_hoist_bounds, ts.opt_simd));
    }
  }
  // Native codegen (or validation + reinstall of a cache-loaded blob). On
  // failure the fully optimized body is published at kOptimizing instead —
  // the function permanently falls back to the threaded interpreter.
  bool jit_ok = false;
  if (target == EngineTier::kJit) jit_ok = attach_jit_entry(cm, *body);
  if (cache && !from_cache)
    cache->store_func(cm.hash, defined_index, tag, *body);
  // Resolve direct-threading handler addresses before anyone can see an
  // interpreted body (handlers are derived state, never serialized to the
  // cache; a native body never reads them).
  if (body->jit_entry == nullptr) prepare_rfunc(*body);

  const EngineTier publish_tier = target == EngineTier::kJit && !jit_ok
                                      ? EngineTier::kOptimizing
                                      : target;

  // Publish. The superseded body (if any) stays alive: another thread may
  // still be executing it.
  std::unique_ptr<RFunc>& slot = target == EngineTier::kJit ? u.jit_body
                                 : target == EngineTier::kOptimizing
                                     ? u.optimized_body
                                     : u.baseline_body;
  slot = std::move(body);
  u.state.store(FuncState::kRegcode, std::memory_order_relaxed);
  u.active.store(slot.get(), std::memory_order_release);
  u.tier.store(publish_tier, std::memory_order_release);
  // Stop counting once the function reaches its final stage: the jit stage
  // when native promotion is on (reached even on template fallback, which
  // must not be retried every call), the optimizing stage otherwise.
  if (target == EngineTier::kJit ||
      (target == EngineTier::kOptimizing && !ts.jit_enabled))
    u.entry.store(&tiered_steady_entry, std::memory_order_release);

  ts.stats.tierup_compile_ns.fetch_add(watch.elapsed_ns(),
                                       std::memory_order_relaxed);
  auto& counter = jit_ok ? ts.stats.promoted_jit
                  : publish_tier == EngineTier::kOptimizing
                      ? ts.stats.promoted_optimizing
                      : ts.stats.promoted_baseline;
  counter.fetch_add(1, std::memory_order_relaxed);
  if (from_cache)
    ts.stats.func_cache_hits.fetch_add(1, std::memory_order_relaxed);
  if (MW_TRACE_ACTIVE()) {
    trace::note_arg("func", i64(defined_index));
    trace::note_arg("from_cache", from_cache ? 1 : 0);
    trace::note_str("tier", tier_name(publish_tier));
  }
  MW_DEBUG("tier-up: func " << defined_index << " -> " << tag
                            << (from_cache ? " (cache)" : ""));
}

TierUpSnapshot tierup_snapshot(const CompiledModule& cm) {
  const TieredState& ts = cm.tiered;
  TierUpSnapshot s;
  s.funcs_total = ts.num_units;
  for (u32 i = 0; i < ts.num_units; ++i) {
    switch (ts.units[i].state.load(std::memory_order_acquire)) {
      case FuncState::kNone: break;
      case FuncState::kPredecoded: ++s.funcs_predecoded; break;
      case FuncState::kRegcode: ++s.funcs_regcode; break;
    }
  }
  for (u32 i = 0; i < ts.num_units; ++i)
    s.calls_counted += ts.units[i].calls.load(std::memory_order_relaxed);
  s.promoted_baseline = ts.stats.promoted_baseline.load();
  s.promoted_optimizing = ts.stats.promoted_optimizing.load();
  s.promoted_jit = ts.stats.promoted_jit.load();
  s.func_cache_hits = ts.stats.func_cache_hits.load();
  s.tierup_compile_ms = f64(ts.stats.tierup_compile_ns.load()) / 1e6;
  // Native-code census covers static kJit modules too (num_units == 0).
  s.jit_funcs = cm.jit_funcs.load(std::memory_order_relaxed);
  s.jit_fallback_funcs = cm.jit_fallback_funcs.load(std::memory_order_relaxed);
  if (cm.jit_arena != nullptr) s.jit_code_bytes = cm.jit_arena->code_bytes();
  // Statically compiled kJit modules have no tier units; every function was
  // compiled to RegCode ahead of time, so report them all as such.
  if (cm.tier == EngineTier::kJit) {
    s.funcs_total = cm.regcode.funcs.size();
    s.funcs_regcode = s.funcs_total;
  }
  return s;
}

std::shared_ptr<const CompiledModule> compile(std::span<const u8> bytes,
                                              const EngineConfig& cfg) {
  auto cm = std::make_shared<CompiledModule>();
  // With native codegen switched off (config or MPIWASM_JIT=0) the jit tier
  // degrades to the optimizing tier — same RegCode, threaded dispatch.
  const EngineTier tier = cfg.tier == EngineTier::kJit && !cfg.jit
                              ? EngineTier::kOptimizing
                              : cfg.tier;
  cm->tier = tier;

  Stopwatch decode_watch;
  wasm::DecodeResult decoded = wasm::decode_module(bytes);
  if (!decoded.ok()) throw CompileError("decode error: " + decoded.error);
  cm->module = std::move(*decoded.module);
  wasm::ValidationResult vr = wasm::validate_module(cm->module);
  if (!vr.ok) throw CompileError("validation error: " + vr.error);
  cm->decode_ms = decode_watch.elapsed_ms();

  // Threads ablation: with the proposal switched off (config or
  // MPIWASM_THREADS=0), shared memories are rejected outright. Atomics
  // can't validate without one, so this single gate covers the whole
  // feature.
  if (!cfg.threads) {
    for (const wasm::Limits& lim : cm->module.memories)
      if (lim.shared)
        throw CompileError(
            "module declares a shared memory but threads support is "
            "disabled (MPIWASM_THREADS=0)");
  }

  cm->hash = sha256(bytes);
  compute_canonical_ids(*cm);

  Stopwatch compile_watch;
  if (tier == EngineTier::kInterp) {
    cm->predecoded = predecode_module(cm->module);
    cm->compile_ms = compile_watch.elapsed_ms();
    return cm;
  }

  if (tier == EngineTier::kTiered) {
    // Instant startup: predecode every function (cheap, linear), defer all
    // lowering/optimization to the counting thunks.
    cm->predecoded = predecode_module(cm->module);
    TieredState& ts = cm->tiered;
    ts.num_units = u32(cm->predecoded.funcs.size());
    ts.units = std::make_unique<FuncUnit[]>(ts.num_units);
    ts.baseline_threshold = std::max<u64>(1, cfg.tierup_baseline_threshold);
    ts.opt_threshold =
        std::max<u64>(ts.baseline_threshold, cfg.tierup_opt_threshold);
    ts.jit_threshold = std::max<u64>(ts.opt_threshold, cfg.tierup_jit_threshold);
    ts.jit_enabled = cfg.jit;
    ts.cache_enabled = cfg.enable_cache;
    ts.cache_dir = cfg.cache_dir;
    ts.opt_superinstructions = cfg.opt_superinstructions;
    ts.opt_hoist_bounds = cfg.opt_hoist_bounds;
    ts.opt_simd = cfg.opt_simd;
    for (u32 i = 0; i < ts.num_units; ++i) {
      ts.units[i].state.store(FuncState::kPredecoded,
                              std::memory_order_relaxed);
      ts.units[i].entry.store(&tiered_counting_entry,
                              std::memory_order_relaxed);
    }
    cm->compile_ms = compile_watch.elapsed_ms();
    return cm;
  }

  const std::string tag = cache_tag(tier, cfg.opt_superinstructions,
                                    cfg.opt_hoist_bounds, cfg.opt_simd);
  if (cfg.enable_cache) {
    FileSystemCache cache(cfg.cache_dir);
    if (auto rm = cache.load(cm->hash, tag)) {
      cm->regcode = std::move(*rm);
      cm->loaded_from_cache = true;
      for (auto& rf : cm->regcode.funcs) prepare_rfunc(rf);
      if (tier == EngineTier::kJit) {
        // Re-validate and re-install every cached native blob (helper
        // addresses are process-specific). Blobs from a different CPU or
        // codegen layout are silently recompiled; functions that still
        // can't be compiled run on the threaded interpreter.
        for (auto& rf : cm->regcode.funcs) attach_jit_entry(*cm, rf);
      }
      cm->compile_ms = compile_watch.elapsed_ms();
      MW_TRACE_INSTANT("engine", "cache.hit", "module", 1);
      MW_DEBUG("cache hit for " << cm->hash.hex() << " (" << tag << ")");
      return cm;
    }
    MW_TRACE_INSTANT("engine", "cache.miss", "module", 1);
  }

  // One function at a time: lower, optimize, attach native code, then
  // resolve threaded handlers only for bodies left on the interpreter (a
  // native body never reads them). Only one unoptimized body is alive at
  // any point, which keeps peak memory at the optimized module's size.
  const OptOptions opt =
      tier == EngineTier::kLightOpt
          ? OptOptions::light()
          : full_opt_options(cfg.opt_superinstructions, cfg.opt_hoist_bounds,
                             cfg.opt_simd);
  const u32 nfuncs = u32(cm->module.bodies.size());
  cm->regcode.funcs.reserve(nfuncs);
  for (u32 i = 0; i < nfuncs; ++i) {
    RFunc& rf = cm->regcode.funcs.emplace_back(lower_function(cm->module, i));
    if (tier != EngineTier::kBaseline) optimize_function(rf, opt);
    if (tier == EngineTier::kJit) attach_jit_entry(*cm, rf);
    if (rf.jit_entry == nullptr) prepare_rfunc(rf);
  }
  MW_DEBUG("compiled " << nfuncs << " functions at " << tier_name(tier)
                       << ": " << cm->jit_funcs.load() << " native, "
                       << (cm->jit_arena ? cm->jit_arena->code_bytes() : 0)
                       << " code bytes");
  cm->compile_ms = compile_watch.elapsed_ms();

  if (cfg.enable_cache) {
    // For kJit this runs after codegen so the native blobs land in the
    // cache entry alongside the RegCode.
    FileSystemCache cache(cfg.cache_dir);
    cache.store(cm->hash, tag, cm->regcode);
  }
  return cm;
}

}  // namespace mpiwasm::rt
