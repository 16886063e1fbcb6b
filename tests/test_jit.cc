// Native x86-64 JIT tier: correctness, per-function interpreter fallback,
// trap-point identity with the interpreter, memory.grow base/size reload,
// and the cache v6 native-blob validation chain (feature/layout mismatch ->
// recompile -> threaded fallback).
#include "testlib.h"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "runtime/cache.h"
#include "runtime/exec.h"
#include "runtime/jit_x64.h"
#include "runtime/lowering.h"
#include "runtime/optimizer.h"
#include "toolchain/kernels.h"
#include "wasm/decoder.h"

namespace mpiwasm::test {
namespace {

namespace fs = std::filesystem;
using rt::Trap;
using rt::TrapKind;

std::string fresh_cache_dir() {
  static int counter = 0;
  auto dir = fs::temp_directory_path() /
             ("mpiwasm-test-jit-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter++));
  fs::create_directories(dir);
  return dir.string();
}

EngineConfig jit_config() {
  EngineConfig cfg;
  cfg.tier = EngineTier::kJit;
  cfg.jit = true;  // independent of the MPIWASM_JIT ambient default
  return cfg;
}

/// run(a, b) = a*b + 5 — every op has a template.
std::vector<u8> arith_module() {
  return build_single_func({{I32, I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.local_get(1);
    f.op(Op::kI32Mul);
    f.i32_const(5);
    f.op(Op::kI32Add);
    f.end();
  });
}

TEST(Jit, CompilesAndRunsNativeCode) {
  auto bytes = arith_module();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  EXPECT_EQ(cm->tier, EngineTier::kJit);
  EXPECT_EQ(cm->jit_funcs.load(), 1u);
  EXPECT_EQ(cm->jit_fallback_funcs.load(), 0u);
  ASSERT_NE(cm->jit_arena, nullptr);
  EXPECT_GT(cm->jit_arena->code_bytes(), 0u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(6),
                                                  Value::from_i32(7)})
                .as_i32(),
            47);
}

TEST(Jit, JitOffDegradesToOptimizing) {
  auto bytes = arith_module();
  EngineConfig off = jit_config();
  off.jit = false;
  auto cm = rt::compile({bytes.data(), bytes.size()}, off);
  EXPECT_EQ(cm->tier, EngineTier::kOptimizing);
  EXPECT_EQ(cm->jit_funcs.load(), 0u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(6),
                                                  Value::from_i32(7)})
                .as_i32(),
            47);
}

TEST(Jit, UncoveredOpFallsBackPerFunction) {
  // i8x16.splat has no template; the function must run through the threaded
  // interpreter and still produce the right answer, counted as a fallback.
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.op(Op::kI8x16Splat);
    f.lane_op(Op::kI8x16ExtractLaneU, 3);
    f.end();
  });
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  EXPECT_EQ(cm->jit_funcs.load(), 0u);
  EXPECT_EQ(cm->jit_fallback_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(0xAB)})
                .as_i32(),
            0xAB);
}

TEST(Jit, MixedModuleCompilesCoveredKeepsRest) {
  // Two functions: one covered, one not. The census must show one of each,
  // and both must execute correctly in the same instance.
  ModuleBuilder b;
  b.add_memory(1);
  auto& g = b.begin_func({{I32}, {I32}}, "splat3");
  g.local_get(0);
  g.op(Op::kI8x16Splat);
  g.lane_op(Op::kI8x16ExtractLaneU, 3);
  g.end();
  auto& f = b.begin_func({{I32, I32}, {I32}}, "run");
  f.local_get(0);
  f.local_get(1);
  f.op(Op::kI32Add);
  f.end();
  auto bytes = b.build();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  EXPECT_EQ(cm->jit_funcs.load(), 1u);
  EXPECT_EQ(cm->jit_fallback_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(2),
                                                  Value::from_i32(3)})
                .as_i32(),
            5);
  EXPECT_EQ(inst.invoke("splat3", std::vector<Value>{Value::from_i32(9)})
                .as_i32(),
            9);
}

TEST(Jit, CallsBetweenNativeFunctionsWork) {
  ModuleBuilder b;
  auto& helper = b.begin_func({{I32, I32}, {I32}}, "helper");
  helper.local_get(0);
  helper.local_get(1);
  helper.op(Op::kI32Mul);
  helper.end();
  auto& f = b.begin_func({{I32}, {I32}}, "run");
  f.local_get(0);
  f.i32_const(3);
  f.call(0);  // helper(x, 3)
  f.i32_const(1);
  f.op(Op::kI32Add);
  f.end();
  auto bytes = b.build();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  EXPECT_EQ(cm->jit_funcs.load(), 2u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(5)})
                .as_i32(),
            16);
}

TEST(Jit, BrTableDispatches) {
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    u32 r = f.add_local(ValType::kI32);
    f.block();  // outer — the default target and both exits
    f.block();
    f.block();
    f.local_get(0);
    f.br_table({0, 1}, 2);
    f.end();
    f.i32_const(100);  // case 0 lands here
    f.local_set(r);
    f.br(1);
    f.end();
    f.i32_const(200);  // case 1 lands here
    f.local_set(r);
    f.br(0);
    f.end();  // default: r stays 0
    f.local_get(r);
    f.end();
  });
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  EXPECT_EQ(cm->jit_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(0)})
                .as_i32(), 100);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(1)})
                .as_i32(), 200);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(9)})
                .as_i32(), 0);
}

TEST(Jit, V128ArithmeticMatchesScalar) {
  // f32x4: (1,2,3,4) + (10,20,30,40), extract lane 2 -> 33.
  wasm::V128 a{}, b{};
  f32 av[4] = {1, 2, 3, 4}, bv[4] = {10, 20, 30, 40};
  std::memcpy(a.bytes, av, 16);
  std::memcpy(b.bytes, bv, 16);
  auto bytes = build_single_func({{}, {F32}}, [&](auto& f) {
    f.v128_const(a);
    f.v128_const(b);
    f.op(Op::kF32x4Add);
    f.lane_op(Op::kF32x4ExtractLane, 2);
    f.end();
  });
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  EXPECT_EQ(cm->jit_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run").as_f32(), 33.0f);
}

// --- trap behaviour ---------------------------------------------------------

/// store(0)=1; store(addr)=2; store(4)=3 — an OOB `addr` must trap after the
/// first store retires and before the third executes, exactly like the
/// interpreter.
std::vector<u8> partial_store_module() {
  return build_single_func({{I32}, {}}, [](auto& f) {
    f.i32_const(0);
    f.i32_const(1);
    f.mem_op(Op::kI32Store);
    f.local_get(0);
    f.i32_const(2);
    f.mem_op(Op::kI32Store);
    f.i32_const(4);
    f.i32_const(3);
    f.mem_op(Op::kI32Store);
    f.end();
  });
}

TEST(Jit, OobTrapsAtTheSamePointAsInterp) {
  auto bytes = partial_store_module();
  for (EngineTier tier : {EngineTier::kInterp, EngineTier::kJit}) {
    EngineConfig cfg;
    cfg.tier = tier;
    cfg.jit = true;
    auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
    rt::ImportTable imports;
    rt::Instance inst(cm, imports);
    TrapKind kind = TrapKind::kHostError;
    try {
      inst.invoke("run", std::vector<Value>{Value::from_i32(1 << 20)});
      ADD_FAILURE() << "expected an OOB trap at tier "
                    << rt::tier_name(tier);
    } catch (const Trap& t) {
      kind = t.kind();
    }
    EXPECT_EQ(kind, TrapKind::kMemoryOutOfBounds);
    // Side effects before the trap retired; those after did not.
    i32 first = 0, third = 0;
    std::memcpy(&first, inst.memory().base() + 0, 4);
    std::memcpy(&third, inst.memory().base() + 4, 4);
    EXPECT_EQ(first, 1) << rt::tier_name(tier);
    EXPECT_EQ(third, 0) << rt::tier_name(tier);
  }
}

TEST(Jit, DivTrapsMatchInterp) {
  auto bytes = build_single_func({{I32, I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.local_get(1);
    f.op(Op::kI32DivS);
    f.end();
  });
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  ASSERT_EQ(cm->jit_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  auto trap_kind = [&](i32 a, i32 b) {
    try {
      inst.invoke("run",
                  std::vector<Value>{Value::from_i32(a), Value::from_i32(b)});
    } catch (const Trap& t) {
      return t.kind();
    }
    return TrapKind::kHostError;
  };
  EXPECT_EQ(trap_kind(1, 0), TrapKind::kIntegerDivByZero);
  EXPECT_EQ(trap_kind(INT32_MIN, -1), TrapKind::kIntegerOverflow);
  // The instance stays usable after a native-code trap unwind.
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(42),
                                                  Value::from_i32(6)})
                .as_i32(),
            7);
}

TEST(Jit, MemoryGrowReloadsBaseAndSize) {
  // grow(+1), then store/load at an address that was OOB before the grow:
  // the native code must pick up the new base and size from the helper.
  auto bytes = build_single_func({{}, {I32}}, [](auto& f) {
    u32 old_pages = f.add_local(ValType::kI32);
    f.i32_const(1);
    f.op(Op::kMemoryGrow);
    f.local_set(old_pages);
    f.local_get(old_pages);
    f.i32_const(16);  // old_pages << 16 == old byte size
    f.op(Op::kI32Shl);
    f.i32_const(777);
    f.mem_op(Op::kI32Store);
    f.local_get(old_pages);
    f.i32_const(16);
    f.op(Op::kI32Shl);
    f.mem_op(Op::kI32Load);
    f.end();
  });
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  ASSERT_EQ(cm->jit_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run").as_i32(), 777);
}

// --- cache v6 native-blob validation ----------------------------------------

/// Rewrites the single module-level cache entry in `dir` through `mutate`.
void mutate_cache_entry(const std::string& dir,
                        const std::function<void(rt::RModule&)>& mutate) {
  fs::path entry;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".rcache") entry = e.path();
  ASSERT_FALSE(entry.empty());
  std::ifstream in(entry, std::ios::binary);
  std::vector<u8> bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  in.close();
  auto rm = rt::deserialize_regcode({bytes.data(), bytes.size()});
  ASSERT_TRUE(rm.has_value());
  mutate(*rm);
  auto out_bytes = rt::serialize_regcode(*rm);
  std::ofstream out(entry, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(out_bytes.data()),
            std::streamsize(out_bytes.size()));
}

TEST(Jit, CacheRoundTripsNativeBlob) {
  auto dir = fresh_cache_dir();
  auto bytes = arith_module();
  EngineConfig cfg = jit_config();
  cfg.enable_cache = true;
  cfg.cache_dir = dir;
  auto cold = rt::compile({bytes.data(), bytes.size()}, cfg);
  ASSERT_FALSE(cold->loaded_from_cache);
  ASSERT_EQ(cold->jit_funcs.load(), 1u);

  auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_TRUE(warm->loaded_from_cache);
  EXPECT_EQ(warm->jit_funcs.load(), 1u) << "blob must install from cache";
  ASSERT_NE(warm->regcode.funcs[0].jit, nullptr);
  EXPECT_EQ(warm->regcode.funcs[0].jit->layout_hash, rt::jit_layout_hash());
  rt::ImportTable imports;
  rt::Instance inst(warm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(6),
                                                  Value::from_i32(7)})
                .as_i32(),
            47);
  fs::remove_all(dir);
}

TEST(Jit, CacheBlobWithWrongLayoutHashIsRecompiledNotInstalled) {
  auto dir = fresh_cache_dir();
  auto bytes = arith_module();
  EngineConfig cfg = jit_config();
  cfg.enable_cache = true;
  cfg.cache_dir = dir;
  rt::compile({bytes.data(), bytes.size()}, cfg);

  // Flip the layout hash AND poison the machine code: if the engine ever
  // installed this blob instead of rejecting it, `run` would return without
  // computing the result (0xC3 = ret) and the assertion below would fail.
  mutate_cache_entry(dir, [](rt::RModule& rm) {
    ASSERT_NE(rm.funcs[0].jit, nullptr);
    auto blob = std::make_shared<rt::JitBlob>(*rm.funcs[0].jit);
    blob->layout_hash ^= 0x1;
    std::fill(blob->code.begin(), blob->code.end(), u8(0xC3));
    blob->relocs.clear();
    rm.funcs[0].jit = std::move(blob);
  });

  auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_TRUE(warm->loaded_from_cache);  // RegCode part is still valid
  EXPECT_EQ(warm->jit_funcs.load(), 1u) << "stale blob must be recompiled";
  rt::ImportTable imports;
  rt::Instance inst(warm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(6),
                                                  Value::from_i32(7)})
                .as_i32(),
            47);
  fs::remove_all(dir);
}

TEST(Jit, CacheBlobWithUnknownCpuFeatureIsRecompiledNotInstalled) {
  auto dir = fresh_cache_dir();
  auto bytes = arith_module();
  EngineConfig cfg = jit_config();
  cfg.enable_cache = true;
  cfg.cache_dir = dir;
  rt::compile({bytes.data(), bytes.size()}, cfg);

  // Claim a CPU feature bit no host reports; features must be a subset of
  // the host's for the blob to install.
  mutate_cache_entry(dir, [](rt::RModule& rm) {
    ASSERT_NE(rm.funcs[0].jit, nullptr);
    auto blob = std::make_shared<rt::JitBlob>(*rm.funcs[0].jit);
    blob->cpu_features |= 0x80000000u;
    std::fill(blob->code.begin(), blob->code.end(), u8(0xC3));
    blob->relocs.clear();
    rm.funcs[0].jit = std::move(blob);
  });

  auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_TRUE(warm->loaded_from_cache);
  EXPECT_EQ(warm->jit_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(warm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(6),
                                                  Value::from_i32(7)})
                .as_i32(),
            47);
  fs::remove_all(dir);
}

TEST(Jit, InvalidBlobOnUncompilableFunctionFallsBackToThreaded) {
  // An uncovered-op function never gets a blob; graft a stale one onto its
  // cache entry. The engine must reject it (layout mismatch), fail the
  // recompile (no template for i8x16.splat), and silently run the function
  // through the threaded interpreter.
  auto dir = fresh_cache_dir();
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.op(Op::kI8x16Splat);
    f.lane_op(Op::kI8x16ExtractLaneU, 0);
    f.end();
  });
  EngineConfig cfg = jit_config();
  cfg.enable_cache = true;
  cfg.cache_dir = dir;
  auto cold = rt::compile({bytes.data(), bytes.size()}, cfg);
  ASSERT_EQ(cold->jit_fallback_funcs.load(), 1u);

  mutate_cache_entry(dir, [](rt::RModule& rm) {
    ASSERT_EQ(rm.funcs[0].jit, nullptr);
    auto blob = std::make_shared<rt::JitBlob>();
    blob->layout_hash = rt::jit_layout_hash() ^ 0x1;
    blob->code = {0xC3};
    rm.funcs[0].jit = std::move(blob);
  });

  auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_TRUE(warm->loaded_from_cache);
  EXPECT_EQ(warm->jit_funcs.load(), 0u);
  EXPECT_EQ(warm->jit_fallback_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(warm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(77)})
                .as_i32(),
            77);
  fs::remove_all(dir);
}

TEST(Jit, TruncatedNativeSectionRejectsWholeEntry) {
  auto bytes = arith_module();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  ASSERT_NE(cm->regcode.funcs[0].jit, nullptr);
  auto blob = rt::serialize_regcode(cm->regcode);
  // Cut inside the native section (the last bytes of the entry).
  for (size_t cut = blob.size() - 1; cut > blob.size() - 12; --cut)
    EXPECT_FALSE(rt::deserialize_regcode({blob.data(), cut}).has_value())
        << "prefix of " << cut << " bytes";
}

// --- tier-up into native code -----------------------------------------------

TEST(Jit, TieredPromotionReachesNativeCode) {
  auto bytes = arith_module();
  EngineConfig cfg;
  cfg.tier = EngineTier::kTiered;
  cfg.jit = true;
  cfg.tierup_baseline_threshold = 1;
  cfg.tierup_opt_threshold = 2;
  cfg.tierup_jit_threshold = 3;
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  for (int k = 0; k < 6; ++k) {
    EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(k),
                                                    Value::from_i32(2)})
                  .as_i32(),
              2 * k + 5)
        << "call " << k;
  }
  auto snap = rt::tierup_snapshot(*cm);
  EXPECT_EQ(snap.promoted_jit, 1u);
  EXPECT_EQ(snap.jit_funcs, 1u);
  EXPECT_GT(snap.jit_code_bytes, 0u);
  EXPECT_GE(snap.calls_counted, 3u);
}

TEST(Jit, SnapshotCountsStaticJitModules) {
  auto bytes = arith_module();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  auto snap = rt::tierup_snapshot(*cm);
  EXPECT_EQ(snap.funcs_total, 1u);
  EXPECT_EQ(snap.funcs_regcode, 1u);
  EXPECT_EQ(snap.jit_funcs, 1u);
  EXPECT_EQ(snap.jit_fallback_funcs, 0u);
  EXPECT_GT(snap.jit_code_bytes, 0u);
}

// ---------------------------------------------------------------------------
// The shipped default and the streamed (one function at a time) compile.

std::vector<u8> hpcg_module(bool simd) {
  toolchain::HpcgParams p;
  p.n_per_rank = 64;
  p.iterations = 2;
  p.use_simd = simd;
  return toolchain::build_hpcg_module(p);
}

TEST(Jit, ShippedDefaultTierIsJit) {
  EXPECT_EQ(EngineConfig{}.tier, EngineTier::kJit);
}

TEST(Jit, DefaultConfigCompilesHpcgEntirelyNative) {
  if (!rt::jit_enabled_from_env()) GTEST_SKIP() << "MPIWASM_JIT=0";
  for (bool simd : {false, true}) {
    SCOPED_TRACE(simd ? "simd" : "scalar");
    auto bytes = hpcg_module(simd);
    auto cm = rt::compile({bytes.data(), bytes.size()}, EngineConfig{});
    ASSERT_EQ(cm->tier, EngineTier::kJit);
    const u64 defined = cm->module.bodies.size();
    EXPECT_EQ(cm->jit_funcs.load(), defined);
    EXPECT_EQ(cm->jit_fallback_funcs.load(), 0u);
    for (const rt::RFunc& rf : cm->regcode.funcs) {
      EXPECT_NE(rf.jit_entry, nullptr);
      EXPECT_TRUE(rf.handlers.empty());  // never read behind a native entry
    }
  }
}

/// The whole-module reference pipeline the streamed compile replaced.
rt::RModule whole_module_pipeline(const std::vector<u8>& bytes,
                                  const EngineConfig& cfg) {
  auto decoded = wasm::decode_module({bytes.data(), bytes.size()});
  EXPECT_TRUE(decoded.ok()) << decoded.error;
  rt::RModule rm = rt::lower_module(*decoded.module);
  if (cfg.tier == EngineTier::kLightOpt) {
    rt::optimize_module(rm, rt::OptOptions::light());
  } else if (cfg.tier != EngineTier::kBaseline) {
    rt::OptOptions opt = rt::OptOptions::full();
    opt.fuse_super = cfg.opt_superinstructions;
    opt.hoist_bounds = cfg.opt_hoist_bounds;
    opt.simd = cfg.opt_simd;
    rt::optimize_module(rm, opt);
  }
  if (cfg.tier == EngineTier::kJit)
    for (rt::RFunc& rf : rm.funcs) rf.jit = rt::jit_compile_function(rf);
  return rm;
}

TEST(Jit, StreamedCompileEmitsTheWholeModulePipelinesCode) {
  const std::vector<std::vector<u8>> modules = {
      hpcg_module(false), hpcg_module(true),
      toolchain::build_is_module(toolchain::IsParams{}),
      toolchain::build_compile_stress_module(4)};
  for (EngineTier tier : {EngineTier::kBaseline, EngineTier::kLightOpt,
                          EngineTier::kOptimizing, EngineTier::kJit}) {
    SCOPED_TRACE(rt::tier_name(tier));
    EngineConfig cfg = jit_config();
    cfg.tier = tier;
    for (const auto& bytes : modules) {
      auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
      EXPECT_EQ(rt::serialize_regcode(cm->regcode),
                rt::serialize_regcode(whole_module_pipeline(bytes, cfg)));
    }
  }
}

TEST(Jit, NoExecutableArenaSkipsCodegenAndRunsThreaded) {
  rt::JitArena::deny_mappings_for_testing(true);
  auto bytes = hpcg_module(true);
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  rt::JitArena::deny_mappings_for_testing(false);
  const u64 defined = cm->module.bodies.size();
  EXPECT_EQ(cm->tier, EngineTier::kJit);
  EXPECT_EQ(cm->jit_funcs.load(), 0u);
  EXPECT_EQ(cm->jit_fallback_funcs.load(), defined);
  ASSERT_NE(cm->jit_arena, nullptr);
  EXPECT_FALSE(cm->jit_arena->available());
  EXPECT_EQ(cm->jit_arena->code_bytes(), 0u);
  for (const rt::RFunc& rf : cm->regcode.funcs) {
    EXPECT_EQ(rf.jit, nullptr);
    EXPECT_EQ(rf.jit_entry, nullptr);
    EXPECT_EQ(rf.handlers.empty(), !rt::threaded_dispatch_compiled());
  }

  // The interpreted bodies still compute the native tier's answer.
  rt::JitArena::deny_mappings_for_testing(true);
  auto arith = arith_module();
  auto fallback = rt::compile({arith.data(), arith.size()}, jit_config());
  rt::JitArena::deny_mappings_for_testing(false);
  EXPECT_EQ(fallback->jit_fallback_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(fallback, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(6),
                                                  Value::from_i32(7)})
                .as_i32(),
            47);
}

}  // namespace
}  // namespace mpiwasm::test
