#include "workloads.h"

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "benchlib/harness.h"
#include "calls.h"
#include "runtime/cache.h"
#include "runtime/instance.h"
#include "runtime/jit_x64.h"
#include "runtime/lowering.h"
#include "runtime/optimizer.h"
#include "stats.h"
#include "support/timing.h"
#include "support/trace.h"
#include "toolchain/kernels.h"
#include "toolchain/native_kernels.h"
#include "wasm/decoder.h"
#include "wasm/validator.h"

namespace perfbench {

namespace embed = mpiwasm::embed;
namespace rt = mpiwasm::rt;
namespace simmpi = mpiwasm::simmpi;
namespace tc = mpiwasm::toolchain;
namespace trace = mpiwasm::trace;
using mpiwasm::now_ns;
using Bytes = std::vector<std::uint8_t>;

// Per-call breakdown rows in the per-layer metrics: the routines the
// workloads issue. Recv carries no payload of its own (the matching Send
// counts the bytes).
const char* const kCallNames[] = {
    "MPI_Send",      "MPI_Recv",     "MPI_Sendrecv", "MPI_Bcast",
    "MPI_Allreduce", "MPI_Alltoall", "MPI_Alltoallv", "MPI_Barrier"};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},      {"wall_s", "s"},         {"slowdown", "ratio"},
      {"lat_gm_us", "us"},   {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"wasm.decode_s", "s"},
        {"wasm.validate_s", "s"},
        {"runtime.lower_s", "s"},
        {"runtime.optimize_s", "s"},
        {"runtime.jit_emit_s", "s"},
        {"runtime.compile_s", "s"},
        {"runtime.jit_funcs", "count"},
        {"runtime.jit_fallback_funcs", "count"},
        {"runtime.code_bytes", "B"},
        {"runtime.instantiate_s", "s"},
        {"runtime.rank_span_s", "s"},
        {"runtime.guest_s", "s"},
        {"embedder.host_calls", "count"},
        {"embedder.host_s", "s"},
        {"embedder.call_p50_us", "us"},
        {"embedder.call_p99_us", "us"},
        {"embedder.call_samples", "count"},
        {"embedder.translate_ns", "ns"},
        {"embedder.translate_samples", "count"},
        {"simmpi.wait_s", "s"},
        {"simmpi.xfer_s", "s"},
        {"simmpi.msgs", "count"},
        {"simmpi.bytes", "B"},
        {"simmpi.algo_picks", "count"},
        {"simmpi.autotune_cold_s", "s"},
        {"simmpi.native_wall_s", "s"},
        {"trace.overhead", "ratio"},
    };
    for (const char* call : kCallNames) {
      d.push_back({std::string("embedder.calls.") + call, "count"});
      d.push_back({std::string("embedder.host_s.") + call, "s"});
      if (call_shape(call).count_arg >= 0)
        d.push_back({std::string("simmpi.bytes.") + call, "B"});
    }
    return d;
  }();
  return defs;
}

namespace {

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return b > a ? double(b - a) / 1e9 : 0.0;
}

// --- Peak resident memory --------------------------------------------------

/// A /proc/self/status field in MiB (0 if absent).
double status_mib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      std::istringstream ss(line.substr(len + 1));
      double kib = 0;
      ss >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

/// Peak resident memory a run adds to the process. Construct it right
/// before the run and read it right after. The kernel's high-water mark is
/// reset at construction, and what is already resident then (heap that
/// earlier runs, such as the native twin, left in malloc arenas) is
/// subtracted, so the figure covers this run alone.
class PeakRss {
 public:
  PeakRss() {
    malloc_trim(0);
    const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
    if (fd >= 0) {
      [[maybe_unused]] ssize_t n = ::write(fd, "5", 1);
      ::close(fd);
    }
    base_mib_ = status_mib("VmRSS");
  }
  double added_mib() const { return status_mib("VmHWM") - base_mib_; }

 private:
  double base_mib_ = 0;
};

// --- Layer accumulation ------------------------------------------------------

/// Per-layer values of one repetition, summed over the worlds it runs.
struct LayerAcc {
  std::map<std::string, double> v;
  std::vector<double> call_us;
  std::vector<double> translate_ns;
  std::map<std::string, std::uint64_t> algos;

  void add(const std::string& k, double x) { v[k] += x; }
};

/// Times the compile phases the configured tier runs, each through its
/// public entry point, on a fresh decode of `bytes`. rt::compile runs the
/// same phases internally; its own time is runtime.compile_s.
void time_compile_phases(std::span<const std::uint8_t> bytes,
                         const rt::EngineConfig& cfg, LayerAcc& acc) {
  std::uint64_t t0 = now_ns();
  mpiwasm::wasm::DecodeResult decoded = mpiwasm::wasm::decode_module(bytes);
  std::uint64_t t1 = now_ns();
  acc.add("wasm.decode_s", seconds_between(t0, t1));
  if (!decoded.ok()) return;
  t0 = now_ns();
  mpiwasm::wasm::validate_module(*decoded.module);
  t1 = now_ns();
  acc.add("wasm.validate_s", seconds_between(t0, t1));

  // Same tier resolution as rt::compile: kJit without native codegen runs
  // the optimizing pipeline; kInterp and kTiered lower nothing up front.
  const rt::EngineTier tier =
      cfg.tier == rt::EngineTier::kJit && !cfg.jit ? rt::EngineTier::kOptimizing
                                                   : cfg.tier;
  if (tier == rt::EngineTier::kInterp || tier == rt::EngineTier::kTiered)
    return;
  t0 = now_ns();
  rt::RModule rm = rt::lower_module(*decoded.module);
  t1 = now_ns();
  acc.add("runtime.lower_s", seconds_between(t0, t1));
  if (tier == rt::EngineTier::kBaseline) return;
  rt::OptOptions opt = rt::OptOptions::light();
  if (tier != rt::EngineTier::kLightOpt) {
    opt = rt::OptOptions::full();
    opt.fuse_super = cfg.opt_superinstructions;
    opt.hoist_bounds = cfg.opt_hoist_bounds;
    opt.simd = cfg.opt_simd;
  }
  t0 = now_ns();
  rt::optimize_module(rm, opt);
  t1 = now_ns();
  acc.add("runtime.optimize_s", seconds_between(t0, t1));
  if (tier != rt::EngineTier::kJit) return;
  t0 = now_ns();
  for (const rt::RFunc& rf : rm.funcs) rt::jit_compile_function(rf);
  t1 = now_ns();
  acc.add("runtime.jit_emit_s", seconds_between(t0, t1));
}

void add_tierup(const rt::TierUpSnapshot& s, LayerAcc& acc) {
  acc.add("runtime.jit_funcs", double(s.jit_funcs));
  acc.add("runtime.jit_fallback_funcs", double(s.jit_fallback_funcs));
  acc.add("runtime.code_bytes", double(s.jit_code_bytes));
}

/// Folds one traced world's host-call records into `acc`. Per-rank times
/// are averaged over ranks; counts and bytes are summed. Returns an error
/// message when the spans do not add up.
std::string add_world_calls(const WorldRecorder& rec, LayerAcc& acc) {
  const auto& calls = rec.calls();
  const double nr = double(calls.size());
  std::vector<std::vector<Interval>> coll(calls.size());
  double span_s = 0, guest_s = 0, host_s = 0, inst_s = 0;
  for (size_t r = 0; r < calls.size(); ++r) {
    const auto& rc = calls[r];
    const CallRecord* init = nullptr;
    const CallRecord* fin = nullptr;
    for (const CallRecord& c : rc) {
      const std::string& n = rec.names()[c.name];
      if (init == nullptr && (n == "MPI_Init" || n == "MPI_Init_thread"))
        init = &c;
      if (n == "MPI_Finalize") fin = &c;
    }
    if (init == nullptr || fin == nullptr)
      return "rank " + std::to_string(r) + " has no MPI_Init/MPI_Finalize span";
    const Interval span{init->span.begin, fin->span.end};
    std::vector<Interval> children;
    std::uint64_t host_ns = 0;
    for (const CallRecord& c : rc) {
      const std::string& n = rec.names()[c.name];
      const std::uint64_t d = c.span.end - c.span.begin;
      children.push_back(c.span);
      host_ns += d;
      acc.call_us.push_back(double(d) / 1e3);
      acc.add("embedder.calls." + n, 1);
      acc.add("embedder.host_s." + n, double(d) / 1e9 / nr);
      if (c.payload) {
        acc.add("simmpi.msgs", 1);
        acc.add("simmpi.bytes", double(c.bytes));
        acc.add("simmpi.bytes." + n, double(c.bytes));
      }
      if (c.collective) coll[r].push_back(c.span);
    }
    const std::uint64_t span_ns = span.end - span.begin;
    const std::uint64_t guest_ns = self_ns(span, children);
    // One rank thread issues its calls one after another, so the calls
    // tile part of the span and guest + host must equal it exactly.
    if (guest_ns + host_ns != span_ns)
      return "rank " + std::to_string(r) +
             ": guest + host time does not account for the MPI span";
    span_s += double(span_ns) / 1e9;
    guest_s += double(guest_ns) / 1e9;
    host_s += double(host_ns) / 1e9;
    inst_s += seconds_between(rec.ready_ns()[r], rec.init_ns()[r]);
    acc.add("embedder.host_calls", double(rc.size()));
  }
  double wait_s = 0;
  for (std::uint64_t w : collective_wait_ns(coll)) wait_s += double(w) / 1e9;
  acc.add("runtime.rank_span_s", span_s / nr);
  acc.add("runtime.guest_s", guest_s / nr);
  acc.add("embedder.host_s", host_s / nr);
  acc.add("runtime.instantiate_s", inst_s / nr);
  acc.add("simmpi.wait_s", wait_s / nr);
  acc.add("simmpi.xfer_s", (host_s - wait_s) / nr);
  return {};
}

/// Turns the accumulated sums into the repetition's per-layer map, filling
/// every declared metric (0 where the layer was idle) and the breakdown
/// lines.
void finish_layers(LayerAcc& acc, Rep& rep) {
  acc.v["embedder.call_p50_us"] = percentile(acc.call_us, 50);
  acc.v["embedder.call_p99_us"] = percentile(acc.call_us, 99);
  acc.v["embedder.call_samples"] = double(acc.call_us.size());
  acc.v["embedder.translate_ns"] = median(acc.translate_ns);
  acc.v["embedder.translate_samples"] = double(acc.translate_ns.size());
  double picks = 0;
  for (const auto& [k, n] : acc.algos) {
    picks += double(n);
    rep.details.push_back("algo " + k + " " + std::to_string(n));
  }
  acc.v["simmpi.algo_picks"] = picks;
  for (const MetricDef& m : per_layer_metrics())
    rep.layers[m.name] = acc.v.count(m.name) ? acc.v[m.name] : 0.0;
  // Calls outside the fixed breakdown rows still show in the details.
  for (const auto& [k, x] : acc.v)
    if (k.rfind("embedder.calls.", 0) == 0)
      rep.details.push_back("calls " + k.substr(15) + " " +
                            std::to_string(std::uint64_t(x)));
}

// --- Running one world -------------------------------------------------------

struct WorldRun {
  std::string error;  // empty on success
  double setup_s = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;
  std::vector<mpiwasm::bench::ReportRow> rows;
};

/// Compiles `bytes` and runs `_start` on ctx.ranks ranks. setup_s runs from
/// bytes in hand until the last rank enters MPI_Init; wall_s from there
/// until run_world returns. A traced run (non-null `acc`) also wraps every
/// MPI import and adds its layer values to `acc`.
WorldRun run_wasm_world(const Context& ctx, const Bytes& bytes, Mode mode,
                        LayerAcc* acc) {
  WorldRun out;
  const bool traced = acc != nullptr;
  mpiwasm::bench::ReportCollector collector;
  embed::EmbedderConfig cfg = ctx.base;
  cfg.record_translation = traced;
  std::optional<PeakRss> rss;
  if (mode == Mode::kCold) rss.emplace();
  try {
    const std::uint64_t t0 = now_ns();
    std::shared_ptr<const rt::CompiledModule> cm =
        rt::compile({bytes.data(), bytes.size()}, cfg.engine);
    const std::uint64_t t_compiled = now_ns();
    WorldRecorder rec(ctx.ranks, traced, mpi_imports_of(*cm));
    cfg.extra_imports = rec.hook(collector.hook());
    embed::Embedder emb(cfg);
    if (traced) {
      // Only the algorithm histogram is read, never the event rings; and
      // every new rank thread registers a ring that lives until exit.
      trace::set_ring_capacity(2);
      trace::reset();
      trace::enable_profiling(true);
    }
    embed::RunResult res = emb.run_world(cm, ctx.ranks);
    const std::uint64_t t1 = now_ns();
    if (rss) out.peak_rss_mb = rss->added_mib();
    if (traced) {
      for (const auto& [k, n] : trace::algo_histogram()) acc->algos[k] += n;
      trace::enable_profiling(false);
      trace::reset();
    }
    if (res.exit_code != 0)
      out.error = "exit code " + std::to_string(res.exit_code);
    const auto& init = rec.init_ns();
    if (std::find(init.begin(), init.end(), 0) != init.end())
      out.error = "a rank never entered MPI_Init";
    if (!out.error.empty()) return out;
    const std::uint64_t last_init = *std::max_element(init.begin(), init.end());
    out.setup_s = seconds_between(t0, last_init);
    out.wall_s = seconds_between(last_init, t1);
    out.rows = collector.rows();
    if (traced) {
      acc->add("runtime.compile_s", seconds_between(t0, t_compiled));
      time_compile_phases({bytes.data(), bytes.size()}, cfg.engine, *acc);
      add_tierup(res.tierup, *acc);
      for (const auto& s : res.translation_samples)
        acc->translate_ns.push_back(double(s.ns));
      out.error = add_world_calls(rec, *acc);
    }
  } catch (const std::exception& e) {
    if (traced) {
      trace::enable_profiling(false);
      trace::reset();
    }
    out.error = e.what();
  }
  return out;
}

/// Runs a probe module that reports success through its exit code.
std::string run_check_module(const Context& ctx, const Bytes& bytes) {
  try {
    embed::Embedder emb(ctx.base);
    embed::RunResult res = emb.run_world({bytes.data(), bytes.size()}, ctx.ranks);
    if (res.exit_code != 0) return "exit code " + std::to_string(res.exit_code);
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

/// The collective tuning the embedder gives its world: the same learned
/// table file, so the native twin sees the same algorithm choices.
simmpi::CollTuning twin_coll(const Context& ctx) {
  simmpi::CollTuning coll = ctx.base.coll;
  if (coll.autotune && coll.autotune_file.empty())
    coll.autotune_file = rt::autotune_table_path(ctx.base.engine.cache_dir);
  return coll;
}

/// Runs `fn` on a native simmpi world with the embedder's network profile
/// and tuning. Returns the time from the last rank starting `fn` until the
/// world finishes (the native counterpart of wall_s).
double run_native_world(const Context& ctx,
                        const std::function<void(simmpi::Rank&)>& fn) {
  simmpi::World world(ctx.ranks, ctx.base.net_profile, twin_coll(ctx));
  std::vector<std::uint64_t> start(size_t(ctx.ranks), 0);
  world.run([&](simmpi::Rank& r) {
    start[size_t(r.world_rank())] = now_ns();
    fn(r);
  });
  const std::uint64_t end = now_ns();
  return seconds_between(*std::max_element(start.begin(), start.end()), end);
}

/// Runs the Wasm world and its native twin in seed-shuffled order; the cold
/// repetition always runs the Wasm side first.
template <typename WasmFn, typename NativeFn>
void run_pair(const Context& ctx, Mode mode, WasmFn wasm, NativeFn native) {
  if (mode == Mode::kCold || ((*ctx.rng)() & 1)) {
    wasm();
    native();
  } else {
    native();
    wasm();
  }
}

/// Marks the repetition failed, keeping the first reason.
Rep& fail(Rep& rep, const std::string& why) {
  if (rep.ok) rep.error = why;
  rep.ok = false;
  return rep;
}

// --- hpcg --------------------------------------------------------------------

class HpcgWorkload : public Workload {
 public:
  explicit HpcgWorkload(const Context& ctx) : ctx_(ctx) {
    p_.n_per_rank = 1u << 22;
    p_.iterations = 8;
    p_.use_simd = true;
    bytes_ = tc::build_hpcg_module(p_);
  }

  std::string describe() const override {
    // x, r, p and Ap, each n + 2 doubles per rank.
    const double ws_mib =
        4.0 * double(p_.n_per_rank + 2) * 8 * ctx_.ranks / (1 << 20);
    std::ostringstream s;
    s << "hpcg: CG, SIMD build, " << ctx_.ranks << " ranks, "
      << p_.n_per_rank << " doubles per rank, " << p_.iterations
      << " iterations, working set " << ws_mib << " MiB";
    return s.str();
  }

  Rep run(Mode mode) override {
    const bool traced = mode == Mode::kTraced;
    Rep rep;
    LayerAcc acc;
    WorldRun w;
    tc::HpcgResult native{};
    run_pair(
        ctx_, mode,
        [&] { w = run_wasm_world(ctx_, bytes_, mode, traced ? &acc : nullptr); },
        [&] {
          rep.native_wall_s = run_native_world(ctx_, [&](simmpi::Rank& r) {
            tc::HpcgResult res = tc::native_hpcg_run(r, p_);
            if (r.world_rank() == 0) native = res;
          });
        });
    if (!w.error.empty()) return fail(rep, w.error);
    std::vector<mpiwasm::bench::ReportRow> rows;
    for (const auto& row : w.rows)
      if (row.id == p_.report_id) rows.push_back(row);
    if (rows.size() != 1) return fail(rep, "hpcg: expected one report");
    if (std::bit_cast<std::uint64_t>(rows[0].c) !=
        std::bit_cast<std::uint64_t>(native.residual))
      fail(rep, "hpcg: residual differs from the native twin");
    rep.setup_s = w.setup_s;
    rep.wall_s = w.wall_s;
    rep.peak_rss_mb = w.peak_rss_mb;
    rep.slowdown = w.wall_s / rep.native_wall_s;
    // Guest-timed CG iteration from the reported GFLOP/s (14 n flops per
    // rank per iteration, the kernel's own flop model).
    rep.lat_gm_us =
        14.0 * p_.n_per_rank * ctx_.ranks / (rows[0].a * 1e9) * 1e6;
    if (traced) finish_layers(acc, rep);
    return rep;
  }

 private:
  const Context& ctx_;
  tc::HpcgParams p_;
  Bytes bytes_;
};

// --- npb_is ------------------------------------------------------------------

class IsWorkload : public Workload {
 public:
  explicit IsWorkload(const Context& ctx) : ctx_(ctx) {
    p_.keys_per_rank = 1u << 21;
    p_.repetitions = 4;
    bytes_ = tc::build_is_module(p_);
  }

  std::string describe() const override {
    std::ostringstream s;
    s << "npb_is: integer sort, " << ctx_.ranks << " ranks, "
      << p_.keys_per_rank << " keys per rank in [0, 2^" << p_.key_log2_max
      << "), " << p_.repetitions << " repetitions";
    return s.str();
  }

  Rep run(Mode mode) override {
    const bool traced = mode == Mode::kTraced;
    Rep rep;
    LayerAcc acc;
    WorldRun w;
    tc::IsResult native{};
    run_pair(
        ctx_, mode,
        [&] { w = run_wasm_world(ctx_, bytes_, mode, traced ? &acc : nullptr); },
        [&] {
          rep.native_wall_s = run_native_world(ctx_, [&](simmpi::Rank& r) {
            tc::IsResult res = tc::native_is_run(r, p_);
            if (r.world_rank() == 0) native = res;
          });
        });
    if (!w.error.empty()) return fail(rep, w.error);
    std::vector<mpiwasm::bench::ReportRow> rows;
    for (const auto& row : w.rows)
      if (row.id == p_.report_id) rows.push_back(row);
    if (rows.size() != 1) return fail(rep, "npb_is: expected one report");
    if (rows[0].b != 1.0) fail(rep, "npb_is: verification failed");
    if (!native.ok) fail(rep, "npb_is: native twin verification failed");
    rep.setup_s = w.setup_s;
    rep.wall_s = w.wall_s;
    rep.peak_rss_mb = w.peak_rss_mb;
    rep.slowdown = w.wall_s / rep.native_wall_s;
    // Guest-timed ranking repetition from the reported Mop/s.
    rep.lat_gm_us = double(p_.keys_per_rank) * ctx_.ranks / 1e6 /
                    rows[0].a * 1e6;
    if (traced) finish_layers(acc, rep);
    return rep;
  }

 private:
  const Context& ctx_;
  tc::IsParams p_;
  Bytes bytes_;
};

// --- imb_small ---------------------------------------------------------------

struct ImbCase {
  tc::ImbParams p;
  Bytes bytes;
};

class ImbWorkload : public Workload {
 public:
  explicit ImbWorkload(const Context& ctx) : ctx_(ctx) {
    // Iterations per size, calibrated once on the reference host so each
    // routine takes a similar share of the repetition, then fixed: the
    // inputs never depend on the machine the benchmark runs on.
    struct Cal {
      tc::ImbRoutine r;
      std::uint32_t iters;
    };
    const Cal cal[] = {{tc::ImbRoutine::kPingPong, 270},
                       {tc::ImbRoutine::kAllReduce, 1050},
                       {tc::ImbRoutine::kBcast, 1400},
                       {tc::ImbRoutine::kAlltoall, 150},
                       {tc::ImbRoutine::kBarrier, 20000}};
    for (const Cal& c : cal) {
      ImbCase ic;
      ic.p.routine = c.r;
      ic.p.min_bytes = c.r == tc::ImbRoutine::kBarrier ? 1 : 8;
      ic.p.max_bytes = c.r == tc::ImbRoutine::kBarrier ? 1 : 4096;
      ic.p.base_iters = c.iters;
      ic.p.min_iters = c.iters;
      ic.p.max_iters = c.iters;
      ic.bytes = tc::build_imb_module(ic.p);
      cases_.push_back(std::move(ic));
    }
    allreduce_check_ = tc::build_allreduce_check_module();
    icoll_check_ = tc::build_icoll_check_module();
  }

  std::string describe() const override {
    std::ostringstream s;
    s << "imb_small: " << ctx_.ranks << " ranks,";
    for (const ImbCase& c : cases_)
      s << " " << tc::imb_routine_name(c.p.routine) << " x"
        << c.p.base_iters;
    s << " per size, 8 B - 4 KiB (Barrier: one row)";
    return s.str();
  }

  Rep run(Mode mode) override {
    const bool traced = mode == Mode::kTraced;
    Rep rep;
    LayerAcc acc;
    std::vector<double> lat;
    std::vector<size_t> order(cases_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (mode != Mode::kCold) std::shuffle(order.begin(), order.end(), *ctx_.rng);
    for (size_t i : order) {
      const ImbCase& c = cases_[i];
      WorldRun w;
      std::vector<tc::ImbRow> native;
      double native_s = 0;
      run_pair(
          ctx_, mode,
          [&] {
            w = run_wasm_world(ctx_, c.bytes, mode, traced ? &acc : nullptr);
          },
          [&] {
            native_s = run_native_world(ctx_, [&](simmpi::Rank& r) {
              auto rows = tc::native_imb_run(r, c.p);
              if (r.world_rank() == 0) native = std::move(rows);
            });
          });
      const std::string name = tc::imb_routine_name(c.p.routine);
      if (!w.error.empty()) return fail(rep, name + ": " + w.error);
      size_t nrows = 0;
      for (const auto& row : w.rows) {
        if (row.id != c.p.report_id) continue;
        ++nrows;
        const double expect_iters =
            tc::imb_iters_for(c.p, std::uint32_t(row.a));
        if (!(row.b > 0) || !std::isfinite(row.b) || row.c != expect_iters)
          fail(rep, name + ": bad IMB row");
        lat.push_back(row.b);
      }
      if (nrows == 0 || nrows != native.size())
        fail(rep, name + ": wrong number of IMB rows");
      rep.details.push_back("imb " + name + " wall_s " +
                            std::to_string(w.wall_s) + " native_wall_s " +
                            std::to_string(native_s));
      rep.setup_s += w.setup_s;
      rep.wall_s += w.wall_s;
      rep.native_wall_s += native_s;
      rep.peak_rss_mb = std::max(rep.peak_rss_mb, w.peak_rss_mb);
    }
    // IMB does not verify its data; these probes do.
    if (std::string e = run_check_module(ctx_, allreduce_check_); !e.empty())
      fail(rep, "allreduce check: " + e);
    if (std::string e = run_check_module(ctx_, icoll_check_); !e.empty())
      fail(rep, "icoll check: " + e);
    rep.slowdown = rep.wall_s / rep.native_wall_s;
    rep.lat_gm_us = geomean(lat);
    if (traced) finish_layers(acc, rep);
    return rep;
  }

 private:
  const Context& ctx_;
  std::vector<ImbCase> cases_;
  Bytes allreduce_check_, icoll_check_;
};

// --- coldstart ---------------------------------------------------------------

/// Native twin of the compile-stress module's exported `run(n)` (its first
/// function): the same stores and the same floating-point operation order,
/// so the results agree bit for bit.
double native_stress_run(std::int32_t n, std::vector<std::uint8_t>& mem) {
  double acc = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    const std::uint32_t addr = std::uint32_t(i * 3) & 0xFFF8u;
    const double x = double(i) * 1.0;
    std::memcpy(mem.data() + addr, &x, sizeof x);
    acc += (i & 3) == 0 ? double(i) * 0.5 : double(i) + 2.0;
  }
  return acc;
}

/// Pins the calling thread to the n-th CPU of its affinity mask (modulo the
/// mask size) for the object's lifetime, then restores the mask.
class CpuRotation {
 public:
  explicit CpuRotation(unsigned n) {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    const int count = CPU_COUNT(&saved_);
    if (count <= 0) return;
    int want = int(n % unsigned(count));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || want-- != 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      break;
    }
  }
  ~CpuRotation() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

class ColdstartWorkload : public Workload {
 public:
  explicit ColdstartWorkload(const Context& ctx) : ctx_(ctx) {
    bytes_ = tc::build_compile_stress_module(kCopies);
    // The reference result comes from the interpreter tier, computed once.
    rt::EngineConfig interp = ctx_.base.engine;
    interp.tier = rt::EngineTier::kInterp;
    auto cm = rt::compile({bytes_.data(), bytes_.size()}, interp);
    rt::ImportTable none;
    rt::Instance inst(cm, none);
    const rt::Value arg = rt::Value::from_i32(kRunIters);
    reference_ = inst.invoke("run", {&arg, 1}).as_f64();
    mem_.assign(1 << 16, 0);
  }

  std::string describe() const override {
    std::ostringstream s;
    s << "coldstart: compile-stress module, " << kCopies << " functions, "
      << bytes_.size() << " bytes; compile, instantiate, run(" << kRunIters
      << "); single thread";
    return s.str();
  }

  Rep run(Mode mode) override {
    const bool traced = mode == Mode::kTraced;
    Rep rep;
    LayerAcc acc;
    double value = 0, native_value = 0;
    double wall = 0;
    std::string error;
    auto wasm = [&] {
      std::optional<PeakRss> rss;
      if (mode == Mode::kCold) rss.emplace();
      try {
        const std::uint64_t t0 = now_ns();
        auto cm = rt::compile({bytes_.data(), bytes_.size()}, ctx_.base.engine);
        const std::uint64_t t1 = now_ns();
        rt::ImportTable none;
        rt::Instance inst(cm, none);
        const std::uint64_t t2 = now_ns();
        const rt::Value arg = rt::Value::from_i32(kRunIters);
        value = inst.invoke("run", {&arg, 1}).as_f64();
        const std::uint64_t t3 = now_ns();
        if (rss) rep.peak_rss_mb = rss->added_mib();
        rep.setup_s = seconds_between(t0, t2);
        wall = seconds_between(t2, t3);
        if (traced) {
          acc.add("runtime.compile_s", seconds_between(t0, t1));
          acc.add("runtime.instantiate_s", seconds_between(t1, t2));
          acc.add("runtime.guest_s", wall);
          acc.add("runtime.rank_span_s", wall);
          time_compile_phases({bytes_.data(), bytes_.size()},
                              ctx_.base.engine, acc);
          add_tierup(rt::tierup_snapshot(*cm), acc);
        }
      } catch (const std::exception& e) {
        error = e.what();
      }
    };
    auto native = [&] {
      const std::uint64_t t0 = now_ns();
      native_value = native_stress_run(kRunIters, mem_);
      rep.native_wall_s = seconds_between(t0, now_ns());
    };
    {
      // One thread runs the whole repetition, and the host's vCPUs differ in
      // speed for stretches longer than a run. Rotating the repetitions over
      // every CPU the process may use makes each run's median sample all of
      // them alike.
      CpuRotation pin(next_cpu_++);
      run_pair(ctx_, mode, wasm, native);
    }
    if (!error.empty()) return fail(rep, "coldstart: " + error);
    if (std::bit_cast<std::uint64_t>(value) !=
        std::bit_cast<std::uint64_t>(reference_))
      fail(rep, "coldstart: run() differs from the interpreter tier");
    if (std::bit_cast<std::uint64_t>(native_value) !=
        std::bit_cast<std::uint64_t>(reference_))
      fail(rep, "coldstart: native twin differs from the interpreter tier");
    rep.wall_s = wall;
    rep.slowdown = wall / rep.native_wall_s;
    rep.lat_gm_us = wall / kRunIters * 1e6;
    if (traced) finish_layers(acc, rep);
    return rep;
  }

 private:
  // ~730 KB of Wasm, the size of the paper's compiled HPCG (722 KiB).
  static constexpr std::uint32_t kCopies = 7000;
  static constexpr std::int32_t kRunIters = 1 << 21;
  const Context& ctx_;
  Bytes bytes_;
  double reference_ = 0;
  unsigned next_cpu_ = 0;
  std::vector<std::uint8_t> mem_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"hpcg", "npb_is", "imb_small",
                                                 "coldstart"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Context& ctx) {
  if (name == "hpcg") return std::make_unique<HpcgWorkload>(ctx);
  if (name == "npb_is") return std::make_unique<IsWorkload>(ctx);
  if (name == "imb_small") return std::make_unique<ImbWorkload>(ctx);
  if (name == "coldstart") return std::make_unique<ColdstartWorkload>(ctx);
  return nullptr;
}

}  // namespace perfbench
