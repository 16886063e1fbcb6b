// perfbench: the repository benchmark harness.
//
//   perfbench --workload <hpcg|npb_is|imb_small|coldstart|all>
//             --seed <n> --seconds <s> --trace <0|1> --cache-dir <dir>
//
// Each invocation does one untimed run per workload (filling the private
// cache directory the way a user's first launch on a host does), then
// repeats the workload for --seconds and reports medians. --trace 0 prints
// the end-to-end metrics; --trace 1 alternates untraced and traced
// repetitions and prints the per-layer metrics. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"
#include "support/timing.h"
#include "workloads.h"

extern char** environ;

namespace {

using namespace perfbench;

struct Args {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cache_dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name|all> "
               "--seed <n> --seconds <s> --trace <0|1> --cache-dir <dir>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--cache-dir") a.cache_dir = v;
      else usage(("unknown argument " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.cache_dir.empty()) usage("--cache-dir is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// MPIWASM_* variables switch engine tiers, SIMD, threads, collective
/// algorithms, rendezvous chunking and tracing. Both commits of an A/B pair
/// must measure the shipped defaults, so any of them refuses the run.
void refuse_engine_overrides() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MPIWASM_", 8) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark "
                   "measures the shipped defaults\n",
                   *e);
      std::exit(2);
    }
  }
}

std::string l3_size() {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const auto& d :
       fs::directory_iterator("/sys/devices/system/cpu/cpu0/cache", ec)) {
    std::ifstream level(d.path() / "level");
    int lv = 0;
    if (!(level >> lv) || lv != 3) continue;
    std::ifstream size(d.path() / "size");
    std::string s;
    if (size >> s) return s;
  }
  return "unknown";
}

void print_host_facts(const Context& ctx) {
  const auto& e = ctx.base.engine;
  std::printf("host: nproc=%u l3=%s compiler=\"%s\" build_type=%s\n",
              std::thread::hardware_concurrency(), l3_size().c_str(),
              __VERSION__, PERFBENCH_BUILD_TYPE);
  std::printf(
      "shipped defaults: tier=%s jit=%d simd=%d threads=%d code_cache=%d "
      "net_profile=%s coll_autotune=%d ranks=%d\n",
      mpiwasm::rt::tier_name(e.tier), int(e.jit), int(e.opt_simd),
      int(e.threads), int(e.enable_cache), ctx.base.net_profile.name.c_str(),
      int(ctx.base.coll.autotune), ctx.ranks);
}

struct Summary {
  int attempted = 0;
  int failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
};

void print_stat(const std::string& name, const std::vector<double>& v,
                const char* unit) {
  const Quartiles q = quartiles(v);
  std::printf("  %-34s %14.6g %-6s n=%zu q1=%.6g q3=%.6g\n", name.c_str(),
              median(v), unit, v.size(), q.q1, q.q3);
}

/// Runs one workload: one untimed cold repetition, then repetitions until
/// `seconds` have passed and at least `kMinReps` of each kind were tried.
Summary run_workload(const std::string& name, const Args& args, Context& ctx) {
  constexpr int kMinReps = 3;
  Summary sum;
  std::unique_ptr<Workload> w = make_workload(name, ctx);
  std::printf("== %s\n  %s\n", name.c_str(), w->describe().c_str());
  std::fflush(stdout);

  auto attempt = [&](Mode mode) {
    Rep r;
    try {
      r = w->run(mode);
    } catch (const std::exception& e) {  // e.g. an MPI error in a native twin
      r.ok = false;
      r.error = e.what();
    }
    ++sum.attempted;
    if (!r.ok) {
      ++sum.failed;
      std::printf("  FAILED: %s\n", r.error.c_str());
      std::fflush(stdout);
    }
    return r;
  };

  const Rep cold = attempt(Mode::kCold);
  std::vector<Rep> plain, traced;
  const std::uint64_t start = mpiwasm::now_ns();
  auto elapsed = [&] { return double(mpiwasm::now_ns() - start) / 1e9; };
  for (int round = 0; elapsed() < args.seconds || round < kMinReps; ++round) {
    // Trace runs alternate untraced and traced repetitions in a seeded
    // order, so both sides see the same drift of a shared host.
    bool t_first = args.trace && ((*ctx.rng)() & 1);
    for (int k = 0; k < (args.trace ? 2 : 1); ++k) {
      const bool t = args.trace && (k == 0) == t_first;
      Rep r = attempt(t ? Mode::kTraced : Mode::kTimed);
      if (r.ok) (t ? traced : plain).push_back(std::move(r));
    }
  }

  auto collect = [](const std::vector<Rep>& reps, auto field) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(r.*field);
    return v;
  };
  const std::vector<double> walls = collect(plain, &Rep::wall_s);
  std::printf("  end-to-end (tracing off, %zu repetitions, %.1f s):\n",
              plain.size(), elapsed());
  const std::map<std::string, std::vector<double>> e2e = {
      {"setup_s", collect(plain, &Rep::setup_s)},
      {"wall_s", walls},
      {"slowdown", collect(plain, &Rep::slowdown)},
      {"lat_gm_us", collect(plain, &Rep::lat_gm_us)},
      {"peak_rss_mb", {cold.peak_rss_mb}},
  };
  for (const MetricDef& m : end_to_end_metrics()) {
    const std::vector<double>& v = e2e.at(m.name);
    print_stat(m.name, v, m.unit);
    if (!args.trace) sum.metrics[m.name] = {median(v), m.unit};
  }
  std::printf("  %-34s %14.6g        (%d failed of %d attempted)\n",
              "error_rate", double(sum.failed) / double(sum.attempted),
              sum.failed, sum.attempted);

  if (args.trace) {
    std::vector<double> native = collect(plain, &Rep::native_wall_s);
    for (const Rep& r : traced) native.push_back(r.native_wall_s);
    const double warm_wall = median(walls);
    std::printf("  per-layer (traced, %zu repetitions):\n", traced.size());
    for (const MetricDef& m : per_layer_metrics()) {
      std::vector<double> v;
      for (const Rep& r : traced) v.push_back(r.layers.at(m.name));
      const std::string& n = m.name;
      if (n == "simmpi.autotune_cold_s") v = {cold.wall_s - warm_wall};
      if (n == "simmpi.native_wall_s") v = native;
      if (n == "trace.overhead")
        v = {median(collect(traced, &Rep::wall_s)) / warm_wall};
      print_stat(m.name, v, m.unit);
      sum.metrics[n] = {median(v), m.unit};
    }
    // Call counts, bytes and algorithm picks repeat exactly across traced
    // repetitions, so the first one's breakdown stands for all.
    if (!traced.empty())
      for (const std::string& d : traced.front().details)
        std::printf("  detail %s\n", d.c_str());
  }
  std::fflush(stdout);
  return sum;
}

std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  refuse_engine_overrides();

  std::vector<std::string> names;
  if (args.workload == "all") {
    names = workload_names();
  } else if (std::find(workload_names().begin(), workload_names().end(),
                       args.workload) != workload_names().end()) {
    names = {args.workload};
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }

  std::error_code ec;
  std::filesystem::create_directories(args.cache_dir, ec);
  if (ec) usage(("cannot create cache dir " + args.cache_dir).c_str());

  std::mt19937_64 rng(args.seed);
  Context ctx;
  ctx.base.engine.cache_dir = args.cache_dir;
  ctx.base.stdout_sink = [](int, std::string_view) {};
  ctx.ranks = int(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  ctx.rng = &rng;
  std::shuffle(names.begin(), names.end(), rng);

  std::printf("perfbench seed=%llu seconds=%g trace=%d order=",
              (unsigned long long)args.seed, args.seconds, int(args.trace));
  for (const auto& n : names) std::printf("%s ", n.c_str());
  std::printf("\n");
  print_host_facts(ctx);

  int attempted = 0, failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  bool finite = true;
  for (const std::string& n : names) {
    Summary s = run_workload(n, args, ctx);
    attempted += s.attempted;
    failed += s.failed;
    for (auto& [k, v] : s.metrics) {
      finite = finite && std::isfinite(v.first);
      metrics[names.size() == 1 ? k : n + "." + k] = v;
    }
  }

  const bool correct = failed == 0 && finite;
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : metrics) {
    out += (first ? "\"" : ", \"") + k + "\": {\"value\": " +
           json_number(v.first) + ", \"unit\": \"" + v.second + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
