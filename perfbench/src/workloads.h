// The benchmark's workloads and the metrics they report.
//
// Every workload runs through the public entry points a user of the
// embedder calls (embed::Embedder, rt::compile, rt::Instance) with the
// shipped defaults: EngineConfig{} and EmbedderConfig{} unchanged except for
// the private cache directory, the bench.report import and a stdout sink.
// No tier, network profile or collective knob is set here, so a change to a
// default shows up in these numbers without an edit to the benchmark.
#pragma once

#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "embedder/embedder.h"

namespace perfbench {

struct MetricDef {
  std::string name;
  const char* unit;
};

/// End-to-end metrics; every workload reports all of them.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics of a traced run; layers a workload does not exercise
/// report 0.
const std::vector<MetricDef>& per_layer_metrics();

/// What one invocation shares across its repetitions.
struct Context {
  /// EmbedderConfig{} with engine.cache_dir pointed at the invocation's
  /// private directory (code cache and learned collective table).
  mpiwasm::embed::EmbedderConfig base;
  int ranks = 4;
  std::mt19937_64* rng = nullptr;  // shuffles the order of runs in a rep
};

/// What a repetition is for.
enum class Mode {
  /// The untimed first repetition of an invocation: fills the private cache
  /// directory, runs the Wasm side before any native twin, and measures the
  /// peak memory that first Wasm run adds to the process.
  kCold,
  kTimed,   // end-to-end timing, tracing off
  kTraced,  // host-call spans and profiling on
};

/// One repetition of a workload: the Wasm run, its native twin, and the
/// output checks.
struct Rep {
  bool ok = true;
  std::string error;  // first failed check
  double setup_s = 0;
  double wall_s = 0;
  double native_wall_s = 0;
  double slowdown = 0;
  double lat_gm_us = 0;
  double peak_rss_mb = 0;  // kCold only
  /// Traced repetitions only: per-layer values keyed by metric name, and
  /// human-readable breakdowns (per-call tables, algorithm histogram).
  std::map<std::string, double> layers;
  std::vector<std::string> details;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One line stating the inputs (sizes, ranks, iteration counts).
  virtual std::string describe() const = 0;
  virtual Rep run(Mode mode) = 0;
};

const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Context& ctx);

}  // namespace perfbench
