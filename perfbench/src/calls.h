// Host-call recording for one world run.
//
// The benchmark never edits the engine: it observes the embedder from the
// outside through EmbedderConfig::extra_imports, which runs on every rank
// thread after the embedder has registered its env.MPI_* host functions and
// just before the rank's rt::Instance is built. There, each MPI import the
// module uses is looked up and re-registered wrapped in a timing span.
//
// Untraced runs wrap only MPI_Init / MPI_Init_thread (one call per rank) to
// learn when each rank finished setting up; traced runs wrap every MPI
// import the module declares.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "embedder/embedder.h"
#include "stats.h"

namespace perfbench {

/// One host call made by a rank's guest.
struct CallRecord {
  std::uint32_t name = 0;  // index into WorldRecorder::names()
  Interval span;
  /// Payload bytes named by the call's own arguments (count x datatype
  /// size; Alltoall counts every destination block, Alltoallv sums the
  /// send-count array). 0 for calls that carry no payload.
  std::uint64_t bytes = 0;
  bool payload = false;     // a send or a collective with a data buffer
  bool collective = false;  // a blocking collective on MPI_COMM_WORLD
};

/// How a benchmark reads an MPI call's arguments: which ones size the
/// payload and which one names the communicator. Defined for the routines
/// the workloads call; other MPI imports are timed but carry no payload.
struct CallShape {
  int count_arg = -1;  // element count (-1: no payload)
  int dtype_arg = -1;  // datatype handle
  int comm_arg = -1;   // communicator of a blocking collective (-1: p2p)
  bool per_peer = false;       // count is per destination (Alltoall)
  bool counts_array = false;   // count_arg points at an i32 array (Alltoallv)
};

/// Shape of `name`; a default CallShape (no payload, not collective) for
/// routines the table does not list.
CallShape call_shape(const std::string& name);

/// Payload bytes of one call. `load_i32(addr)` reads guest memory (used for
/// count arrays); `comm_size` is the communicator size.
std::uint64_t payload_bytes(const CallShape& shape, const std::int32_t* args,
                            int comm_size,
                            const std::function<std::int32_t(std::uint32_t)>&
                                load_i32);

/// Records one world run. Install it with `hook()` as the embedder's
/// extra_imports; read the results after run_world returns.
class WorldRecorder {
 public:
  /// `mpi_imports` are the env.MPI_* names the module imports; they are
  /// wrapped only when `trace` is set.
  WorldRecorder(int ranks, bool trace, std::vector<std::string> mpi_imports);
  WorldRecorder(const WorldRecorder&) = delete;
  WorldRecorder& operator=(const WorldRecorder&) = delete;

  /// Chains `inner` (e.g. the bench.report collector) and then installs the
  /// wrappers. The returned hook refers to this recorder.
  std::function<void(mpiwasm::rt::ImportTable&, int)> hook(
      std::function<void(mpiwasm::rt::ImportTable&, int)> inner);

  const std::vector<std::string>& names() const { return names_; }
  /// Steady-clock ns at the end of the hook (the rank's Instance is built
  /// right after it).
  const std::vector<std::uint64_t>& ready_ns() const { return ready_ns_; }
  /// Steady-clock ns at which each rank entered MPI_Init(_thread); 0 if it
  /// never did.
  const std::vector<std::uint64_t>& init_ns() const { return init_ns_; }
  /// Traced runs: every wrapped call per rank, in issue order.
  const std::vector<std::vector<CallRecord>>& calls() const { return calls_; }

 private:
  void install(mpiwasm::rt::ImportTable& t, int rank);

  int ranks_;
  bool trace_;
  std::vector<std::string> names_;
  std::vector<CallShape> shapes_;
  std::vector<std::uint64_t> ready_ns_;
  std::vector<std::uint64_t> init_ns_;
  std::vector<std::vector<CallRecord>> calls_;
};

/// env.MPI_* function imports declared by a compiled module.
std::vector<std::string> mpi_imports_of(const mpiwasm::rt::CompiledModule& cm);

}  // namespace perfbench
