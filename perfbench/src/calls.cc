#include "calls.h"

#include <algorithm>
#include <map>

#include "embedder/abi.h"
#include "simmpi/types.h"
#include "support/timing.h"

namespace perfbench {

namespace rt = mpiwasm::rt;
namespace abi = mpiwasm::embed::abi;

CallShape call_shape(const std::string& name) {
  // Argument positions follow the host signatures in embedder/mpi_host.cc.
  static const std::map<std::string, CallShape> kShapes = {
      {"MPI_Send", {1, 2, -1, false, false}},
      {"MPI_Isend", {1, 2, -1, false, false}},
      {"MPI_Sendrecv", {1, 2, -1, false, false}},
      {"MPI_Barrier", {-1, -1, 0, false, false}},
      {"MPI_Bcast", {1, 2, 4, false, false}},
      {"MPI_Reduce", {2, 3, 6, false, false}},
      {"MPI_Allreduce", {2, 3, 5, false, false}},
      {"MPI_Gather", {1, 2, 7, false, false}},
      {"MPI_Scatter", {4, 5, 7, false, false}},
      {"MPI_Allgather", {1, 2, 6, false, false}},
      {"MPI_Alltoall", {1, 2, 6, true, false}},
      {"MPI_Alltoallv", {1, 3, 8, false, true}},
  };
  auto it = kShapes.find(name);
  return it == kShapes.end() ? CallShape{} : it->second;
}

std::uint64_t payload_bytes(
    const CallShape& shape, const std::int32_t* args, int comm_size,
    const std::function<std::int32_t(std::uint32_t)>& load_i32) {
  if (shape.count_arg < 0) return 0;
  const std::uint64_t elem = mpiwasm::simmpi::datatype_size(
      mpiwasm::simmpi::Datatype(args[shape.dtype_arg]));
  std::uint64_t count = 0;
  if (shape.counts_array) {
    const std::uint32_t base = std::uint32_t(args[shape.count_arg]);
    for (int i = 0; i < comm_size; ++i)
      count += std::uint64_t(load_i32(base + std::uint32_t(i) * 4));
  } else {
    count = std::uint64_t(std::uint32_t(args[shape.count_arg]));
    if (shape.per_peer) count *= std::uint64_t(comm_size);
  }
  return count * elem;
}

std::vector<std::string> mpi_imports_of(const rt::CompiledModule& cm) {
  std::vector<std::string> out;
  for (const auto& imp : cm.module.imports)
    if (imp.kind == mpiwasm::wasm::ExternKind::kFunc && imp.module == "env" &&
        imp.name.rfind("MPI_", 0) == 0)
      out.push_back(imp.name);
  return out;
}

WorldRecorder::WorldRecorder(int ranks, bool trace,
                             std::vector<std::string> mpi_imports)
    : ranks_(ranks),
      trace_(trace),
      names_(std::move(mpi_imports)),
      ready_ns_(size_t(ranks), 0),
      init_ns_(size_t(ranks), 0),
      calls_(size_t(ranks)) {
  for (const auto& n : names_) shapes_.push_back(call_shape(n));
}

std::function<void(rt::ImportTable&, int)> WorldRecorder::hook(
    std::function<void(rt::ImportTable&, int)> inner) {
  return [this, inner = std::move(inner)](rt::ImportTable& t, int rank) {
    if (inner) inner(t, rank);
    install(t, rank);
  };
}

void WorldRecorder::install(rt::ImportTable& t, int rank) {
  const size_t r = size_t(rank);
  calls_[r].clear();
  if (trace_) calls_[r].reserve(1 << 16);
  init_ns_[r] = 0;
  for (std::uint32_t idx = 0; idx < names_.size(); ++idx) {
    const std::string& name = names_[idx];
    const bool is_init = name == "MPI_Init" || name == "MPI_Init_thread";
    if (!trace_ && !is_init) continue;
    const rt::ImportTable::Entry* e = t.lookup("env", name);
    if (e == nullptr) continue;  // instantiation reports the missing import
    rt::HostFn inner = e->fn;
    const CallShape shape = shapes_[idx];
    const size_t nparams = std::min<size_t>(e->type.params.size(), 12);
    t.add("env", name, e->type,
          [this, r, idx, is_init, shape, nparams, inner = std::move(inner)](
              rt::HostContext& ctx, const rt::Slot* a, rt::Slot* res) {
            const std::uint64_t t0 = mpiwasm::now_ns();
            if (is_init) init_ns_[r] = t0;
            inner(ctx, a, res);
            if (!trace_) return;
            const std::uint64_t t1 = mpiwasm::now_ns();
            CallRecord rec;
            rec.name = idx;
            rec.span = {t0, t1};
            rec.payload = shape.count_arg >= 0;
            rec.collective =
                shape.comm_arg >= 0 && a[shape.comm_arg].i32v == abi::MPI_COMM_WORLD;
            if (rec.payload) {
              // Every MPI world in the workloads is MPI_COMM_WORLD, so the
              // world size is the communicator size.
              std::int32_t args[12] = {};
              for (size_t i = 0; i < nparams; ++i) args[i] = a[i].i32v;
              rec.bytes = payload_bytes(
                  shape, args, ranks_, [&ctx](std::uint32_t addr) {
                    return ctx.memory().load<std::int32_t>(addr);
                  });
            }
            calls_[r].push_back(rec);
          });
  }
  ready_ns_[r] = mpiwasm::now_ns();
}

}  // namespace perfbench
