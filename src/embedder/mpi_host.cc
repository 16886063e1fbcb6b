#include "embedder/mpi_host.h"

#include <cstring>
#include <thread>

#include "simmpi/api.h"
#include "support/timing.h"
#include "support/trace.h"

namespace mpiwasm::embed {

namespace {

using rt::HostContext;
using rt::LinearMemory;
using rt::Slot;
using simmpi::Datatype;
using simmpi::Status;
using wasm::FuncType;
using wasm::ValType;

constexpr ValType I32 = ValType::kI32;
constexpr ValType F64V = ValType::kF64;

Env& env_of(HostContext& ctx) {
  auto* env = static_cast<Env*>(ctx.user_data());
  if (env == nullptr)
    throw rt::Trap(rt::TrapKind::kHostError, "MPI host call without Env");
  return *env;
}

/// Converts host-side MPI failures into guest-visible traps: the default
/// MPI error handler is MPI_ERRORS_ARE_FATAL, and a fatal error inside a
/// sandboxed module surfaces as a trap delivered to the embedder (§2.2).
template <typename Fn>
void guarded(Fn&& fn) {
  try {
    fn();
  } catch (const simmpi::MpiError& e) {
    throw rt::Trap(rt::TrapKind::kHostError, std::string("MPI error: ") + e.what());
  }
}

void write_status(LinearMemory& mem, u32 status_ptr, const Status& st) {
  if (status_ptr == u32(abi::MPI_STATUS_IGNORE)) return;
  mem.store<i32>(status_ptr + 0, st.source);
  mem.store<i32>(status_ptr + 4, st.tag);
  mem.store<i32>(status_ptr + 8, abi::MPI_SUCCESS);
  mem.store<i32>(status_ptr + 12, i32(st.bytes));
}

/// Resolves a guest buffer for sending. In zero-copy mode this is exactly
/// `memory.base() + ptr` (§3.5) — guest collectives hand this span of
/// linear memory straight to the algorithm layer; the ablation mode stages
/// through a copy, which is what bench_ablation_zerocopy quantifies.
const u8* send_view(Env& env, LinearMemory& mem, u32 ptr, u64 bytes) {
  u8* host = env.translate(mem, ptr, bytes);
  if (env.zero_copy()) return host;
  auto& staging = env.staging(0);
  staging.assign(host, host + bytes);
  return staging.data();
}

/// Send-side view that decodes the MPI_IN_PLACE sentinel instead of
/// translating it as an address.
const void* coll_send_view(Env& env, LinearMemory& mem, u32 ptr, u64 bytes) {
  if (ptr == u32(abi::MPI_IN_PLACE)) return simmpi::kInPlace;
  return send_view(env, mem, ptr, bytes);
}

struct RecvView {
  u8* host = nullptr;     // where the MPI library writes
  u8* guest = nullptr;    // final destination in module memory
  u64 bytes = 0;
  bool staged = false;
  void commit() const {
    if (staged) std::memcpy(guest, host, bytes);
  }
};

/// `preload` copies the guest contents into the staged buffer first, for
/// calls whose receive buffer is also an input (bcast payload at the root,
/// every MPI_IN_PLACE collective) or may be left partially untouched.
RecvView recv_view(Env& env, LinearMemory& mem, u32 ptr, u64 bytes,
                   bool preload = false) {
  RecvView v;
  v.guest = env.translate(mem, ptr, bytes);
  v.bytes = bytes;
  if (env.zero_copy()) {
    v.host = v.guest;
  } else {
    auto& staging = env.staging(1);
    staging.resize(bytes);
    v.host = staging.data();
    v.staged = true;
    if (preload) std::memcpy(v.host, v.guest, bytes);
  }
  return v;
}

u64 msg_bytes(Env& env, i32 dt_handle, i32 count) {
  // Size query does not go through the instrumented path; it mirrors the
  // wasm-side sizeof knowledge in mpi.h.
  u64 bytes;
  switch (dt_handle) {
    case abi::MPI_BYTE: case abi::MPI_CHAR: bytes = u64(count); break;
    case abi::MPI_INT: case abi::MPI_FLOAT: case abi::MPI_UNSIGNED:
      bytes = u64(count) * 4;
      break;
    default:
      bytes = u64(count) * 8;
  }
  // Credits the payload to the enclosing MpiScope, so every handler that
  // sizes a transfer profiles its bytes without per-handler bookkeeping.
  if (MW_TRACE_ACTIVE()) trace::note_bytes(bytes);
  (void)env;
  return bytes;
}

/// Credits `bytes` to the enclosing MpiScope for handlers whose payload is
/// a per-rank count vector (v-collectives, reduce_scatter), which they size
/// from the translated datatype instead of through msg_bytes.
void note_vector_bytes(u64 bytes) {
  if (MW_TRACE_ACTIVE()) trace::note_bytes(bytes);
}

}  // namespace

void register_mpi_host_functions(rt::ImportTable& t, bool faasm_compat) {
  const std::string ns = "env";

  // Every handler registers through this wrapper so the import name doubles
  // as the trace/profile label (string literals: static storage, as the
  // tracer requires). With tracing and profiling both off the wrapper is one
  // relaxed load plus a call through the captured handler.
  auto add = [&t, &ns](const char* name, FuncType ft, rt::HostFn fn) {
    t.add(ns, name, std::move(ft),
          [name, fn = std::move(fn)](HostContext& ctx, const Slot* a,
                                     Slot* r) {
            if (!MW_TRACE_ACTIVE()) {
              fn(ctx, a, r);
              return;
            }
            trace::MpiScope span(name);
            fn(ctx, a, r);
          });
  };

  add("MPI_Init", FuncType{{I32, I32}, {I32}},
        [](HostContext& ctx, const Slot*, Slot* r) {
          env_of(ctx).initialized = true;
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Init_thread", FuncType{{I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          env.initialized = true;
          // The embedder supports full MPI_THREAD_MULTIPLE (the simmpi Rank
          // is internally synchronized), so `provided` is always MULTIPLE
          // regardless of `required` — MPI permits provided > required.
          env.thread_level = abi::MPI_THREAD_MULTIPLE;
          ctx.memory().store<i32>(a[3].u32v, abi::MPI_THREAD_MULTIPLE);
          // A module asking for more than FUNNELED intends concurrent MPI
          // calls: switch the world's blocking waits to bounded quanta.
          if (a[2].i32v > abi::MPI_THREAD_FUNNELED)
            env.rank().world().set_threaded();
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Query_thread", FuncType{{I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          ctx.memory().store<i32>(a[0].u32v, env.thread_level.load());
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Initialized", FuncType{{I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          ctx.memory().store<i32>(a[0].u32v, env_of(ctx).initialized ? 1 : 0);
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Finalize", FuncType{{}, {I32}},
        [](HostContext& ctx, const Slot*, Slot* r) {
          env_of(ctx).finalized = true;
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Comm_rank", FuncType{{I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            simmpi::Comm comm = env.translate_comm(a[0].i32v);
            ctx.memory().store<i32>(a[1].u32v, env.rank().rank(comm));
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Comm_size", FuncType{{I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            simmpi::Comm comm = env.translate_comm(a[0].i32v);
            ctx.memory().store<i32>(a[1].u32v, env.rank().size(comm));
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Wtime", FuncType{{}, {F64V}},
        [](HostContext& ctx, const Slot*, Slot* r) {
          r->f64v = env_of(ctx).rank().wtime();
        });

  add("MPI_Wtick", FuncType{{}, {F64V}},
        [](HostContext& ctx, const Slot*, Slot* r) {
          r->f64v = env_of(ctx).rank().wtick();
        });

  add("MPI_Abort", FuncType{{I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          env_of(ctx).rank().abort(a[1].i32v);
          r->i32v = abi::MPI_SUCCESS;  // unreachable
        });

  add("MPI_Type_size", FuncType{{I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            Datatype dt = env.translate_datatype(a[0].i32v, 0);
            ctx.memory().store<i32>(a[1].u32v, i32(simmpi::datatype_size(dt)));
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Get_count", FuncType{{I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            LinearMemory& mem = ctx.memory();
            i32 bytes = mem.load<i32>(a[0].u32v + 12);
            Datatype dt = env.translate_datatype(a[1].i32v, 0);
            mem.store<i32>(a[2].u32v, i32(u32(bytes) / simmpi::datatype_size(dt)));
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  // --- Point-to-point -------------------------------------------------------

  add("MPI_Send", FuncType{{I32, I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            u64 bytes = msg_bytes(env, a[2].i32v, a[1].i32v);
            if (MW_TRACE_ACTIVE()) {
              trace::note_arg("peer", a[3].i32v);
              trace::note_arg("tag", a[4].i32v);
            }
            Datatype dt = env.translate_datatype(a[2].i32v, bytes);
            simmpi::Comm comm = env.translate_comm(a[5].i32v);
            const u8* buf = send_view(env, ctx.memory(), a[0].u32v, bytes);
            env.rank().send(buf, a[1].i32v, dt, a[3].i32v, a[4].i32v, comm);
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Recv", FuncType{{I32, I32, I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            u64 bytes = msg_bytes(env, a[2].i32v, a[1].i32v);
            if (MW_TRACE_ACTIVE()) {
              trace::note_arg("peer", a[3].i32v);
              trace::note_arg("tag", a[4].i32v);
            }
            Datatype dt = env.translate_datatype(a[2].i32v, bytes);
            simmpi::Comm comm = env.translate_comm(a[5].i32v);
            RecvView v = recv_view(env, ctx.memory(), a[0].u32v, bytes);
            Status st =
                env.rank().recv(v.host, a[1].i32v, dt, a[3].i32v, a[4].i32v, comm);
            v.commit();
            write_status(ctx.memory(), a[6].u32v, st);
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Isend", FuncType{{I32, I32, I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            u64 bytes = msg_bytes(env, a[2].i32v, a[1].i32v);
            if (MW_TRACE_ACTIVE()) {
              trace::note_arg("peer", a[3].i32v);
              trace::note_arg("tag", a[4].i32v);
            }
            Datatype dt = env.translate_datatype(a[2].i32v, bytes);
            simmpi::Comm comm = env.translate_comm(a[5].i32v);
            // Nonblocking sends must reference stable memory: linear memory
            // base is stable (mmap reservation), so zero-copy is safe here.
            u8* buf = env.translate(ctx.memory(), a[0].u32v, bytes);
            simmpi::Request req =
                env.rank().isend(buf, a[1].i32v, dt, a[3].i32v, a[4].i32v, comm);
            ctx.memory().store<i32>(a[6].u32v, env.add_request(std::move(req)));
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Irecv", FuncType{{I32, I32, I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            u64 bytes = msg_bytes(env, a[2].i32v, a[1].i32v);
            if (MW_TRACE_ACTIVE()) {
              trace::note_arg("peer", a[3].i32v);
              trace::note_arg("tag", a[4].i32v);
            }
            Datatype dt = env.translate_datatype(a[2].i32v, bytes);
            simmpi::Comm comm = env.translate_comm(a[5].i32v);
            u8* buf = env.translate(ctx.memory(), a[0].u32v, bytes);
            simmpi::Request req =
                env.rank().irecv(buf, a[1].i32v, dt, a[3].i32v, a[4].i32v, comm);
            ctx.memory().store<i32>(a[6].u32v, env.add_request(std::move(req)));
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Wait", FuncType{{I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            LinearMemory& mem = ctx.memory();
            i32 handle = mem.load<i32>(a[0].u32v);
            if (handle != abi::MPI_REQUEST_NULL) {
              simmpi::Request* req = env.find_request(handle);
              if (req == nullptr)
                throw simmpi::MpiError("MPI_Wait: invalid request handle");
              Status st = env.rank().wait(*req);
              env.drop_request(handle);
              write_status(mem, a[1].u32v, st);
              mem.store<i32>(a[0].u32v, abi::MPI_REQUEST_NULL);
            }
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Waitall", FuncType{{I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            LinearMemory& mem = ctx.memory();
            i32 count = a[0].i32v;
            for (i32 i = 0; i < count; ++i) {
              u32 req_ptr = a[1].u32v + u32(i) * 4;
              i32 handle = mem.load<i32>(req_ptr);
              if (handle == abi::MPI_REQUEST_NULL) continue;
              simmpi::Request* req = env.find_request(handle);
              if (req == nullptr)
                throw simmpi::MpiError("MPI_Waitall: invalid request handle");
              Status st = env.rank().wait(*req);
              env.drop_request(handle);
              if (a[2].u32v != u32(abi::MPI_STATUS_IGNORE))
                write_status(mem, a[2].u32v + u32(i) * abi::kStatusSizeBytes, st);
              mem.store<i32>(req_ptr, abi::MPI_REQUEST_NULL);
            }
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Test", FuncType{{I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            LinearMemory& mem = ctx.memory();
            i32 handle = mem.load<i32>(a[0].u32v);
            if (handle == abi::MPI_REQUEST_NULL) {
              mem.store<i32>(a[1].u32v, 1);
              return;
            }
            simmpi::Request* req = env.find_request(handle);
            if (req == nullptr)
              throw simmpi::MpiError("MPI_Test: invalid request handle");
            Status st;
            bool done = env.rank().test(*req, &st);
            mem.store<i32>(a[1].u32v, done ? 1 : 0);
            if (done) {
              env.drop_request(handle);
              write_status(mem, a[2].u32v, st);
              mem.store<i32>(a[0].u32v, abi::MPI_REQUEST_NULL);
            }
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Waitany", FuncType{{I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            LinearMemory& mem = ctx.memory();
            const i32 count = a[0].i32v;
            // Polling loop: test() drives the nonblocking-collective
            // progress engine, so collective requests advance while we spin.
            const u64 deadline =
                now_ns() +
                u64(std::chrono::nanoseconds(simmpi::kDeadlockTimeout).count());
            while (true) {
              bool any_active = false;
              for (i32 i = 0; i < count; ++i) {
                u32 req_ptr = a[1].u32v + u32(i) * 4;
                i32 handle = mem.load<i32>(req_ptr);
                if (handle == abi::MPI_REQUEST_NULL) continue;
                simmpi::Request* req = env.find_request(handle);
                if (req == nullptr)
                  throw simmpi::MpiError("MPI_Waitany: invalid request handle");
                any_active = true;
                Status st;
                if (env.rank().test(*req, &st)) {
                  env.drop_request(handle);
                  mem.store<i32>(req_ptr, abi::MPI_REQUEST_NULL);
                  mem.store<i32>(a[2].u32v, i);
                  write_status(mem, a[3].u32v, st);
                  return;
                }
              }
              if (!any_active) {
                mem.store<i32>(a[2].u32v, abi::MPI_UNDEFINED);
                return;
              }
              if (env.rank().world().aborting()) throw simmpi::MpiAbort(-1);
              if (now_ns() > deadline)
                throw simmpi::MpiError("MPI_Waitany timed out (deadlock?)");
              std::this_thread::yield();
            }
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Testall", FuncType{{I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            LinearMemory& mem = ctx.memory();
            const i32 count = a[0].i32v;
            // First a nondestructive pass: MPI_Testall deallocates either
            // every request or none.
            bool all_done = true;
            for (i32 i = 0; i < count; ++i) {
              i32 handle = mem.load<i32>(a[1].u32v + u32(i) * 4);
              if (handle == abi::MPI_REQUEST_NULL) continue;
              simmpi::Request* req = env.find_request(handle);
              if (req == nullptr)
                throw simmpi::MpiError("MPI_Testall: invalid request handle");
              if (!env.rank().request_get_status(*req, nullptr)) {
                all_done = false;
                break;
              }
            }
            mem.store<i32>(a[2].u32v, all_done ? 1 : 0);
            if (!all_done) return;
            for (i32 i = 0; i < count; ++i) {
              u32 req_ptr = a[1].u32v + u32(i) * 4;
              i32 handle = mem.load<i32>(req_ptr);
              Status st;
              if (handle != abi::MPI_REQUEST_NULL) {
                simmpi::Request* req = env.find_request(handle);
                env.rank().test(*req, &st);  // completes immediately
                env.drop_request(handle);
                mem.store<i32>(req_ptr, abi::MPI_REQUEST_NULL);
              }
              if (a[3].u32v != u32(abi::MPI_STATUS_IGNORE))
                write_status(mem, a[3].u32v + u32(i) * abi::kStatusSizeBytes,
                             st);
            }
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Sendrecv",
        FuncType{{I32, I32, I32, I32, I32, I32, I32, I32, I32, I32, I32, I32},
                 {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            u64 sbytes = msg_bytes(env, a[2].i32v, a[1].i32v);
            u64 rbytes = msg_bytes(env, a[7].i32v, a[6].i32v);
            Datatype sdt = env.translate_datatype(a[2].i32v, sbytes);
            Datatype rdt = env.translate_datatype(a[7].i32v, rbytes);
            simmpi::Comm comm = env.translate_comm(a[10].i32v);
            LinearMemory& mem = ctx.memory();
            const u8* sbuf = send_view(env, mem, a[0].u32v, sbytes);
            RecvView v = recv_view(env, mem, a[5].u32v, rbytes);
            Status st = env.rank().sendrecv(sbuf, a[1].i32v, sdt, a[3].i32v,
                                            a[4].i32v, v.host, a[6].i32v, rdt,
                                            a[8].i32v, a[9].i32v, comm);
            v.commit();
            write_status(mem, a[11].u32v, st);
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  // --- Collectives -----------------------------------------------------------

  add("MPI_Barrier", FuncType{{I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] { env.rank().barrier(env.translate_comm(a[0].i32v)); });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Bcast", FuncType{{I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            u64 bytes = msg_bytes(env, a[2].i32v, a[1].i32v);
            Datatype dt = env.translate_datatype(a[2].i32v, bytes);
            simmpi::Comm comm = env.translate_comm(a[4].i32v);
            // preload: the buffer is the payload at the root.
            RecvView v = recv_view(env, ctx.memory(), a[0].u32v, bytes,
                                   /*preload=*/true);
            env.rank().bcast(v.host, a[1].i32v, dt, a[3].i32v, comm);
            v.commit();
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Reduce", FuncType{{I32, I32, I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            u64 bytes = msg_bytes(env, a[3].i32v, a[2].i32v);
            Datatype dt = env.translate_datatype(a[3].i32v, bytes);
            simmpi::ReduceOp op = env.translate_op(a[4].i32v);
            simmpi::Comm comm = env.translate_comm(a[6].i32v);
            LinearMemory& mem = ctx.memory();
            bool in_place = a[0].u32v == u32(abi::MPI_IN_PLACE);
            const void* sbuf = coll_send_view(env, mem, a[0].u32v, bytes);
            bool is_root = env.rank().rank(comm) == a[5].i32v;
            RecvView v;
            if (is_root)
              v = recv_view(env, mem, a[1].u32v, bytes, /*preload=*/in_place);
            env.rank().reduce(sbuf, is_root ? v.host : nullptr, a[2].i32v, dt,
                              op, a[5].i32v, comm);
            if (is_root) v.commit();
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Allreduce", FuncType{{I32, I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            u64 bytes = msg_bytes(env, a[3].i32v, a[2].i32v);
            Datatype dt = env.translate_datatype(a[3].i32v, bytes);
            simmpi::ReduceOp op = env.translate_op(a[4].i32v);
            simmpi::Comm comm = env.translate_comm(a[5].i32v);
            LinearMemory& mem = ctx.memory();
            bool in_place = a[0].u32v == u32(abi::MPI_IN_PLACE);
            const void* sbuf = coll_send_view(env, mem, a[0].u32v, bytes);
            RecvView v =
                recv_view(env, mem, a[1].u32v, bytes, /*preload=*/in_place);
            env.rank().allreduce(sbuf, v.host, a[2].i32v, dt, op, comm);
            v.commit();
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Gather",
        FuncType{{I32, I32, I32, I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            bool in_place = a[0].u32v == u32(abi::MPI_IN_PLACE);
            // In-place gather ignores the root's send triple; size and type
            // then come from the receive side.
            i32 dt_handle = in_place ? a[5].i32v : a[2].i32v;
            u64 sbytes = msg_bytes(env, dt_handle, a[1].i32v);
            Datatype dt = env.translate_datatype(dt_handle, sbytes);
            env.translate_datatype(a[5].i32v, sbytes);  // recv type handle
            simmpi::Comm comm = env.translate_comm(a[7].i32v);
            LinearMemory& mem = ctx.memory();
            const void* sbuf =
                in_place ? simmpi::kInPlace
                         : coll_send_view(env, mem, a[0].u32v, sbytes);
            bool is_root = env.rank().rank(comm) == a[6].i32v;
            u64 total = msg_bytes(env, a[5].i32v, a[4].i32v) *
                        u64(env.rank().size(comm));
            RecvView v;
            if (is_root)
              v = recv_view(env, mem, a[3].u32v, total, /*preload=*/in_place);
            env.rank().gather(sbuf, a[1].i32v, is_root ? v.host : nullptr,
                              a[4].i32v, dt, a[6].i32v, comm);
            if (is_root) v.commit();
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Scatter",
        FuncType{{I32, I32, I32, I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            bool in_place = a[3].u32v == u32(abi::MPI_IN_PLACE);
            i32 dt_handle = in_place ? a[2].i32v : a[5].i32v;
            u64 rbytes = msg_bytes(env, dt_handle, a[4].i32v);
            Datatype dt = env.translate_datatype(dt_handle, rbytes);
            env.translate_datatype(a[2].i32v, rbytes);
            simmpi::Comm comm = env.translate_comm(a[7].i32v);
            LinearMemory& mem = ctx.memory();
            bool is_root = env.rank().rank(comm) == a[6].i32v;
            u64 total = msg_bytes(env, a[2].i32v, a[1].i32v) *
                        u64(env.rank().size(comm));
            const void* sbuf =
                is_root ? coll_send_view(env, mem, a[0].u32v, total) : nullptr;
            RecvView v;
            void* rbuf = const_cast<void*>(simmpi::kInPlace);
            if (!in_place) {
              v = recv_view(env, mem, a[3].u32v, rbytes);
              rbuf = v.host;
            }
            env.rank().scatter(sbuf, a[1].i32v, rbuf, a[4].i32v, dt, a[6].i32v,
                               comm);
            if (!in_place) v.commit();
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Allgather",
        FuncType{{I32, I32, I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            bool in_place = a[0].u32v == u32(abi::MPI_IN_PLACE);
            i32 dt_handle = in_place ? a[5].i32v : a[2].i32v;
            u64 sbytes = msg_bytes(env, dt_handle, a[1].i32v);
            Datatype dt = env.translate_datatype(dt_handle, sbytes);
            env.translate_datatype(a[5].i32v, sbytes);
            simmpi::Comm comm = env.translate_comm(a[6].i32v);
            LinearMemory& mem = ctx.memory();
            const void* sbuf =
                in_place ? simmpi::kInPlace
                         : coll_send_view(env, mem, a[0].u32v, sbytes);
            u64 total = msg_bytes(env, a[5].i32v, a[4].i32v) *
                        u64(env.rank().size(comm));
            RecvView v =
                recv_view(env, mem, a[3].u32v, total, /*preload=*/in_place);
            env.rank().allgather(sbuf, a[1].i32v, v.host, a[4].i32v, dt, comm);
            v.commit();
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Alltoall",
        FuncType{{I32, I32, I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            u64 sblock = msg_bytes(env, a[2].i32v, a[1].i32v);
            Datatype dt = env.translate_datatype(a[2].i32v, sblock);
            env.translate_datatype(a[5].i32v, sblock);
            simmpi::Comm comm = env.translate_comm(a[6].i32v);
            LinearMemory& mem = ctx.memory();
            int n = env.rank().size(comm);
            const u8* sbuf = send_view(env, mem, a[0].u32v, sblock * u64(n));
            u64 rblock = msg_bytes(env, a[5].i32v, a[4].i32v);
            RecvView v = recv_view(env, mem, a[3].u32v, rblock * u64(n));
            env.rank().alltoall(sbuf, a[1].i32v, v.host, a[4].i32v, dt, comm);
            v.commit();
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Alltoallv",
        FuncType{{I32, I32, I32, I32, I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            Datatype dt = env.translate_datatype(a[3].i32v, 0);
            env.translate_datatype(a[7].i32v, 0);
            simmpi::Comm comm = env.translate_comm(a[8].i32v);
            LinearMemory& mem = ctx.memory();
            int n = env.rank().size(comm);
            size_t esz = simmpi::datatype_size(dt);
            // Counts/displacements live in module memory as i32 arrays;
            // copy them out (they may be unaligned in linear memory).
            auto load_i32s = [&](u32 ptr) {
              std::vector<i32> v(static_cast<size_t>(n));
              for (int i = 0; i < n; ++i) v[i] = mem.load<i32>(ptr + u32(i) * 4);
              return v;
            };
            std::vector<i32> scounts = load_i32s(a[1].u32v);
            std::vector<i32> sdispls = load_i32s(a[2].u32v);
            std::vector<i32> rcounts = load_i32s(a[5].u32v);
            std::vector<i32> rdispls = load_i32s(a[6].u32v);
            // Validate extents before handing pointers to the host library.
            u64 smax = 0, rmax = 0, stotal = 0;
            for (int i = 0; i < n; ++i) {
              smax = std::max(smax, u64(sdispls[i]) + u64(scounts[i]));
              rmax = std::max(rmax, u64(rdispls[i]) + u64(rcounts[i]));
              stotal += u64(scounts[i]);
            }
            note_vector_bytes(stotal * esz);
            const u8* sbuf = send_view(env, mem, a[0].u32v, smax * esz);
            RecvView v = recv_view(env, mem, a[4].u32v, rmax * esz,
                                   /*preload=*/true);  // sparse displs
            env.rank().alltoallv(sbuf, scounts.data(), sdispls.data(), v.host,
                                 rcounts.data(), rdispls.data(), dt, comm);
            v.commit();
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Reduce_scatter", FuncType{{I32, I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            Datatype dt = env.translate_datatype(a[3].i32v, 0);
            simmpi::ReduceOp op = env.translate_op(a[4].i32v);
            simmpi::Comm comm = env.translate_comm(a[5].i32v);
            LinearMemory& mem = ctx.memory();
            int n = env.rank().size(comm);
            int me = env.rank().rank(comm);
            std::vector<i32> counts(static_cast<size_t>(n));
            u64 total = 0;
            for (int i = 0; i < n; ++i) {
              counts[i] = mem.load<i32>(a[2].u32v + u32(i) * 4);
              total += u64(counts[i]);
            }
            u64 esize = simmpi::datatype_size(dt);
            note_vector_bytes(total * esize);
            bool in_place = a[0].u32v == u32(abi::MPI_IN_PLACE);
            // In-place input is the full vector in recvbuf; otherwise the
            // receive buffer only holds this rank's block.
            u64 rbytes = (in_place ? total : u64(counts[me])) * esize;
            const void* sbuf =
                in_place ? simmpi::kInPlace
                         : coll_send_view(env, mem, a[0].u32v, total * esize);
            RecvView v =
                recv_view(env, mem, a[1].u32v, rbytes, /*preload=*/in_place);
            env.rank().reduce_scatter(sbuf, v.host, counts.data(), dt, op,
                                      comm);
            v.commit();
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Scan", FuncType{{I32, I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            u64 bytes = msg_bytes(env, a[3].i32v, a[2].i32v);
            Datatype dt = env.translate_datatype(a[3].i32v, bytes);
            simmpi::ReduceOp op = env.translate_op(a[4].i32v);
            simmpi::Comm comm = env.translate_comm(a[5].i32v);
            LinearMemory& mem = ctx.memory();
            bool in_place = a[0].u32v == u32(abi::MPI_IN_PLACE);
            const void* sbuf = coll_send_view(env, mem, a[0].u32v, bytes);
            RecvView v =
                recv_view(env, mem, a[1].u32v, bytes, /*preload=*/in_place);
            env.rank().scan(sbuf, v.host, a[2].i32v, dt, op, comm);
            v.commit();
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Exscan", FuncType{{I32, I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            u64 bytes = msg_bytes(env, a[3].i32v, a[2].i32v);
            Datatype dt = env.translate_datatype(a[3].i32v, bytes);
            simmpi::ReduceOp op = env.translate_op(a[4].i32v);
            simmpi::Comm comm = env.translate_comm(a[5].i32v);
            LinearMemory& mem = ctx.memory();
            bool in_place = a[0].u32v == u32(abi::MPI_IN_PLACE);
            const void* sbuf = coll_send_view(env, mem, a[0].u32v, bytes);
            // preload so rank 0's untouched recvbuf round-trips unchanged
            // through the staged commit.
            RecvView v =
                recv_view(env, mem, a[1].u32v, bytes, /*preload=*/true);
            env.rank().exscan(sbuf, v.host, a[2].i32v, dt, op, comm);
            v.commit();
          });
          r->i32v = abi::MPI_SUCCESS;
        });

  // --- Nonblocking collectives (schedule-based; not in faasm_compat mode).
  // Like MPI_Isend, these must reference stable memory until completion, so
  // they always hand the translated linear-memory pointer straight to the
  // host library (the mmap-reserved base never moves) — the copy-ablation
  // staging path cannot express a deferred completion. -----------------------

  if (!faasm_compat) {
    add("MPI_Ibarrier", FuncType{{I32, I32}, {I32}},
          [](HostContext& ctx, const Slot* a, Slot* r) {
            Env& env = env_of(ctx);
            guarded([&] {
              simmpi::Comm comm = env.translate_comm(a[0].i32v);
              simmpi::Request req = env.rank().ibarrier(comm);
              ctx.memory().store<i32>(a[1].u32v,
                                      env.add_request(std::move(req)));
            });
            r->i32v = abi::MPI_SUCCESS;
          });

    add("MPI_Ibcast", FuncType{{I32, I32, I32, I32, I32, I32}, {I32}},
          [](HostContext& ctx, const Slot* a, Slot* r) {
            Env& env = env_of(ctx);
            guarded([&] {
              u64 bytes = msg_bytes(env, a[2].i32v, a[1].i32v);
              Datatype dt = env.translate_datatype(a[2].i32v, bytes);
              simmpi::Comm comm = env.translate_comm(a[4].i32v);
              u8* buf = env.translate(ctx.memory(), a[0].u32v, bytes);
              simmpi::Request req =
                  env.rank().ibcast(buf, a[1].i32v, dt, a[3].i32v, comm);
              ctx.memory().store<i32>(a[5].u32v,
                                      env.add_request(std::move(req)));
            });
            r->i32v = abi::MPI_SUCCESS;
          });

    add("MPI_Ireduce",
          FuncType{{I32, I32, I32, I32, I32, I32, I32, I32}, {I32}},
          [](HostContext& ctx, const Slot* a, Slot* r) {
            Env& env = env_of(ctx);
            guarded([&] {
              u64 bytes = msg_bytes(env, a[3].i32v, a[2].i32v);
              Datatype dt = env.translate_datatype(a[3].i32v, bytes);
              simmpi::ReduceOp op = env.translate_op(a[4].i32v);
              simmpi::Comm comm = env.translate_comm(a[6].i32v);
              LinearMemory& mem = ctx.memory();
              const void* sbuf =
                  a[0].u32v == u32(abi::MPI_IN_PLACE)
                      ? simmpi::kInPlace
                      : env.translate(mem, a[0].u32v, bytes);
              bool is_root = env.rank().rank(comm) == a[5].i32v;
              u8* rbuf =
                  is_root ? env.translate(mem, a[1].u32v, bytes) : nullptr;
              simmpi::Request req = env.rank().ireduce(
                  sbuf, rbuf, a[2].i32v, dt, op, a[5].i32v, comm);
              mem.store<i32>(a[7].u32v, env.add_request(std::move(req)));
            });
            r->i32v = abi::MPI_SUCCESS;
          });

    add("MPI_Iallreduce",
          FuncType{{I32, I32, I32, I32, I32, I32, I32}, {I32}},
          [](HostContext& ctx, const Slot* a, Slot* r) {
            Env& env = env_of(ctx);
            guarded([&] {
              u64 bytes = msg_bytes(env, a[3].i32v, a[2].i32v);
              Datatype dt = env.translate_datatype(a[3].i32v, bytes);
              simmpi::ReduceOp op = env.translate_op(a[4].i32v);
              simmpi::Comm comm = env.translate_comm(a[5].i32v);
              LinearMemory& mem = ctx.memory();
              const void* sbuf =
                  a[0].u32v == u32(abi::MPI_IN_PLACE)
                      ? simmpi::kInPlace
                      : env.translate(mem, a[0].u32v, bytes);
              u8* rbuf = env.translate(mem, a[1].u32v, bytes);
              simmpi::Request req =
                  env.rank().iallreduce(sbuf, rbuf, a[2].i32v, dt, op, comm);
              mem.store<i32>(a[6].u32v, env.add_request(std::move(req)));
            });
            r->i32v = abi::MPI_SUCCESS;
          });

    add("MPI_Iallgather",
          FuncType{{I32, I32, I32, I32, I32, I32, I32, I32}, {I32}},
          [](HostContext& ctx, const Slot* a, Slot* r) {
            Env& env = env_of(ctx);
            guarded([&] {
              bool in_place = a[0].u32v == u32(abi::MPI_IN_PLACE);
              i32 dt_handle = in_place ? a[5].i32v : a[2].i32v;
              u64 sbytes = msg_bytes(env, dt_handle, a[1].i32v);
              Datatype dt = env.translate_datatype(dt_handle, sbytes);
              env.translate_datatype(a[5].i32v, sbytes);
              simmpi::Comm comm = env.translate_comm(a[6].i32v);
              LinearMemory& mem = ctx.memory();
              u64 total = msg_bytes(env, a[5].i32v, a[4].i32v) *
                          u64(env.rank().size(comm));
              const void* sbuf =
                  in_place ? simmpi::kInPlace
                           : env.translate(mem, a[0].u32v, sbytes);
              u8* rbuf = env.translate(mem, a[3].u32v, total);
              simmpi::Request req = env.rank().iallgather(
                  sbuf, a[1].i32v, rbuf, a[4].i32v, dt, comm);
              mem.store<i32>(a[7].u32v, env.add_request(std::move(req)));
            });
            r->i32v = abi::MPI_SUCCESS;
          });

    add("MPI_Ialltoall",
          FuncType{{I32, I32, I32, I32, I32, I32, I32, I32}, {I32}},
          [](HostContext& ctx, const Slot* a, Slot* r) {
            Env& env = env_of(ctx);
            guarded([&] {
              u64 sblock = msg_bytes(env, a[2].i32v, a[1].i32v);
              Datatype dt = env.translate_datatype(a[2].i32v, sblock);
              env.translate_datatype(a[5].i32v, sblock);
              simmpi::Comm comm = env.translate_comm(a[6].i32v);
              LinearMemory& mem = ctx.memory();
              int n = env.rank().size(comm);
              u64 rblock = msg_bytes(env, a[5].i32v, a[4].i32v);
              const u8* sbuf =
                  env.translate(mem, a[0].u32v, sblock * u64(n));
              u8* rbuf = env.translate(mem, a[3].u32v, rblock * u64(n));
              simmpi::Request req = env.rank().ialltoall(
                  sbuf, a[1].i32v, rbuf, a[4].i32v, dt, comm);
              mem.store<i32>(a[7].u32v, env.add_request(std::move(req)));
            });
            r->i32v = abi::MPI_SUCCESS;
          });

    add("MPI_Ireduce_scatter",
          FuncType{{I32, I32, I32, I32, I32, I32, I32}, {I32}},
          [](HostContext& ctx, const Slot* a, Slot* r) {
            Env& env = env_of(ctx);
            guarded([&] {
              Datatype dt = env.translate_datatype(a[3].i32v, 0);
              simmpi::ReduceOp op = env.translate_op(a[4].i32v);
              simmpi::Comm comm = env.translate_comm(a[5].i32v);
              LinearMemory& mem = ctx.memory();
              int n = env.rank().size(comm);
              int me = env.rank().rank(comm);
              std::vector<i32> counts(static_cast<size_t>(n));
              u64 total = 0;
              for (int i = 0; i < n; ++i) {
                counts[i] = mem.load<i32>(a[2].u32v + u32(i) * 4);
                total += u64(counts[i]);
              }
              u64 esize = simmpi::datatype_size(dt);
              note_vector_bytes(total * esize);
              bool in_place = a[0].u32v == u32(abi::MPI_IN_PLACE);
              u64 rbytes = (in_place ? total : u64(counts[me])) * esize;
              const void* sbuf =
                  in_place ? simmpi::kInPlace
                           : env.translate(mem, a[0].u32v, total * esize);
              u8* rbuf = env.translate(mem, a[1].u32v, rbytes);
              // counts is only read while the schedule is built, which
              // happens before ireduce_scatter returns.
              simmpi::Request req = env.rank().ireduce_scatter(
                  sbuf, rbuf, counts.data(), dt, op, comm);
              mem.store<i32>(a[6].u32v, env.add_request(std::move(req)));
            });
            r->i32v = abi::MPI_SUCCESS;
          });

    add("MPI_Iscan",
          FuncType{{I32, I32, I32, I32, I32, I32, I32}, {I32}},
          [](HostContext& ctx, const Slot* a, Slot* r) {
            Env& env = env_of(ctx);
            guarded([&] {
              u64 bytes = msg_bytes(env, a[3].i32v, a[2].i32v);
              Datatype dt = env.translate_datatype(a[3].i32v, bytes);
              simmpi::ReduceOp op = env.translate_op(a[4].i32v);
              simmpi::Comm comm = env.translate_comm(a[5].i32v);
              LinearMemory& mem = ctx.memory();
              const void* sbuf =
                  a[0].u32v == u32(abi::MPI_IN_PLACE)
                      ? simmpi::kInPlace
                      : env.translate(mem, a[0].u32v, bytes);
              u8* rbuf = env.translate(mem, a[1].u32v, bytes);
              simmpi::Request req =
                  env.rank().iscan(sbuf, rbuf, a[2].i32v, dt, op, comm);
              mem.store<i32>(a[6].u32v, env.add_request(std::move(req)));
            });
            r->i32v = abi::MPI_SUCCESS;
          });

    add("MPI_Iexscan",
          FuncType{{I32, I32, I32, I32, I32, I32, I32}, {I32}},
          [](HostContext& ctx, const Slot* a, Slot* r) {
            Env& env = env_of(ctx);
            guarded([&] {
              u64 bytes = msg_bytes(env, a[3].i32v, a[2].i32v);
              Datatype dt = env.translate_datatype(a[3].i32v, bytes);
              simmpi::ReduceOp op = env.translate_op(a[4].i32v);
              simmpi::Comm comm = env.translate_comm(a[5].i32v);
              LinearMemory& mem = ctx.memory();
              const void* sbuf =
                  a[0].u32v == u32(abi::MPI_IN_PLACE)
                      ? simmpi::kInPlace
                      : env.translate(mem, a[0].u32v, bytes);
              u8* rbuf = env.translate(mem, a[1].u32v, bytes);
              simmpi::Request req =
                  env.rank().iexscan(sbuf, rbuf, a[2].i32v, dt, op, comm);
              mem.store<i32>(a[6].u32v, env.add_request(std::move(req)));
            });
            r->i32v = abi::MPI_SUCCESS;
          });
  }

  // --- Communicator management (not available in faasm_compat mode; Faasm
  // supports no user-defined communicators, §6) ------------------------------

  if (!faasm_compat) {
    add("MPI_Comm_dup", FuncType{{I32, I32}, {I32}},
          [](HostContext& ctx, const Slot* a, Slot* r) {
            Env& env = env_of(ctx);
            guarded([&] {
              simmpi::Comm parent = env.translate_comm(a[0].i32v);
              simmpi::Comm dup = env.rank().comm_dup(parent);
              ctx.memory().store<i32>(a[1].u32v, env.intern_comm(dup));
            });
            r->i32v = abi::MPI_SUCCESS;
          });

    add("MPI_Comm_split", FuncType{{I32, I32, I32, I32}, {I32}},
          [](HostContext& ctx, const Slot* a, Slot* r) {
            Env& env = env_of(ctx);
            guarded([&] {
              simmpi::Comm parent = env.translate_comm(a[0].i32v);
              int color = a[1].i32v == abi::MPI_UNDEFINED ? simmpi::kUndefined
                                                          : a[1].i32v;
              simmpi::Comm nc = env.rank().comm_split(parent, color, a[2].i32v);
              i32 handle = nc == simmpi::kCommNull ? abi::MPI_COMM_NULL
                                                   : env.intern_comm(nc);
              ctx.memory().store<i32>(a[3].u32v, handle);
            });
            r->i32v = abi::MPI_SUCCESS;
          });

    add("MPI_Comm_free", FuncType{{I32}, {I32}},
          [](HostContext& ctx, const Slot* a, Slot* r) {
            Env& env = env_of(ctx);
            guarded([&] {
              LinearMemory& mem = ctx.memory();
              i32 handle = mem.load<i32>(a[0].u32v);
              env.rank().comm_free(env.translate_comm(handle));
              mem.store<i32>(a[0].u32v, abi::MPI_COMM_NULL);
            });
            r->i32v = abi::MPI_SUCCESS;
          });
  }

  // --- Memory management (§3.7): MPI_Alloc_mem must return a module-space
  // pointer, so it is implemented via the module's own exported malloc. ----

  add("MPI_Alloc_mem", FuncType{{I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          auto malloc_idx = ctx.instance().exported_func("malloc");
          if (!malloc_idx.has_value()) {
            r->i32v = abi::MPI_ERR_OTHER;  // module does not export malloc
            return;
          }
          rt::Value size = rt::Value::from_i32(a[0].i32v);
          rt::Value p = ctx.instance().invoke_index(*malloc_idx, {&size, 1});
          ctx.memory().store<u32>(a[2].u32v, p.as_u32());
          r->i32v = p.as_u32() != 0 ? abi::MPI_SUCCESS : abi::MPI_ERR_OTHER;
        });

  add("MPI_Free_mem", FuncType{{I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          auto free_idx = ctx.instance().exported_func("free");
          if (!free_idx.has_value()) {
            r->i32v = abi::MPI_ERR_OTHER;
            return;
          }
          rt::Value ptr = rt::Value::from_u32(a[0].u32v);
          ctx.instance().invoke_index(*free_idx, {&ptr, 1});
          r->i32v = abi::MPI_SUCCESS;
        });

  add("MPI_Iprobe", FuncType{{I32, I32, I32, I32, I32}, {I32}},
        [](HostContext& ctx, const Slot* a, Slot* r) {
          Env& env = env_of(ctx);
          guarded([&] {
            simmpi::Comm comm = env.translate_comm(a[2].i32v);
            Status st;
            bool ready = env.rank().iprobe(a[0].i32v, a[1].i32v, comm, &st);
            LinearMemory& mem = ctx.memory();
            mem.store<i32>(a[3].u32v, ready ? 1 : 0);
            if (ready) write_status(mem, a[4].u32v, st);
          });
          r->i32v = abi::MPI_SUCCESS;
        });
}

}  // namespace mpiwasm::embed
