#include "support/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "support/log.h"
#include "support/timing.h"

namespace mpiwasm::trace {

#ifndef MPIWASM_TRACE_DISABLED

namespace detail {
std::atomic<bool> g_trace_on{false};
std::atomic<bool> g_prof_on{false};
}  // namespace detail

#endif

namespace {

u64 round_up_pow2(u64 v) {
  u64 p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::atomic<u64> g_ring_capacity{u64(1) << 15};

// Per-thread state. Owned by the registry (so it outlives the thread and can
// be flushed after join); the thread_local below is a non-owning pointer.
// Each thread writes only its own state, with one exception: reset() and the
// flush functions read/clear all states — callers must ensure writer threads
// are quiescent (ranks joined) at that point, which the embedder guarantees
// by flushing after World::run returns. A state whose thread has exited is
// `retired`: still flushed, then freed by the next reset().
struct ThreadState {
  explicit ThreadState(u64 cap, u64 id) : ring(cap), tid(id) {}

  Ring ring;
  u64 tid;
  std::string label;
  std::map<std::string, CallStats> calls;
  std::map<std::string, u64> algos;
  u64 wall_ns = 0;
  detail::ScopeData* open_scope = nullptr;
  std::atomic<bool> retired{false};
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadState>> threads;
  u64 next_tid = 0;  // timeline ids stay unique across reset()
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives exiting threads
  return *r;
}

thread_local ThreadState* t_state = nullptr;

// Retires the calling thread's state when the thread exits. Registered on
// the thread's first state() call; the state itself stays owned by the
// registry until reset().
struct RetireOnExit {
  bool armed = false;
  ~RetireOnExit() {
    if (armed && t_state) t_state->retired.store(true, std::memory_order_release);
    t_state = nullptr;
  }
};
thread_local RetireOnExit t_retire;

ThreadState* state() {
  if (t_state) return t_state;
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  u64 cap = g_ring_capacity.load(std::memory_order_relaxed);
  reg.threads.push_back(std::make_unique<ThreadState>(cap, reg.next_tid++));
  t_state = reg.threads.back().get();
  t_retire.armed = true;
  return t_state;
}

void json_escape(std::string& out, const char* s) {
  for (; *s; ++s) {
    char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

void append_args(std::string& out, const Event& e) {
  bool first = true;
  out += ",\"args\":{";
  for (int i = 0; i < 3; ++i) {
    if (!e.k[i]) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    json_escape(out, e.k[i]);
    out += "\":";
    out += std::to_string(e.v[i]);
  }
  if (e.ks && e.vs) {
    if (!first) out += ',';
    first = false;
    out += '"';
    json_escape(out, e.ks);
    out += "\":\"";
    json_escape(out, e.vs);
    out += '"';
  }
  out += '}';
}

void append_event(std::string& out, const Event& e, u64 tid) {
  char head[160];
  double ts_us = double(e.ts_ns) / 1e3;
  if (e.ph == Ph::kComplete) {
    std::snprintf(head, sizeof(head),
                  "{\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,"
                  "\"tid\":%" PRIu64,
                  ts_us, double(e.dur_ns) / 1e3, tid);
  } else {
    std::snprintf(head, sizeof(head),
                  "{\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":0,"
                  "\"tid\":%" PRIu64,
                  ts_us, tid);
  }
  out += head;
  out += ",\"name\":\"";
  json_escape(out, e.name ? e.name : "?");
  out += "\",\"cat\":\"";
  json_escape(out, e.cat ? e.cat : "?");
  out += '"';
  if (e.k[0] || (e.ks && e.vs)) append_args(out, e);
  out += '}';
}

Event make_event(Ph ph, const char* cat, const char* name) {
  Event e;
  e.ts_ns = now_ns();
  e.cat = cat;
  e.name = name;
  e.ph = ph;
  return e;
}

}  // namespace

// ---------------------------------------------------------------------------
// Ring

Ring::Ring(u64 capacity_pow2) {
  u64 cap = round_up_pow2(std::max<u64>(capacity_pow2, 2));
  buf_.resize(cap);
  mask_ = cap - 1;
}

std::vector<Event> Ring::snapshot() const {
  std::vector<Event> out;
  u64 n = size();
  out.reserve(n);
  u64 first = head_ - n;  // oldest retained sequence number
  for (u64 i = 0; i < n; ++i) out.push_back(buf_[(first + i) & mask_]);
  return out;
}

// ---------------------------------------------------------------------------
// Switches and configuration

void enable_tracing(bool on) {
#ifndef MPIWASM_TRACE_DISABLED
  detail::g_trace_on.store(on, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

void enable_profiling(bool on) {
#ifndef MPIWASM_TRACE_DISABLED
  detail::g_prof_on.store(on, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

void set_ring_capacity(u64 events) {
  g_ring_capacity.store(round_up_pow2(std::max<u64>(events, 2)),
                        std::memory_order_relaxed);
}

void set_thread_label(const char* prefix, int index) {
  if (!active()) return;
  ThreadState* s = state();
  if (index >= 0) {
    s->label = std::string(prefix) + " " + std::to_string(index);
  } else {
    s->label = prefix;
  }
}

void profile_add_wall(u64 ns) {
  if (!active()) return;
  state()->wall_ns += ns;
}

// ---------------------------------------------------------------------------
// Emission

void instant(const char* cat, const char* name) {
  if (!tracing_enabled()) return;
  state()->ring.push(make_event(Ph::kInstant, cat, name));
}

void instant(const char* cat, const char* name, const char* k0, i64 v0) {
  if (!tracing_enabled()) return;
  Event e = make_event(Ph::kInstant, cat, name);
  e.k[0] = k0;
  e.v[0] = v0;
  state()->ring.push(e);
}

void instant(const char* cat, const char* name, const char* k0, i64 v0,
             const char* k1, i64 v1) {
  if (!tracing_enabled()) return;
  Event e = make_event(Ph::kInstant, cat, name);
  e.k[0] = k0;
  e.v[0] = v0;
  e.k[1] = k1;
  e.v[1] = v1;
  state()->ring.push(e);
}

void instant(const char* cat, const char* name, const char* k0, i64 v0,
             const char* k1, i64 v1, const char* ks, const char* vs) {
  if (!tracing_enabled()) return;
  Event e = make_event(Ph::kInstant, cat, name);
  e.k[0] = k0;
  e.v[0] = v0;
  e.k[1] = k1;
  e.v[1] = v1;
  e.ks = ks;
  e.vs = vs;
  state()->ring.push(e);
}

void instant(const char* cat, const char* name, const char* ks,
             const char* vs) {
  if (!tracing_enabled()) return;
  Event e = make_event(Ph::kInstant, cat, name);
  e.ks = ks;
  e.vs = vs;
  state()->ring.push(e);
}

void note_algo(const char* coll, const char* algo) {
  if (!active()) return;
  ThreadState* s = state();
  s->algos[std::string(coll) + "/" + algo] += 1;
}

namespace detail {

void scope_open(ScopeData& d, const char* cat, const char* name) {
  ThreadState* s = state();
  d.start_ns = now_ns();
  d.cat = cat;
  d.name = name;
  d.armed = true;
  s->open_scope = &d;
}

void scope_close(ScopeData& d, bool profile_call) {
  ThreadState* s = state();
  u64 end = now_ns();
  u64 dur = end - d.start_ns;
  if (s->open_scope == &d) s->open_scope = nullptr;
  if (tracing_enabled()) {
    Event e;
    e.ts_ns = d.start_ns;
    e.dur_ns = dur;
    e.cat = d.cat;
    e.name = d.name;
    e.ph = Ph::kComplete;
    for (int i = 0; i < 3; ++i) {
      e.k[i] = d.k[i];
      e.v[i] = d.v[i];
    }
    e.ks = d.ks;
    e.vs = d.vs;
    s->ring.push(e);
  }
  if (profile_call && profiling_enabled()) {
    CallStats& cs = s->calls[d.name];
    cs.count += 1;
    cs.bytes += d.bytes;
    cs.total_ns += dur;
  }
}

ScopeData* current_scope() {
  return t_state ? t_state->open_scope : nullptr;
}

}  // namespace detail

void note_arg(const char* key, i64 value) {
  if (!active()) return;
  detail::ScopeData* d = detail::current_scope();
  if (!d) return;
  for (int i = 0; i < 3; ++i) {
    if (!d->k[i]) {
      d->k[i] = key;
      d->v[i] = value;
      return;
    }
  }
}

void note_str(const char* key, const char* value) {
  if (!active()) return;
  detail::ScopeData* d = detail::current_scope();
  if (!d) return;
  d->ks = key;
  d->vs = value;
}

void note_bytes(u64 bytes) {
  if (!active()) return;
  detail::ScopeData* d = detail::current_scope();
  if (!d) return;
  d->bytes += bytes;
  for (int i = 0; i < 3; ++i) {
    if (d->k[i] && std::string_view(d->k[i]) == "bytes") {
      d->v[i] += i64(bytes);
      return;
    }
  }
  for (int i = 0; i < 3; ++i) {
    if (!d->k[i]) {
      d->k[i] = "bytes";
      d->v[i] = i64(bytes);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Flush

std::string chrome_json() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::string out;
  out.reserve(1 << 16);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const auto& t : reg.threads) {
    if (!t->label.empty()) {
      if (!first) out += ',';
      first = false;
      out += "{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(t->tid) +
             ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      json_escape(out, t->label.c_str());
      out += "\"}}";
    }
    for (const Event& e : t->ring.snapshot()) {
      if (!first) out += ',';
      first = false;
      append_event(out, e, t->tid);
    }
    if (u64 d = t->ring.dropped()) {
      if (!first) out += ',';
      first = false;
      out += "{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(t->tid) +
             ",\"name\":\"mpiwasm_dropped_events\",\"args\":{\"count\":" +
             std::to_string(d) + "}}";
    }
  }
  out += "]}";
  return out;
}

bool write_chrome_json(const std::string& path) {
  std::string json = chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    MW_WARN("trace: cannot open " << path << " for writing");
    return false;
  }
  size_t wrote = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (wrote != json.size()) {
    MW_WARN("trace: short write to " << path);
    return false;
  }
  return true;
}

std::map<std::string, CallStats> profile_call_stats() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::map<std::string, CallStats> out;
  for (const auto& t : reg.threads) {
    for (const auto& [name, cs] : t->calls) {
      CallStats& o = out[name];
      o.count += cs.count;
      o.bytes += cs.bytes;
      o.total_ns += cs.total_ns;
    }
  }
  return out;
}

std::map<std::string, u64> algo_histogram() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::map<std::string, u64> out;
  for (const auto& t : reg.threads) {
    for (const auto& [key, n] : t->algos) out[key] += n;
  }
  return out;
}

u64 profile_wall_ns() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  u64 total = 0;
  for (const auto& t : reg.threads) total += t->wall_ns;
  return total;
}

u64 event_count() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  u64 total = 0;
  for (const auto& t : reg.threads) total += t->ring.size();
  return total;
}

u64 dropped_count() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  u64 total = 0;
  for (const auto& t : reg.threads) total += t->ring.dropped();
  return total;
}

std::string profile_report() {
  auto calls = profile_call_stats();
  auto algos = algo_histogram();
  u64 wall = profile_wall_ns();
  if (calls.empty() && algos.empty()) return "";

  // Sort call rows by total time, descending (the mpiP "Aggregate Time" view).
  std::vector<std::pair<std::string, CallStats>> rows(calls.begin(),
                                                      calls.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns > b.second.total_ns;
  });

  std::ostringstream os;
  os << "--- mpiwasm profile "
        "----------------------------------------------------------\n";
  os << "aggregate rank wall time: " << std::fixed;
  os.precision(3);
  os << double(wall) / 1e6 << " ms\n\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%-22s %10s %14s %12s %10s %7s\n", "call",
                "count", "bytes", "total_ms", "mean_us", "%wall");
  os << line;
  u64 total_mpi_ns = 0;
  for (const auto& [name, cs] : rows) {
    double pct = wall ? 100.0 * double(cs.total_ns) / double(wall) : 0.0;
    std::snprintf(line, sizeof(line),
                  "%-22s %10" PRIu64 " %14" PRIu64 " %12.3f %10.3f %7.2f\n",
                  name.c_str(), cs.count, cs.bytes, double(cs.total_ns) / 1e6,
                  cs.count ? double(cs.total_ns) / 1e3 / double(cs.count) : 0.0,
                  pct);
    os << line;
    total_mpi_ns += cs.total_ns;
  }
  double tot_pct = wall ? 100.0 * double(total_mpi_ns) / double(wall) : 0.0;
  std::snprintf(line, sizeof(line),
                "%-22s %10s %14s %12.3f %10s %7.2f\n", "[all MPI]", "", "",
                double(total_mpi_ns) / 1e6, "", tot_pct);
  os << line;

  if (!algos.empty()) {
    os << "\ncollective algorithm selections:\n";
    for (const auto& [key, n] : algos) {
      std::snprintf(line, sizeof(line), "  %-32s %10" PRIu64 "\n", key.c_str(),
                    n);
      os << line;
    }
  }
  os << "---------------------------------------------------------------------"
        "---------\n";
  return os.str();
}

u64 thread_count() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.threads.size();
}

void reset() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::erase_if(reg.threads, [](const std::unique_ptr<ThreadState>& t) {
    return t->retired.load(std::memory_order_acquire);
  });
  for (auto& t : reg.threads) {
    t->ring = Ring(t->ring.capacity());
    t->calls.clear();
    t->algos.clear();
    t->label.clear();
    t->wall_ns = 0;
    t->open_scope = nullptr;
  }
}

}  // namespace mpiwasm::trace
