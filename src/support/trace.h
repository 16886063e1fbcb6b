// mpiwasm-trace: low-overhead runtime tracing and per-rank MPI profiling.
//
// Per-thread lock-free ring buffers of timestamped events. Each rank (and
// each progress thread) writes only to its own ring, so emission takes no
// locks; the registry of rings is mutex-guarded only at thread registration.
// When neither tracing nor profiling is enabled the macros reduce to one
// relaxed atomic load; building with -DMPIWASM_TRACE=OFF (which defines
// MPIWASM_TRACE_DISABLED) compiles them out entirely.
//
// Flush targets:
//   * chrome_json() / write_chrome_json() — Chrome trace-event JSON that
//     loads in Perfetto / chrome://tracing.
//   * profile_report() — an mpiP-style aggregated text report: per-MPI-call
//     counts, bytes, total/mean time, % of aggregate rank wall time, and a
//     per-collective algorithm histogram.
//
// Event strings (name/cat/arg keys/string arg values) must have static
// storage duration: events store the pointers, never copies.
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "support/common.h"

namespace mpiwasm::trace {

// ---------------------------------------------------------------------------
// Event record (fixed-size POD; strings are static-storage pointers).

enum class Ph : u8 {
  kComplete,  // "X": ts + dur
  kInstant,   // "i": ts only
};

struct Event {
  u64 ts_ns = 0;
  u64 dur_ns = 0;
  const char* name = nullptr;
  const char* cat = nullptr;
  Ph ph = Ph::kInstant;
  // Up to three integer args plus one string arg, all optional.
  const char* k[3] = {nullptr, nullptr, nullptr};
  i64 v[3] = {0, 0, 0};
  const char* ks = nullptr;
  const char* vs = nullptr;
};

// Fixed-capacity single-writer ring. Overwrites the oldest events once full
// and counts how many were dropped. Exposed in the header for unit tests.
class Ring {
 public:
  explicit Ring(u64 capacity_pow2);

  void push(const Event& e) { buf_[head_++ & mask_] = e; }

  u64 size() const { return head_ < buf_.size() ? head_ : buf_.size(); }
  u64 dropped() const { return head_ < buf_.size() ? 0 : head_ - buf_.size(); }
  u64 capacity() const { return buf_.size(); }

  /// Events oldest-first (only the retained window).
  std::vector<Event> snapshot() const;

 private:
  std::vector<Event> buf_;
  u64 mask_;
  u64 head_ = 0;
};

// ---------------------------------------------------------------------------
// Global enable switches. `active()` is the inline fast-path check used by
// the emission macros/helpers below.

#ifndef MPIWASM_TRACE_DISABLED

namespace detail {
extern std::atomic<bool> g_trace_on;
extern std::atomic<bool> g_prof_on;
}  // namespace detail

inline bool tracing_enabled() {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}
inline bool profiling_enabled() {
  return detail::g_prof_on.load(std::memory_order_relaxed);
}
inline bool active() { return tracing_enabled() || profiling_enabled(); }

#else  // MPIWASM_TRACE_DISABLED

inline bool tracing_enabled() { return false; }
inline bool profiling_enabled() { return false; }
inline bool active() { return false; }

#endif

void enable_tracing(bool on);
void enable_profiling(bool on);

/// Ring capacity (events per thread) for threads registered after the call.
/// Rounded up to a power of two. Default 1<<15.
void set_ring_capacity(u64 events);

/// Labels the calling thread's timeline, e.g. set_thread_label("rank", 3)
/// -> "rank 3". No-op when inactive. index < 0 omits the number.
void set_thread_label(const char* prefix, int index);

/// Credits `ns` of wall time to the calling thread's profile (used to compute
/// "% of aggregate rank wall" in the report).
void profile_add_wall(u64 ns);

// ---------------------------------------------------------------------------
// Emission. All helpers are cheap no-ops when !active().

void instant(const char* cat, const char* name);
void instant(const char* cat, const char* name, const char* k0, i64 v0);
void instant(const char* cat, const char* name, const char* k0, i64 v0,
             const char* k1, i64 v1);
void instant(const char* cat, const char* name, const char* k0, i64 v0,
             const char* k1, i64 v1, const char* ks, const char* vs);
void instant(const char* cat, const char* name, const char* ks,
             const char* vs);

/// Records one collective-algorithm decision in the per-thread histogram
/// (and, when tracing, callers additionally emit a "coll.select" instant).
void note_algo(const char* coll, const char* algo);

namespace detail {
struct ScopeData {
  u64 start_ns = 0;
  const char* name = nullptr;
  const char* cat = nullptr;
  const char* k[3] = {nullptr, nullptr, nullptr};
  i64 v[3] = {0, 0, 0};
  const char* ks = nullptr;
  const char* vs = nullptr;
  u64 bytes = 0;
  bool armed = false;
};
void scope_open(ScopeData& d, const char* cat, const char* name);
void scope_close(ScopeData& d, bool profile_call);
ScopeData* current_scope();
}  // namespace detail

/// RAII complete-event span. `MpiScope` additionally folds the span into the
/// per-call profile aggregates (count / bytes / total time).
class Scope {
 public:
  Scope(const char* cat, const char* name) {
    if (active()) detail::scope_open(d_, cat, name);
  }
  ~Scope() {
    if (d_.armed) detail::scope_close(d_, /*profile_call=*/false);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  detail::ScopeData d_;
};

class MpiScope {
 public:
  explicit MpiScope(const char* name) {
    if (active()) detail::scope_open(d_, "mpi", name);
  }
  ~MpiScope() {
    if (d_.armed) detail::scope_close(d_, /*profile_call=*/true);
  }
  MpiScope(const MpiScope&) = delete;
  MpiScope& operator=(const MpiScope&) = delete;

 private:
  detail::ScopeData d_;
};

/// Attach an integer arg / a static string arg / a byte count to the
/// innermost open MpiScope or Scope on this thread. No-op when none is open.
void note_arg(const char* key, i64 value);
void note_str(const char* key, const char* value);
void note_bytes(u64 bytes);

// ---------------------------------------------------------------------------
// Flush / inspection.

/// Chrome trace-event JSON ({"traceEvents":[...]}) over all registered
/// threads, oldest-first per thread.
std::string chrome_json();

/// Writes chrome_json() to `path`. Returns false (and logs) on I/O error.
bool write_chrome_json(const std::string& path);

/// mpiP-style text report (empty string when nothing was profiled).
std::string profile_report();

struct CallStats {
  u64 count = 0;
  u64 bytes = 0;
  u64 total_ns = 0;
};

/// Aggregated per-call-name profile across threads (for tests/tools).
std::map<std::string, CallStats> profile_call_stats();

/// Aggregated per-"coll/algo" decision histogram across threads.
std::map<std::string, u64> algo_histogram();

/// Sum of wall time credited via profile_add_wall across threads.
u64 profile_wall_ns();

/// Total events currently retained / dropped across threads.
u64 event_count();
u64 dropped_count();

/// Per-thread states currently registered: live threads that have emitted,
/// plus exited ones whose events are kept for flushing until reset().
u64 thread_count();

/// Clears all recorded events, profiles, and labels, and frees the states of
/// threads that have exited. Live threads stay registered (their
/// thread_local pointers into the registry must not dangle), and the enable
/// switches are left untouched.
void reset();

}  // namespace mpiwasm::trace

// ---------------------------------------------------------------------------
// Zero-cost emission macros: the argument expressions are not evaluated when
// tracing/profiling is off (or compiled out).

#ifndef MPIWASM_TRACE_DISABLED
#define MW_TRACE_ACTIVE() (::mpiwasm::trace::active())
#else
#define MW_TRACE_ACTIVE() (false)
#endif

#define MW_TRACE_INSTANT(...)                          \
  do {                                                 \
    if (MW_TRACE_ACTIVE()) {                           \
      ::mpiwasm::trace::instant(__VA_ARGS__);          \
    }                                                  \
  } while (0)

#define MW_TRACE_NOTE_ALGO(coll, algo)                 \
  do {                                                 \
    if (MW_TRACE_ACTIVE()) {                           \
      ::mpiwasm::trace::note_algo((coll), (algo));     \
    }                                                  \
  } while (0)
