// Structured sim-time event tracer.
//
// Records spans ('X' complete events) and instants ('i') stamped with
// *simulated* time, so two identical seeded runs produce byte-identical
// traces. Wall-clock measurements (per-phase profiling) ride along as an
// explicitly non-deterministic `wall_us` argument that every export can
// strip (`include_wall = false`) — that stripped form is what the
// determinism tests compare.
//
// Exports:
//   * Chrome trace_event JSON (chrome_json) — loads directly in
//     about://tracing and ui.perfetto.dev. `ts` is sim time in µs.
//   * JSONL (jsonl) — one event per line for ad-hoc tooling (jq, pandas).
//
// Cost model (the contract the telemetry bench enforces):
//   * `tracing_active()` is one relaxed atomic load of a process-wide
//     counter of enabled tracers. Instrumented hot paths check it first, so
//     a build with tracing compiled in but disabled pays one load + one
//     predictable branch — and allocates nothing.
//   * Event names/categories/argument keys must be string literals (the
//     tracer stores the pointers); dynamic values go in the integer arg.
//   * Appends lock a mutex only when the tracer is enabled. A World-scoped
//     tracer is only ever appended to by the thread stepping that world, so
//     the lock is uncontended; it keeps a tracer that is shared by hand
//     between threads TSan-clean.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/types.h"

namespace nwade::util::trace {

namespace detail {
/// Number of enabled tracers in the process; 0 = every trace macro/helper
/// short-circuits after a single relaxed load.
extern std::atomic<int> g_active_tracers;
}  // namespace detail

/// True when at least one tracer anywhere is enabled. The first check on
/// every instrumented path.
inline bool tracing_active() {
  return detail::g_active_tracers.load(std::memory_order_relaxed) != 0;
}

/// One recorded event. Plain data; name/cat/arg_key must outlive the tracer
/// (string literals in practice).
struct Event {
  const char* cat{""};
  const char* name{""};
  char phase{'i'};           ///< 'X' complete span | 'i' instant
  Tick ts_ms{0};             ///< simulated begin time
  Duration dur_ms{0};        ///< simulated duration ('X' only)
  double wall_us{-1.0};      ///< wall-clock duration; < 0 = not measured.
                             ///< NON-DETERMINISTIC: strip before comparing.
  const char* arg_key{nullptr};  ///< optional integer argument
  std::int64_t arg_value{0};
};

class Tracer {
 public:
  Tracer() = default;
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Enabling/disabling maintains the process-wide active count behind
  /// tracing_active(). Idempotent.
  void set_enabled(bool on);

  /// Records an instant event at simulated time `ts_ms`.
  void instant(const char* cat, const char* name, Tick ts_ms,
               const char* arg_key = nullptr, std::int64_t arg_value = 0);

  /// Records a complete span [begin_ms, end_ms]. `wall_us` < 0 means "not
  /// measured"; any other value is wall-clock profiling data and is marked
  /// non-deterministic in every export.
  void complete(const char* cat, const char* name, Tick begin_ms, Tick end_ms,
                double wall_us = -1.0, const char* arg_key = nullptr,
                std::int64_t arg_value = 0);

  std::size_t size() const;
  void clear();
  /// Moves the recorded events out (the tracer keeps running empty).
  std::vector<Event> take();
  /// Copies the recorded events (tests/inspection).
  std::vector<Event> events() const;

  /// Chrome trace_event JSON for this tracer's events (pid 0).
  std::string chrome_json(bool include_wall = true) const;
  /// JSONL: one JSON object per line.
  std::string jsonl(bool include_wall = true) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// Chrome trace_event JSON over pre-collected event streams; `pids` labels
/// each stream (campaign cells use the cell index). Streams with matching
/// indices must align; extra metadata events name each pid.
std::string chrome_trace_json(const std::vector<std::vector<Event>>& streams,
                              const std::vector<std::string>& stream_names,
                              bool include_wall = true);

/// JSONL over pre-collected streams; each line carries a "pid" field.
std::string jsonl_trace(const std::vector<std::vector<Event>>& streams,
                        bool include_wall = true);

}  // namespace nwade::util::trace
