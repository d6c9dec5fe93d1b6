// Deterministic checkpoint/restore and record/replay (docs/CHECKPOINT.md).
//
// A checkpoint is a versioned binary envelope (`nwade-ckpt-v2`) holding the
// COMPLETE state of a World at a step boundary: scenario config, simulated
// time and event-queue sequence counter, each distinct chain block once,
// every live vehicle's automaton + chain store and every exited vehicle's
// tombstone, the IM's plan/reservation/round tables with their pending timer
// coordinates, the network's in-flight deliveries and fault-model RNG, the
// signature-verification cache, and the telemetry registry. Restoring and
// continuing is byte-identical (trace-golden digest) to never having stopped.
// The reader also accepts the previous schema, `nwade-ckpt-v1`.
//
// The envelope is a named-section table — each section length-prefixed and
// CRC-32 guarded — so corruption is detected before any state is applied and
// unknown future sections can be skipped by older readers.
//
// A replay bundle (`nwade-replay-v1`) is the record side of record/replay:
// the scenario config plus the target time and the expected summary digest.
// Re-running it (examples/replay) under ASan/TSan reproduces an incident
// bit-exactly from the seed. A campaign progress log
// (`nwade-campaign-progress-v1`, sim/campaign.h) reuses the RunSummary wire
// form defined here.
#pragma once

#include <string>

#include "sim/world.h"

namespace nwade::sim::checkpoint {

/// What World::checkpoint_save writes.
inline constexpr std::string_view kCheckpointSchema = "nwade-ckpt-v2";
/// The previous schema, which checkpoint_restore still reads (§6).
inline constexpr std::string_view kCheckpointSchemaV1 = "nwade-ckpt-v1";
inline constexpr std::string_view kReplaySchema = "nwade-replay-v1";

// --- wire forms ------------------------------------------------------------

/// Serializes every ScenarioConfig knob (fault profile included; the
/// registry/tracer injection pointers are reconstructed, not stored).
void save_scenario_config(ByteWriter& w, const ScenarioConfig& config);
bool load_scenario_config(ByteReader& r, ScenarioConfig& out);

void save_metrics(ByteWriter& w, const protocol::Metrics& m,
                  bool include_wall_samples);
bool load_metrics(ByteReader& r, protocol::Metrics& out);

/// Full RunSummary wire form (campaign progress records). Maps are written
/// key-sorted, floats as IEEE-754 bit patterns, so equal summaries serialize
/// to equal bytes.
void save_run_summary(ByteWriter& w, const RunSummary& s);
bool load_run_summary(ByteReader& r, RunSummary& out);

void save_metrics_snapshot(ByteWriter& w,
                           const util::telemetry::MetricsSnapshot& snap);
bool load_metrics_snapshot(ByteReader& r,
                           util::telemetry::MetricsSnapshot& out);

/// SHA-256 (hex) over the deterministic content of a summary — everything
/// except the wall-clock timing sample vectors. Two runs of the same
/// scenario, interrupted or not, produce the same digest.
std::string run_summary_digest(const RunSummary& s);

// --- replay bundles --------------------------------------------------------

struct ReplayBundle {
  ScenarioConfig config;
  /// Simulated time to run to (normally config.duration_ms).
  Tick run_to{0};
  /// run_summary_digest the original run produced; empty = not recorded.
  std::string expected_digest;
  /// Free-form context ("soak invariant violation at t=41200", ...).
  std::string note;
};

Bytes save_replay_bundle(const ReplayBundle& bundle);
bool load_replay_bundle(const Bytes& blob, ReplayBundle& out,
                        std::string* error = nullptr);

}  // namespace nwade::sim::checkpoint
