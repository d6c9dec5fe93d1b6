// Deterministic parallel campaign engine.
//
// A "campaign" is the paper's experiment matrix — intersection kinds x
// Table I attack settings x traffic densities x seeded rounds — expanded
// into independent cells and fanned across the deterministic
// util::WorkerPool. Each cell constructs its own World (own event queue,
// network, signer, and signature-verification cache), so cells share no
// mutable state; results land in expansion order regardless of which thread
// ran which cell. Consequently the aggregated output is a pure function of
// the CampaignConfig: pool size 1 and pool size N produce byte-identical
// results JSON (campaign_results_json), which the determinism test and
// bench_campaign assert.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/world.h"

namespace nwade::sim {

/// The matrix a campaign expands. `base` carries every knob the matrix does
/// not sweep (fault profile, scheduler, legacy fraction, ...); the swept
/// axes below overwrite the corresponding base fields per cell.
struct CampaignConfig {
  std::vector<traffic::IntersectionKind> kinds{
      traffic::IntersectionKind::kCross4};
  /// Table I setting names ("benign", "V1", ..., "IM_V5"); unknown names
  /// resolve to benign (protocol::attack_setting_by_name).
  std::vector<std::string> attacks{"benign"};
  std::vector<double> densities_vpm{80.0};
  /// Seeded repetitions per matrix point: round r runs seed base_seed + r.
  int rounds{1};
  std::uint64_t base_seed{1};
  Duration duration_ms{120'000};
  /// Worker pool size; <= 1 runs every cell inline on the caller's thread.
  int threads{1};
  /// true = every cell's World records its event trace (ScenarioConfig::
  /// trace_enabled), collected into CellResult::trace for campaign_trace_json.
  /// Tracing only observes, so results stay byte-identical either way.
  bool trace{false};
  ScenarioConfig base;
};

/// One (kind, attack, density, round) point of the matrix.
struct CampaignCell {
  traffic::IntersectionKind kind{traffic::IntersectionKind::kCross4};
  std::string attack{"benign"};
  double vpm{80.0};
  int round{0};
  std::uint64_t seed{1};
};

/// One finished cell: its coordinates plus the run's summary (and, when
/// CampaignConfig::trace is set, the cell's recorded event trace).
struct CellResult {
  CampaignCell cell;
  RunSummary summary;
  std::vector<util::trace::Event> trace;
};

/// Figure-ready aggregate over the rounds of one (kind, attack, density)
/// matrix point.
struct CellAggregate {
  traffic::IntersectionKind kind{traffic::IntersectionKind::kCross4};
  std::string attack{"benign"};
  double vpm{80.0};
  int rounds{0};
  double mean_throughput_vpm{0};
  double mean_crossing_ms{0};
  /// Fraction of rounds whose run confirmed the deviation (Fig. 4's rate).
  double detection_rate{0};
  /// Mean simulated detection latency over the detecting rounds (Fig. 5).
  double mean_detection_ms{0};
  int false_alarm_evacuations{0};
  int gap_violations{0};
  int degraded_entries{0};
};

/// Expands the matrix in deterministic order: kinds (outer) -> attacks ->
/// densities -> rounds (inner).
std::vector<CampaignCell> expand_cells(const CampaignConfig& cfg);

/// The ScenarioConfig one cell runs: cfg.base with the cell's axes applied.
ScenarioConfig cell_scenario(const CampaignConfig& cfg,
                             const CampaignCell& cell);

/// Runs every cell of the matrix across a WorkerPool of cfg.threads and
/// returns the results in expansion order (fixed-order merge).
std::vector<CellResult> run_campaign(const CampaignConfig& cfg);

/// SHA-256 (hex) of everything that determines a campaign's result bytes:
/// the swept axes, rounds/seed/duration, and the full base scenario — but
/// not `threads` or `trace`, which cannot influence any result byte. A
/// progress log is only resumable into a campaign with the same fingerprint.
std::string campaign_fingerprint(const CampaignConfig& cfg);

/// Crash-resumable run_campaign: journals every finished cell to
/// `progress_path` (schema `nwade-campaign-progress-v1`: a header naming the
/// campaign fingerprint, then one CRC-guarded record per completed cell,
/// appended and flushed as cells finish). When the file already holds
/// records for the same fingerprint, those cells are not re-run — their
/// journaled summaries are spliced into the result vector, which stays in
/// expansion order and byte-identical (campaign_results_json) to an
/// uninterrupted run. A record half-written at the moment of a crash fails
/// its CRC on reload and is discarded along with anything after it; the
/// journal is compacted to the valid prefix before new cells run. A
/// mismatched fingerprint starts the journal over. Traced campaigns
/// (cfg.trace) fall back to a plain run — event traces are not journaled —
/// as does an unopenable progress path.
std::vector<CellResult> run_campaign_resumable(const CampaignConfig& cfg,
                                               const std::string& progress_path);

/// Aggregates results (must be in expansion order) per matrix point.
std::vector<CellAggregate> aggregate(const CampaignConfig& cfg,
                                     const std::vector<CellResult>& results);

/// Deterministic results-only JSON: per-cell rows plus per-point aggregates,
/// excluding anything wall-clock- or machine-derived (timing sample means,
/// thread counts). Byte-identical across pool sizes for the same config.
std::string campaign_results_json(const CampaignConfig& cfg,
                                  const std::vector<CellResult>& results);

/// Full figure-ready report: the results JSON wrapped in an envelope that
/// records how the campaign was executed (threads, hardware concurrency,
/// wall clock) — the non-deterministic context a plot caption needs.
std::string campaign_json(const CampaignConfig& cfg,
                          const std::vector<CellResult>& results,
                          double wall_clock_s);

/// The "process name" label one cell gets in trace exports,
/// e.g. "cross4/V1/vpm80/r0".
std::string cell_label(const CampaignCell& cell);

/// Chrome trace_event JSON over every traced cell, one pid per cell in
/// expansion order (ui.perfetto.dev groups events by process). Byte-identical
/// across pool sizes when `include_wall` is false (wall_us args are the only
/// non-deterministic trace field).
std::string campaign_trace_json(const std::vector<CellResult>& results,
                                bool include_wall = true);

/// JSONL trace export (one event object per line, "pid" = cell index).
std::string campaign_trace_jsonl(const std::vector<CellResult>& results,
                                 bool include_wall = true);

/// Deterministic metrics export: every cell's registry snapshot plus the
/// merged campaign-wide snapshot (schema nwade-metrics-v1). Integer-valued
/// only, so byte-identical across pool sizes and identical seeded runs.
std::string campaign_metrics_json(const CampaignConfig& cfg,
                                  const std::vector<CellResult>& results);

}  // namespace nwade::sim
