// The benchmark program: runs one workload through the simulator's public API and
// prints its metrics.
//
//   nwbench --workload serve_rsa|grid_4x4|campaign_table1
//                  --seed N --seconds S --trace 0|1
//
// A workload is a fixed set of scenarios derived from --seed. One pass runs
// each scenario once; the program runs whole passes (at least one) while
// another fits in --seconds, so the timed content is always the same mix.
// Simulated quantities come from the first pass and are a pure function of
// the seed; a later pass must reproduce every scenario's digest exactly.
//
// --trace 1 runs a traced pass, then an untraced one over the same
// scenarios. The traced pass turns the World tracers on and rebuilds a
// per-layer wall-time ledger from the wall_us of the spans the simulator
// records; the untraced pass gives the tracing overhead.
//
// Human-readable lines go to stdout first; the last line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "crypto/sha256.h"
#include "nwade/config.h"
#include "sim/campaign.h"
#include "sim/checkpoint.h"
#include "sim/grid.h"
#include "sim/world.h"
#include "svc/sink.h"
#include "svc/streamer.h"
#include "traffic/intersection.h"
#include "util/trace.h"

using namespace nwade;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// splitmix64 of (seed, i): independent scenario seeds from one --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + i + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFULL;
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// Peak resident set of this process so far, in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Checks {
  int attempted{0};
  int failed{0};
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("check FAILED: %s\n", what.c_str());
    }
  }
};

/// Per-layer wall time rebuilt from the wall_us of recorded spans. A span is
/// appended when it closes, so the children of a phase span (verify_block,
/// process_window, package) arrive before it and are subtracted from it; a
/// package closing inside process_window is subtracted from the window.
struct Ledger {
  double events_us{0};
  double physics_us{0};  // phase.physics + phase.legacy
  double watch_us{0};
  double gap_audit_us{0};
  double window_us{0};  // process_window minus its package
  double package_us{0};
  double verify_us{0};
  double pending_child_us{0};
  double pending_package_us{0};

  void add(const std::vector<util::trace::Event>& events) {
    for (const util::trace::Event& e : events) {
      if (e.phase != 'X' || e.wall_us < 0) continue;
      const std::string_view cat = e.cat;
      const std::string_view name = e.name;
      const double w = e.wall_us;
      if (cat == "chain" && name == "verify_block") {
        verify_us += w;
        pending_child_us += w;
      } else if (cat == "chain" && name == "package") {
        package_us += w;
        pending_child_us += w;
        pending_package_us += w;
      } else if (cat == "aim" && name == "process_window") {
        const double self = w - pending_package_us;
        window_us += self;
        pending_child_us += self;
        pending_package_us = 0;
      } else if (cat == "sim") {
        const double self = w - pending_child_us;
        pending_child_us = 0;
        pending_package_us = 0;
        if (name == "phase.events") {
          events_us += self;
        } else if (name == "phase.physics" || name == "phase.legacy") {
          physics_us += self;
        } else if (name == "phase.watch") {
          watch_us += self;
        } else if (name == "phase.gap_audit") {
          gap_audit_us += self;
        }
      }
    }
  }
  double busy_us() const {
    return events_us + physics_us + watch_us + gap_audit_us + window_us +
           package_us + verify_us;
  }
  void merge(const Ledger& o) {
    events_us += o.events_us;
    physics_us += o.physics_us;
    watch_us += o.watch_us;
    gap_audit_us += o.gap_audit_us;
    window_us += o.window_us;
    package_us += o.package_us;
    verify_us += o.verify_us;
  }
};

/// The benchmark's own stream sink: a RingSink behind a timer and counters.
class TimedSink final : public svc::StreamSink {
 public:
  void write(std::string_view frame) override {
    const auto t0 = Clock::now();
    ring_.write(frame);
    write_ms_ += ms_since(t0);
    ++frames_;
    bytes_ += frame.size();
  }
  const svc::RingSink& ring() const { return ring_; }
  double write_ms() const { return write_ms_; }
  std::uint64_t frames() const { return frames_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  svc::RingSink ring_{8192};
  double write_ms_{0};
  std::uint64_t frames_{0};
  std::uint64_t bytes_{0};
};

/// Everything a workload reports.
struct Report {
  Checks checks;
  std::vector<double> setup_s;
  std::vector<double> step_ms;
  double sim_s{0};
  double host_s{0};
  double traced_sim_s{0};
  double traced_host_s{0};
  int episodes{0};
  double rss_mb{0};  // peak read before the benchmark's own checks; 0 = at the end

  // Simulated quantities of the first pass.
  double demand_vpm{0};
  double served_vpm{0};
  double backlog_half{0};
  double backlog_end{0};
  std::vector<double> detect_ms;
  int detectable{0};
  std::int64_t false_alarm_evac{0};
  std::int64_t gap_violations{0};
  double snapshot_kb{0};
  std::vector<std::string> digests;  // one per scenario
  std::vector<std::string> notes;

  // --trace 1: per-layer metrics of the traced pass, and the rows that
  // attribute its wall time (worker time for the campaign pool).
  std::map<std::string, double> layer;
  std::vector<std::string> rows;
  double capacity_ms{0};
};

/// Per-layer metrics every workload prints, with units. A layer a workload
/// does not run reads 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"sim.events_ms", "ms"}, {"sim.watch_ms", "ms"}, {"sim.physics_ms", "ms"},
    {"sim.gap_audit_ms", "ms"}, {"sim.steps", "count"},
    {"sim.unattributed_ms", "ms"},
    {"aim.window_ms", "ms"}, {"aim.windows", "count"}, {"aim.plans", "count"},
    {"chain.package_ms", "ms"}, {"chain.blocks", "count"},
    {"chain.verify_ms", "ms"}, {"chain.verifies", "count"},
    {"crypto.sig_cache.hit_ratio", "ratio"},
    {"crypto.sig_cache.misses", "count"},
    {"net.packets", "count"}, {"net.bytes", "B"}, {"net.dropped", "count"},
    {"nwade.incident_reports", "count"}, {"nwade.verify_rounds", "count"},
    {"nwade.evacuations", "count"},
    {"checkpoint.save_ms.p50", "ms"}, {"checkpoint.save_ms.max", "ms"},
    {"checkpoint.restore_ms", "ms"}, {"checkpoint.bytes_first", "B"},
    {"checkpoint.bytes_last", "B"},
    {"svc.frames", "count"}, {"svc.bytes", "B"}, {"svc.write_ms", "ms"},
    {"grid.shard_busy_ms.max", "ms"}, {"grid.shard_busy_ms.mean", "ms"},
    {"grid.imbalance", "ratio"}, {"grid.serial_ms", "ms"},
    {"grid.handoffs", "count"}, {"grid.gossip_sent", "count"},
    {"grid.gossip_dropped", "count"},
    {"campaign.cell_busy_ms.p50", "ms"}, {"campaign.cell_busy_ms.max", "ms"},
    {"campaign.pool_util", "ratio"}, {"campaign.unattributed_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// The span-derived rows; with the workload's residue row they add up to
/// the traced pass's wall time (times its worker count).
const char* const kSpanRows[] = {
    "sim.events_ms", "sim.physics_ms", "sim.watch_ms", "sim.gap_audit_ms",
    "aim.window_ms", "chain.package_ms", "chain.verify_ms"};

std::int64_t snapshot_value(const std::map<std::string, std::int64_t>& m,
                            const char* name) {
  const auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

/// Adds one world's deterministic layer counters to the report.
void add_world_counts(Report& r, const sim::RunSummary& s) {
  const auto& counters = s.metrics_snapshot.counters;
  const auto& gauges = s.metrics_snapshot.gauges;
  auto add = [&r](const char* name, double v) { r.layer[name] += v; };
  add("sim.steps", static_cast<double>(snapshot_value(counters, "sim.steps")));
  add("aim.windows", static_cast<double>(snapshot_value(counters, "aim.windows")));
  add("aim.plans",
      static_cast<double>(snapshot_value(counters, "aim.plans_scheduled")));
  add("chain.blocks", s.metrics.blocks_published);
  add("chain.verifies", static_cast<double>(s.metrics.vehicle_verify_us.size()));
  add("crypto.sig_cache.hits",
      static_cast<double>(snapshot_value(gauges, "crypto.sig_cache.hits")));
  add("crypto.sig_cache.misses",
      static_cast<double>(snapshot_value(gauges, "crypto.sig_cache.misses")));
  add("net.packets", static_cast<double>(s.net_stats.packets_sent));
  add("net.bytes", static_cast<double>(s.net_stats.bytes_sent));
  add("net.dropped", static_cast<double>(s.net_stats.packets_dropped +
                                         s.net_stats.packets_lost_outage));
  add("nwade.incident_reports", s.metrics.incident_reports);
  add("nwade.verify_rounds", s.metrics.verify_rounds);
  add("nwade.evacuations", s.metrics.evacuation_alerts);
}

void add_ledger(Report& r, const Ledger& l) {
  r.layer["sim.events_ms"] += l.events_us / 1000.0;
  r.layer["sim.physics_ms"] += l.physics_us / 1000.0;
  r.layer["sim.watch_ms"] += l.watch_us / 1000.0;
  r.layer["sim.gap_audit_ms"] += l.gap_audit_us / 1000.0;
  r.layer["aim.window_ms"] += l.window_us / 1000.0;
  r.layer["chain.package_ms"] += l.package_us / 1000.0;
  r.layer["chain.verify_ms"] += l.verify_us / 1000.0;
}

/// Adds the simulated outcome of one world to the first-pass totals.
void add_outcome(Report& r, const sim::RunSummary& s, bool detectable) {
  if (detectable) {
    ++r.detectable;
    if (const auto d = s.metrics.deviation_detection_time()) {
      r.detect_ms.push_back(static_cast<double>(*d));
    }
  }
  r.false_alarm_evac += s.metrics.false_alarm_evacuations;
  r.gap_violations += s.min_ground_truth_gap_violations;
}

bool conserved(const sim::RunSummary& s) {
  return s.metrics.vehicles_spawned ==
         s.metrics.vehicles_exited + s.active_at_end;
}

/// Records a scenario's digest on the first pass; later passes must repeat it.
void check_digest(Report& r, const char* what, int index, bool first_pass,
                  const std::string& digest) {
  std::string& recorded = r.digests[static_cast<std::size_t>(index)];
  if (first_pass) {
    recorded = digest;
  } else {
    r.checks.expect(digest == recorded,
                    std::string(what) + ": a repeat reproduces the digest");
  }
}

/// Runs whole passes over `scenarios` episodes: one (two under --trace 1:
/// traced, then untraced), then more while another pass fits in `seconds`.
/// `episode(index, first_pass, traced)` returns its loop wall time in ms and
/// the simulated seconds it covered.
template <typename EpisodeFn>
void run_passes(Report& r, int scenarios, double seconds, bool trace,
                EpisodeFn&& episode) {
  r.digests.resize(static_cast<std::size_t>(scenarios));
  const auto start = Clock::now();
  const int min_passes = trace ? 2 : 1;
  double last_pass_ms = 0;
  for (int pass = 0;
       pass < min_passes || ms_since(start) + last_pass_ms <= seconds * 1000.0;
       ++pass) {
    const auto pass0 = Clock::now();
    const bool traced = trace && pass % 2 == 0;
    for (int index = 0; index < scenarios; ++index) {
      const auto [loop_ms, sim_s] = episode(index, pass == 0, traced);
      r.host_s += loop_ms / 1000.0;
      r.sim_s += sim_s;
      if (traced) {
        r.traced_host_s += loop_ms / 1000.0;
        r.traced_sim_s += sim_s;
      }
      ++r.episodes;
    }
    last_pass_ms = ms_since(pass0);
  }
}

// --- serve_rsa ---------------------------------------------------------------

constexpr int kServeScenarios = 8;
constexpr double kServeVpm = 36;
constexpr Duration kServeDurationMs = 600'000;
constexpr Duration kServeSnapshotMs = 10'000;

/// The first seed derived from (seed, index) whose arrival draw is within 1%
/// of the nominal demand, so every scenario offers the same traffic volume
/// and differs only in arrival times, routes and vehicle traits.
std::uint64_t nominal_demand_seed(sim::ScenarioConfig cfg, std::uint64_t seed,
                                  int index) {
  const double nominal = cfg.vehicles_per_minute *
                         static_cast<double>(cfg.duration_ms) / 60'000.0;
  for (std::uint64_t j = 0;; ++j) {
    cfg.seed = derive_seed(seed, static_cast<std::uint64_t>(index) * 1'000 + j);
    const double n = static_cast<double>(sim::World::arrival_count(cfg));
    if (std::abs(n - nominal) <= 0.01 * nominal) return cfg.seed;
  }
}

void run_serve(Report& r, std::uint64_t seed, double seconds, bool trace) {
  r.demand_vpm = kServeVpm;
  std::vector<double> save_ms;
  std::vector<double> final_sizes;
  double traced_loop_ms = 0;

  run_passes(r, kServeScenarios, seconds, trace,
             [&](int index, bool first_pass, bool traced) {
    sim::ScenarioConfig cfg;
    cfg.intersection.kind = traffic::IntersectionKind::kCross4;
    cfg.vehicles_per_minute = kServeVpm;
    cfg.duration_ms = kServeDurationMs;
    cfg.attack = protocol::attack_setting_by_name("V1");
    cfg.attack_time = 40'000;
    cfg.signer = sim::SignerKind::kRsa2048;
    cfg.seed = nominal_demand_seed(cfg, seed, index);
    cfg.trace_enabled = traced;

    const auto setup0 = Clock::now();
    sim::World world(cfg);
    r.setup_s.push_back(ms_since(setup0) / 1000.0);

    TimedSink sink;
    svc::StreamerConfig scfg;
    scfg.cadence_ms = 1'000;
    // Traced: the benchmark drains the tracer itself at snapshot boundaries,
    // so the streamer must not take the phase spans away.
    scfg.emit_trace = !traced;
    svc::TelemetryStreamer streamer(scfg);
    streamer.add_sink(&sink);
    r.checks.expect(streamer.attach(world), "serve_rsa: streamer attaches");

    Ledger ledger;
    Bytes last_blob;
    std::vector<double> sizes;
    double episode_save_ms = 0;
    int half_active = 0;
    const auto loop0 = Clock::now();
    for (Tick t = cfg.step_ms; t <= cfg.duration_ms; t += cfg.step_ms) {
      const auto s0 = Clock::now();
      world.run_until(t);
      r.step_ms.push_back(ms_since(s0));
      if (t % kServeSnapshotMs == 0) {
        const auto c0 = Clock::now();
        last_blob = world.checkpoint_save();
        const double c_ms = ms_since(c0);
        episode_save_ms += c_ms;
        sizes.push_back(static_cast<double>(last_blob.size()));
        if (traced) {
          save_ms.push_back(c_ms);
          ledger.add(world.take_trace());
        }
      }
      if (t == cfg.duration_ms / 2) half_active = world.summary().active_at_end;
    }
    streamer.finish();
    if (traced) ledger.add(world.take_trace());
    const double loop_ms = ms_since(loop0);

    const sim::RunSummary s = world.summary();
    check_digest(r, "serve_rsa", index, first_pass,
                 sim::checkpoint::run_summary_digest(s));
    r.checks.expect(conserved(s), "serve_rsa: spawned = exited + active");
    // The final streamed metrics_total equals the end-of-run export.
    const std::string total = s.metrics_snapshot.json_compact();
    bool total_matches = false;
    const auto& frames = sink.ring().frames();
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      if (it->find("\"metrics_total\"") != std::string::npos) {
        total_matches = it->find(total) != std::string::npos;
        break;
      }
    }
    r.checks.expect(total_matches,
                    "serve_rsa: streamed metrics_total equals the export");

    if (first_pass && index == kServeScenarios - 1) {
      // Restoring the last snapshot and saving it again gives the same
      // bytes. The peak footprint is read first: the restored copy is the
      // check's, not the workload's.
      r.rss_mb = peak_rss_mb();
      const auto r0 = Clock::now();
      std::string error;
      const std::unique_ptr<sim::World> restored =
          sim::World::checkpoint_restore(last_blob, &error);
      r.layer["checkpoint.restore_ms"] = ms_since(r0);
      r.checks.expect(
          restored != nullptr && restored->checkpoint_save() == last_blob,
          "serve_rsa: restore + re-save of the last snapshot " + error);
    }

    if (first_pass) {
      r.served_vpm += s.throughput_vpm / kServeScenarios;
      r.backlog_half += static_cast<double>(half_active) / kServeScenarios;
      r.backlog_end += static_cast<double>(s.active_at_end) / kServeScenarios;
      add_outcome(r, s, true);
      final_sizes.push_back(sizes.back());
      if (index == 0) {
        std::string growth = "serve_rsa scenario 0 snapshot KB at sim-s:";
        for (std::size_t i = 5; i < sizes.size(); i += 6) {
          growth += " " + std::to_string((i + 1) * 10) + "s=" +
                    std::to_string(static_cast<long>(sizes[i] / 1024.0));
        }
        r.notes.push_back(growth);
      }
    }
    if (first_pass && traced) {
      add_world_counts(r, s);
      add_ledger(r, ledger);
      r.layer["svc.frames"] += static_cast<double>(sink.frames());
      r.layer["svc.bytes"] += static_cast<double>(sink.bytes());
      r.layer["svc.write_ms"] += sink.write_ms();
      r.layer["checkpoint.save_ms.total"] += episode_save_ms;
      if (index == 0) {
        r.layer["checkpoint.bytes_first"] = sizes.front();
        r.layer["checkpoint.bytes_last"] = sizes.back();
      }
      traced_loop_ms += loop_ms;
    }
    return std::pair<double, double>{
        loop_ms, static_cast<double>(cfg.duration_ms) / 1000.0};
  });

  r.snapshot_kb = sum(final_sizes) / static_cast<double>(final_sizes.size()) / 1024.0;
  if (trace) {
    r.layer["checkpoint.save_ms.p50"] = quantile(save_ms, 0.5);
    r.layer["checkpoint.save_ms.max"] = quantile(save_ms, 1.0);
    r.capacity_ms = traced_loop_ms;
    double attributed =
        r.layer["checkpoint.save_ms.total"] + r.layer["svc.write_ms"];
    for (const char* row : kSpanRows) attributed += r.layer[row];
    // Streamer frame rendering, the step loop and trace drains.
    r.layer["sim.unattributed_ms"] = traced_loop_ms - attributed;
    r.rows.assign(std::begin(kSpanRows), std::end(kSpanRows));
    r.rows.insert(r.rows.end(), {"checkpoint.save_ms.total", "svc.write_ms",
                                 "sim.unattributed_ms"});
  }
}

// --- grid_4x4 ----------------------------------------------------------------

constexpr int kGridScenarios = 3;
constexpr int kGridSide = 4;
constexpr int kGridShards = kGridSide * kGridSide;
// Shards step on the calling thread. With a pool, hypervisor steal on any
// one vCPU stalls the lockstep exchange for every shard, and on a shared
// host that swamped the measurement (see README.md).
constexpr int kGridThreads = 1;
constexpr double kGridVpmPerShard = 12;
constexpr Duration kGridDurationMs = 600'000;
constexpr Duration kGridExchangeMs = 1'000;

void run_grid(Report& r, std::uint64_t seed, double seconds, bool trace) {
  r.demand_vpm = kGridVpmPerShard * kGridShards;
  double busy_max_ms = 0;
  double busy_mean_ms = 0;
  double serial_ms = 0;
  double traced_loop_ms = 0;
  double born = 0;
  double retired = 0;
  double handoffs = 0;
  double aggregate_vpm = 0;
  std::vector<double> save_ms;
  std::vector<double> sizes;

  run_passes(r, kGridScenarios, seconds, trace,
             [&](int index, bool first_pass, bool traced) {
    sim::GridConfig cfg;
    cfg.rows = kGridSide;
    cfg.cols = kGridSide;
    cfg.shard.intersection.kind = traffic::IntersectionKind::kCross4;
    cfg.shard.vehicles_per_minute = kGridVpmPerShard;
    cfg.shard.duration_ms = kGridDurationMs;
    cfg.shard.attack = protocol::attack_setting_by_name("V1");
    cfg.shard.attack_time = 40'000;
    cfg.shard.signer = sim::SignerKind::kHmac;
    cfg.shard.trace_enabled = traced;
    cfg.seed = derive_seed(seed, static_cast<std::uint64_t>(index));
    cfg.exchange_every_ms = kGridExchangeMs;
    cfg.attack_shard = 0;
    cfg.grid_threads = kGridThreads;

    const auto setup0 = Clock::now();
    sim::Grid grid(cfg);
    r.setup_s.push_back(ms_since(setup0) / 1000.0);

    Ledger ledger;
    std::vector<double> busy(kGridShards);
    int half_active = 0;
    const auto loop0 = Clock::now();
    for (Tick t = kGridExchangeMs; t <= kGridDurationMs; t += kGridExchangeMs) {
      const auto s0 = Clock::now();
      grid.run_until(t);
      const double step = ms_since(s0);
      r.step_ms.push_back(step);
      if (traced) {
        // Each shard's spans since the last boundary are its busy time in
        // this exchange; a parallel exchange would wait for the busiest.
        for (int i = 0; i < kGridShards; ++i) {
          Ledger shard;
          shard.add(grid.shard(i / kGridSide, i % kGridSide).take_trace());
          busy[static_cast<std::size_t>(i)] = shard.busy_us() / 1000.0;
          ledger.merge(shard);
        }
        if (first_pass) {
          const double slowest = *std::max_element(busy.begin(), busy.end());
          busy_max_ms += slowest;
          busy_mean_ms += sum(busy) / kGridShards;
          serial_ms += step - sum(busy);
        }
      }
      if (t == kGridDurationMs / 2) {
        for (const sim::RunSummary& s : grid.summary().shards) {
          half_active += s.active_at_end;
        }
      }
    }
    const double loop_ms = ms_since(loop0);

    const sim::GridSummary gs = grid.summary();
    check_digest(r, "grid_4x4", index, first_pass, sim::Grid::summary_digest(gs));
    // Vehicle conservation per shard and across the lattice: every exit is
    // handed off or retired, and no handoff arrives that was not sent.
    std::int64_t exited = 0;
    std::int64_t active = 0;
    std::int64_t spawned = 0;
    bool per_shard = true;
    for (const sim::RunSummary& s : gs.shards) {
      per_shard = per_shard && conserved(s);
      exited += s.metrics.vehicles_exited;
      active += s.active_at_end;
      spawned += s.metrics.vehicles_spawned;
    }
    r.checks.expect(per_shard, "grid_4x4: spawned = exited + active per shard");
    r.checks.expect(
        static_cast<std::uint64_t>(exited) == gs.handoffs_sent + gs.retired &&
            gs.handoffs_delivered <= gs.handoffs_sent,
        "grid_4x4: every exit is handed off or retired");

    if (first_pass) {
      const double minutes = static_cast<double>(kGridDurationMs) / 60'000.0;
      r.served_vpm += static_cast<double>(gs.retired) / minutes / kGridScenarios;
      r.backlog_half += static_cast<double>(half_active) / kGridScenarios;
      r.backlog_end += static_cast<double>(active) / kGridScenarios;
      for (std::size_t i = 0; i < gs.shards.size(); ++i) {
        add_outcome(r, gs.shards[i], i == 0);
      }
      born += static_cast<double>(spawned) -
              static_cast<double>(gs.handoffs_delivered);
      retired += static_cast<double>(gs.retired);
      handoffs += static_cast<double>(gs.handoffs_delivered);
      aggregate_vpm += gs.aggregate_throughput_vpm;
    }
    if (first_pass) {
      // The lattice checkpoint at the end of the run: its size, and (last
      // scenario) restore + re-save giving the same bytes. Checkpoints are
      // not part of this workload, so the peak footprint is read before the
      // first one.
      if (index == 0) r.rss_mb = peak_rss_mb();
      const auto c0 = Clock::now();
      const Bytes blob = grid.checkpoint_save();
      save_ms.push_back(ms_since(c0));
      sizes.push_back(static_cast<double>(blob.size()));
      if (index == kGridScenarios - 1) {
        const auto r0 = Clock::now();
        std::string error;
        const std::unique_ptr<sim::Grid> restored =
            sim::Grid::checkpoint_restore(blob, kGridThreads, &error);
        r.layer["checkpoint.restore_ms"] = ms_since(r0);
        r.checks.expect(
            restored != nullptr && restored->checkpoint_save() == blob,
            "grid_4x4: restore + re-save of the final checkpoint " + error);
      }
    }
    if (first_pass && traced) {
      for (const sim::RunSummary& s : gs.shards) add_world_counts(r, s);
      add_ledger(r, ledger);
      r.layer["grid.handoffs"] += static_cast<double>(gs.handoffs_delivered);
      r.layer["grid.gossip_sent"] += static_cast<double>(gs.gossip_sent);
      r.layer["grid.gossip_dropped"] += static_cast<double>(gs.gossip_dropped);
      traced_loop_ms += loop_ms;
    }
    return std::pair<double, double>{
        loop_ms, static_cast<double>(kGridDurationMs) / 1000.0 * kGridShards};
  });

  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "grid_4x4 per scenario: born %.1f, retired %.1f, handoffs "
                "%.1f, aggregate_throughput_vpm %.1f (counts a vehicle once "
                "per shard it crosses)",
                born / kGridScenarios, retired / kGridScenarios,
                handoffs / kGridScenarios, aggregate_vpm / kGridScenarios);
  r.notes.push_back(buf);
  r.snapshot_kb = sum(sizes) / static_cast<double>(sizes.size()) / 1024.0;
  if (trace) {
    r.layer["checkpoint.save_ms.p50"] = quantile(save_ms, 0.5);
    r.layer["checkpoint.save_ms.max"] = quantile(save_ms, 1.0);
    r.layer["checkpoint.bytes_first"] = sizes.front();
    r.layer["checkpoint.bytes_last"] = sizes.back();
    r.layer["grid.shard_busy_ms.max"] = busy_max_ms;
    r.layer["grid.shard_busy_ms.mean"] = busy_mean_ms;
    r.layer["grid.imbalance"] = busy_mean_ms > 0 ? busy_max_ms / busy_mean_ms : 0;
    r.layer["grid.serial_ms"] = serial_ms;
    r.capacity_ms = traced_loop_ms;
    double attributed = 0;
    for (const char* row : kSpanRows) attributed += r.layer[row];
    // The exchange, stepping outside the recorded spans and trace drains.
    r.layer["sim.unattributed_ms"] = r.capacity_ms - attributed;
    r.rows.assign(std::begin(kSpanRows), std::end(kSpanRows));
    r.rows.push_back("sim.unattributed_ms");
  }
}

// --- campaign_table1 ---------------------------------------------------------

constexpr int kCampaignScenarios = 15;
// Pool workers; the calling thread works too, so 3 + 1 threads run cells.
constexpr int kCampaignThreads = 3;
constexpr double kCampaignVpm = 20;
constexpr Duration kCampaignDurationMs = 120'000;
constexpr int kCampaignSetupSamples = 3;
constexpr int kCampaignRounds = 4;

sim::CampaignConfig campaign_config(std::uint64_t base_seed, bool traced) {
  sim::CampaignConfig cfg;
  cfg.kinds.assign(std::begin(traffic::kAllIntersectionKinds),
                   std::end(traffic::kAllIntersectionKinds));
  // The eleven Table I settings plus a benign control column.
  cfg.attacks = {"benign"};
  for (const protocol::AttackSetting& a : protocol::table1_attack_settings()) {
    cfg.attacks.push_back(a.name);
  }
  cfg.densities_vpm = {kCampaignVpm};
  cfg.rounds = kCampaignRounds;
  cfg.base_seed = base_seed;
  cfg.duration_ms = kCampaignDurationMs;
  cfg.threads = kCampaignThreads;
  cfg.trace = traced;
  return cfg;
}

void run_campaign_workload(Report& r, std::uint64_t seed, double seconds,
                           bool trace) {
  r.demand_vpm = kCampaignVpm;
  struct Split {
    double exits{0};
    double minutes{0};
    std::int64_t gaps{0};
    int cells{0};
  };
  std::map<std::string, Split> split;
  double cells = 0;
  std::vector<double> cell_busy_ms;
  std::vector<double> record_bytes;
  std::vector<double> save_ms;
  double restore_ms = 0;
  double traced_loop_ms = 0;
  const double minutes = static_cast<double>(kCampaignDurationMs) / 60'000.0;

  run_passes(r, kCampaignScenarios, seconds, trace,
             [&](int index, bool first_pass, bool traced) {
    const sim::CampaignConfig cfg = campaign_config(
        derive_seed(seed, static_cast<std::uint64_t>(index)), traced);
    const std::vector<sim::CampaignCell> expected = sim::expand_cells(cfg);

    if (first_pass && index < kCampaignSetupSamples) {
      // Set-up: building every cell's World, which run_campaign repeats
      // inside each cell before stepping it.
      const auto setup0 = Clock::now();
      for (const sim::CampaignCell& cell : expected) {
        const sim::World w(sim::cell_scenario(cfg, cell));
      }
      r.setup_s.push_back(ms_since(setup0) / 1000.0);
    }

    const auto loop0 = Clock::now();
    const std::vector<sim::CellResult> results = sim::run_campaign(cfg);
    const double loop_ms = ms_since(loop0);
    r.step_ms.push_back(loop_ms);

    bool in_order = results.size() == expected.size();
    bool conservation = true;
    for (std::size_t i = 0; in_order && i < results.size(); ++i) {
      const sim::CampaignCell& c = results[i].cell;
      in_order = c.kind == expected[i].kind && c.attack == expected[i].attack &&
                 c.vpm == expected[i].vpm && c.round == expected[i].round &&
                 c.seed == expected[i].seed;
      conservation = conservation && conserved(results[i].summary);
    }
    r.checks.expect(in_order, "campaign_table1: cells return in expansion order");
    r.checks.expect(conservation,
                    "campaign_table1: spawned = exited + active in every cell");
    check_digest(r, "campaign_table1", index, first_pass,
                 crypto::digest_hex(crypto::sha256(
                     sim::campaign_results_json(cfg, results))));

    if (first_pass) {
      for (const sim::CellResult& cr : results) {
        const sim::RunSummary& s = cr.summary;
        const protocol::AttackSetting a =
            protocol::attack_setting_by_name(cr.cell.attack);
        r.served_vpm += s.metrics.vehicles_exited / minutes;
        r.backlog_end += s.active_at_end;
        ++cells;
        Split& sp = split[a.im_malicious             ? "im_attack"
                          : a.malicious_vehicles > 0 ? "vehicle_attack"
                                                     : "benign"];
        sp.exits += s.metrics.vehicles_exited;
        sp.minutes += minutes;
        sp.gaps += s.min_ground_truth_gap_violations;
        ++sp.cells;
        add_outcome(r, s, a.plan_violations > 0);

        // A campaign's checkpoint is its progress journal: one RunSummary
        // record per finished cell, which must round-trip to the same digest.
        const auto c0 = Clock::now();
        ByteWriter w;
        sim::checkpoint::save_run_summary(w, s);
        const Bytes record = w.take();
        const double c_ms = ms_since(c0);
        const auto r0 = Clock::now();
        ByteReader rd(record);
        sim::RunSummary back;
        const bool loaded = sim::checkpoint::load_run_summary(rd, back);
        const double r_ms = ms_since(r0);
        r.checks.expect(loaded && sim::checkpoint::run_summary_digest(back) ==
                                      sim::checkpoint::run_summary_digest(s),
                        "campaign_table1: journal record round-trips");
        record_bytes.push_back(static_cast<double>(record.size()));
        if (traced) {
          save_ms.push_back(c_ms);
          restore_ms += r_ms;
        }
      }
    }
    if (first_pass && traced) {
      for (const sim::CellResult& cr : results) {
        Ledger cell;
        cell.add(cr.trace);
        cell_busy_ms.push_back(cell.busy_us() / 1000.0);
        add_ledger(r, cell);
        add_world_counts(r, cr.summary);
      }
      traced_loop_ms += loop_ms;
    }
    return std::pair<double, double>{
        loop_ms, static_cast<double>(cfg.duration_ms) / 1000.0 *
                     static_cast<double>(results.size())};
  });

  r.served_vpm /= cells;
  r.backlog_end /= cells;
  r.backlog_half = -1;  // a cell's half-run state is not observable
  // A sweep's journal: every cell's record.
  r.snapshot_kb = sum(record_bytes) / kCampaignScenarios / 1024.0;
  for (const auto& [name, sp] : split) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "campaign.served_vpm.%s %.3f  campaign.gap_violations.%s "
                  "%lld  (%d cells)",
                  name.c_str(), sp.exits / sp.minutes, name.c_str(),
                  static_cast<long long>(sp.gaps), sp.cells);
    r.notes.push_back(buf);
  }
  if (trace) {
    r.layer["checkpoint.save_ms.p50"] = quantile(save_ms, 0.5);
    r.layer["checkpoint.save_ms.max"] = quantile(save_ms, 1.0);
    r.layer["checkpoint.restore_ms"] = restore_ms;
    r.layer["checkpoint.bytes_first"] = record_bytes.front();
    r.layer["checkpoint.bytes_last"] = record_bytes.back();
    r.layer["campaign.cell_busy_ms.p50"] = quantile(cell_busy_ms, 0.5);
    r.layer["campaign.cell_busy_ms.max"] = quantile(cell_busy_ms, 1.0);
    r.capacity_ms = (kCampaignThreads + 1) * traced_loop_ms;
    r.layer["campaign.pool_util"] = sum(cell_busy_ms) / r.capacity_ms;
    // Worker time outside the recorded spans: cell construction, pool idle
    // and stepping outside the spans.
    r.layer["campaign.unattributed_ms"] = r.capacity_ms - sum(cell_busy_ms);
    r.rows.assign(std::begin(kSpanRows), std::end(kSpanRows));
    r.rows.push_back("campaign.unattributed_ms");
  }
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_report(const std::string& workload, std::uint64_t seed, bool trace,
                  Report& r) {
  const double detect_ms =
      r.detect_ms.empty() ? 0 : sum(r.detect_ms) / static_cast<double>(r.detect_ms.size());
  const double detection_rate =
      r.detectable > 0 ? static_cast<double>(r.detect_ms.size()) / r.detectable : 0;

  std::printf("workload %s seed %" PRIu64 " trace %d: %d episodes, %zu steps, "
              "%.1f sim-s in %.2f host-s\n",
              workload.c_str(), seed, trace ? 1 : 0, r.episodes,
              r.step_ms.size(), r.sim_s, r.host_s);
  for (std::size_t i = 0; i < r.digests.size(); ++i) {
    std::printf("digest %s seed %" PRIu64 " scenario %zu %s\n", workload.c_str(),
                seed, i, r.digests[i].c_str());
  }
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  if (r.backlog_half >= 0) {
    std::printf("backlog_veh at half-run %.2f, at end %.2f%s\n", r.backlog_half,
                r.backlog_end,
                r.backlog_end > 1.05 * r.backlog_half + 1 ? "  (GROWING)" : "");
  }

  std::vector<Metric> metrics;
  if (!trace) {
    // Bounded end-to-end metrics (BENCHMARK.json), then the simulated
    // outcome, which is printed but not bounded: it is deterministic per
    // seed and varies too much between seeds to bound.
    metrics = {
        {"setup_s", quantile(r.setup_s, 0.5), "s"},
        {"sim_speed_x", r.sim_s / r.host_s, "x"},
        {"step_p50_ms", quantile(r.step_ms, 0.5), "ms"},
        {"step_p99_ms", quantile(r.step_ms, 0.99), "ms"},
        {"peak_rss_mb", r.rss_mb > 0 ? r.rss_mb : peak_rss_mb(), "MB"},
        {"snapshot_kb", r.snapshot_kb, "KB"},
        {"served_vpm", r.served_vpm, "veh/min"},
    };
    std::printf("demand_vpm %.3f veh/min\n", r.demand_vpm);
    std::printf("backlog_veh %.3f veh\n", r.backlog_end);
    std::printf("detect_ms %.3f ms\n", detect_ms);
    std::printf("detection_rate %.4f ratio (%zu of %d)\n", detection_rate,
                r.detect_ms.size(), r.detectable);
    std::printf("false_alarm_evac %lld count\n",
                static_cast<long long>(r.false_alarm_evac));
    std::printf("gap_violations %lld count\n",
                static_cast<long long>(r.gap_violations));
    std::printf("failed_ops %.4f ratio (%d of %d checks)\n",
                static_cast<double>(r.checks.failed) / r.checks.attempted,
                r.checks.failed, r.checks.attempted);
  } else {
    const double hits = r.layer["crypto.sig_cache.hits"];
    const double misses = r.layer["crypto.sig_cache.misses"];
    r.layer["crypto.sig_cache.hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    const double traced_speed = r.traced_sim_s / r.traced_host_s;
    const double untraced_speed =
        (r.sim_s - r.traced_sim_s) / (r.host_s - r.traced_host_s);
    r.layer["trace.overhead_pct"] = (untraced_speed / traced_speed - 1.0) * 100.0;

    std::printf("attribution of the traced pass, ms of %s:\n",
                workload == "campaign_table1" ? "worker time (4 threads x wall)"
                                              : "wall time");
    double total = 0;
    for (const std::string& row : r.rows) {
      const double ms = r.layer[row];
      total += ms;
      std::printf("  %-26s %12.3f  %5.1f%%\n", row.c_str(), ms,
                  100.0 * ms / r.capacity_ms);
    }
    std::printf("  %-26s %12.3f\n  %-26s %12.3f\n", "sum of rows", total,
                "traced wall", r.capacity_ms);
    for (const auto& [name, unit] : kLayerMetrics) {
      metrics.push_back({name, r.layer[name], unit});
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }

  std::string json = "{\"correct\": ";
  json += r.checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.checks.attempted);
  json += ", \"failed\": " + std::to_string(r.checks.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: nwbench --workload serve_rsa|grid_4x4|"
               "campaign_table1 --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  if (argc % 2 != 1) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else {
      return usage();
    }
  }
  Report r;
  if (workload == "serve_rsa") {
    run_serve(r, seed, seconds, trace);
  } else if (workload == "grid_4x4") {
    run_grid(r, seed, seconds, trace);
  } else if (workload == "campaign_table1") {
    run_campaign_workload(r, seed, seconds, trace);
  } else {
    return usage();
  }
  print_report(workload, seed, trace, r);
  return 0;
}
