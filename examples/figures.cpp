#include "figures.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "aim/baseline.h"
#include "bench/support.h"
#include "nwade/config.h"
#include "sim/campaign.h"
#include "traffic/arrivals.h"

namespace nwade::figures {

namespace {

using bench::fmt;
using bench::mean;
using bench::pct;
using bench::row;
using protocol::FalseReportKind;
using traffic::IntersectionKind;

/// One constituent campaign: its label in the --out JSON, its matrix, and,
/// once run, its results in expansion order.
struct Run {
  std::string label;
  sim::CampaignConfig cfg;
  std::vector<sim::CellResult> results;
};

/// Prints one line per shape target and counts the gated misses.
class Shapes {
 public:
  void check(const std::string& target, bool held, bool gated = true) {
    std::printf("shape %s: %s%s\n", target.c_str(), held ? "held" : "MISSED",
                gated ? "" : " (reported, not gated)");
    if (gated && !held) ++missed_;
  }
  int missed() const { return missed_; }

 private:
  int missed_{0};
};

struct Preset {
  const char* name;
  const char* title;
  const char* paper_ref;
  std::vector<Run> (*plan)(const Options&);
  void (*render)(const std::vector<Run>&, Shapes&);
};

Run campaign(const Options& o, std::string label, sim::ScenarioConfig base,
             std::vector<std::string> attacks, std::vector<double> densities,
             std::vector<IntersectionKind> kinds = {IntersectionKind::kCross4}) {
  Run run;
  run.label = std::move(label);
  run.cfg.kinds = std::move(kinds);
  run.cfg.attacks = std::move(attacks);
  run.cfg.densities_vpm = std::move(densities);
  run.cfg.rounds = o.rounds;
  run.cfg.base_seed = o.base_seed;
  run.cfg.duration_ms = o.duration_ms;
  run.cfg.threads = o.threads;
  run.cfg.base = std::move(base);
  return run;
}

/// The rounds of one matrix point, in round order.
std::vector<const sim::CellResult*> point(
    const Run& run, const std::string& attack, double vpm,
    IntersectionKind kind = IntersectionKind::kCross4) {
  std::vector<const sim::CellResult*> out;
  for (const sim::CellResult& r : run.results) {
    if (r.cell.kind == kind && r.cell.attack == attack && r.cell.vpm == vpm) {
      out.push_back(&r);
    }
  }
  return out;
}

/// The single attack and density of a one-point-per-kind campaign.
std::vector<const sim::CellResult*> only_point(
    const Run& run, IntersectionKind kind = IntersectionKind::kCross4) {
  return point(run, run.cfg.attacks.front(), run.cfg.densities_vpm.front(),
               kind);
}

std::string rate(int hits, int applicable) {
  return applicable > 0 ? pct(static_cast<double>(hits) / applicable)
                        : std::string("n/a");
}

/// Mean of every wall-clock sample the rounds recorded, in ms.
double pooled_ms(const std::vector<const sim::CellResult*>& cells,
                 std::vector<double> protocol::Metrics::*samples_us) {
  std::vector<double> all;
  for (const sim::CellResult* c : cells) {
    const std::vector<double>& xs = c->summary.metrics.*samples_us;
    all.insert(all.end(), xs.begin(), xs.end());
  }
  return mean(all) / 1000.0;
}

std::string kind_at(IntersectionKind kind, double vpm) {
  char label[64];
  std::snprintf(label, sizeof(label), "%s (%.0f)", intersection_name(kind), vpm);
  return label;
}

/// Duration of the wall-clock presets (Fig. 6, ablation A2): capped at 60 s
/// of simulated time, since every block is RSA-signed.
Duration timing_duration(const Options& o) {
  return std::min<Duration>(o.duration_ms, 60'000);
}

// --- Table II: false alarm rate ----------------------------------------------
//
// Type A: attackers claim a benign vehicle violates its travel plan.
// Type B: attackers claim the IM issued conflicting travel plans.
// Trigger = rounds where a benign vehicle was evacuated because of the lie;
// detection = rounds where the lie was identified (dismissed by the IM or
// refuted by peers). Type B is N/A for malicious-IM settings, as in the paper.

std::vector<Run> plan_table2(const Options& o) {
  std::vector<std::string> all, benign_im;
  for (const protocol::AttackSetting& s : protocol::table1_attack_settings()) {
    all.push_back(s.name);
    if (!s.im_malicious) benign_im.push_back(s.name);
  }
  // Table II isolates the false-REPORT attack: a colluding IM stonewalls
  // (kSilence); the conflicting-plans attack is Fig. 7's global-report case.
  sim::ScenarioConfig a = bench::default_scenario();
  a.im_attack_mode = protocol::ImAttackMode::kSilence;
  a.false_report_kind = FalseReportKind::kIncident;
  sim::ScenarioConfig b = a;
  b.false_report_kind = FalseReportKind::kWrongPlans;
  return {campaign(o, "table2/typeA", a, all, {80}),
          campaign(o, "table2/typeB", b, benign_im, {80})};
}

struct FalseAlarms {
  int triggered{0};
  int detected{0};
  int applicable{0};
};

FalseAlarms false_alarms(const Run& run, const protocol::AttackSetting& setting,
                         FalseReportKind kind) {
  const bool incident = kind == FalseReportKind::kIncident;
  FalseAlarms r;
  for (const sim::CellResult* c : point(run, setting.name, 80)) {
    const protocol::Metrics& m = c->summary.metrics;
    const bool injected = incident ? m.false_incident_injected.has_value()
                                   : m.false_global_injected.has_value();
    if (!injected && setting.false_reports > 0) continue;  // never fired
    ++r.applicable;
    if (m.false_alarm_evacuations > 0) ++r.triggered;
    // Settings without false reporters (V1, IM) can neither trigger nor be
    // "caught"; count them as clean rounds with nothing to detect.
    const bool caught =
        setting.false_reports == 0
            ? m.false_alarm_evacuations == 0
            : (incident ? m.false_incident_dismissed.has_value()
                        : m.false_global_detected.has_value());
    if (caught) ++r.detected;
  }
  return r;
}

void render_table2(const std::vector<Run>& runs, Shapes& shapes) {
  bool a_detected = true, a_quiet = true, b_defeated = true;
  row({"Setting", "TypeA trig", "TypeA det", "TypeB trig", "TypeB det"});
  for (const protocol::AttackSetting& setting :
       protocol::table1_attack_settings()) {
    const FalseAlarms a =
        false_alarms(runs[0], setting, FalseReportKind::kIncident);
    a_detected &= a.applicable > 0 && a.detected == a.applicable;
    // Only many colluders amplify a Type A report into an evacuation.
    const bool amplified = setting.name == "V10" || setting.name == "IM_V5" ||
                           setting.name == "IM_V10";
    if (!amplified) a_quiet &= a.applicable > 0 && a.triggered == 0;
    std::string b_trig = "N/A", b_det = "N/A";
    if (!setting.im_malicious) {
      const FalseAlarms b =
          false_alarms(runs[1], setting, FalseReportKind::kWrongPlans);
      b_trig = rate(b.triggered, b.applicable);
      b_det = rate(b.detected, b.applicable);
      b_defeated &= b.applicable > 0 && b.triggered == 0 &&
                    b.detected == b.applicable;
    }
    row({setting.name, rate(a.triggered, a.applicable),
         rate(a.detected, a.applicable), b_trig, b_det});
  }
  std::printf(
      "\npaper shape: Type B always 0%% trigger / 100%% detection (blockchain\n"
      "verification defeats wrong-plan claims); Type A triggers only when many\n"
      "colluders amplify reports (V10, IM_V5, IM_V10), detection stays 100%%.\n");
  shapes.check("table2.typeB_0pct_trigger_100pct_detection", b_defeated);
  shapes.check("table2.typeA_100pct_detection", a_detected);
  shapes.check("table2.typeA_0pct_trigger_outside_V10_IM_V5_IM_V10", a_quiet);
}

// --- Fig. 4: detection rate vs density ---------------------------------------
//
// How often the real plan violation is detected and confirmed (evacuation
// alert from a benign IM, or global/self-evacuation consensus when the IM
// is compromised). Rounds whose deviator never left its plan are skipped.

const std::vector<double> kDensitySweep = {20, 40, 60, 80, 100, 120};

std::vector<Run> plan_fig4(const Options& o) {
  // Isolate the violation-detection question: the colluding IM stonewalls
  // reports (kSilence); its conflicting-plans attack is Fig. 7's.
  sim::ScenarioConfig base = bench::default_scenario();
  base.im_attack_mode = protocol::ImAttackMode::kSilence;
  return {campaign(o, "fig4", base,
                   {"V1", "V3", "V10", "IM_V1", "IM_V3", "IM_V10"},
                   kDensitySweep)};
}

void render_fig4(const std::vector<Run>& runs, Shapes& shapes) {
  const Run& run = runs[0];
  std::vector<std::string> header = {"Setting"};
  for (const double d : kDensitySweep) header.push_back(fmt(d, 0) + " vpm");
  row(header, 12);
  bool benign_im_full = true, colluding_im_80 = true;
  std::vector<std::string> misses;
  for (const std::string& name : run.cfg.attacks) {
    const bool colluding = protocol::attack_setting_by_name(name).im_malicious;
    std::vector<std::string> cells = {name};
    for (const double density : kDensitySweep) {
      int detected = 0, applicable = 0;
      for (const sim::CellResult* c : point(run, name, density)) {
        const protocol::Metrics& m = c->summary.metrics;
        if (!m.violation_start) continue;  // attack never materialized
        ++applicable;
        if (m.deviation_confirmed) {
          ++detected;
          continue;
        }
        char miss[128];
        std::snprintf(miss, sizeof(miss),
                      "  %s %.0f vpm seed %llu: violation at %.1f s of %.1f s",
                      name.c_str(), density,
                      static_cast<unsigned long long>(c->cell.seed),
                      ticks_to_seconds(*m.violation_start),
                      ticks_to_seconds(run.cfg.duration_ms));
        misses.push_back(miss);
      }
      cells.push_back(rate(detected, applicable));
      const double r = applicable > 0 ? static_cast<double>(detected) / applicable
                                      : 0.0;
      if (colluding) {
        colluding_im_80 &= r >= 0.8;
      } else {
        benign_im_full &= r == 1.0;
      }
    }
    row(cells, 12);
  }
  if (!misses.empty()) {
    std::printf("\nundetected rounds (violation start vs run end):\n");
    for (const std::string& m : misses) std::printf("%s\n", m.c_str());
  }
  std::printf(
      "\npaper shape: 100%% detection with a benign IM at every density;\n"
      ">= 80%% when the IM colludes with the attackers (IM_V* settings).\n");
  shapes.check("fig4.benign_im_100pct_detection", benign_im_full,
               /*gated=*/false);
  shapes.check("fig4.colluding_im_80pct_detection", colluding_im_80,
               /*gated=*/false);
}

// --- Fig. 5: detection time ---------------------------------------------------
//
// Plan-deviation reports: first benign incident report -> confirmation (the
// protocol latency the paper's ~360 ms bound refers to), plus the total time
// from the physical violation for context. Wrong-travel-plan reports (Type B
// lies): injection -> peer refutation.

std::vector<Run> plan_fig5(const Options& o) {
  sim::ScenarioConfig wrong_plans = bench::default_scenario();
  wrong_plans.false_report_kind = FalseReportKind::kWrongPlans;
  return {campaign(o, "fig5/deviation", bench::default_scenario(), {"V1"},
                   kDensitySweep),
          campaign(o, "fig5/wrong_plans", wrong_plans, {"V2"}, kDensitySweep)};
}

void render_fig5(const std::vector<Run>& runs, Shapes& shapes) {
  row({"Density", "deviation rpt->confirm", "violation->confirm",
       "wrong-plan refute"},
      24);
  bool under_400 = true;
  for (const double density : kDensitySweep) {
    std::vector<double> report_to_confirm, violation_to_confirm, refute;
    for (const sim::CellResult* c : point(runs[0], "V1", density)) {
      const protocol::Metrics& m = c->summary.metrics;
      if (m.first_true_incident && m.deviation_confirmed) {
        report_to_confirm.push_back(
            static_cast<double>(*m.deviation_confirmed - *m.first_true_incident));
      }
      if (const auto dt = m.deviation_detection_time()) {
        violation_to_confirm.push_back(static_cast<double>(*dt));
      }
    }
    for (const sim::CellResult* c : point(runs[1], "V2", density)) {
      if (const auto dt = c->summary.metrics.false_global_detection_time()) {
        refute.push_back(static_cast<double>(*dt));
      }
    }
    under_400 &= !report_to_confirm.empty() && mean(report_to_confirm) < 400;
    row({fmt(density, 0) + " vpm", fmt(mean(report_to_confirm), 0) + " ms",
         fmt(mean(violation_to_confirm), 0) + " ms",
         fmt(mean(refute), 0) + " ms"},
        24);
  }
  std::printf(
      "\npaper shape: both report kinds are handled in well under a second\n"
      "(paper: < 360 ms at 50 mph ~ 8 m displacement); the physical\n"
      "violation->confirmation column adds the time the deviation needs to\n"
      "exceed the watcher tolerance.\n");
  shapes.check("fig5.report_to_confirm_under_400ms", under_400);
}

// --- Fig. 6: block chain management and verification -------------------------
//
// Wall-clock cost of IM-side block management (scheduling the window's
// requests + packaging and signing the block, SHA-256 + RSA-2048 as in the
// paper) and vehicle-side verification (Algorithm 1 on each received block).

const std::vector<double> kLayoutDensities = {40, 80, 120};

std::vector<IntersectionKind> all_kinds() {
  return {std::begin(traffic::kAllIntersectionKinds),
          std::end(traffic::kAllIntersectionKinds)};
}

std::vector<Run> plan_fig6(const Options& o) {
  sim::ScenarioConfig base = bench::default_scenario();
  base.signer = sim::SignerKind::kRsa2048;  // paper: 2048-bit IM key
  Run run = campaign(o, "fig6", base, {"benign"}, kLayoutDensities, all_kinds());
  run.cfg.duration_ms = timing_duration(o);
  return {run};
}

void render_fig6(const std::vector<Run>& runs, Shapes& shapes) {
  const Run& run = runs[0];
  row({"Intersection (density)", "IM mgmt (ms)", "veh verify (ms)", "blocks"},
      26);
  bool under_20 = true;
  for (const IntersectionKind kind : run.cfg.kinds) {
    for (const double density : kLayoutDensities) {
      const auto cells = point(run, "benign", density, kind);
      const double im_ms = pooled_ms(cells, &protocol::Metrics::im_package_us);
      const double veh_ms =
          pooled_ms(cells, &protocol::Metrics::vehicle_verify_us);
      std::vector<double> blocks;
      for (const sim::CellResult* c : cells) {
        blocks.push_back(c->summary.metrics.blocks_published);
      }
      under_20 &= im_ms + veh_ms < 20.0;
      row({kind_at(kind, density), fmt(im_ms, 2), fmt(veh_ms, 2),
           fmt(mean(blocks), 0)},
          26);
    }
  }
  std::printf(
      "\npaper shape: overall per-block calculation time stays in the low\n"
      "milliseconds (paper: < 20 ms), dominated by the RSA-2048 signature on\n"
      "the IM side; vehicle-side verification (signature check with e=65537 +\n"
      "Merkle recomputation + plan conflict check) is cheaper.\n");
  // Wall-clock and host-dependent, so reported rather than gated.
  shapes.check("fig6.chain_ops_under_20ms", under_20, /*gated=*/false);
}

// --- Fig. 7: network load ------------------------------------------------------
//
// Packets per run at a 4-way cross under the paper's three event types: no
// attack, local (incident) reports being sent (V1, benign IM), and global
// reports being sent (a compromised IM issues conflicting plans; vehicles
// broadcast global reports and self-evacuate). Means over the rounds.

std::vector<Run> plan_fig7(const Options& o) {
  return {campaign(o, "fig7", bench::default_scenario(), {"benign", "V1", "IM"},
                   {80})};
}

double network_case(const Run& run, const std::string& attack,
                    const std::string& label) {
  const auto cells = point(run, attack, 80);
  const double n = static_cast<double>(std::max<std::size_t>(cells.size(), 1));
  double packets = 0, bytes = 0;
  std::map<std::string, double> by_kind;
  for (const sim::CellResult* c : cells) {
    const net::NetworkStats& s = c->summary.net_stats;
    packets += static_cast<double>(s.packets_sent);
    bytes += static_cast<double>(s.bytes_sent);
    for (const auto& [kind, count] : s.packets_by_kind) {
      by_kind[kind] += static_cast<double>(count);
    }
  }
  std::printf("\n--- %s ---\n", label.c_str());
  row({"total packets", fmt(packets / n, 0)}, 22);
  row({"bytes", fmt(bytes / n, 0)}, 22);
  // Per-kind breakdown, largest first (ties by name).
  std::vector<std::pair<std::string, double>> kinds(by_kind.begin(),
                                                    by_kind.end());
  std::stable_sort(kinds.begin(), kinds.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  for (const auto& [kind, count] : kinds) row({"  " + kind, fmt(count / n, 0)}, 22);
  return packets / n;
}

void render_fig7(const std::vector<Run>& runs, Shapes&) {
  const double none = network_case(runs[0], "benign", "no attack");
  const double local = network_case(runs[0], "V1", "local reports sent (V1)");
  const double global = network_case(runs[0], "IM", "global reports sent (IM)");
  std::printf(
      "\npaper shape: the security machinery adds only a modest number of\n"
      "packets on top of the baseline plan dissemination; local-report events\n"
      "add unicast report/verify traffic (%.0f -> %.0f), global-report events\n"
      "add broadcast warnings (%.0f -> %.0f).\n",
      none, local, none, global);
}

// --- Fig. 8: throughput with vs without NWADE ---------------------------------

std::vector<Run> plan_fig8(const Options& o) {
  sim::ScenarioConfig off = bench::default_scenario();
  off.nwade.security_enabled = false;
  return {campaign(o, "fig8/nwade", bench::default_scenario(), {"benign"},
                   kLayoutDensities, all_kinds()),
          campaign(o, "fig8/no_nwade", off, {"benign"}, kLayoutDensities,
                   all_kinds())};
}

void render_fig8(const std::vector<Run>& runs, Shapes& shapes) {
  row({"Intersection (density)", "no NWADE (vpm)", "NWADE (vpm)", "overhead"},
      26);
  bool zero_overhead = true;
  for (const IntersectionKind kind : runs[0].cfg.kinds) {
    for (const double density : kLayoutDensities) {
      std::vector<double> with, without;
      for (const sim::CellResult* c : point(runs[0], "benign", density, kind)) {
        with.push_back(c->summary.throughput_vpm);
      }
      for (const sim::CellResult* c : point(runs[1], "benign", density, kind)) {
        without.push_back(c->summary.throughput_vpm);
      }
      const double on = mean(with), off = mean(without);
      const double overhead = off > 0 ? (off - on) / off : 0.0;
      zero_overhead &= overhead == 0.0;
      row({kind_at(kind, density), fmt(off, 1), fmt(on, 1), pct(overhead)}, 26);
    }
  }
  std::printf(
      "\npaper shape: throughput with NWADE matches the unprotected system\n"
      "at every intersection type and density (near-zero overhead), because\n"
      "verification runs off the driving path and plans are unchanged.\n");
  shapes.check("fig8.zero_throughput_overhead", zero_overhead);
}

// --- Extension: mixed autonomous + legacy traffic ------------------------------
//
// Two questions per legacy share: (1) benign mixed traffic -- service and
// safety; (2) an attacked run -- does detection survive legacy bystanders?
// The audit is only meaningful in (1): in (2) the deviator physically plows
// through traffic and legacy vehicles cannot obey evacuation plans, which is
// precisely the open problem of the transitional period.

const std::vector<double> kLegacyShares = {0.0, 0.2, 0.4, 0.6};

std::vector<Run> plan_mixed(const Options& o) {
  std::vector<Run> runs;
  for (const double share : kLegacyShares) {
    sim::ScenarioConfig base = bench::default_scenario();
    base.legacy_fraction = share;
    runs.push_back(campaign(o, "mixed/legacy_" + fmt(share, 1), base,
                            {"benign", "V1"}, {60}));
  }
  return runs;
}

void render_mixed(const std::vector<Run>& runs, Shapes&) {
  row({"legacy share", "managed vpm", "legacy vpm", "audit pair-sec",
       "V1 detected"},
      18);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    const double minutes = ticks_to_seconds(run.cfg.duration_ms) / 60.0;
    std::vector<double> managed, legacy;
    int violations = 0, detected = 0, applicable = 0;
    for (const sim::CellResult* c : point(run, "benign", 60)) {
      managed.push_back(c->summary.throughput_vpm);
      legacy.push_back(c->summary.legacy_exited / minutes);
      violations += c->summary.min_ground_truth_gap_violations;
    }
    for (const sim::CellResult* c : point(run, "V1", 60)) {
      if (!c->summary.metrics.violation_start) continue;
      ++applicable;
      if (c->summary.metrics.deviation_confirmed) ++detected;
    }
    row({pct(kLegacyShares[i]), fmt(mean(managed), 1), fmt(mean(legacy), 1),
         std::to_string(violations), rate(detected, applicable)},
        18);
  }
  std::printf(
      "\nexpected shape: under benign mixed traffic, service shifts from the\n"
      "managed to the legacy column as penetration grows (legacy vehicles\n"
      "cross slower and force conservative virtual reservations), the safety\n"
      "audit stays near zero, and in attacked runs the neighbourhood watch\n"
      "keeps catching plan violations despite legacy bystanders.\n");
}

// --- Extension: fault tolerance vs channel loss (docs/FAULT_MODEL.md) ---------
//
// The same V1 scenario under i.i.d. per-packet loss and under Gilbert-Elliott
// loss with ~8-packet bursts, at the same mean loss. At loss 0 no fault knob
// is on and the run consumes no fault randomness.

const std::vector<double> kLosses = {0.0, 0.05, 0.1, 0.2, 0.3, 0.4};

const struct {
  const char* name;
  double mean_burst_len;  ///< 1 = i.i.d. loss
} kChannels[] = {{"uniform", 1.0}, {"bursty_8", 8.0}};

std::vector<Run> plan_faults(const Options& o) {
  std::vector<Run> runs;
  for (const auto& channel : kChannels) {
    for (const double loss : kLosses) {
      sim::ScenarioConfig base = bench::default_scenario();
      if (loss > 0) {
        base.network.fault = net::burst_loss_profile(loss, channel.mean_burst_len);
      }
      runs.push_back(campaign(
          o, std::string("faults/") + channel.name + "/" + fmt(loss, 2), base,
          {"V1"}, {60}));
    }
  }
  return runs;
}

void render_faults(const std::vector<Run>& runs, Shapes&) {
  std::size_t next = 0;
  for (const auto& channel : kChannels) {
    row({std::string("channel: ") + channel.name}, 32);
    row({"loss", "detect", "time ms", "vpm", "retries", "gap req"}, 10);
    for (const double loss : kLosses) {
      int detected = 0, applicable = 0;
      std::vector<double> detection_ms, throughput, retries, gap_requests;
      for (const sim::CellResult* c : only_point(runs[next++])) {
        const sim::RunSummary& s = c->summary;
        throughput.push_back(s.throughput_vpm);
        retries.push_back(s.metrics.plan_request_retries);
        gap_requests.push_back(s.metrics.gap_block_requests);
        if (!s.metrics.violation_start) continue;
        ++applicable;
        if (!s.metrics.deviation_confirmed) continue;
        ++detected;
        if (const auto t = s.metrics.deviation_detection_time()) {
          detection_ms.push_back(static_cast<double>(*t));
        }
      }
      row({fmt(loss, 2), rate(detected, applicable), fmt(mean(detection_ms), 0),
           fmt(mean(throughput), 1), fmt(mean(retries), 1),
           fmt(mean(gap_requests), 1)},
          10);
    }
  }
}

// --- Ablations: the design choices DESIGN.md §4 calls out ----------------------
//
//   A1  second-group re-verification on/off, under majority-vote gaming
//       (colluders frame a benign vehicle while the IM cannot see the scene)
//   A2  signer choice: HMAC vs RSA-1024 vs RSA-2048 per-block cost
//   A3  global-report safety threshold sweep vs false-alarm triggers (V10)
//   A4  chain cache depth: deep tau/delta cache vs single-block cache
//       (cross-block conflict checks need history)
//   A5  scheduler: reservation AIM vs fixed-cycle traffic lights (mean
//       delay); a scheduler-only loop, no simulation

const bool kDoubleCheck[] = {true, false};
const std::pair<sim::SignerKind, const char*> kSigners[] = {
    {sim::SignerKind::kHmac, "HMAC-SHA256"},
    {sim::SignerKind::kRsa1024, "RSA-1024"},
    {sim::SignerKind::kRsa2048, "RSA-2048"},
};
const int kThresholds[] = {1, 2, 3, 5, 8};
const std::size_t kChainDepths[] = {1, 4, 64};

std::vector<Run> plan_ablation(const Options& o) {
  std::vector<Run> runs;
  for (const bool enabled : kDoubleCheck) {
    // Colluders outnumber honest witnesses locally; the IM must rely on
    // votes (perception shrunk to force the distributed path).
    sim::ScenarioConfig base = bench::default_scenario();
    base.nwade.im_perception_radius_m = 30.0;
    base.nwade.double_check_verification = enabled;
    runs.push_back(campaign(o, std::string("ablation/A1/double_check_") +
                                   (enabled ? "on" : "off"),
                            base, {"V5"}, {80}));
  }
  for (const auto& [signer, name] : kSigners) {
    sim::ScenarioConfig base = bench::default_scenario();
    base.signer = signer;
    Run run = campaign(o, std::string("ablation/A2/") + name, base, {"benign"},
                       {80});
    run.cfg.duration_ms = timing_duration(o);
    runs.push_back(std::move(run));
  }
  for (const int threshold : kThresholds) {
    sim::ScenarioConfig base = bench::default_scenario();
    base.nwade.global_report_threshold = threshold;
    runs.push_back(campaign(o, "ablation/A3/threshold_" + std::to_string(threshold),
                            base, {"V10"}, {80}));
  }
  for (const std::size_t depth : kChainDepths) {
    sim::ScenarioConfig base = bench::default_scenario();
    base.nwade.chain_depth = depth;
    runs.push_back(campaign(o, "ablation/A4/depth_" + std::to_string(depth),
                            base, {"IM"}, {80}));
  }
  return runs;
}

void ablation_scheduler() {
  std::printf("\n[A5] reservation AIM vs fixed-cycle traffic lights (mean delay)\n");
  row({"intersection", "AIM delay (s)", "lights delay (s)", "speedup"}, 20);
  for (const IntersectionKind kind : traffic::kAllIntersectionKinds) {
    traffic::IntersectionConfig icfg;
    icfg.kind = kind;
    const auto ix = traffic::Intersection::build(icfg);
    traffic::ArrivalGenerator gen(ix, 80, Rng(8));
    const auto arrivals = gen.generate(5 * 60 * 1000);
    aim::ReservationScheduler aim_sched(ix);
    aim::TrafficLightScheduler lights(ix);
    double aim_total = 0, lights_total = 0;
    std::uint64_t vid = 1;
    for (const auto& a : arrivals) {
      const VehicleId id{vid++};
      aim_total += ticks_to_seconds(
          aim_sched.schedule(id, a.route_id, a.traits, a.time, 20.0).core_exit -
          a.time);
      lights_total += ticks_to_seconds(
          lights.schedule(id, a.route_id, a.traits, a.time, 20.0).core_exit -
          a.time);
    }
    const double n = static_cast<double>(arrivals.size());
    row({intersection_name(kind), fmt(aim_total / n, 1),
         fmt(lights_total / n, 1),
         fmt(lights_total / std::max(aim_total, 1e-9), 2) + "x"},
        20);
  }
}

void render_ablation(const std::vector<Run>& runs, Shapes&) {
  std::size_t next = 0;
  std::printf("\n[A1] second-group re-verification under majority-vote gaming\n");
  row({"double-check", "false evac rounds", "dismissed rounds"}, 22);
  for (const bool enabled : kDoubleCheck) {
    int false_evac = 0, dismissed = 0;
    for (const sim::CellResult* c : only_point(runs[next++])) {
      if (c->summary.metrics.false_alarm_evacuations > 0) ++false_evac;
      if (c->summary.metrics.false_incident_dismissed) ++dismissed;
    }
    row({enabled ? "on" : "off", std::to_string(false_evac),
         std::to_string(dismissed)},
        22);
  }

  std::printf("\n[A2] signature scheme vs per-block cost (4-way cross, 80 vpm)\n");
  row({"signer", "IM mgmt (ms)", "veh verify (ms)"}, 20);
  for (const auto& signer : kSigners) {
    const auto cells = only_point(runs[next++]);
    row({signer.second, fmt(pooled_ms(cells, &protocol::Metrics::im_package_us), 3),
         fmt(pooled_ms(cells, &protocol::Metrics::vehicle_verify_us), 3)},
        20);
  }

  std::printf("\n[A3] global-report safety threshold vs V10 false triggers\n");
  row({"base threshold", "false evac rounds", "true detection rounds"}, 24);
  for (const int threshold : kThresholds) {
    int false_evac = 0, detected = 0;
    for (const sim::CellResult* c : only_point(runs[next++])) {
      if (c->summary.metrics.false_alarm_evacuations > 0) ++false_evac;
      if (c->summary.metrics.deviation_confirmed) ++detected;
    }
    row({std::to_string(threshold), std::to_string(false_evac),
         std::to_string(detected)},
        24);
  }

  std::printf("\n[A4] vehicle chain-cache depth vs IM conflicting-plan detection\n");
  row({"chain depth", "conflict detected", "verify failures"}, 22);
  for (const std::size_t depth : kChainDepths) {
    int detected = 0, failures = 0;
    for (const sim::CellResult* c : only_point(runs[next++])) {
      if (c->summary.metrics.im_conflict_detected) ++detected;
      failures += c->summary.metrics.block_verification_failures;
    }
    row({std::to_string(depth), std::to_string(detected),
         std::to_string(failures)},
        22);
  }
  std::printf(
      "  (a depth-1 cache cannot compare a new block against earlier plans,\n"
      "   so cross-window conflicts slip through block verification)\n");

  ablation_scheduler();
}

const Preset kPresets[] = {
    {"table2", "Table II: False Alarm Rate (trigger / detection)",
     "NWADE Table II -- false alarm types A and B per attack setting",
     &plan_table2, &render_table2},
    {"fig4", "Fig. 4: Detection Rate under Different Vehicle Densities",
     "NWADE Fig. 4 -- deviation detection rate, 4-way cross, 20-120 veh/min",
     &plan_fig4, &render_fig4},
    {"fig5", "Fig. 5: Detection Time",
     "NWADE Fig. 5 -- deviation-report and wrong-plan-report handling time",
     &plan_fig5, &render_fig5},
    {"fig6", "Fig. 6: Block Chain Management and Verification (wall clock)",
     "NWADE Fig. 6 -- per-block cost, 5 intersection types x densities",
     &plan_fig6, &render_fig6},
    {"fig7", "Fig. 7: Network Load (packets per run by event type)",
     "NWADE Fig. 7 -- no attack / local reports / global reports",
     &plan_fig7, &render_fig7},
    {"fig8", "Fig. 8: Traffic Throughput with vs without NWADE",
     "NWADE Fig. 8 -- 5 intersections x densities, security on/off",
     &plan_fig8, &render_fig8},
    {"mixed", "Extension: mixed autonomous + legacy traffic",
     "NWADE Section VII future work -- transitional-period penetration sweep",
     &plan_mixed, &render_mixed},
    {"faults", "Fault tolerance: detection & throughput vs channel loss severity",
     "robustness extension -- NWADE detection under lossy channels",
     &plan_faults, &render_faults},
    {"ablation", "Ablations: NWADE design choices",
     "DESIGN.md section 4 -- why each mechanism exists", &plan_ablation,
     &render_ablation},
};

/// `json` indented by `pad` spaces after every newline but a trailing one.
std::string indented(const std::string& json, const std::string& pad) {
  std::string out;
  for (std::size_t i = 0; i < json.size(); ++i) {
    out += json[i];
    if (json[i] == '\n' && i + 1 < json.size()) out += pad;
  }
  while (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

}  // namespace

bool known(const std::string& name) {
  if (name == "all") return true;
  for (const Preset& p : kPresets) {
    if (name == p.name) return true;
  }
  return false;
}

std::string names() {
  std::string out;
  for (const Preset& p : kPresets) out += std::string(p.name) + " ";
  return out + "all";
}

int run(const std::string& name, const Options& options,
        const std::string& out_path) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  Shapes shapes;
  std::size_t cells = 0;
  std::vector<std::pair<std::string, std::string>> results_json;
  for (const Preset& preset : kPresets) {
    if (name != "all" && name != preset.name) continue;
    const auto p0 = clock::now();
    bench::banner(preset.title, preset.paper_ref);
    std::printf("rounds per point: %d (seeds %llu..%llu), run length: %lld ms, "
                "%d thread(s)\n",
                options.rounds,
                static_cast<unsigned long long>(options.base_seed),
                static_cast<unsigned long long>(options.base_seed +
                                                options.rounds - 1),
                static_cast<long long>(options.duration_ms), options.threads);
    std::vector<Run> runs = preset.plan(options);
    std::size_t preset_cells = 0;
    for (Run& r : runs) {
      r.results = sim::run_campaign(r.cfg);
      preset_cells += r.results.size();
    }
    preset.render(runs, shapes);
    if (!out_path.empty()) {
      for (const Run& r : runs) {
        results_json.emplace_back(r.label,
                                  sim::campaign_results_json(r.cfg, r.results));
      }
    }
    cells += preset_cells;
    std::printf("\n%s: %zu runs in %.2f s wall clock\n", preset.name,
                preset_cells,
                std::chrono::duration<double>(clock::now() - p0).count());
  }
  std::printf("\nfigure %s: %zu runs in %.2f s wall clock, %d gated shape "
              "target(s) missed\n",
              name.c_str(), cells,
              std::chrono::duration<double>(clock::now() - t0).count(),
              shapes.missed());

  if (!out_path.empty()) {
    std::string json = "{\n";
    for (std::size_t i = 0; i < results_json.size(); ++i) {
      json += "  \"" + results_json[i].first + "\": " +
              indented(results_json[i].second, "  ");
      json += i + 1 < results_json.size() ? ",\n" : "\n";
    }
    json += "}\n";
    std::ofstream out(out_path, std::ios::trunc);
    out << json;
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return shapes.missed() > 0 ? 1 : 0;
}

}  // namespace nwade::figures
