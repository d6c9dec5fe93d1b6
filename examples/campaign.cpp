// Campaign CLI: expands an experiment matrix (intersection kinds x Table I
// attack settings x traffic densities x seeded rounds), fans the cells
// across a deterministic worker pool, and writes a figure-ready JSON report.
// The aggregated results are byte-identical for any --threads value; the
// pool only changes the wall clock.
//
// Reproduce the paper matrix (all five layouts, all eleven Table I
// settings):
//
//   ./build/examples/campaign --paper-matrix --threads 8 --out campaign.json
//
// Quick spot check:
//
//   ./build/examples/campaign --kinds cross4 --attacks benign,V1
//       --vpm 60,120 --rounds 2 --threads 4   (one line)
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "nwade/config.h"
#include "sim/campaign.h"

using namespace nwade;

namespace {

const struct {
  const char* token;
  traffic::IntersectionKind kind;
} kKindTokens[] = {
    {"roundabout3", traffic::IntersectionKind::kRoundabout3},
    {"cross4", traffic::IntersectionKind::kCross4},
    {"irregular5", traffic::IntersectionKind::kIrregular5},
    {"cfi4", traffic::IntersectionKind::kCfi4},
    {"ddi4", traffic::IntersectionKind::kDdi4},
};

std::vector<std::string> split(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

bool parse_kinds(const std::string& csv,
                 std::vector<traffic::IntersectionKind>& out) {
  out.clear();
  if (csv == "all") {
    for (const auto k : traffic::kAllIntersectionKinds) out.push_back(k);
    return true;
  }
  for (const std::string& token : split(csv)) {
    bool found = false;
    for (const auto& entry : kKindTokens) {
      if (token == entry.token) {
        out.push_back(entry.kind);
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown intersection kind '%s' (try: ", token.c_str());
      for (const auto& entry : kKindTokens) std::fprintf(stderr, "%s ", entry.token);
      std::fprintf(stderr, "or 'all')\n");
      return false;
    }
  }
  return !out.empty();
}

bool parse_attacks(const std::string& csv, std::vector<std::string>& out) {
  out.clear();
  if (csv == "table1") {
    for (const auto& setting : protocol::table1_attack_settings()) {
      out.push_back(setting.name);
    }
    return true;
  }
  for (const std::string& token : split(csv)) {
    // attack_setting_by_name silently falls back to benign; reject typos
    // here instead so a mistyped matrix does not run the wrong experiment.
    if (token != "benign" &&
        protocol::attack_setting_by_name(token).name != token) {
      std::fprintf(stderr, "unknown Table I attack setting '%s'\n", token.c_str());
      return false;
    }
    out.push_back(token);
  }
  return !out.empty();
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --kinds cross4,roundabout3,...|all   intersection layouts\n"
      "  --attacks benign,V1,...|table1       Table I attack settings\n"
      "  --vpm 60,80,120                      traffic densities (veh/min)\n"
      "  --rounds N                           seeded repetitions per point\n"
      "  --seed N                             base seed (round r uses seed+r)\n"
      "  --duration-ms N                      simulated length per run\n"
      "  --threads N                          worker pool size\n"
      "  --paper-matrix                       all kinds x table1 attacks\n"
      "  --out PATH                           report JSON (default campaign.json)\n"
      "  --results-out PATH                   deterministic results-only JSON\n"
      "  --resume PATH                        progress journal (nwade-campaign-\n"
      "                                       progress-v1): finished cells are\n"
      "                                       journaled as they complete, and a\n"
      "                                       rerun of the same matrix resumes\n"
      "                                       from them byte-identically\n"
      "  --trace                              record per-cell event traces\n"
      "  --trace-out PATH                     Chrome trace_event JSON (implies\n"
      "                                       --trace; load in ui.perfetto.dev)\n"
      "  --trace-jsonl-out PATH               JSONL trace (implies --trace)\n"
      "  --metrics-out PATH                   per-cell + merged registry\n"
      "                                       snapshots (nwade-metrics-v1)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  sim::CampaignConfig cfg;
  cfg.duration_ms = 120'000;
  std::string out_path = "campaign.json";
  std::string results_path;
  std::string trace_path;
  std::string trace_jsonl_path;
  std::string metrics_path;
  std::string resume_path;

  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kinds") {
      if (!parse_kinds(value(i), cfg.kinds)) return 2;
    } else if (arg == "--attacks") {
      if (!parse_attacks(value(i), cfg.attacks)) return 2;
    } else if (arg == "--vpm") {
      cfg.densities_vpm.clear();
      for (const std::string& token : split(value(i))) {
        const double vpm = std::atof(token.c_str());
        if (vpm <= 0) {
          std::fprintf(stderr, "bad density '%s'\n", token.c_str());
          return 2;
        }
        cfg.densities_vpm.push_back(vpm);
      }
    } else if (arg == "--rounds") {
      cfg.rounds = std::atoi(value(i));
    } else if (arg == "--seed") {
      cfg.base_seed = std::strtoull(value(i), nullptr, 10);
    } else if (arg == "--duration-ms") {
      cfg.duration_ms = std::atol(value(i));
    } else if (arg == "--threads") {
      cfg.threads = std::atoi(value(i));
    } else if (arg == "--paper-matrix") {
      parse_kinds("all", cfg.kinds);
      parse_attacks("table1", cfg.attacks);
    } else if (arg == "--out") {
      out_path = value(i);
    } else if (arg == "--results-out") {
      results_path = value(i);
    } else if (arg == "--resume") {
      resume_path = value(i);
    } else if (arg == "--trace") {
      cfg.trace = true;
    } else if (arg == "--trace-out") {
      trace_path = value(i);
      cfg.trace = true;
    } else if (arg == "--trace-jsonl-out") {
      trace_jsonl_path = value(i);
      cfg.trace = true;
    } else if (arg == "--metrics-out") {
      metrics_path = value(i);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (cfg.rounds <= 0 || cfg.duration_ms <= 0) {
    std::fprintf(stderr, "--rounds and --duration-ms must be positive\n");
    return 2;
  }
  if (!resume_path.empty() && cfg.trace) {
    std::fprintf(stderr,
                 "--resume cannot be combined with tracing: event traces are "
                 "not journaled,\nso a resumed traced campaign would be "
                 "missing the completed cells' traces\n");
    return 2;
  }

  // Preflight every output path BEFORE the campaign runs: a typo'd directory
  // or read-only target should fail in milliseconds, not after hours of
  // simulation. Append mode probes writability without clobbering whatever
  // the file currently holds; a path the probe had to create is removed
  // again so a failed later stage leaves no empty stub behind.
  for (const std::string* path :
       {&out_path, &results_path, &trace_path, &trace_jsonl_path,
        &metrics_path, &resume_path}) {
    if (path->empty()) continue;
    std::FILE* probe_existing = std::fopen(path->c_str(), "rb");
    const bool existed = probe_existing != nullptr;
    if (probe_existing) std::fclose(probe_existing);
    std::FILE* probe = std::fopen(path->c_str(), "ab");
    if (!probe) {
      std::fprintf(stderr, "cannot write output path %s: %s\n", path->c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::fclose(probe);
    if (!existed) std::remove(path->c_str());
  }

  const std::size_t cell_count = sim::expand_cells(cfg).size();
  std::printf("campaign: %zu cells (%zu kinds x %zu attacks x %zu densities x "
              "%d rounds), %d thread(s), %lld ms each\n",
              cell_count, cfg.kinds.size(), cfg.attacks.size(),
              cfg.densities_vpm.size(), cfg.rounds, cfg.threads,
              static_cast<long long>(cfg.duration_ms));

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<sim::CellResult> results =
      resume_path.empty() ? sim::run_campaign(cfg)
                          : sim::run_campaign_resumable(cfg, resume_path);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  std::printf("\n%-18s %-8s %-7s %-12s %-11s %-10s %-8s\n", "intersection",
              "attack", "vpm", "throughput", "crossing_s", "detect_ms",
              "false+");
  for (const sim::CellAggregate& a : sim::aggregate(cfg, results)) {
    std::printf("%-18s %-8s %-7.0f %-12.1f %-11.1f %-10.0f %-8d\n",
                intersection_name(a.kind), a.attack.c_str(), a.vpm,
                a.mean_throughput_vpm, a.mean_crossing_ms / 1000.0,
                a.mean_detection_ms, a.false_alarm_evacuations);
  }
  std::printf("\n%zu runs in %.2f s wall clock (%.2f s simulated per run)\n",
              results.size(), wall_s,
              static_cast<double>(cfg.duration_ms) / 1000.0);

  {
    std::ofstream out(out_path, std::ios::trunc);
    out << sim::campaign_json(cfg, results, wall_s);
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  if (!results_path.empty()) {
    std::ofstream out(results_path, std::ios::trunc);
    out << sim::campaign_results_json(cfg, results);
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", results_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", results_path.c_str());
  }
  const auto write_file = [](const std::string& path,
                             const std::string& content) {
    std::ofstream out(path, std::ios::trunc);
    out << content;
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  };
  if (!trace_path.empty() &&
      !write_file(trace_path, sim::campaign_trace_json(results))) {
    return 1;
  }
  if (!trace_jsonl_path.empty() &&
      !write_file(trace_jsonl_path, sim::campaign_trace_jsonl(results))) {
    return 1;
  }
  if (!metrics_path.empty() &&
      !write_file(metrics_path, sim::campaign_metrics_json(cfg, results))) {
    return 1;
  }
  return 0;
}
