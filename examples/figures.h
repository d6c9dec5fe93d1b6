// The paper's evaluation as campaign presets (`campaign --figure NAME`).
//
// Each preset is a fixed list of labelled sim::CampaignConfigs, run through
// sim::run_campaign, and one render function that prints the table the
// paper plots. Every render also prints one `shape <target>: held|MISSED`
// line per DESIGN.md §3 shape target it covers; a missed gated target makes
// the CLI exit 1.
#pragma once

#include <cstdint>
#include <string>

#include "util/types.h"

namespace nwade::figures {

/// The campaign knobs every constituent campaign of a preset shares. Round
/// r of every matrix point runs seed base_seed + r (the engine's scheme).
struct Options {
  int rounds{5};
  std::uint64_t base_seed{1};
  Duration duration_ms{100'000};
  int threads{1};
};

/// True when `name` names a preset or is "all".
bool known(const std::string& name);

/// The accepted names, space-separated, for diagnostics.
std::string names();

/// Runs preset `name` ("all" = every preset in order) and prints its
/// tables. A non-empty `out_path` receives one JSON object mapping each
/// constituent campaign's label to its campaign_results_json. Returns the
/// exit code: 1 when a gated shape target missed or the JSON could not be
/// written, else 0.
int run(const std::string& name, const Options& options,
        const std::string& out_path);

}  // namespace nwade::figures
