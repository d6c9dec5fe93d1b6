// Sensor-query equivalence: World::sense_around scans the world's roster of
// live vehicles (ascending id) and must answer exactly what a brute-force
// scan over every vehicle ever spawned would. A test-local quadratic oracle
// is checked against the world at fixed probes every 5 s through each
// golden-trace scenario. A second suite checks the cached ground truth that
// sensing reports: after every step, and right after a mid-run checkpoint
// restore, it equals a recomputation from the vehicle's kinematic state. (The
// other indexed sweeps — car-following, gap audit, broadcast range scan — are
// locked by the trace-golden digests, which fold their outcomes.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/world.h"

namespace nwade::sim {
namespace {

// The four golden-trace scenarios (tests/sim/trace_golden_test.cpp) — same
// kinds, densities, seeds, and attack settings, so this suite certifies
// equivalence exactly where the digest locks watch for drift.
ScenarioConfig golden(traffic::IntersectionKind kind, double vpm,
                      std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.intersection.kind = kind;
  cfg.vehicles_per_minute = vpm;
  cfg.duration_ms = 120'000;
  cfg.seed = seed;
  return cfg;
}

std::vector<std::pair<std::string, ScenarioConfig>> golden_scenarios() {
  std::vector<std::pair<std::string, ScenarioConfig>> out;
  out.emplace_back("BenignCross4",
                   golden(traffic::IntersectionKind::kCross4, 80, 1));
  out.emplace_back("DenseCross4",
                   golden(traffic::IntersectionKind::kCross4, 120, 7));
  {
    ScenarioConfig cfg = golden(traffic::IntersectionKind::kRoundabout3, 60, 3);
    cfg.legacy_fraction = 0.25;  // exercises the car-following lookup
    out.emplace_back("MixedTrafficRoundabout", cfg);
  }
  {
    ScenarioConfig cfg = golden(traffic::IntersectionKind::kCross4, 80, 5);
    cfg.attack = protocol::AttackSetting{"deviation", 1, false, 0, 0};
    out.emplace_back("DeviationAttackCross4", cfg);
  }
  return out;
}

// %a renders doubles exactly (hex float), so equality means bit-identical.
std::string render(const std::vector<protocol::Observation>& obs) {
  std::string out;
  char buf[256];
  for (const auto& o : obs) {
    std::snprintf(buf, sizeof(buf),
                  "[id=%llu b=%u m=%u c=%u len=%a pos=(%a,%a) v=%a h=%a]",
                  static_cast<unsigned long long>(o.id.value), o.traits.brand,
                  o.traits.model, o.traits.color, o.traits.length_m,
                  o.status.position.x, o.status.position.y,
                  o.status.speed_mps, o.status.heading_rad);
    out += buf;
  }
  return out;
}

// The brute-force sense: every live vehicle in ascending id order, managed
// first, then legacy, under the exact predicate World::sense_around applies
// to its roster. Managed ground truth comes through vehicle(id); legacy
// vehicles are reachable only through observe(id), over the scenario's id
// range 1..arrival_count.
std::vector<protocol::Observation> oracle_sense(World& world, geom::Vec2 center,
                                                double radius) {
  std::vector<protocol::Observation> out;
  for (const VehicleId id : world.vehicle_ids()) {
    const protocol::VehicleNode* v = world.vehicle(id);
    if (v->exited()) continue;
    // Staged vehicles (no plan, not yet moving) are invisible.
    if (!v->has_plan() && v->progress_s() <= 0.5) continue;
    if (v->position().distance_to(center) > radius) continue;
    out.push_back(protocol::Observation{id, v->traits(), v->ground_truth()});
  }
  const auto managed = world.vehicle_ids();
  const std::size_t arrivals = World::arrival_count(world.config());
  for (std::uint64_t raw = 1; raw <= arrivals; ++raw) {
    const VehicleId id{raw};
    if (std::binary_search(managed.begin(), managed.end(), id)) continue;
    const auto obs = world.observe(id);
    if (!obs || obs->status.position.distance_to(center) > radius) continue;
    out.push_back(*obs);
  }
  return out;
}

TEST(WorldEquivalence, QuadraticAndIndexedRunsLockStep) {
  // Probes over the staging approaches, the conflict core, and a far point
  // whose disc exceeds the occupied area.
  const struct {
    geom::Vec2 center;
    double radius;
  } probes[] = {
      {{0.0, 0.0}, 20.0},   {{0.0, 0.0}, 45.0},  {{32.0, 0.0}, 45.0},
      {{0.0, -64.0}, 30.0}, {{-40.0, 40.0}, 120.0},
  };

  for (const auto& [name, cfg] : golden_scenarios()) {
    SCOPED_TRACE(name);
    World world(cfg);
    int observed = 0;
    for (Tick t = 5'000; t <= cfg.duration_ms; t += 5'000) {
      world.run_until(t);
      for (const auto& p : probes) {
        const auto indexed = world.sense_around(p.center, p.radius, VehicleId{});
        observed += static_cast<int>(indexed.size());
        ASSERT_EQ(render(oracle_sense(world, p.center, p.radius)),
                  render(indexed))
            << name << " sense_around mismatch at t=" << t << " center=("
            << p.center.x << "," << p.center.y << ") r=" << p.radius;
      }
    }
    EXPECT_GT(observed, 0);  // the probes actually saw traffic
  }
}

// The ground truth a vehicle should report, rebuilt from its route and its
// kinematic state the way VehicleNode computes it.
traffic::VehicleStatus recomputed_truth(const World& world,
                                        const protocol::VehicleNode& v) {
  const geom::Path& path = world.intersection().route(v.route_id()).path;
  const double s = v.progress_s();
  traffic::VehicleStatus st;
  st.position = path.point_at(s);
  if (v.lateral_offset_m() != 0.0) {
    st.position = st.position + path.tangent_at(s).perp() * v.lateral_offset_m();
  }
  st.speed_mps = v.speed_mps();
  st.heading_rad = path.heading_at(s);
  return st;
}

std::string render(const traffic::VehicleStatus& st) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "pos=(%a,%a) v=%a h=%a", st.position.x,
                st.position.y, st.speed_mps, st.heading_rad);
  return buf;
}

/// Checks every live vehicle's cached ground truth (and position()) against
/// the recomputation; counts vehicles checked and those off the centreline.
struct TruthCheck {
  int checked{0};
  int off_centreline{0};

  void operator()(World& world, const char* when) {
    for (const VehicleId id : world.vehicle_ids()) {
      const protocol::VehicleNode* v = world.vehicle(id);
      if (v->exited()) continue;
      const std::string want = render(recomputed_truth(world, *v));
      ASSERT_EQ(want, render(v->ground_truth()))
          << "vehicle " << id.value << " " << when << " t=" << world.now();
      ASSERT_EQ(want, render(traffic::VehicleStatus{
                          v->position(), v->ground_truth().speed_mps,
                          v->ground_truth().heading_rad}))
          << "vehicle " << id.value << " position() " << when;
      ++checked;
      off_centreline += v->lateral_offset_m() != 0.0 ? 1 : 0;
    }
  }
};

TEST(WorldEquivalence, CachedGroundTruthMatchesKinematicsEveryStep) {
  auto scenarios = golden_scenarios();
  {
    // Degraded mode: vehicle 1 is partitioned from the IM, waits on the
    // shoulder and crosses on its own sensors (tests/sim/chaos_test.cpp).
    ScenarioConfig cfg = golden(traffic::IntersectionKind::kCross4, 12, 4);
    cfg.duration_ms = 150'000;
    net::LinkRule to_v1;
    to_v1.from = kImNodeId;
    to_v1.to = vehicle_node(VehicleId{1});
    net::LinkRule from_v1;
    from_v1.from = vehicle_node(VehicleId{1});
    from_v1.to = kImNodeId;
    cfg.network.fault.link_rules = {to_v1, from_v1};
    scenarios.emplace_back("DegradedPartition", cfg);
  }
  {
    // A malicious IM plus a deviator: self-evacuating vehicles pull onto the
    // shoulder.
    ScenarioConfig cfg = golden(traffic::IntersectionKind::kCross4, 60, 2);
    cfg.attack = protocol::attack_setting_by_name("IM_V1");
    scenarios.emplace_back("ImAttackCross4", cfg);
  }

  for (const auto& [name, cfg] : scenarios) {
    SCOPED_TRACE(name);
    TruthCheck check;
    auto world = std::make_unique<World>(cfg);
    World* current = world.get();
    const auto listen = [&](Tick) { check(*current, "after step"); };
    world->set_step_listener(listen);
    world->run_until(cfg.duration_ms / 2);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());

    std::string error;
    auto restored = World::checkpoint_restore(world->checkpoint_save(), &error);
    ASSERT_NE(restored, nullptr) << error;
    current = restored.get();
    check(*restored, "after restore");
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    restored->set_step_listener(listen);
    restored->run_until(cfg.duration_ms);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());

    EXPECT_GT(check.checked, 1000);
    if (name == "DegradedPartition" || name == "ImAttackCross4") {
      EXPECT_GT(check.off_centreline, 0);  // lateral offsets were exercised
    }
  }
}

}  // namespace
}  // namespace nwade::sim
