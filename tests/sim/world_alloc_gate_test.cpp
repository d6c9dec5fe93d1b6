// Allocation gate for the serial world-step hot paths (ctest label: alloc).
//
// Meters the calling thread's heap-allocation counter (util/alloc_stats)
// around two public calls, once the world is warm:
//
//  * World::sense_around_into — the sensor sweep every due watcher runs
//    over the world's live roster, into an already-grown buffer;
//  * VehicleNode::step of a vehicle following its plan — the physics of the
//    common case.
//
// Both must stay at exactly zero. The protocol actions around them (reports,
// block requests, exits) allocate by design and are not metered. Only
// measured in -DNWADE_COUNT_ALLOCS=ON builds; the default build skips.
#include <gtest/gtest.h>

#include <vector>

#include "sim/world.h"
#include "util/alloc_stats.h"

namespace nwade::sim {
namespace {

#define REQUIRE_COUNTING()                                                  \
  if (!util::alloc_counting_enabled()) {                                    \
    GTEST_SKIP() << "build with -DNWADE_COUNT_ALLOCS=ON to arm this gate";  \
  }

ScenarioConfig scenario(std::uint64_t seed, Duration duration) {
  ScenarioConfig cfg;
  cfg.intersection.kind = traffic::IntersectionKind::kCross4;
  cfg.vehicles_per_minute = 80;
  cfg.duration_ms = duration;
  cfg.seed = seed;
  return cfg;
}

/// Live managed vehicles, in id order.
std::vector<protocol::VehicleNode*> live_vehicles(World& world) {
  std::vector<protocol::VehicleNode*> out;
  for (const VehicleId id : world.vehicle_ids()) {
    protocol::VehicleNode* v = world.vehicle(id);
    if (!v->exited()) out.push_back(v);
  }
  return out;
}

/// Runs `world` from `from` to its end one step at a time; after every step
/// meters each live vehicle's watch-radius sensor sweep. Returns the number
/// of sweeps metered.
int gate_sense_scans(World& world, Tick from) {
  const ScenarioConfig& cfg = world.config();
  const double radius = cfg.nwade.sensing_radius_m;
  std::vector<protocol::Observation> out;
  int scans = 0;
  for (Tick t = from + cfg.step_ms; t <= cfg.duration_ms; t += cfg.step_ms) {
    world.run_until(t);
    const auto vehicles = live_vehicles(world);
    // Warm for this step: an all-covering query grows the buffer to the
    // whole fleet.
    world.sense_around_into({0.0, 0.0}, 1e9, VehicleId{}, out);
    const std::uint64_t before = util::thread_alloc_count();
    for (const protocol::VehicleNode* v : vehicles) {
      world.sense_around_into(v->position(), radius, v->id(), out);
    }
    EXPECT_EQ(util::thread_alloc_count() - before, 0u)
        << "sensor sweep allocated at t=" << t;
    scans += static_cast<int>(vehicles.size());
  }
  return scans;
}

TEST(WorldAllocGate, SenseAroundIntoIsAllocationFreeOnceWarm) {
  REQUIRE_COUNTING();
  World world(scenario(1, 90'000));
  world.run_until(30'000);
  EXPECT_GT(gate_sense_scans(world, 30'000), 1000);
}

TEST(WorldAllocGate, SenseAroundIntoStaysCleanUnderDeviationAttack) {
  REQUIRE_COUNTING();
  ScenarioConfig cfg = scenario(5, 80'000);
  cfg.attack = protocol::AttackSetting{"deviation", 1, false, 0, 0};
  World world(cfg);
  world.run_until(40'000);
  EXPECT_GT(gate_sense_scans(world, 40'000), 1000);
}

TEST(WorldAllocGate, PlanFollowingStepIsAllocationFree) {
  REQUIRE_COUNTING();
  const ScenarioConfig cfg = scenario(1, 90'000);
  World world(cfg);
  world.run_until(30'000);
  int metered = 0;
  for (Tick t = 30'000 + cfg.step_ms; t <= cfg.duration_ms; t += cfg.step_ms) {
    world.run_until(t);
    for (protocol::VehicleNode* v : live_vehicles(world)) {
      // A travelling vehicle with a plan pins its kinematics to the plan at
      // `now`, so re-stepping it at the tick the world just stepped is
      // idempotent. Keep clear of the exit so the step cannot retire it.
      if (v->state() != protocol::VehicleState::kTraveling || !v->has_plan() ||
          v->is_malicious()) {
        continue;
      }
      const double length =
          world.intersection().route(v->route_id()).path.length();
      if (v->progress_s() > length - 50.0) continue;
      const std::uint64_t before = util::thread_alloc_count();
      v->step(t, cfg.step_ms);
      ASSERT_EQ(util::thread_alloc_count() - before, 0u)
          << "vehicle " << v->id().value << " step allocated at t=" << t;
      ++metered;
    }
  }
  EXPECT_GT(metered, 1000);
}

}  // namespace
}  // namespace nwade::sim
