// Proves the indexed reservation tables behavior-preserving, at two levels:
//  * IntervalTable: a long random stream of inserts, owner erases,
//    compactions and queries, each query checked against a linear sweep
//    over intervals() — the O(n) scan the index replaced.
//  * ReservationScheduler: dense arrival streams interleaved with the IM's
//    release/reschedule/recovery operations must only ever issue plans that
//    find_plan_conflicts accepts, which is what every receiving vehicle
//    checks (Algorithm 1).
#include <gtest/gtest.h>

#include <map>

#include "aim/interval_table.h"
#include "aim/scheduler.h"
#include "traffic/arrivals.h"
#include "util/rng.h"

namespace nwade::aim {
namespace {

using traffic::ArrivalGenerator;
using traffic::Intersection;
using traffic::IntersectionConfig;
using traffic::IntersectionKind;

/// Latest end among intervals strictly overlapping [begin, end), by sweep.
std::optional<Tick> linear_latest_blocking_end(const IntervalTable& table, Tick begin,
                                               Tick end) {
  std::optional<Tick> max_end;
  for (const IntervalTable::Interval& r : table.intervals()) {
    if (begin < r.end && r.begin < end && (!max_end || r.end > *max_end)) max_end = r.end;
  }
  return max_end;
}

TEST(IntervalTableProperty, RandomOperationsMatchLinearSweep) {
  Rng rng(20260);
  IntervalTable table;
  Tick horizon = 0;  // drifts forward like sim time
  int queries = 0;
  for (int op = 0; op < 12'000; ++op) {
    horizon += static_cast<Tick>(rng.uniform_int(0, 40));
    const std::int64_t kind = rng.uniform_int(0, 99);
    if (kind < 45) {
      const Tick begin = horizon + static_cast<Tick>(rng.uniform_int(-2'000, 8'000));
      const Tick len = static_cast<Tick>(rng.uniform_int(0, 3'000));
      table.insert({begin, begin + len, VehicleId{static_cast<std::uint64_t>(rng.uniform_int(1, 300))}});
    } else if (kind < 52) {
      table.erase_owner(VehicleId{static_cast<std::uint64_t>(rng.uniform_int(1, 300))});
    } else if (kind < 55) {
      table.erase_end_before(horizon - static_cast<Tick>(rng.uniform_int(0, 5'000)));
    } else {
      const Tick begin = horizon + static_cast<Tick>(rng.uniform_int(-3'000, 9'000));
      const Tick end = begin + static_cast<Tick>(rng.uniform_int(0, 4'000));
      ASSERT_EQ(table.latest_blocking_end(begin, end),
                linear_latest_blocking_end(table, begin, end))
          << "op " << op << " query [" << begin << ", " << end << ")";
      ++queries;
    }
  }
  EXPECT_GT(queries, 4'000);
  EXPECT_GT(table.size(), 0u);
}

Intersection make_ix(IntersectionKind kind) {
  IntersectionConfig cfg;
  cfg.kind = kind;
  return Intersection::build(cfg);
}

void expect_conflict_free(const Intersection& ix, const std::vector<const TravelPlan*>& plans,
                          const char* what) {
  const auto conflicts = find_plan_conflicts(ix, plans, 500);
  EXPECT_TRUE(conflicts.empty())
      << what << ": " << conflicts.size() << " conflicts, first between vehicles "
      << conflicts.front().first.value << " and " << conflicts.front().second.value;
}

/// Drives the indexed scheduler through a dense arrival stream interleaved
/// with the release/reschedule operations the IM performs; every plan still
/// live at the end, and every recovery plan, must be mutually conflict-free.
void run_equivalence(IntersectionKind kind, double vpm, Duration duration_ms,
                     std::uint64_t seed) {
  const Intersection ix = make_ix(kind);
  ReservationScheduler scheduler(ix);

  ArrivalGenerator gen(ix, vpm, Rng(seed));
  const auto arrivals = gen.generate(duration_ms);
  ASSERT_FALSE(arrivals.empty());

  std::vector<std::pair<VehicleId, int>> scheduled;  // (vehicle, route)
  std::map<VehicleId, TravelPlan> live;              // latest issued plan
  std::uint64_t next_id = 1;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto& a = arrivals[i];
    const VehicleId id{next_id++};
    live[id] = scheduler.schedule(id, a.route_id, a.traits, a.time, a.initial_speed_mps);
    scheduled.emplace_back(id, a.route_id);

    // Interleave the IM's maintenance ops so the check also covers erase +
    // compaction paths, not just inserts.
    if (i % 17 == 16) {
      const auto& victim = scheduled[i / 2];
      scheduler.release_vehicle(victim.first);
      live.erase(victim.first);
    }
    if (i % 29 == 28) scheduler.release_before(a.time - 60'000);
    if (i % 23 == 22) {
      const auto& v = scheduled[i / 3];
      live[v.first] = scheduler.reschedule(v.first, v.second, arrivals[i / 3].traits,
                                           a.time + 500, 5.0);
    }
  }
  std::vector<const TravelPlan*> issued;
  for (const auto& [id, plan] : live) issued.push_back(&plan);
  expect_conflict_free(ix, issued, "issued plans");

  // Recovery replans every survivor from scratch against rebuilt tables.
  std::vector<ActiveVehicle> active;
  for (std::size_t i = 0; i < std::min<std::size_t>(scheduled.size(), 12); ++i) {
    ActiveVehicle v;
    v.id = scheduled[i].first;
    v.route_id = scheduled[i].second;
    v.s = 3.0 * static_cast<double>(i);
    v.v_mps = 6.0;
    active.push_back(v);
  }
  const auto recovery = scheduler.plan_recovery(active, arrivals.back().time + 10'000);
  ASSERT_EQ(recovery.size(), active.size());
  std::vector<const TravelPlan*> recovered;
  for (const TravelPlan& p : recovery) recovered.push_back(&p);
  expect_conflict_free(ix, recovered, "recovery plans");
}

TEST(SchedulerEquivalence, DenseCross4) {
  run_equivalence(IntersectionKind::kCross4, 120, 5 * 60'000, 11);
}

TEST(SchedulerEquivalence, DenseRoundabout3) {
  run_equivalence(IntersectionKind::kRoundabout3, 120, 3 * 60'000, 22);
}

TEST(SchedulerEquivalence, Irregular5) {
  run_equivalence(IntersectionKind::kIrregular5, 90, 3 * 60'000, 33);
}

TEST(SchedulerEquivalence, Ddi4) {
  run_equivalence(IntersectionKind::kDdi4, 100, 3 * 60'000, 44);
}

}  // namespace
}  // namespace nwade::aim
