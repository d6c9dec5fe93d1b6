#include "sim/world.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "util/log.h"

namespace nwade::sim {

using protocol::VehicleAttackProfile;
using protocol::VehicleRole;

World::World(ScenarioConfig config) : World(std::move(config), -1) {}

World::World(ScenarioConfig config, Tick resume_t)
    : config_(std::move(config)),
      intersection_(traffic::Intersection::build(config_.intersection)) {
  // Resume mode replays construction exactly, except that events which had
  // already fired by the checkpoint burn their sequence number instead of
  // being scheduled (see the private-constructor comment in world.h).
  const bool resume = resume_t >= 0;
  const auto schedule_or_burn = [&](Tick when, net::EventQueue::Callback fn) {
    if (resume && when <= resume_t) {
      queue_.skip_seq();
    } else {
      queue_.schedule_at(when, std::move(fn));
    }
  };
  tracer_.set_enabled(config_.trace_enabled);
  steps_counter_ = registry_.counter("sim.steps");

  net::NetworkConfig net_cfg = config_.network;
  net_cfg.seed = config_.seed ^ 0x6e657477ULL;
  net_cfg.registry = &registry_;
  net_cfg.tracer = &tracer_;
  network_ = std::make_unique<net::Network>(queue_, clock_, net_cfg);

  Rng rng(config_.seed);
  switch (config_.signer) {
    case SignerKind::kHmac: {
      Bytes key(32);
      for (auto& b : key) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      signer_ = std::make_unique<crypto::HmacSigner>(std::move(key));
      break;
    }
    case SignerKind::kRsa1024:
      signer_ = crypto::RsaSigner::generate(rng, 1024);
      break;
    case SignerKind::kRsa2048:
      signer_ = crypto::RsaSigner::generate(rng, 2048);
      break;
  }

  im_verifier_ = signer_->verifier_with_cache(verify_cache_);

  // Arrival schedule + attacker role assignment.
  traffic::ArrivalGenerator gen(intersection_, config_.vehicles_per_minute,
                                rng.fork(1));
  auto arrivals = gen.generate(config_.duration_ms);
  assign_attack_roles(arrivals);

  // Intersection manager.
  protocol::ImAttackProfile im_attack;
  if (config_.attack.im_malicious) {
    im_attack.mode = config_.im_attack_mode;
    im_attack.trigger_at = config_.attack_time;
  }
  protocol::ImContext im_ctx;
  im_ctx.intersection = &intersection_;
  im_ctx.config = &config_.nwade;
  im_ctx.network = network_.get();
  im_ctx.clock = &clock_;
  im_ctx.queue = &queue_;
  im_ctx.sensors = this;
  im_ctx.signer = signer_.get();
  im_ctx.metrics = &metrics_;
  im_ctx.malicious_ids = &malicious_ids_;
  im_ctx.registry = &registry_;
  im_ctx.tracer = &tracer_;
  im_ = std::make_unique<protocol::ImNode>(im_ctx, config_.scheduler, im_attack);
  network_->add_node(im_.get());
  if (resume) {
    // start()'s first window event always predates any checkpoint; the
    // restored ImNode re-arms its own pending window at the saved (when, seq).
    queue_.skip_seq();
  } else {
    im_->start();
  }

  // A fault-profile outage on the IM node is a process crash, not just a dark
  // radio: drive the crash/restart cycle so volatile state is really lost and
  // rebuilt from the durable block log on recovery.
  for (const net::Outage& outage : config_.network.fault.outages) {
    if (outage.node != kImNodeId) continue;
    schedule_or_burn(outage.from, [this] { im_->crash(clock_.now()); });
    if (outage.until < kTickMax) {
      schedule_or_burn(outage.until, [this] { im_->restart(clock_.now()); });
    }
  }

  // Schedule spawns. A configurable fraction of arrivals are legacy
  // vehicles (mixed-traffic extension); attacker roles always go to managed
  // vehicles, so role-assigned indices stay managed.
  Rng legacy_rng = rng.fork(2);
  std::uint64_t next_id = 1;
  int managed = 0;
  for (const traffic::Arrival& arrival : arrivals) {
    const VehicleId id{config_.vehicle_id_base + next_id++};
    const bool is_legacy = !attack_roles_.contains(id) &&
                           legacy_rng.chance(config_.legacy_fraction);
    if (is_legacy) {
      schedule_or_burn(arrival.time,
                       [this, arrival, id] { spawn_legacy(arrival, id); });
    } else {
      ++managed;
      schedule_or_burn(arrival.time, [this, arrival, id] { spawn(arrival, id); });
    }
  }
  metrics_.vehicles_spawned = managed;
}

World::~World() = default;

void World::assign_attack_roles(std::vector<traffic::Arrival>& arrivals) {
  const auto& attack = config_.attack;
  const int total_malicious = attack.plan_violations + attack.false_reports;
  if (total_malicious == 0) return;

  // Prefer vehicles spawning 4-16 s before the attack time: they hold plans
  // and still sit mid-approach (not yet exited) when the trigger fires.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Tick lead = config_.attack_time - arrivals[i].time;
    if (lead >= 4'000 && lead <= 16'000) candidates.push_back(i);
  }
  // Fall back to anything before the attack if the preferred window is thin.
  if (static_cast<int>(candidates.size()) < total_malicious) {
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (arrivals[i].time < config_.attack_time - 2'000 &&
          std::find(candidates.begin(), candidates.end(), i) == candidates.end()) {
        candidates.push_back(i);
      }
    }
  }

  int assigned = 0;
  for (std::size_t idx : candidates) {
    if (assigned >= total_malicious) break;
    // Ids are assigned in arrival order, offset by the shard's id base.
    const VehicleId id{config_.vehicle_id_base + idx + 1};
    VehicleAttackProfile profile;
    if (assigned < attack.plan_violations) {
      profile.role = VehicleRole::kDeviator;
      profile.trigger_at = config_.attack_time;
      profile.deviation = (assigned % 2 == 0) ? protocol::DeviationMode::kAccelerate
                                              : protocol::DeviationMode::kBrake;
    } else {
      profile.role = VehicleRole::kFalseReporter;
      profile.trigger_at = config_.attack_time + 300 * (assigned + 1);
      profile.false_report = config_.false_report_kind;
    }
    attack_roles_[id] = profile;
    malicious_ids_.insert(id);
    ++assigned;
  }
}

void World::spawn(const traffic::Arrival& arrival, VehicleId id) {
  protocol::VehicleContext ctx;
  ctx.intersection = &intersection_;
  ctx.config = &config_.nwade;
  ctx.network = network_.get();
  ctx.clock = &clock_;
  ctx.sensors = this;
  ctx.im_verifier = im_verifier_;
  ctx.metrics = &metrics_;
  ctx.malicious_ids = &malicious_ids_;
  ctx.registry = &registry_;
  ctx.tracer = &tracer_;

  VehicleAttackProfile profile;
  if (const auto it = attack_roles_.find(id); it != attack_roles_.end()) {
    profile = it->second;
  }
  auto node = std::make_unique<protocol::VehicleNode>(
      ctx, id, arrival.route_id, arrival.traits, clock_.now(), profile);
  network_->add_node(node.get());
  node->start();
  spawn_times_[id] = clock_.now();
  live_.insert(std::lower_bound(live_.begin(), live_.end(), id,
                                [](const protocol::VehicleNode* v, VehicleId x) {
                                  return v->id() < x;
                                }),
               node.get());
  vehicles_[id] = std::move(node);
}

void World::spawn_legacy(const traffic::Arrival& arrival, VehicleId id) {
  LegacyVehicle l;
  l.route_id = arrival.route_id;
  l.traits = arrival.traits;
  l.s = 0;
  // Legacy drivers cruise conservatively through unfamiliar smart junctions.
  l.cruise = std::min(arrival.initial_speed_mps,
                      0.6 * intersection_.config().limits.speed_limit_mps);
  l.v = l.cruise;
  LegacyVehicle* slot = &(legacy_[id] = l);
  spawn_times_[id] = clock_.now();
  live_legacy_.insert(std::lower_bound(live_legacy_.begin(), live_legacy_.end(),
                                       std::pair{id, slot}),
                      std::pair{id, slot});
}

void World::rebuild_rosters() {
  live_.clear();
  for (const auto& [id, v] : vehicles_) {
    if (!v->exited()) live_.push_back(v.get());
  }
  live_legacy_.clear();
  for (auto& [id, l] : legacy_) {
    if (!l.exited) live_legacy_.emplace_back(id, &l);
  }
}

void World::record_exit(const protocol::VehicleNode& v, Tick now) {
  if (!exit_log_enabled_) return;
  ExitRecord rec;
  rec.id = v.id();
  rec.route_id = v.route_id();
  rec.exit_time = now;
  rec.speed_mps = v.speed_mps();
  rec.traits = v.traits();
  rec.attack = v.attack_profile();
  exit_log_.push_back(rec);
}

void World::inject_vehicle(VehicleId id, int route_id,
                           const traffic::VehicleTraits& traits,
                           double speed_mps,
                           const protocol::VehicleAttackProfile& attack) {
  assert(!vehicles_.contains(id) && !legacy_.contains(id));
  // The ground-truth roster travels with the vehicle: a deviator stays a
  // deviator downstream (its trigger may already be in the past), and the
  // metrics classification keeps seeing it as malicious.
  if (attack.role != VehicleRole::kBenign) {
    malicious_ids_.insert(id);
    attack_roles_[id] = attack;
  }
  traffic::Arrival arrival;
  arrival.time = clock_.now();
  arrival.route_id = route_id;
  arrival.traits = traits;
  arrival.initial_speed_mps = speed_mps;
  metrics_.vehicles_spawned++;
  spawn(arrival, id);
  // Handoffs enter at their carried exit speed (spawn() starts at rest),
  // clamped to this intersection's limit.
  vehicles_.at(id)->seed_speed(
      std::min(speed_mps, intersection_.config().limits.speed_limit_mps));
}

void World::inject_legacy(VehicleId id, int route_id,
                          const traffic::VehicleTraits& traits,
                          double speed_mps) {
  assert(!vehicles_.contains(id) && !legacy_.contains(id));
  traffic::Arrival arrival;
  arrival.time = clock_.now();
  arrival.route_id = route_id;
  arrival.traits = traits;
  arrival.initial_speed_mps = speed_mps;
  spawn_legacy(arrival, id);
}

bool World::import_blacklist(VehicleId suspect) {
  return im_->import_blacklist(suspect, clock_.now());
}

std::size_t World::arrival_count(const ScenarioConfig& config) {
  // Mirrors the constructor's arrival draw exactly: Rng::fork derives the
  // child stream from the seed alone (not the parent's position), so the
  // signer's draws in between cannot perturb it.
  const traffic::Intersection intersection =
      traffic::Intersection::build(config.intersection);
  traffic::ArrivalGenerator gen(intersection, config.vehicles_per_minute,
                                Rng(config.seed).fork(1));
  return gen.generate(config.duration_ms).size();
}

geom::Vec2 World::legacy_position(const LegacyVehicle& l) const {
  return intersection_.route(l.route_id).path.point_at(l.s);
}

void World::step_legacy(Duration dt_ms) {
  if (live_legacy_.empty()) return;
  const double dt = static_cast<double>(dt_ms) / 1000.0;
  const auto& limits = intersection_.config().limits;
  // Managed vehicles do not move during step_legacy, so one snapshot serves
  // every legacy vehicle this step.
  follow_grid_.clear();
  follow_grid_.reserve(live_.size());
  for (const protocol::VehicleNode* v : live_) follow_grid_.insert(v->position());
  // Legacy positions advance during the loop below (each entry moves as it
  // is stepped), so this snapshot can lag a neighbour by one step — at most
  // ~1.3 m at legacy cruise speeds. The query radius absorbs that; the
  // predicate always reads the live fields through the roster's pointers.
  legacy_follow_grid_.clear();
  legacy_follow_grid_.reserve(live_legacy_.size());
  for (const auto& [oid, o] : live_legacy_) {
    legacy_follow_grid_.insert(legacy_position(*o));
  }
  for (const auto& [id, lp] : live_legacy_) {
    LegacyVehicle& l = *lp;
    if (l.exited) continue;
    // Simple car-following: brake for the nearest vehicle ahead on the same
    // route. Only gaps below the 45 m car-following horizon influence the
    // speed target, and a same-route vehicle ds metres ahead along the path
    // lies at most ds + |lateral offset| metres away in the plane (chord <=
    // arc), so a 55 m disc around the legacy vehicle contains every vehicle
    // that could matter; one the disc misses has gap >= 45 and changes
    // neither branch of the target computation.
    double gap = 1e9;
    follow_scratch_.clear();
    follow_grid_.query_candidates(legacy_position(l), 55.0, follow_scratch_);
    for (const std::size_t idx : follow_scratch_) {
      const protocol::VehicleNode* v = live_[idx];
      if (v->exited() || v->route_id() != l.route_id) continue;
      const double ds = v->progress_s() - l.s;
      if (ds > 0.1) gap = std::min(gap, ds);
    }
    // Legacy-vs-legacy. Earlier roster entries have already moved this step;
    // the predicate reads their live fields and only folds them into a min,
    // which no candidate ordering can change. A neighbour whose ds could
    // fall below the 45 m horizon lies within 45 m in the plane at snapshot
    // time (snapshots only trail live positions), well inside the disc.
    follow_scratch_.clear();
    legacy_follow_grid_.query_candidates(legacy_position(l), 55.0,
                                         follow_scratch_);
    for (const std::size_t idx : follow_scratch_) {
      const auto& [oid, o] = live_legacy_[idx];
      if (oid == id || o->exited || o->route_id != l.route_id) continue;
      const double ds = o->s - l.s;
      if (ds > 0.1) gap = std::min(gap, ds);
    }
    double target = l.cruise;
    if (gap < 45.0) target = std::min(target, 0.35 * std::max(0.0, gap - 10.0));
    if (l.v < target) {
      l.v = std::min(l.v + limits.max_accel_mps2 * dt, target);
    } else {
      l.v = std::max(l.v - limits.max_decel_mps2 * dt, target);
    }
    l.s += l.v * dt;
    if (l.s >= intersection_.route(l.route_id).path.length() - 0.05) {
      l.exited = true;
      if (exit_log_enabled_) {
        ExitRecord rec;
        rec.id = id;
        rec.route_id = l.route_id;
        rec.exit_time = clock_.now();
        rec.speed_mps = l.v;
        rec.traits = l.traits;
        rec.legacy = true;
        exit_log_.push_back(rec);
      }
    }
  }
  std::erase_if(live_legacy_, [](const auto& e) { return e.second->exited; });
}

void World::step_world(Tick now) {
  const Duration dt = config_.step_ms;
  const auto watch_every =
      std::max<Tick>(1, config_.nwade.watch_interval_ms / config_.step_ms);
  const Tick step_index = now / config_.step_ms;

  // Per-phase profiling: one 'X' span per phase per step, sim-duration 0
  // (nothing inside a step advances sim time) with the wall cost in the
  // explicitly non-deterministic wall_us argument. Wall clocks are read only
  // when tracing, so disabled runs pay one relaxed load per step.
  const bool tracing = util::trace::tracing_active() && tracer_.enabled();
  using wall_clock = std::chrono::steady_clock;
  wall_clock::time_point t0;
  const auto phase_begin = [&] {
    if (tracing) t0 = wall_clock::now();
  };
  const auto phase_end = [&](const char* name, std::int64_t items) {
    if (!tracing) return;
    const double wall_us =
        std::chrono::duration<double, std::micro>(wall_clock::now() - t0)
            .count();
    tracer_.complete("sim", name, now, now, wall_us, "items", items);
  };

  phase_begin();
  step_legacy(dt);
  phase_end("phase.legacy", static_cast<std::int64_t>(legacy_.size()));

  // Phase 1: physics for everyone, in id order, so watchers later observe a
  // consistent time-t snapshot.
  phase_begin();
  for (protocol::VehicleNode* vehicle : live_) {
    if (vehicle->exited()) continue;
    vehicle->step(now, dt);
    if (vehicle->exited()) {
      network_->remove_node(vehicle->node_id());
      crossing_times_.push_back(now - spawn_times_[vehicle->id()]);
      record_exit(*vehicle, now);
    }
  }
  std::erase_if(live_, [](const protocol::VehicleNode* v) { return v->exited(); });
  phase_end("phase.physics", static_cast<std::int64_t>(vehicles_.size()));

  // Phase 2: the neighbourhood watch, staggered to avoid synchronized bursts.
  phase_begin();
  for (protocol::VehicleNode* vehicle : live_) {
    if (vehicle->exited()) continue;
    if ((step_index + static_cast<Tick>(vehicle->id().value)) % watch_every == 0) {
      vehicle->watch(now);
    }
  }
  phase_end("phase.watch", static_cast<std::int64_t>(vehicles_.size()));

  // Ground-truth proximity audit once per simulated second (managed and
  // legacy vehicles alike; the staging area is excluded).
  if (now % 1000 == 0) {
    phase_begin();
    const std::size_t audited = step_gap_audit();
    phase_end("phase.gap_audit", static_cast<std::int64_t>(audited));
  }
}

std::size_t World::step_gap_audit() {
  audit_probes_.clear();
  audit_probes_.reserve(live_.size() + live_legacy_.size());
  for (const protocol::VehicleNode* v : live_) {
    // Degraded vehicles (moving without a plan) are audited too: their
    // sensor-gated crossing must not collide with managed traffic.
    if (!v->exited() && (v->has_plan() || v->progress_s() > 0.5)) {
      // A stationary vehicle pulled fully onto the shoulder outside the
      // core (a waiting degraded vehicle, a parked self-evacuee) is out
      // of traffic: near the junction mouth the shoulder inevitably runs
      // close to neighbouring lanes, so other routes' traffic may pass it
      // within lane width. Same-route traffic and anything inside the
      // core still audit against it at full strictness.
      const auto& route = intersection_.route(v->route_id());
      const bool parked_off =
          v->speed_mps() < 0.5 && std::abs(v->lateral_offset_m()) >= 3.0 &&
          (v->progress_s() < route.core_begin ||
           v->progress_s() > route.core_end);
      audit_probes_.push_back(
          AuditProbe{v->position(), v->progress_s(), v->route_id(), parked_off});
    }
  }
  for (const auto& [id, l] : live_legacy_) {
    if (!l->exited) {
      audit_probes_.push_back(AuditProbe{legacy_position(*l), l->s, l->route_id});
    }
  }
  // The first 30 m of every route is the staging area at the edge of
  // the communication zone: vehicles planned in the same processing
  // window depart together from there and separate as their assigned
  // speeds diverge. Only positions past staging are audited.
  const auto violates = [](const AuditProbe& a, const AuditProbe& b) {
    if (a.s < 30.0 && b.s < 30.0) return false;
    if ((a.parked_off_lane || b.parked_off_lane) && a.route != b.route) {
      return false;
    }
    return a.pos.distance_to(b.pos) < 1.5;
  };
  // A fresh 2 m grid holding only this audit's probes visits every pair
  // closer than 2 m exactly once — a superset of the audited < 1.5 m pairs —
  // and the count is order-independent.
  geom::SpatialHash audit_grid(2.0);
  audit_grid.reserve(audit_probes_.size());
  for (const AuditProbe& p : audit_probes_) audit_grid.insert(p.pos);
  audit_grid.for_each_near_pair([&](std::size_t i, std::size_t j) {
    if (violates(audit_probes_[i], audit_probes_[j])) ++gap_violations_;
  });
  return audit_probes_.size();
}

void World::run_until(Tick t) {
  const bool tracing = util::trace::tracing_active() && tracer_.enabled();
  while (stepped_until_ < t) {
    stepped_until_ += config_.step_ms;
    if (tracing) {
      using wall_clock = std::chrono::steady_clock;
      const auto t0 = wall_clock::now();
      queue_.run_until(stepped_until_, clock_);
      const double wall_us =
          std::chrono::duration<double, std::micro>(wall_clock::now() - t0)
              .count();
      tracer_.complete("sim", "phase.events", stepped_until_, stepped_until_,
                       wall_us);
    } else {
      queue_.run_until(stepped_until_, clock_);
    }
    step_world(stepped_until_);
    steps_counter_.inc();
    if (step_listener_) step_listener_(stepped_until_);
  }
}

RunSummary World::run() {
  run_until(config_.duration_ms);
  return summary();
}

RunSummary World::summary() const {
  RunSummary s;
  s.metrics = metrics_;
  s.net_stats = network_->stats();

  // Fold the pre-existing silos into the unified registry so one snapshot
  // carries the whole run (docs/OBSERVABILITY.md). Everything folded is an
  // integer read from sim state; the wall-clock vectors (im_package_us,
  // vehicle_verify_us) deliberately stay out so two identical seeded runs
  // produce byte-identical snapshot JSON.
  const auto gauge = [this](const char* name, std::int64_t v) {
    registry_.gauge(name).set(v);
  };
  gauge("protocol.vehicles_spawned", metrics_.vehicles_spawned);
  gauge("protocol.vehicles_exited", metrics_.vehicles_exited);
  gauge("protocol.incident_reports", metrics_.incident_reports);
  gauge("protocol.global_reports", metrics_.global_reports);
  gauge("protocol.verify_rounds", metrics_.verify_rounds);
  gauge("protocol.alarm_dismissals", metrics_.alarm_dismissals);
  gauge("protocol.evacuation_alerts", metrics_.evacuation_alerts);
  gauge("protocol.benign_self_evacuations", metrics_.benign_self_evacuations);
  gauge("protocol.false_alarm_evacuations", metrics_.false_alarm_evacuations);
  gauge("protocol.malicious_reports_recorded",
        metrics_.malicious_reports_recorded);
  gauge("protocol.blocks_published", metrics_.blocks_published);
  gauge("protocol.block_verification_failures",
        metrics_.block_verification_failures);
  gauge("protocol.plan_request_retries", metrics_.plan_request_retries);
  gauge("protocol.gap_block_requests", metrics_.gap_block_requests);
  gauge("protocol.degraded_entries", metrics_.degraded_entries);
  gauge("protocol.degraded_crossings", metrics_.degraded_crossings);
  gauge("protocol.im_crashes", metrics_.im_crashes);
  gauge("protocol.im_restarts", metrics_.im_restarts);
  gauge("protocol.im_courtesy_gaps", metrics_.im_courtesy_gaps);
  const auto event_gauge = [this](const char* name,
                                  const std::optional<Tick>& t) {
    if (t) registry_.gauge(name).set(*t);
  };
  event_gauge("protocol.event.violation_start_ms", metrics_.violation_start);
  event_gauge("protocol.event.first_true_incident_ms",
              metrics_.first_true_incident);
  event_gauge("protocol.event.deviation_confirmed_ms",
              metrics_.deviation_confirmed);
  event_gauge("protocol.event.false_incident_injected_ms",
              metrics_.false_incident_injected);
  event_gauge("protocol.event.false_incident_dismissed_ms",
              metrics_.false_incident_dismissed);
  event_gauge("protocol.event.false_global_injected_ms",
              metrics_.false_global_injected);
  event_gauge("protocol.event.false_global_detected_ms",
              metrics_.false_global_detected);
  event_gauge("protocol.event.im_conflict_injected_ms",
              metrics_.im_conflict_injected);
  event_gauge("protocol.event.im_conflict_detected_ms",
              metrics_.im_conflict_detected);
  event_gauge("protocol.event.sham_alert_detected_ms",
              metrics_.sham_alert_detected);
  const crypto::SigVerifyCache::Stats cache = verify_cache_.stats();
  gauge("crypto.sig_cache.hits", static_cast<std::int64_t>(cache.hits));
  gauge("crypto.sig_cache.misses", static_cast<std::int64_t>(cache.misses));
  gauge("crypto.sig_cache.insertions",
        static_cast<std::int64_t>(cache.insertions));
  gauge("crypto.sig_cache.evictions",
        static_cast<std::int64_t>(cache.evictions));
  s.metrics_snapshot = registry_.snapshot();
  const double minutes = ticks_to_seconds(stepped_until_ > 0 ? stepped_until_ : 1) / 60.0;
  s.throughput_vpm = metrics_.vehicles_exited / std::max(minutes, 1e-9);
  double total = 0;
  for (Duration d : crossing_times_) total += static_cast<double>(d);
  s.mean_crossing_ms =
      crossing_times_.empty() ? 0 : total / static_cast<double>(crossing_times_.size());
  int active = 0;
  for (const auto& [id, v] : vehicles_) active += v->exited() ? 0 : 1;
  s.active_at_end = active;
  s.min_ground_truth_gap_violations = gap_violations_;
  s.legacy_spawned = static_cast<int>(legacy_.size());
  for (const auto& [id, l] : legacy_) s.legacy_exited += l.exited ? 1 : 0;
  return s;
}

std::vector<protocol::Observation> World::sense_around(geom::Vec2 center,
                                                       double radius,
                                                       VehicleId exclude) const {
  std::vector<protocol::Observation> out;
  sense_around_into(center, radius, exclude, out);
  return out;
}

void World::sense_around_into(geom::Vec2 center, double radius,
                              VehicleId exclude,
                              std::vector<protocol::Observation>& out) const {
  out.clear();
  // The rosters ascend by id, so observations come out managed first, then
  // legacy, each in ascending id order. A sense can fire mid-physics, after
  // a vehicle exited but before the roster was pruned: the live filters
  // below still apply.
  for (const protocol::VehicleNode* v : live_) {
    const VehicleId id = v->id();
    if (id == exclude || v->exited()) continue;
    // Vehicles still staged at the zone edge (no plan, not yet moving) are
    // invisible; a plan-less vehicle that moves — degraded mode — must be
    // seen so watchers and the IM's unmanaged tracking can cover it.
    if (!v->has_plan() && v->progress_s() <= 0.5) continue;
    if (v->position().distance_to(center) > radius) continue;
    out.push_back(protocol::Observation{id, v->traits(), v->ground_truth()});
  }
  for (const auto& [id, lp] : live_legacy_) {
    const LegacyVehicle& l = *lp;
    if (id == exclude || l.exited) continue;
    const geom::Vec2 pos = legacy_position(l);
    if (pos.distance_to(center) > radius) continue;
    traffic::VehicleStatus st;
    st.position = pos;
    st.speed_mps = l.v;
    st.heading_rad = intersection_.route(l.route_id).path.heading_at(l.s);
    out.push_back(protocol::Observation{id, l.traits, st});
  }
}

std::optional<protocol::Observation> World::observe(VehicleId id) const {
  if (const auto it = vehicles_.find(id); it != vehicles_.end()) {
    if (it->second->exited()) return std::nullopt;
    return protocol::Observation{id, it->second->traits(),
                                 it->second->ground_truth()};
  }
  if (const auto it = legacy_.find(id); it != legacy_.end()) {
    if (it->second.exited) return std::nullopt;
    traffic::VehicleStatus st;
    st.position = legacy_position(it->second);
    st.speed_mps = it->second.v;
    st.heading_rad =
        intersection_.route(it->second.route_id).path.heading_at(it->second.s);
    return protocol::Observation{id, it->second.traits, st};
  }
  return std::nullopt;
}

protocol::VehicleNode* World::vehicle(VehicleId id) {
  const auto it = vehicles_.find(id);
  return it == vehicles_.end() ? nullptr : it->second.get();
}

std::vector<VehicleId> World::vehicle_ids() const {
  std::vector<VehicleId> out;
  out.reserve(vehicles_.size());
  for (const auto& [id, v] : vehicles_) out.push_back(id);
  return out;
}

}  // namespace nwade::sim
