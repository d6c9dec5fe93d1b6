// TelemetryStreamer determinism contract (ctest label: obs-chaos — the
// sweeps run multi-threaded Grids, so the TSan tree vets them):
// streaming is purely observational. With a fake wall clock the emitted
// frame bytes are a pure function of the scenario — byte-identical across
// grid_threads and run_until slicing — the cumulative fold
// of the metric deltas equals the end-of-run MetricsSnapshot export, and a
// checkpoint/restore splices into the stream without a seam.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/grid.h"
#include "sim/world.h"
#include "svc/frame.h"
#include "svc/sink.h"
#include "svc/streamer.h"
#include "util/wall_clock.h"

namespace nwade::svc {
namespace {

using sim::Grid;
using sim::GridConfig;
using sim::ScenarioConfig;
using sim::World;

ScenarioConfig scenario() {
  ScenarioConfig cfg;
  cfg.intersection.kind = traffic::IntersectionKind::kCross4;
  cfg.vehicles_per_minute = 90;
  cfg.duration_ms = 30'000;
  cfg.seed = 11;
  cfg.attack = protocol::AttackSetting{"V1", 1, false, 1, 0};
  cfg.attack_time = 8'000;
  cfg.trace_enabled = true;  // detection-timeline trace frames must flow
  return cfg;
}

GridConfig lattice(int grid_threads) {
  GridConfig g;
  g.rows = 2;
  g.cols = 2;
  g.shard.intersection.kind = traffic::IntersectionKind::kCross4;
  g.shard.vehicles_per_minute = 60;
  g.shard.duration_ms = 20'000;
  g.shard.attack_time = 8'000;
  g.shard.trace_enabled = true;
  g.seed = 21;
  g.exchange_every_ms = 500;
  g.gossip_every_ms = 1'000;
  g.grid_threads = grid_threads;
  g.attack_shard = 0;
  g.shard.attack = protocol::AttackSetting{"V1", 1, false, 1, 0};
  return g;
}

/// Runs one streamed world to completion and returns the raw stream bytes.
/// `slice_ms` controls run_until granularity — emission must not care.
std::string stream_world(const ScenarioConfig& cfg, Duration cadence_ms,
                         Duration slice_ms) {
  World world(cfg);
  util::FakeWallClock wall(777);
  StreamerConfig scfg;
  scfg.cadence_ms = cadence_ms;
  scfg.wall = &wall;
  TelemetryStreamer streamer(scfg);
  RingSink ring(1u << 20);
  streamer.add_sink(&ring);
  EXPECT_TRUE(streamer.attach(world));
  for (Tick t = 0; t < cfg.duration_ms;) {
    t = std::min<Tick>(t + slice_ms, cfg.duration_ms);
    world.run_until(t);
  }
  streamer.finish();
  // The acceptance criterion itself: the fold of every streamed delta IS the
  // end-of-run registry export.
  EXPECT_EQ(streamer.cumulative().json(),
            world.summary().metrics_snapshot.json());
  return ring.joined();
}

TEST(Streamer, WorldFramesByteIdenticalAcrossSlicing) {
  const std::string reference = stream_world(scenario(), 1'000, 1'000);
  ASSERT_FALSE(reference.empty());
  // Odd run_until slicing must not move, add, or drop a single byte.
  EXPECT_EQ(stream_world(scenario(), 1'000, 700), reference);
  EXPECT_EQ(stream_world(scenario(), 1'000, 30'000), reference);
}

TEST(Streamer, WorldStreamCarriesDetectionTimelineAndWellFormedFrames) {
  const std::string bytes = stream_world(scenario(), 1'000, 1'000);
  FrameParser parser;
  parser.feed(bytes);
  std::string json;
  std::uint64_t expected_seq = 0;
  int trace_frames = 0;
  int metrics_frames = 0;
  bool saw_total = false;
  std::string first_kind;
  while (parser.next(json)) {
    const auto seq = frame_int(json, "seq");
    ASSERT_TRUE(seq.has_value()) << json;
    EXPECT_EQ(static_cast<std::uint64_t>(*seq), expected_seq) << json;
    ++expected_seq;
    const std::string kind = frame_str(json, "kind").value_or("");
    if (first_kind.empty()) first_kind = kind;
    if (kind == "trace") ++trace_frames;
    if (kind == "metrics") ++metrics_frames;
    if (kind == "metrics_total") saw_total = true;
  }
  EXPECT_FALSE(parser.corrupt());
  EXPECT_EQ(parser.pending(), 0u);
  EXPECT_EQ(first_kind, "hello");
  // A V1 deviator past attack_time must produce nwade timeline events.
  EXPECT_GT(trace_frames, 0);
  EXPECT_EQ(metrics_frames, 30);  // one delta per cadence point
  EXPECT_TRUE(saw_total);
}

TEST(Streamer, FinalTotalFrameEqualsEndOfRunExport) {
  World world(scenario());
  StreamerConfig scfg;
  scfg.cadence_ms = 1'000;
  TelemetryStreamer streamer(scfg);
  RingSink ring(1u << 20);
  streamer.add_sink(&ring);
  ASSERT_TRUE(streamer.attach(world));
  world.run_until(world.config().duration_ms);
  streamer.finish();
  std::string total_snapshot;
  FrameParser parser;
  parser.feed(ring.joined());
  std::string json;
  while (parser.next(json)) {
    if (frame_str(json, "kind").value_or("") == "metrics_total") {
      total_snapshot = frame_raw(json, "snapshot").value_or("");
    }
  }
  EXPECT_EQ(total_snapshot, world.summary().metrics_snapshot.json_compact());
}

TEST(Streamer, RejectsOffLatticeCadence) {
  World world(scenario());
  StreamerConfig scfg;
  scfg.cadence_ms = 150;  // not a multiple of step_ms = 100
  TelemetryStreamer streamer(scfg);
  EXPECT_FALSE(streamer.attach(world));
  scfg.cadence_ms = 0;
  TelemetryStreamer zero(scfg);
  EXPECT_FALSE(zero.attach(world));

  Grid grid(lattice(1));
  StreamerConfig gcfg;
  gcfg.cadence_ms = 750;  // not a multiple of exchange_every_ms = 500
  TelemetryStreamer gstreamer(gcfg);
  EXPECT_FALSE(gstreamer.attach(grid));
}

std::string stream_grid(const GridConfig& cfg, Duration cadence_ms,
                        Duration slice_ms) {
  Grid grid(cfg);
  util::FakeWallClock wall(777);
  StreamerConfig scfg;
  scfg.cadence_ms = cadence_ms;
  scfg.wall = &wall;
  TelemetryStreamer streamer(scfg);
  RingSink ring(1u << 20);
  streamer.add_sink(&ring);
  EXPECT_TRUE(streamer.attach(grid));
  const Tick duration = cfg.shard.duration_ms;
  for (Tick t = 0; t < duration;) {
    t = std::min<Tick>(t + slice_ms, duration);
    grid.run_until(t);
  }
  streamer.finish();
  EXPECT_EQ(streamer.cumulative().json(), grid.merged_metrics().json());
  return ring.joined();
}

TEST(Streamer, GridFramesByteIdenticalAcrossGridThreadsAndSlicing) {
  const std::string reference = stream_grid(lattice(1), 1'000, 1'000);
  ASSERT_FALSE(reference.empty());
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(stream_grid(lattice(threads), 1'000, 1'000), reference)
        << "grid_threads=" << threads;
  }
  EXPECT_EQ(stream_grid(lattice(2), 1'000, 700), reference);

  // Sanity on content: per-shard health rows and grid status frames flow.
  FrameParser parser;
  parser.feed(reference);
  std::string json;
  int health = 0;
  int status = 0;
  while (parser.next(json)) {
    const std::string kind = frame_str(json, "kind").value_or("");
    if (kind == "health") ++health;
    if (kind == "status") ++status;
  }
  EXPECT_EQ(health, 4 * 20);  // 4 shards x one row per cadence point
  EXPECT_EQ(status, 20);
}

TEST(Streamer, CheckpointRestoreContinuesStreamWithoutSeam) {
  const ScenarioConfig cfg = scenario();
  const Duration cadence = 1'000;
  const Tick cut = 10'000;  // a cadence point: serve checkpoints only there

  // Uninterrupted reference stream.
  const std::string reference = stream_world(cfg, cadence, 1'000);

  // First half: stream to the cut, checkpoint, remember stream position.
  std::string first_half;
  Bytes blob;
  std::uint64_t seq = 0;
  std::uint64_t frames = 0;
  {
    World world(cfg);
    util::FakeWallClock wall(777);
    StreamerConfig scfg;
    scfg.cadence_ms = cadence;
    scfg.wall = &wall;
    TelemetryStreamer streamer(scfg);
    RingSink ring(1u << 20);
    streamer.add_sink(&ring);
    ASSERT_TRUE(streamer.attach(world));
    world.run_until(cut);
    blob = world.checkpoint_save();
    seq = streamer.next_seq();
    frames = streamer.frames_emitted();
    first_half = ring.joined();
  }

  // Second half: restore, resume the stream at the recorded position.
  std::string second_half;
  {
    std::string error;
    std::unique_ptr<World> world = World::checkpoint_restore(blob, &error);
    ASSERT_NE(world, nullptr) << error;
    util::FakeWallClock wall(777);
    StreamerConfig scfg;
    scfg.cadence_ms = cadence;
    scfg.wall = &wall;
    TelemetryStreamer streamer(scfg);
    RingSink ring(1u << 20);
    streamer.add_sink(&ring);
    streamer.set_next_seq(seq);
    streamer.set_frames_emitted(frames);
    ASSERT_TRUE(streamer.attach(*world, /*resume=*/true));
    world->run_until(cfg.duration_ms);
    streamer.finish();
    second_half = ring.joined();
  }

  EXPECT_EQ(first_half + second_half, reference);
}

TEST(Streamer, CatchUpBringsLateJoinerToCurrentState) {
  World world(scenario());
  StreamerConfig scfg;
  scfg.cadence_ms = 1'000;
  TelemetryStreamer streamer(scfg);
  RingSink ring(1u << 20);
  streamer.add_sink(&ring);
  ASSERT_TRUE(streamer.attach(world));
  world.run_until(5'000);

  const std::string catch_up = streamer.catch_up();
  FrameParser parser;
  parser.feed(catch_up);
  std::string json;
  ASSERT_TRUE(parser.next(json));
  EXPECT_EQ(frame_str(json, "kind").value_or(""), "hello");
  ASSERT_TRUE(parser.next(json));
  EXPECT_EQ(frame_str(json, "kind").value_or(""), "metrics_total");
  EXPECT_EQ(frame_int(json, "t_ms").value_or(-1), 5'000);
  EXPECT_EQ(frame_raw(json, "snapshot").value_or(""),
            streamer.cumulative().json_compact());
  EXPECT_FALSE(parser.next(json));
  EXPECT_FALSE(parser.corrupt());
}

TEST(Streamer, MultipleSinksReceiveIdenticalBytes) {
  World world(scenario());
  StreamerConfig scfg;
  scfg.cadence_ms = 1'000;
  TelemetryStreamer streamer(scfg);
  RingSink a(1u << 20);
  RingSink b(1u << 20);
  streamer.add_sink(&a);
  streamer.add_sink(&b);
  ASSERT_TRUE(streamer.attach(world));
  world.run_until(5'000);
  streamer.finish();
  EXPECT_FALSE(a.joined().empty());
  EXPECT_EQ(a.joined(), b.joined());
}

}  // namespace
}  // namespace nwade::svc
