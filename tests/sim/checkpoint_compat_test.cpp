// Backward compatibility within nwade-ckpt-v1 (docs/CHECKPOINT.md §6): blobs
// written before the retired fields went read-and-ignore must still restore
// and continue to the digests their writer's own uninterrupted runs reached.
//
// The fixtures under tests/sim/fixtures/ were written by that earlier writer
// — per-vehicle row numbers and, in the grid, per-shard extra capacities
// included — from these scenarios:
//
//  * world_v1.ckpt — cross4, 40 veh/min, seed 5, chain_depth 2, one deviator
//    triggering at 12 s, 40 s long; saved at 15 s.
//  * grid_corridor_v1.ckpt — a 1x2 cross4 corridor, 24 veh/min per shard,
//    grid seed 11, chain_depth 2, 40 s, exchange every 500 ms, gossip every
//    1 s; saved at 28.5 s, the first exchange boundary after the first
//    handoff at which a shard's vehicles were no longer spawned in id order.
//  * world_rsa1024_v1.ckpt — the world_v1 scenario with an RSA-1024 signer,
//    so the signature-verification cache section carries entries; saved at
//    15 s by the writer that still copied blocks into every store and
//    sharded the cache. Today's writer must reproduce it byte for byte.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>

#include "sim/checkpoint.h"
#include "sim/grid.h"
#include "sim/world.h"

namespace nwade::sim {
namespace {

Bytes read_fixture(const std::string& name) {
  std::ifstream in(std::string(NWADE_FIXTURE_DIR) + "/" + name,
                   std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

TEST(CheckpointCompat, WorldBlobFromEarlierWriterContinuesToItsDigest) {
  const Bytes blob = read_fixture("world_v1.ckpt");
  ASSERT_FALSE(blob.empty());
  std::string error;
  const std::unique_ptr<World> world = World::checkpoint_restore(blob, &error);
  ASSERT_NE(world, nullptr) << error;
  EXPECT_EQ(world->now(), 15'000);
  world->run_until(world->config().duration_ms);
  EXPECT_EQ(checkpoint::run_summary_digest(world->summary()),
            "e720e01e08eaf62745949698d012a31eb8da0e5baf954f95fb73a7b59e4ee6fd");
}

TEST(CheckpointCompat, GridBlobWithHandoffsContinuesToItsDigest) {
  const Bytes blob = read_fixture("grid_corridor_v1.ckpt");
  ASSERT_FALSE(blob.empty());
  std::string error;
  const std::unique_ptr<Grid> grid = Grid::checkpoint_restore(blob, 1, &error);
  ASSERT_NE(grid, nullptr) << error;
  EXPECT_EQ(grid->now(), 28'500);
  EXPECT_EQ(Grid::summary_digest(grid->run()),
            "4bf80ed753410f10f9aaa50730ba2b6f473c941707e2ef83b64603bf9d655fc0");
}

/// The envelope's named sections (docs/CHECKPOINT.md): schema string, count,
/// then (name, crc, length-prefixed payload) per section.
std::map<std::string, Bytes> sections_of(const Bytes& blob) {
  ByteReader r(blob);
  EXPECT_EQ(r.str(), checkpoint::kCheckpointSchema);
  const std::uint32_t n = r.u32();
  std::map<std::string, Bytes> out;
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string name = r.str();
    (void)r.u32();  // crc
    out[std::move(name)] = r.bytes();
  }
  EXPECT_TRUE(r.ok() && r.at_end());
  return out;
}

constexpr const char* kRsaDigest =
    "ef61caf44bd5e390b9dd77e432b4d1a3e133d214589c7cf3cf256009d712338c";

TEST(CheckpointCompat, RsaWorldBlobResavesByteEqualAndContinuesToItsDigest) {
  const Bytes blob = read_fixture("world_rsa1024_v1.ckpt");
  ASSERT_FALSE(blob.empty());
  // capacity, next seq, 4 counters, then 16 entry lists: non-empty lists
  // make the section longer than 48 + 16 * 4 bytes.
  EXPECT_GT(sections_of(blob).at("crypto").size(), 48u + 16u * 4u);
  std::string error;
  const std::unique_ptr<World> world = World::checkpoint_restore(blob, &error);
  ASSERT_NE(world, nullptr) << error;
  EXPECT_EQ(world->now(), 15'000);
  EXPECT_EQ(world->checkpoint_save(), blob);
  world->run_until(world->config().duration_ms);
  EXPECT_EQ(checkpoint::run_summary_digest(world->summary()), kRsaDigest);
}

TEST(CheckpointCompat, FreshRsaSaveEqualsEarlierWriterBeyondWallClockSamples) {
  // A fresh run of the fixture's scenario saved at the same instant writes
  // the same bytes as the earlier writer. The only exception is the metrics
  // section's wall-clock timing samples (im_package_us, vehicle_verify_us),
  // which no two runs share; that section is compared without them.
  const Bytes blob = read_fixture("world_rsa1024_v1.ckpt");
  const std::unique_ptr<World> restored = World::checkpoint_restore(blob);
  ASSERT_NE(restored, nullptr);
  World fresh(restored->config());
  fresh.run_until(15'000);
  const std::map<std::string, Bytes> want = sections_of(blob);
  const std::map<std::string, Bytes> got = sections_of(fresh.checkpoint_save());
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [name, payload] : want) {
    ASSERT_TRUE(got.contains(name)) << name;
    if (name != "metrics") {
      EXPECT_EQ(got.at(name), payload) << "section " << name;
      continue;
    }
    const auto deterministic = [](const Bytes& section) {
      protocol::Metrics m;
      ByteReader r(section);
      EXPECT_TRUE(checkpoint::load_metrics(r, m));
      ByteWriter w;
      checkpoint::save_metrics(w, m, /*include_wall_samples=*/false);
      return w.take();
    };
    EXPECT_EQ(deterministic(got.at(name)), deterministic(payload));
  }
  fresh.run_until(fresh.config().duration_ms);
  EXPECT_EQ(checkpoint::run_summary_digest(fresh.summary()), kRsaDigest);
}

TEST(CheckpointCompat, ResaveKeepsLayoutAndIsStable) {
  // Re-saving a restored earlier blob keeps the v1 layout (the retired
  // fields keep their width, now written as zero / the 0xffffffff row
  // sentinel), and from then on save -> restore -> save is byte-identical.
  const Bytes blob = read_fixture("world_v1.ckpt");
  const std::unique_ptr<World> world = World::checkpoint_restore(blob);
  ASSERT_NE(world, nullptr);
  const Bytes resaved = world->checkpoint_save();
  EXPECT_EQ(resaved.size(), blob.size());
  const std::unique_ptr<World> again = World::checkpoint_restore(resaved);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->checkpoint_save(), resaved);
}

}  // namespace
}  // namespace nwade::sim
