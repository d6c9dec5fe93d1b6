// Backward compatibility (docs/CHECKPOINT.md §6): blobs written by earlier
// writers must still restore and continue to the digests their writers' own
// uninterrupted runs reached, and today's writer must reproduce what it
// wrote before.
//
// The fixtures under tests/sim/fixtures/ come from these scenarios:
//
//  * world_v1.ckpt — cross4, 40 veh/min, seed 5, chain_depth 2, one deviator
//    triggering at 12 s, 40 s long; saved at 15 s by an nwade-ckpt-v1
//    writer that still wrote per-vehicle row numbers.
//  * grid_corridor_v1.ckpt — a 1x2 cross4 corridor, 24 veh/min per shard,
//    grid seed 11, chain_depth 2, 40 s, exchange every 500 ms, gossip every
//    1 s; saved at 28.5 s, the first exchange boundary after the first
//    handoff at which a shard's vehicles were no longer spawned in id order.
//    Its shard sections are nwade-ckpt-v1 world blobs with per-shard extra
//    capacities.
//  * world_rsa1024_v1.ckpt — the world_v1 scenario with an RSA-1024 signer,
//    so the signature-verification cache section carries entries; saved at
//    15 s by the nwade-ckpt-v1 writer that copied blocks into every store
//    and wrote exited vehicles in full.
//  * world_rsa1024_v2.ckpt — the same scenario and instant, saved by the
//    nwade-ckpt-v2 writer (one copy of each block, exited vehicles as
//    tombstones). Today's writer must reproduce it byte for byte.
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
std::map<std::string, Bytes> sections_of(const Bytes& blob,
                                         std::string_view schema =
                                             checkpoint::kCheckpointSchema) {
  ByteReader r(blob);
  EXPECT_EQ(r.str(), schema);
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

/// Every section of `got` equals `want`'s, except that the metrics sections
/// are compared without their wall-clock timing samples (im_package_us,
/// vehicle_verify_us), which no two runs share.
void expect_same_beyond_wall_clock(const Bytes& got_blob, const Bytes& want_blob,
                                   const char* what) {
  const std::map<std::string, Bytes> want = sections_of(want_blob);
  const std::map<std::string, Bytes> got = sections_of(got_blob);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (const auto& [name, payload] : want) {
    ASSERT_TRUE(got.contains(name)) << what << ": section " << name;
    if (name != "metrics") {
      EXPECT_EQ(got.at(name), payload) << what << ": section " << name;
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
    EXPECT_EQ(deterministic(got.at(name)), deterministic(payload))
        << what << ": section metrics";
  }
}

constexpr const char* kRsaDigest =
    "ef61caf44bd5e390b9dd77e432b4d1a3e133d214589c7cf3cf256009d712338c";

TEST(CheckpointCompat, RsaWorldBlobResavesByteEqualAndContinuesToItsDigest) {
  // The v2 writer's own fixture: restore -> save gives its bytes back, and
  // the restored world continues to the scenario's digest.
  const Bytes blob = read_fixture("world_rsa1024_v2.ckpt");
  ASSERT_FALSE(blob.empty());
  const std::map<std::string, Bytes> sections = sections_of(blob);
  // capacity, next seq, 4 counters, then 16 entry lists: non-empty lists
  // make the section longer than 48 + 16 * 4 bytes.
  EXPECT_GT(sections.at("crypto").size(), 48u + 16u * 4u);
  EXPECT_TRUE(sections.contains("blocks"));
  std::string error;
  const std::unique_ptr<World> world = World::checkpoint_restore(blob, &error);
  ASSERT_NE(world, nullptr) << error;
  EXPECT_EQ(world->now(), 15'000);
  EXPECT_EQ(world->checkpoint_save(), blob);
  world->run_until(world->config().duration_ms);
  EXPECT_EQ(checkpoint::run_summary_digest(world->summary()), kRsaDigest);
}

TEST(CheckpointCompat, FreshRsaSaveEqualsEarlierWriterBeyondWallClockSamples) {
  // At the fixtures' instant, a fresh run of their scenario, the v1 fixture
  // restored, and the v2 fixture all save the same v2 bytes, beyond the
  // metrics section's wall-clock samples. The v1 fixture continues to the
  // scenario's digest, and so does the fresh run.
  const Bytes v1_blob = read_fixture("world_rsa1024_v1.ckpt");
  const Bytes v2_blob = read_fixture("world_rsa1024_v2.ckpt");
  EXPECT_GT(sections_of(v1_blob, checkpoint::kCheckpointSchemaV1).at("crypto").size(),
            48u + 16u * 4u);
  std::string error;
  const std::unique_ptr<World> from_v1 = World::checkpoint_restore(v1_blob, &error);
  ASSERT_NE(from_v1, nullptr) << error;
  EXPECT_EQ(from_v1->now(), 15'000);
  World fresh(from_v1->config());
  fresh.run_until(15'000);
  const Bytes fresh_blob = fresh.checkpoint_save();
  expect_same_beyond_wall_clock(fresh_blob, v2_blob, "fresh run vs v2 fixture");
  expect_same_beyond_wall_clock(from_v1->checkpoint_save(), fresh_blob,
                                "v1 fixture restored vs fresh run");
  from_v1->run_until(from_v1->config().duration_ms);
  EXPECT_EQ(checkpoint::run_summary_digest(from_v1->summary()), kRsaDigest);
  fresh.run_until(fresh.config().duration_ms);
  EXPECT_EQ(checkpoint::run_summary_digest(fresh.summary()), kRsaDigest);
}

TEST(CheckpointCompat, ResaveKeepsLayoutAndIsStable) {
  // Re-saving a restored v1 blob writes v2. Every section the schema bump
  // did not touch keeps its v1 bytes — the retired fields keep their width,
  // written as zero / the 0xffffffff row sentinel — and only `im` and
  // `vehicles` change, their blocks moved into the new `blocks` section.
  // From then on save -> restore -> save is byte-identical.
  const Bytes blob = read_fixture("world_v1.ckpt");
  const std::unique_ptr<World> world = World::checkpoint_restore(blob);
  ASSERT_NE(world, nullptr);
  const Bytes resaved = world->checkpoint_save();
  EXPECT_LT(resaved.size(), blob.size());
  const std::map<std::string, Bytes> before =
      sections_of(blob, checkpoint::kCheckpointSchemaV1);
  const std::map<std::string, Bytes> after = sections_of(resaved);
  EXPECT_EQ(after.size(), before.size() + 1);
  EXPECT_TRUE(after.contains("blocks"));
  for (const auto& [name, payload] : before) {
    ASSERT_TRUE(after.contains(name)) << name;
    if (name == "im" || name == "vehicles") continue;
    EXPECT_EQ(after.at(name), payload) << "section " << name;
  }
  const std::unique_ptr<World> again = World::checkpoint_restore(resaved);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->checkpoint_save(), resaved);
}

}  // namespace
}  // namespace nwade::sim
