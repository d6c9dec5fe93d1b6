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
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
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
