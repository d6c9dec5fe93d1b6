// BlockStore: chain linkage validation, the tau/delta depth bound, the
// checks on a restored checkpoint section, and the id→plan index against a
// newest-first walk of the cached blocks. Tampered blocks are forged through
// Block(Header, plans).
#include "chain/store.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "util/rng.h"

namespace nwade::chain {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  StoreTest() : signer_(Bytes{'i', 'm'}) {}

  BlockPtr next_block(int n_plans = 2) {
    std::vector<aim::TravelPlan> plans;
    for (int i = 0; i < n_plans; ++i) {
      aim::TravelPlan p;
      p.vehicle = VehicleId{seq_ * 10 + static_cast<std::uint64_t>(i) + 1};
      p.segments = {aim::PlanSegment{static_cast<Tick>(seq_) * 1000, 0, 10}};
      plans.push_back(p);
    }
    auto b = std::make_shared<const Block>(Block::package(
        seq_, prev_, static_cast<Tick>(seq_) * 1000, std::move(plans), signer_));
    prev_ = b->hash();
    ++seq_;
    return b;
  }

  /// `honest` with its header edited by `tamper`, plans unchanged.
  template <typename F>
  static BlockPtr forge(const BlockPtr& honest, F tamper) {
    Block::Header h = honest->header();
    tamper(h);
    return std::make_shared<const Block>(std::move(h), honest->plans());
  }

  crypto::HmacSigner signer_;
  crypto::Digest prev_{};
  BlockSeq seq_{0};
};

TEST_F(StoreTest, AppendsValidChain) {
  BlockStore store;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(store.append(next_block(), *signer_.verifier()));
  }
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.latest()->seq(), 4u);
  EXPECT_NE(store.by_seq(2), nullptr);
  EXPECT_EQ(store.by_seq(99), nullptr);
}

TEST_F(StoreTest, RejectsBadSignature) {
  BlockStore store;
  const BlockPtr b =
      forge(next_block(), [](Block::Header& h) { h.timestamp += 5; });  // invalidates signature
  const auto result = store.append(b, *signer_.verifier());
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error(), ChainError::kBadSignature);
  EXPECT_TRUE(store.empty());
}

TEST_F(StoreTest, RejectsTamperedPlans) {
  BlockStore store;
  const BlockPtr honest = next_block();
  std::vector<aim::TravelPlan> plans = honest->plans();
  plans[0].segments[0].v_mps = 60;
  const auto b = std::make_shared<const Block>(honest->header(), std::move(plans));
  const auto result = store.append(b, *signer_.verifier());
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error(), ChainError::kBadMerkleRoot);
}

TEST_F(StoreTest, RejectsBrokenLinkage) {
  BlockStore store;
  ASSERT_TRUE(store.append(next_block(), *signer_.verifier()));
  // Forge the next block with the right seq but wrong prev hash.
  prev_ = crypto::sha256("not the real prev");
  const BlockPtr forged = next_block();
  const auto result = store.append(forged, *signer_.verifier());
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error(), ChainError::kBrokenLinkage);
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(StoreTest, RejectsSeqGapAndReplay) {
  BlockStore store;
  const BlockPtr b0 = next_block();
  const BlockPtr b1 = next_block();
  const BlockPtr b2 = next_block();
  ASSERT_TRUE(store.append(b0, *signer_.verifier()));
  // Gap: b2 after b0.
  auto result = store.append(b2, *signer_.verifier());
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error(), ChainError::kNonMonotonicSeq);
  // Replay of b0.
  result = store.append(b0, *signer_.verifier());
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error(), ChainError::kNonMonotonicSeq);
  // Correct continuation still works.
  EXPECT_TRUE(store.append(b1, *signer_.verifier()));
}

TEST_F(StoreTest, EvictsBeyondMaxDepth) {
  BlockStore store(3);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.append(next_block(), *signer_.verifier()));
  }
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.blocks().front()->seq(), 7u);
  EXPECT_EQ(store.latest()->seq(), 9u);
  // Evicted blocks are gone; linkage continues to be enforced at the tail.
  EXPECT_EQ(store.by_seq(0), nullptr);
}

TEST_F(StoreTest, FindPlanReturnsNewest) {
  BlockStore store;
  // Vehicle 42 gets a plan in block 0 and a superseding plan in block 2.
  auto make_with_vehicle = [&](double speed) {
    aim::TravelPlan p;
    p.vehicle = VehicleId{42};
    p.segments = {aim::PlanSegment{0, 0, speed}};
    auto b = std::make_shared<const Block>(
        Block::package(seq_, prev_, static_cast<Tick>(seq_) * 1000, {p}, signer_));
    prev_ = b->hash();
    ++seq_;
    return b;
  };
  ASSERT_TRUE(store.append(make_with_vehicle(10.0), *signer_.verifier()));
  ASSERT_TRUE(store.append(next_block(), *signer_.verifier()));
  ASSERT_TRUE(store.append(make_with_vehicle(5.0), *signer_.verifier()));
  const aim::TravelPlan* p = store.find_plan(VehicleId{42});
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->segments[0].v_mps, 5.0);
  EXPECT_EQ(store.find_plan(VehicleId{777}), nullptr);
}

TEST_F(StoreTest, FailedAppendLeavesStoreUntouched) {
  BlockStore store;
  ASSERT_TRUE(store.append(next_block(), *signer_.verifier()));
  const std::size_t size = store.size();
  const auto* latest = store.latest();
  const BlockPtr bad =
      forge(next_block(), [](Block::Header& h) { h.merkle_root[0] ^= 1; });
  EXPECT_FALSE(store.append(bad, *signer_.verifier()));
  EXPECT_EQ(store.size(), size);
  EXPECT_EQ(store.latest(), latest);
}

TEST_F(StoreTest, AppendKeepsTheCallersHandle) {
  BlockStore store;
  const BlockPtr b = next_block();
  ASSERT_TRUE(store.append(b, *signer_.verifier()));
  EXPECT_EQ(store.latest(), b.get());
  EXPECT_EQ(store.by_seq(b->seq()), b);
}

/// A table's `blocks` section loaded into a fresh reader-side table.
BlockTable reload(const BlockTable& written) {
  ByteWriter w;
  written.save(w);
  const Bytes section = w.take();
  BlockTable back;
  ByteReader r(section);
  EXPECT_TRUE(back.load(r) && r.at_end()) << back.error();
  return back;
}

/// A checkpoint section in BlockStore's layout: depth bound, block count,
/// then each block's reference — its serialize() bytes (nwade-ckpt-v1) or
/// its index into `table` (v2), which gains every block it has not seen.
Bytes store_section(std::uint64_t max_depth, const std::vector<BlockPtr>& blocks,
                    BlockTable* table = nullptr) {
  ByteWriter w;
  w.u64(max_depth);
  w.u32(static_cast<std::uint32_t>(blocks.size()));
  for (const BlockPtr& b : blocks) {
    if (table != nullptr) {
      table->write_ref(w, b);
    } else {
      w.bytes(b->serialize());
    }
  }
  return w.take();
}

TEST_F(StoreTest, CheckpointRoundTripRestoresEveryBlock) {
  BlockStore store(3);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(store.append(next_block(), *signer_.verifier()));
  BlockTable written;
  ByteWriter w;
  store.checkpoint_save(w, written);
  const Bytes saved = w.take();
  EXPECT_EQ(written.size(), 3u);
  BlockTable table = reload(written);
  BlockStore back;
  ByteReader r(saved);
  ASSERT_TRUE(back.checkpoint_restore(r, table)) << table.error();
  EXPECT_EQ(back.max_depth(), 3u);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.latest()->hash(), store.latest()->hash());
  BlockTable rewritten;
  ByteWriter again;
  back.checkpoint_save(again, rewritten);
  EXPECT_EQ(again.take(), saved);
}

TEST_F(StoreTest, InlineCheckpointSectionInternsBlocksByHash) {
  // nwade-ckpt-v1 stores carry their blocks inline; two stores holding the
  // same blocks restore onto the same objects.
  const std::vector<BlockPtr> blocks = {next_block(), next_block()};
  const Bytes section = store_section(4, blocks);
  BlockTable table(BlockTable::Refs::kInline);
  BlockStore a;
  BlockStore b;
  ByteReader ra(section);
  ByteReader rb(section);
  ASSERT_TRUE(a.checkpoint_restore(ra, table));
  ASSERT_TRUE(b.checkpoint_restore(rb, table));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(a.blocks()[1], b.blocks()[1]);
  EXPECT_EQ(a.latest()->hash(), blocks[1]->hash());
}

TEST_F(StoreTest, CheckpointRestoreRejectsMoreBlocksThanDepth) {
  const std::vector<BlockPtr> blocks = {next_block(), next_block(), next_block()};
  {
    BlockTable table(BlockTable::Refs::kInline);
    const Bytes section = store_section(2, blocks);
    BlockStore store;
    ByteReader r(section);
    EXPECT_FALSE(store.checkpoint_restore(r, table));
    EXPECT_NE(table.error().find("more than its depth"), std::string::npos);
  }
  BlockTable written;
  const Bytes section = store_section(2, blocks, &written);
  BlockTable table = reload(written);
  BlockStore store;
  ByteReader r(section);
  EXPECT_FALSE(store.checkpoint_restore(r, table));
  EXPECT_NE(table.error().find("more than its depth"), std::string::npos);
}

TEST_F(StoreTest, CheckpointRestoreRejectsNonConsecutiveSeqs) {
  const BlockPtr b0 = next_block();
  next_block();  // seq 1 is skipped
  const BlockPtr b2 = next_block();
  {
    BlockTable table(BlockTable::Refs::kInline);
    const Bytes section = store_section(8, {b0, b2});
    BlockStore store;
    ByteReader r(section);
    EXPECT_FALSE(store.checkpoint_restore(r, table));
    EXPECT_NE(table.error().find("not consecutive"), std::string::npos);
  }
  BlockTable written;
  const Bytes section = store_section(8, {b0, b2}, &written);
  BlockTable table = reload(written);
  BlockStore store;
  ByteReader r(section);
  EXPECT_FALSE(store.checkpoint_restore(r, table));
  EXPECT_NE(table.error().find("not consecutive"), std::string::npos);
}

/// find_plan as a newest-first walk of the cached blocks.
const aim::TravelPlan* walk_find_plan(const BlockStore& store, VehicleId id) {
  for (auto it = store.blocks().rbegin(); it != store.blocks().rend(); ++it) {
    if (const aim::TravelPlan* p = (*it)->plan_for(id)) return p;
  }
  return nullptr;
}

/// The ascending-id view as a newest-first walk: newer blocks win, and within
/// a block the first plan for an id wins.
std::map<VehicleId, const aim::TravelPlan*> walk_latest_plans(const BlockStore& store) {
  std::map<VehicleId, const aim::TravelPlan*> latest;
  for (auto it = store.blocks().rbegin(); it != store.blocks().rend(); ++it) {
    for (const aim::TravelPlan& p : (*it)->plans()) latest.try_emplace(p.vehicle, &p);
  }
  return latest;
}

TEST(StoreIndexProperty, RandomOperationsMatchNewestFirstWalk) {
  // Three recipients of one IM, each with its own depth bound. Broadcasts
  // hand one block to every recipient on the same tip; a malicious IM's
  // per-recipient conflicting blocks give each its own block for the same
  // vehicles; a resync replaces a store with a fresh one (as the vehicle does
  // on a sequence gap); a checkpoint round trip swaps in restored copies.
  crypto::HmacSigner signer(Bytes{'i', 'm'});
  const auto verifier = signer.verifier();
  Rng rng(0x1DE5);
  std::vector<BlockStore> stores = {BlockStore(1), BlockStore(3), BlockStore(8)};
  double speed = 1.0;  // unique per plan: duplicates stay distinguishable
  std::uint64_t max_id = 0;
  int duplicates = 0;

  const auto plans_for = [&](int n, std::uint64_t id_range) {
    std::vector<aim::TravelPlan> plans;
    for (int i = 0; i < n; ++i) {
      aim::TravelPlan p;
      p.vehicle = VehicleId{static_cast<std::uint64_t>(rng.uniform_int(1, id_range))};
      p.segments = {aim::PlanSegment{0, 0, speed++}};
      max_id = std::max(max_id, p.vehicle.value);
      for (const aim::TravelPlan& q : plans) duplicates += q.vehicle == p.vehicle;
      plans.push_back(std::move(p));
    }
    return plans;
  };
  // A block extending `tip` (a fresh chain when the store is empty).
  const auto block_on = [&](const BlockStore& tip, std::vector<aim::TravelPlan> plans) {
    const Block* latest = tip.latest();
    const BlockSeq seq = latest ? latest->seq() + 1 : 0;
    return std::make_shared<const Block>(
        Block::package(seq, latest ? latest->hash() : crypto::Digest{},
                       static_cast<Tick>(seq) * 1000, std::move(plans), signer));
  };

  for (int op = 0; op < 10'000; ++op) {
    const std::int64_t kind = rng.uniform_int(0, 9);
    if (kind <= 5) {
      // Broadcast on a random recipient's tip, appended (one shared handle)
      // by every recipient on that tip and by every empty one.
      const BlockStore& tip = stores[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      const BlockPtr b = block_on(tip, plans_for(static_cast<int>(rng.uniform_int(0, 6)), 24));
      const Block* tip_block = tip.latest();
      for (BlockStore& s : stores) {
        if (s.empty() || (tip_block && s.latest()->hash() == tip_block->hash())) {
          ASSERT_TRUE(s.append(b, *verifier));
        }
      }
    } else if (kind == 6) {
      // Per-recipient conflicting blocks: the same vehicles, different plans.
      const std::vector<aim::TravelPlan> base = plans_for(4, 6);
      for (BlockStore& s : stores) {
        std::vector<aim::TravelPlan> plans = base;
        for (aim::TravelPlan& p : plans) p.segments[0].v_mps = speed++;
        ASSERT_TRUE(s.append(block_on(s, std::move(plans)), *verifier));
      }
    } else if (kind == 7) {
      // Resync: a fresh store that accepts the next block whatever its seq.
      BlockStore& s = stores[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      const BlockStore& other = stores[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      const BlockPtr b = block_on(other, plans_for(3, 24));
      s = BlockStore(s.max_depth());
      ASSERT_TRUE(s.append(b, *verifier));
    } else {
      // Checkpoint round trip: restored blocks are new objects.
      BlockStore& s = stores[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      BlockTable written;
      ByteWriter w;
      s.checkpoint_save(w, written);
      const Bytes saved = w.take();
      BlockTable table = reload(written);
      BlockStore back;
      ByteReader r(saved);
      ASSERT_TRUE(back.checkpoint_restore(r, table)) << table.error();
      s = std::move(back);
    }

    for (std::size_t i = 0; i < stores.size(); ++i) {
      const BlockStore& s = stores[i];
      const auto latest = walk_latest_plans(s);
      ASSERT_EQ(s.plans_by_id().size(), latest.size()) << "op " << op << " store " << i;
      auto it = latest.begin();
      for (const BlockStore::PlanRef& ref : s.plans_by_id()) {
        ASSERT_EQ(ref.vehicle, it->first) << "op " << op << " store " << i;
        ASSERT_EQ(ref.plan, it->second) << "op " << op << " store " << i;
        ++it;
      }
      for (std::uint64_t id = 0; id <= max_id + 1; ++id) {
        ASSERT_EQ(s.find_plan(VehicleId{id}), walk_find_plan(s, VehicleId{id}))
            << "op " << op << " store " << i << " vehicle " << id;
      }
    }
  }
  EXPECT_GT(duplicates, 100);  // duplicate ids inside one block were covered
}

}  // namespace
}  // namespace nwade::chain
