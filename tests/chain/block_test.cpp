// Block packaging and verification: signatures, Merkle roots, serialization,
// and every tamper path a compromised IM could attempt on a single block.
// Tampered blocks are forged through Block(Header, plans), which derives
// without checking.
#include "chain/block.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace nwade::chain {
namespace {

aim::TravelPlan plan_for(std::uint64_t vid, Tick start) {
  aim::TravelPlan p;
  p.vehicle = VehicleId{vid};
  p.route_id = static_cast<int>(vid % 12);
  p.segments = {aim::PlanSegment{start, 0, 15.0}};
  p.issued_at = start;
  p.core_entry = start + 10000;
  p.core_exit = start + 14000;
  return p;
}

class BlockTest : public ::testing::Test {
 protected:
  BlockTest() : signer_(Bytes{'k', 'e', 'y'}) {}

  Block make_block(BlockSeq seq, const crypto::Digest& prev, int n_plans) {
    std::vector<aim::TravelPlan> plans;
    for (int i = 0; i < n_plans; ++i) {
      plans.push_back(plan_for(seq * 100 + static_cast<std::uint64_t>(i) + 1, 1000));
    }
    return Block::package(seq, prev, static_cast<Tick>(seq) * 1000, std::move(plans),
                          signer_);
  }

  crypto::HmacSigner signer_;
};

TEST_F(BlockTest, PackageProducesValidBlock) {
  const Block b = make_block(0, {}, 5);
  EXPECT_TRUE(b.verify_signature(*signer_.verifier()));
  EXPECT_TRUE(b.verify_merkle());
  EXPECT_EQ(b.plans().size(), 5u);
}

TEST_F(BlockTest, EmptyBlockIsValid) {
  const Block b = make_block(0, {}, 0);
  EXPECT_TRUE(b.verify_signature(*signer_.verifier()));
  EXPECT_TRUE(b.verify_merkle());
}

TEST_F(BlockTest, TamperedPlanBreaksMerkle) {
  const Block honest = make_block(0, {}, 4);
  std::vector<aim::TravelPlan> plans = honest.plans();
  plans[2].segments[0].v_mps = 99.0;  // forged instruction
  const Block b(honest.header(), std::move(plans));
  EXPECT_FALSE(b.verify_merkle());
  EXPECT_TRUE(b.verify_signature(*signer_.verifier()));  // header untouched
}

TEST_F(BlockTest, SwappedPlansBreakMerkle) {
  const Block honest = make_block(0, {}, 4);
  std::vector<aim::TravelPlan> plans = honest.plans();
  std::swap(plans[0], plans[1]);
  const Block b(honest.header(), std::move(plans));
  EXPECT_FALSE(b.verify_merkle());
}

TEST_F(BlockTest, TamperedRootBreaksSignature) {
  const Block honest = make_block(0, {}, 4);
  Block::Header h = honest.header();
  h.merkle_root[0] ^= 1;
  const Block b(std::move(h), honest.plans());
  EXPECT_FALSE(b.verify_signature(*signer_.verifier()));
}

TEST_F(BlockTest, TamperedTimestampBreaksSignature) {
  const Block honest = make_block(0, {}, 2);
  Block::Header h = honest.header();
  h.timestamp += 1;
  const Block b(std::move(h), honest.plans());
  EXPECT_FALSE(b.verify_signature(*signer_.verifier()));
}

TEST_F(BlockTest, TamperedPrevHashBreaksSignature) {
  const Block honest = make_block(1, crypto::sha256("genesis"), 2);
  Block::Header h = honest.header();
  h.prev_hash[5] ^= 0x10;
  const Block b(std::move(h), honest.plans());
  EXPECT_FALSE(b.verify_signature(*signer_.verifier()));
}

TEST_F(BlockTest, ForeignSignerRejected) {
  const Block b = make_block(0, {}, 3);
  crypto::HmacSigner other(Bytes{'e', 'v', 'i', 'l'});
  EXPECT_FALSE(b.verify_signature(*other.verifier()));
}

TEST_F(BlockTest, HashChainsOnContent) {
  const Block a = make_block(0, {}, 3);
  Block::Header h = a.header();
  h.timestamp++;
  const Block b(std::move(h), a.plans());
  EXPECT_NE(a.hash(), b.hash());
}

TEST_F(BlockTest, PlanLookup) {
  const Block b = make_block(2, {}, 4);
  ASSERT_NE(b.plan_for(VehicleId{201}), nullptr);
  EXPECT_EQ(b.plan_for(VehicleId{201})->vehicle, VehicleId{201});
  EXPECT_EQ(b.plan_for(VehicleId{9999}), nullptr);
}

TEST_F(BlockTest, MerkleProofForPlan) {
  const Block b = make_block(0, {}, 7);
  for (std::size_t i = 0; i < b.plans().size(); ++i) {
    const auto proof = b.prove_plan(i);
    EXPECT_TRUE(
        crypto::MerkleTree::verify(b.plans()[i].serialize(), proof, b.merkle_root()));
  }
  // Proof does not validate a different plan.
  const auto proof0 = b.prove_plan(0);
  EXPECT_FALSE(
      crypto::MerkleTree::verify(b.plans()[1].serialize(), proof0, b.merkle_root()));
}

TEST_F(BlockTest, SerializationRoundTrip) {
  const Block b = make_block(3, crypto::sha256("prev"), 6);
  const auto back = Block::deserialize(b.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq(), b.seq());
  EXPECT_EQ(back->signature(), b.signature());
  EXPECT_EQ(back->prev_hash(), b.prev_hash());
  EXPECT_EQ(back->merkle_root(), b.merkle_root());
  EXPECT_EQ(back->timestamp(), b.timestamp());
  ASSERT_EQ(back->plans().size(), b.plans().size());
  EXPECT_TRUE(back->verify_signature(*signer_.verifier()));
  EXPECT_TRUE(back->verify_merkle());
  EXPECT_EQ(back->hash(), b.hash());
}

TEST_F(BlockTest, DeserializeRejectsTruncation) {
  const Block b = make_block(0, {}, 3);
  Bytes bytes = b.serialize();
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{3}}) {
    Bytes truncated(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(Block::deserialize(truncated).has_value()) << "cut " << cut;
  }
}

TEST_F(BlockTest, WireSizeGrowsWithPlans) {
  EXPECT_LT(make_block(0, {}, 1).wire_size(), make_block(0, {}, 20).wire_size());
}

TEST(BlockWireSize, EqualsSerializedSizeOverRandomizedBlocks) {
  // wire_size() is derived once at construction and feeds net.bytes (and so
  // every digest): it must equal the bytes serialize() actually writes.
  Rng key_rng(7);
  const auto rsa = crypto::RsaSigner::generate(key_rng, 1024);
  const crypto::HmacSigner hmac(Bytes{'w', 'i', 'r', 'e'});
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const crypto::Signer& signer =
        trial % 2 == 0 ? static_cast<const crypto::Signer&>(hmac) : *rsa;
    std::vector<aim::TravelPlan> plans(rng.uniform_int(0, 40));
    for (std::size_t i = 0; i < plans.size(); ++i) {
      aim::TravelPlan& p = plans[i];
      p.vehicle = VehicleId{rng.next_u64() % 100000 + 1};
      p.route_id = static_cast<int>(rng.uniform_int(0, 11));
      const int n_segments = static_cast<int>(rng.uniform_int(1, 4));
      for (int s = 0; s < n_segments; ++s) {
        p.segments.push_back(aim::PlanSegment{static_cast<Tick>(rng.uniform_int(0, 90000)),
                                              rng.uniform(0.0, 200.0),
                                              rng.uniform(0.0, 25.0)});
      }
      p.issued_at = static_cast<Tick>(rng.uniform_int(0, 90000));
      p.evacuation = rng.uniform_int(0, 1) == 1;
    }
    std::vector<VehicleId> revoked(rng.uniform_int(0, 5));
    for (VehicleId& v : revoked) v = VehicleId{rng.next_u64() % 1000 + 1};
    const Block b =
        Block::package(static_cast<BlockSeq>(trial), crypto::sha256("prev"),
                       static_cast<Tick>(trial) * 100, std::move(plans), signer,
                       std::move(revoked));
    EXPECT_EQ(b.wire_size(), b.serialize().size()) << "trial " << trial;
    const auto back = Block::deserialize(b.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->wire_size(), b.wire_size()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace nwade::chain
