// The signed revocation list added to blocks: serialization, signature
// coverage, and propagation semantics. Tampered blocks are forged through
// Block(Header, plans).
#include <gtest/gtest.h>

#include "chain/store.h"

namespace nwade::chain {
namespace {

class RevocationTest : public ::testing::Test {
 protected:
  RevocationTest() : signer_(Bytes{'r', 'v'}) {}
  crypto::HmacSigner signer_;
};

TEST_F(RevocationTest, RoundTripsThroughSerialization) {
  const Block b = Block::package(0, {}, 100, {}, signer_,
                                 {VehicleId{5}, VehicleId{9}});
  const auto back = Block::deserialize(b.serialize());
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->revoked().size(), 2u);
  EXPECT_EQ(back->revoked()[0], VehicleId{5});
  EXPECT_EQ(back->revoked()[1], VehicleId{9});
  EXPECT_TRUE(back->verify_signature(*signer_.verifier()));
}

TEST_F(RevocationTest, SignatureCoversRevocations) {
  const Block honest = Block::package(0, {}, 100, {}, signer_, {VehicleId{5}});
  // Tampering with the revocation list must break the signature: otherwise a
  // compromised relay could un-revoke a threat.
  Block::Header cleared = honest.header();
  cleared.revoked.clear();
  const Block b(std::move(cleared), honest.plans());
  EXPECT_FALSE(b.verify_signature(*signer_.verifier()));
  Block::Header extended = honest.header();
  extended.revoked.push_back(VehicleId{6});
  const Block b2(std::move(extended), honest.plans());
  EXPECT_FALSE(b2.verify_signature(*signer_.verifier()));
}

TEST_F(RevocationTest, RevocationChangesBlockHash) {
  const Block a = Block::package(0, {}, 100, {}, signer_, {});
  const Block b = Block::package(0, {}, 100, {}, signer_, {VehicleId{1}});
  EXPECT_NE(a.hash(), b.hash());
}

TEST_F(RevocationTest, EmptyRevocationListIsDefault) {
  const Block b = Block::package(0, {}, 100, {}, signer_);
  EXPECT_TRUE(b.revoked().empty());
  EXPECT_TRUE(b.verify_signature(*signer_.verifier()));
}

TEST_F(RevocationTest, StoreAcceptsChainWithRevocations) {
  BlockStore store;
  const auto b0 =
      std::make_shared<const Block>(Block::package(0, {}, 100, {}, signer_, {}));
  ASSERT_TRUE(store.append(b0, *signer_.verifier()));
  const auto b1 = std::make_shared<const Block>(
      Block::package(1, b0->hash(), 200, {}, signer_, {VehicleId{42}}));
  EXPECT_TRUE(store.append(b1, *signer_.verifier()));
  EXPECT_EQ(store.latest()->revoked().size(), 1u);
}

}  // namespace
}  // namespace nwade::chain
