// SigVerifyCache contract: pure-function memoization with exact hit/miss
// accounting, FIFO bounded capacity, key-rotation safety, and a checkpoint
// section that round-trips byte for byte and rejects malformed input. Plus
// the RsaVerifyContext fast path, which must agree with rsa_verify
// bit-for-bit.
#include <gtest/gtest.h>

#include <vector>

#include "crypto/rsa.h"
#include "crypto/signer.h"
#include "crypto/verify_cache.h"
#include "util/rng.h"

namespace nwade::crypto {
namespace {

Digest digest_of(std::uint8_t fill) {
  Digest d{};
  d.fill(fill);
  return d;
}

TEST(SigVerifyCache, HitAndMissAccounting) {
  SigVerifyCache cache(8);
  const Digest k1 = digest_of(1);
  EXPECT_FALSE(cache.lookup(k1).has_value());
  cache.store(k1, true);
  const auto hit = cache.lookup(k1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit);

  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SigVerifyCache, NegativeVerdictsAreCachedToo) {
  SigVerifyCache cache(8);
  cache.store(digest_of(2), false);
  const auto hit = cache.lookup(digest_of(2));
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(*hit);
}

TEST(SigVerifyCache, FifoEvictionKeepsSizeBounded) {
  SigVerifyCache cache(4);
  for (std::uint8_t i = 0; i < 10; ++i) cache.store(digest_of(i), true);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 6u);
  // Oldest six gone, newest four retained.
  EXPECT_FALSE(cache.lookup(digest_of(0)).has_value());
  EXPECT_FALSE(cache.lookup(digest_of(5)).has_value());
  EXPECT_TRUE(cache.lookup(digest_of(6)).has_value());
  EXPECT_TRUE(cache.lookup(digest_of(9)).has_value());
}

TEST(SigVerifyCache, CapacityZeroDisablesCaching) {
  SigVerifyCache cache(0);
  cache.store(digest_of(3), true);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(digest_of(3)).has_value());
}

/// Key number `i`: byte 8 (the checkpoint list selector) cycles through all
/// 16 lists, bytes 0-1 keep every key distinct.
Digest spread_key(int i) {
  Digest d{};
  d[0] = static_cast<std::uint8_t>(i);
  d[1] = static_cast<std::uint8_t>(i >> 8);
  d[8] = static_cast<std::uint8_t>((i * 7) % 16);
  return d;
}

TEST(SigVerifyCache, OverflowEvictsExactlyTheOldestAcrossAllGroups) {
  SigVerifyCache cache(20);
  for (int i = 0; i < 50; ++i) cache.store(spread_key(i), i % 3 != 0);
  EXPECT_EQ(cache.size(), 20u);
  EXPECT_EQ(cache.stats().evictions, 30u);
  for (int i = 0; i < 50; ++i) {
    const auto verdict = cache.lookup(spread_key(i));
    ASSERT_EQ(verdict.has_value(), i >= 30) << "key " << i;
    if (verdict) {
      EXPECT_EQ(*verdict, i % 3 != 0) << "key " << i;
    }
  }
}

Bytes saved(const SigVerifyCache& cache) {
  ByteWriter w;
  cache.checkpoint_save(w);
  return w.take();
}

TEST(SigVerifyCache, SaveRestoreSaveIsByteEqual) {
  SigVerifyCache cache(24);
  for (int i = 0; i < 40; ++i) cache.store(spread_key(i), i % 2 == 0);
  (void)cache.lookup(spread_key(39));
  (void)cache.lookup(spread_key(0));
  const Bytes first = saved(cache);

  SigVerifyCache back(1);  // capacity comes from the section
  ByteReader r(first);
  ASSERT_TRUE(back.checkpoint_restore(r));
  EXPECT_EQ(back.capacity(), 24u);
  EXPECT_EQ(back.size(), 24u);
  EXPECT_EQ(saved(back), first);

  // The restored FIFO is the original one: both caches evict the same keys.
  for (int i = 40; i < 50; ++i) {
    cache.store(spread_key(i), true);
    back.store(spread_key(i), true);
  }
  EXPECT_EQ(saved(back), saved(cache));
}

/// One checkpoint entry: (seq, key, verdict) in list `list`.
struct CraftedEntry {
  std::size_t list;
  std::uint64_t seq;
  Digest key;
};

Bytes crafted_section(std::uint64_t capacity, const std::vector<CraftedEntry>& entries) {
  ByteWriter w;
  w.u64(capacity);
  w.u64(100);  // next seq
  for (int i = 0; i < 4; ++i) w.u64(0);  // hits, misses, insertions, evictions
  for (std::size_t list = 0; list < 16; ++list) {
    std::uint32_t n = 0;
    for (const CraftedEntry& e : entries) n += e.list == list ? 1 : 0;
    w.u32(n);
    for (const CraftedEntry& e : entries) {
      if (e.list != list) continue;
      w.u64(e.seq);
      w.bytes(e.key);
      w.u8(1);
    }
  }
  return w.take();
}

bool restores(const Bytes& section) {
  SigVerifyCache cache;
  ByteReader r(section);
  return cache.checkpoint_restore(r);
}

TEST(SigVerifyCache, CraftedSectionWellFormedIsAccepted) {
  const Digest a = spread_key(1);
  const Digest b = spread_key(2);
  EXPECT_TRUE(restores(crafted_section(4, {{a[8] % 16u, 3, a}, {b[8] % 16u, 5, b}})));
}

TEST(SigVerifyCache, RestoreRejectsDuplicateKey) {
  const Digest a = spread_key(1);
  EXPECT_FALSE(restores(crafted_section(4, {{a[8] % 16u, 3, a}, {a[8] % 16u, 4, a}})));
  // Also when the twin hides in another list.
  EXPECT_FALSE(restores(crafted_section(4, {{a[8] % 16u, 3, a}, {(a[8] + 1) % 16u, 4, a}})));
}

TEST(SigVerifyCache, RestoreRejectsSeqsNotIncreasingWithinAList) {
  const Digest a = spread_key(1);
  Digest b = spread_key(2);
  b[8] = a[8];  // same list
  EXPECT_FALSE(restores(crafted_section(4, {{a[8] % 16u, 5, a}, {b[8] % 16u, 5, b}})));
  EXPECT_FALSE(restores(crafted_section(4, {{a[8] % 16u, 5, a}, {b[8] % 16u, 4, b}})));
}

TEST(SigVerifyCache, RestoreRejectsMoreEntriesThanCapacity) {
  std::vector<CraftedEntry> entries;
  for (int i = 0; i < 3; ++i) {
    const Digest k = spread_key(i);
    entries.push_back({k[8] % 16u, static_cast<std::uint64_t>(i), k});
  }
  EXPECT_TRUE(restores(crafted_section(3, entries)));
  EXPECT_FALSE(restores(crafted_section(2, entries)));
  EXPECT_FALSE(restores(crafted_section(0, entries)));
}

TEST(SigVerifyCache, KeyOfSeparatesEveryInput) {
  const Bytes msg_a{1, 2, 3};
  const Bytes msg_b{1, 2, 4};
  const Bytes sig_a{9, 9};
  const Bytes sig_b{9, 8};
  const Digest fp_a = digest_of(10);
  const Digest fp_b = digest_of(11);

  const Digest base = SigVerifyCache::key_of(fp_a, msg_a, sig_a);
  EXPECT_EQ(base, SigVerifyCache::key_of(fp_a, msg_a, sig_a));
  EXPECT_NE(base, SigVerifyCache::key_of(fp_b, msg_a, sig_a));  // key rotated
  EXPECT_NE(base, SigVerifyCache::key_of(fp_a, msg_b, sig_a));  // msg tampered
  EXPECT_NE(base, SigVerifyCache::key_of(fp_a, msg_a, sig_b));  // sig tampered
  // Shifting a byte across the msg/sig boundary must change the key: the
  // encoding length-prefixes the message.
  const Bytes msg_long{1, 2, 3, 9};
  const Bytes sig_short{9};
  EXPECT_NE(SigVerifyCache::key_of(fp_a, msg_a, sig_a),
            SigVerifyCache::key_of(fp_a, msg_long, sig_short));
}

class RsaVerifyContextTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(424242);
    key_pair_ = new RsaKeyPair(rsa_generate(rng, 512));
  }
  static void TearDownTestSuite() {
    delete key_pair_;
    key_pair_ = nullptr;
  }
  static RsaKeyPair* key_pair_;
};

RsaKeyPair* RsaVerifyContextTest::key_pair_ = nullptr;

TEST_F(RsaVerifyContextTest, AgreesWithRsaVerify) {
  const RsaVerifyContext ctx(key_pair_->pub);
  const Bytes msg{'h', 'e', 'l', 'l', 'o'};
  const Bytes sig = rsa_sign(key_pair_->priv, msg);

  EXPECT_TRUE(ctx.verify(msg, sig));
  EXPECT_TRUE(rsa_verify(key_pair_->pub, msg, sig));

  Bytes tampered_sig = sig;
  tampered_sig[0] ^= 1;
  EXPECT_EQ(ctx.verify(msg, tampered_sig),
            rsa_verify(key_pair_->pub, msg, tampered_sig));
  EXPECT_FALSE(ctx.verify(msg, tampered_sig));

  const Bytes other_msg{'h', 'e', 'l', 'l', 'O'};
  EXPECT_FALSE(ctx.verify(other_msg, sig));

  const Bytes short_sig(sig.begin(), sig.end() - 1);
  EXPECT_FALSE(ctx.verify(msg, short_sig));
  EXPECT_FALSE(rsa_verify(key_pair_->pub, msg, short_sig));
}

TEST_F(RsaVerifyContextTest, FingerprintChangesWithKey) {
  Rng rng(77);
  const RsaKeyPair other = rsa_generate(rng, 512);
  const RsaVerifyContext a(key_pair_->pub);
  const RsaVerifyContext b(other.pub);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(), RsaVerifyContext(key_pair_->pub).fingerprint());
}

TEST_F(RsaVerifyContextTest, RsaVerifierWithCachePopulatesThatCache) {
  SigVerifyCache cache;
  const RsaSigner signer(*key_pair_);
  const auto verifier = signer.verifier_with_cache(cache);
  const Bytes msg{'b', 'l', 'o', 'c', 'k'};
  const Bytes sig = signer.sign(msg);

  EXPECT_TRUE(verifier->verify(msg, sig));   // miss -> modexp -> store
  EXPECT_TRUE(verifier->verify(msg, sig));   // hit
  EXPECT_TRUE(verifier->verify(msg, sig));   // hit
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 2u);

  // A second verifier for the SAME key shares the entries (fingerprint
  // equality), which is exactly the N-receivers-one-modexp effect.
  const auto verifier2 = RsaSigner(*key_pair_).verifier_with_cache(cache);
  EXPECT_TRUE(verifier2->verify(msg, sig));
  EXPECT_EQ(cache.stats().hits, 3u);

  // A different key never aliases: same msg/sig, fresh fingerprint -> miss.
  Rng rng(88);
  const RsaSigner other(rsa_generate(rng, 512));
  EXPECT_FALSE(other.verifier_with_cache(cache)->verify(msg, sig));
  EXPECT_EQ(cache.stats().misses, 2u);

  // The plain verifier memoizes nowhere.
  const Bytes other_msg{'b', 'l', 'o', 'c', 'K'};
  EXPECT_TRUE(signer.verifier()->verify(msg, sig));
  EXPECT_FALSE(signer.verifier()->verify(other_msg, sig));
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 5u);
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
}  // namespace nwade::crypto
