// Bignum arithmetic: known answers, algebraic properties, and randomized
// cross-checks between independent code paths (divmod vs mul/add, Montgomery
// pow vs naive square-and-multiply).
#include "crypto/bignum.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace nwade::crypto {
namespace {

BigUint big(std::string_view hex) { return BigUint::from_hex(hex); }

TEST(BigUint, ZeroBasics) {
  BigUint z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.bit_length(), 0);
  EXPECT_EQ(z + z, z);
  EXPECT_EQ(z * BigUint(12345), z);
}

TEST(BigUint, HexRoundTrip) {
  const BigUint v = big("deadbeefcafebabe0123456789abcdef");
  EXPECT_EQ(v.to_hex(), "deadbeefcafebabe0123456789abcdef");
  EXPECT_EQ(BigUint::from_bytes(v.to_bytes()), v);
}

TEST(BigUint, OddHexLengthParses) {
  EXPECT_EQ(big("f"), BigUint(15));
  EXPECT_EQ(big("123"), BigUint(0x123));
}

TEST(BigUint, AdditionCarriesAcrossLimbs) {
  const BigUint a = big("ffffffffffffffffffffffffffffffff");
  EXPECT_EQ(a + BigUint(1), big("0100000000000000000000000000000000"));
}

TEST(BigUint, SubtractionBorrowsAcrossLimbs) {
  const BigUint a = big("0100000000000000000000000000000000");
  EXPECT_EQ(a - BigUint(1), big("ffffffffffffffffffffffffffffffff"));
}

TEST(BigUint, MultiplicationKnownAnswer) {
  // 0xFFFFFFFFFFFFFFFF^2 = 0xFFFFFFFFFFFFFFFE0000000000000001
  const BigUint a(0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(a * a, big("fffffffffffffffe0000000000000001"));
}

TEST(BigUint, ShiftInverse) {
  const BigUint v = big("123456789abcdef0fedcba9876543210");
  for (int s : {1, 7, 63, 64, 65, 130}) {
    EXPECT_EQ((v << s) >> s, v) << "shift " << s;
  }
}

TEST(BigUint, DivmodIdentityRandomized) {
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    const BigUint a = BigUint::random_bits(rng, 20 + static_cast<int>(rng.uniform_int(2, 500)));
    const BigUint b = BigUint::random_bits(rng, 2 + static_cast<int>(rng.uniform_int(2, 260)));
    const auto [q, r] = a.divmod(b);
    EXPECT_TRUE(r < b);
    EXPECT_EQ(q * b + r, a);
  }
}

/// A value of exactly `limbs` limbs (top limb non-zero) whose limbs favour
/// the cases long division gets wrong: all ones, near 2^64, near zero.
BigUint structured_limbs(Rng& rng, int limbs) {
  std::string hex;
  for (int i = 0; i < limbs; ++i) {
    std::uint64_t limb = 0;
    switch (rng.uniform_int(0, 4)) {
      case 0: limb = ~0ULL; break;
      case 1: limb = ~0ULL - static_cast<std::uint64_t>(rng.uniform_int(0, 3)); break;
      case 2: limb = static_cast<std::uint64_t>(rng.uniform_int(0, 3)); break;
      case 3: limb = 1ULL << 63; break;
      default: limb = rng.next_u64(); break;
    }
    if (i == 0 && limb == 0) limb = 1;  // hex is most significant first
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(limb));
    hex += buf;
  }
  return big(hex);
}

TEST(BigUint, DivmodPropertyAcrossLimbCounts) {
  // q*d + r == a and r < d for 1-65 limb operands, half of them with the
  // divisor's top limb near 2^64 (no normalization shift) and limbs that
  // stress the quotient estimate and its add-back correction.
  Rng rng(1965);
  for (int i = 0; i < 3000; ++i) {
    const int a_limbs = static_cast<int>(rng.uniform_int(1, 65));
    const int d_limbs = static_cast<int>(rng.uniform_int(1, 65));
    const BigUint a = i % 2 == 0 ? structured_limbs(rng, a_limbs)
                                 : BigUint::random_bits(rng, 64 * a_limbs);
    BigUint d = i % 3 == 0 ? BigUint::random_bits(rng, 64 * d_limbs)
                           : structured_limbs(rng, d_limbs);
    if (i % 4 == 1) d = BigUint::random_bits(rng, 64 * d_limbs - static_cast<int>(rng.uniform_int(0, 62)));
    const auto [q, r] = a.divmod(d);
    ASSERT_TRUE(r < d) << "a=" << a.to_hex() << " d=" << d.to_hex();
    ASSERT_EQ(q * d + r, a) << "a=" << a.to_hex() << " d=" << d.to_hex();
  }
}

TEST(BigUint, DivmodSingleLimbMatchesGeneric) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const BigUint a = BigUint::random_bits(rng, 200);
    const std::uint64_t d = rng.next_u64() | 1;
    const auto [q, r] = a.divmod(BigUint(d));
    EXPECT_EQ(a.mod_u64(d), r.is_zero() ? 0 : r.limb(0));
    EXPECT_EQ(q * BigUint(d) + r, a);
  }
}

TEST(BigUint, CompareOrdering) {
  EXPECT_LT(BigUint(1), BigUint(2));
  EXPECT_LT(BigUint(0xFFFFFFFFFFFFFFFFULL), big("010000000000000000"));
  EXPECT_EQ(big("00ff"), BigUint(255));
}

// Naive square-and-multiply mod m, reference for Montgomery pow.
BigUint naive_mod_pow(const BigUint& base, const BigUint& exp, const BigUint& m) {
  BigUint result(1);
  result = result % m;
  BigUint b = base % m;
  for (int i = exp.bit_length() - 1; i >= 0; --i) {
    result = (result * result) % m;
    if (exp.bit(i)) result = (result * b) % m;
  }
  return result;
}

TEST(BigUint, ModPowMatchesNaive) {
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    BigUint m = BigUint::random_bits(rng, 128);
    if (!m.is_odd()) m = m + BigUint(1);
    const BigUint base = BigUint::random_bits(rng, 150);
    const BigUint exp = BigUint::random_bits(rng, 40);
    EXPECT_EQ(base.mod_pow(exp, m), naive_mod_pow(base, exp, m)) << "iter " << i;
  }
}

TEST(BigUint, ModPowEdgeCases) {
  const BigUint m = big("10001");  // 65537 (prime)
  EXPECT_EQ(BigUint(5).mod_pow(BigUint(), m), BigUint(1));   // x^0 = 1
  EXPECT_EQ(BigUint().mod_pow(BigUint(10), m), BigUint());   // 0^k = 0
  // Fermat: a^(p-1) = 1 mod p
  EXPECT_EQ(BigUint(12345).mod_pow(m - BigUint(1), m), BigUint(1));
}

TEST(BigUint, ModInverseKnownValues) {
  // 3^{-1} mod 7 = 5
  EXPECT_EQ(BigUint(3).mod_inverse(BigUint(7)), BigUint(5));
  // 65537^{-1} mod a known phi
  const BigUint phi = big("f37e40d4d9f3a4f1b2c3d4e5f60718293a4b5c6d7e8f90a0");
  const BigUint e(65537);
  const BigUint d = e.mod_inverse(phi);
  if (!d.is_zero()) {
    EXPECT_EQ((d * e) % phi, BigUint(1));
  }
}

TEST(BigUint, ModInverseRandomized) {
  Rng rng(1234);
  int checked = 0;
  for (int i = 0; i < 100; ++i) {
    const BigUint m = BigUint::random_bits(rng, 96);
    const BigUint a = BigUint::random_bits(rng, 80);
    if (BigUint::gcd(a, m) != BigUint(1)) continue;
    const BigUint inv = a.mod_inverse(m);
    ASSERT_FALSE(inv.is_zero());
    EXPECT_EQ((inv * a) % m, BigUint(1));
    ++checked;
  }
  EXPECT_GT(checked, 20);  // the sweep must actually exercise the path
}

TEST(BigUint, ModInverseNonCoprimeReturnsZero) {
  EXPECT_TRUE(BigUint(6).mod_inverse(BigUint(9)).is_zero());
  EXPECT_TRUE(BigUint(10).mod_inverse(BigUint(20)).is_zero());
}

TEST(BigUint, GcdKnownValues) {
  EXPECT_EQ(BigUint::gcd(BigUint(48), BigUint(36)), BigUint(12));
  EXPECT_EQ(BigUint::gcd(BigUint(17), BigUint(31)), BigUint(1));
  EXPECT_EQ(BigUint::gcd(BigUint(), BigUint(5)), BigUint(5));
}

TEST(Primality, SmallKnownPrimes) {
  Rng rng(5);
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 65537ULL, 2147483647ULL}) {
    EXPECT_TRUE(is_probable_prime(BigUint(p), rng)) << p;
  }
}

TEST(Primality, SmallKnownComposites) {
  Rng rng(6);
  // Includes Carmichael numbers 561, 41041 which fool Fermat-only tests.
  for (std::uint64_t c : {1ULL, 4ULL, 9ULL, 561ULL, 41041ULL, 65536ULL, 1000001ULL}) {
    EXPECT_FALSE(is_probable_prime(BigUint(c), rng)) << c;
  }
}

TEST(Primality, KnownLargePrime) {
  Rng rng(7);
  // 2^127 - 1 is a Mersenne prime.
  const BigUint m127 = (BigUint(1) << 127) - BigUint(1);
  EXPECT_TRUE(is_probable_prime(m127, rng));
  // 2^128 - 1 factors as 3 * 5 * 17 * ...
  EXPECT_FALSE(is_probable_prime((BigUint(1) << 128) - BigUint(1), rng));
}

TEST(Primality, GeneratePrimeHasExactBitLength) {
  Rng rng(8);
  for (int bits : {64, 128, 256}) {
    const BigUint p = generate_prime(rng, bits);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
  }
}

TEST(Montgomery, PowMatchesNaiveOnLargeModulus) {
  Rng rng(21);
  BigUint m = BigUint::random_bits(rng, 512);
  if (!m.is_odd()) m = m + BigUint(1);
  const Montgomery mont(m);
  for (int i = 0; i < 10; ++i) {
    const BigUint base = BigUint::random_bits(rng, 512);
    const BigUint exp = BigUint::random_bits(rng, 32);
    EXPECT_EQ(mont.pow(base, exp), naive_mod_pow(base, exp, m));
  }
}

TEST(Rng, DeterministicStreams) {
  Rng a(77), b(77);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c = a.fork(1), d = b.fork(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c.next_u64(), d.next_u64());
  // Different salts give different streams.
  Rng e = a.fork(2);
  EXPECT_NE(c.next_u64(), e.next_u64());
}

TEST(Rng, PoissonMeanRoughlyCorrect) {
  Rng rng(3);
  for (double mean : {0.5, 4.0, 40.0}) {
    double total = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) total += rng.poisson(mean);
    EXPECT_NEAR(total / n, mean, mean * 0.08 + 0.05);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

}  // namespace
}  // namespace nwade::crypto
