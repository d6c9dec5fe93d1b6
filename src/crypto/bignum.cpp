#include "crypto/bignum.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace nwade::crypto {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

void BigUint::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint::BigUint(u64 v) {
  if (v != 0) limbs_.push_back(v);
}

BigUint BigUint::from_bytes(std::span<const std::uint8_t> be) {
  BigUint out;
  out.limbs_.assign((be.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < be.size(); ++i) {
    // byte i (from the most-significant end) lands at bit offset 8*(n-1-i)
    const std::size_t bit = 8 * (be.size() - 1 - i);
    out.limbs_[bit / 64] |= static_cast<u64>(be[i]) << (bit % 64);
  }
  out.trim();
  return out;
}

BigUint BigUint::from_hex(std::string_view hex) {
  if (hex.size() % 2 == 1) {
    return from_bytes(nwade::from_hex(std::string("0") + std::string(hex)));
  }
  return from_bytes(nwade::from_hex(hex));
}

BigUint BigUint::random_bits(Rng& rng, int bits) {
  assert(bits >= 2);
  BigUint out;
  const int limbs = (bits + 63) / 64;
  out.limbs_.resize(limbs);
  for (auto& l : out.limbs_) l = rng.next_u64();
  const int top = (bits - 1) % 64;
  // Clear bits above the requested width, then force the msb.
  out.limbs_.back() &= (top == 63) ? ~0ULL : ((1ULL << (top + 1)) - 1);
  out.limbs_.back() |= 1ULL << top;
  out.trim();
  return out;
}

BigUint BigUint::random_below(Rng& rng, const BigUint& bound) {
  assert(bound > BigUint(4));
  const int bits = bound.bit_length();
  const BigUint two(2);
  const BigUint hi = bound - BigUint(2);  // sample in [2, bound-2]
  for (;;) {
    BigUint candidate;
    const int limbs = (bits + 63) / 64;
    candidate.limbs_.resize(limbs);
    for (auto& l : candidate.limbs_) l = rng.next_u64();
    const int top = (bits - 1) % 64;
    candidate.limbs_.back() &= (top == 63) ? ~0ULL : ((1ULL << (top + 1)) - 1);
    candidate.trim();
    if (candidate >= two && candidate <= hi) return candidate;
  }
}

int BigUint::bit_length() const {
  if (limbs_.empty()) return 0;
  const u64 top = limbs_.back();
  return static_cast<int>((limbs_.size() - 1) * 64) + (64 - std::countl_zero(top));
}

bool BigUint::bit(int i) const {
  const std::size_t limb_idx = static_cast<std::size_t>(i) / 64;
  if (limb_idx >= limbs_.size()) return false;
  return (limbs_[limb_idx] >> (i % 64)) & 1;
}

Bytes BigUint::to_bytes(std::size_t min_len) const {
  const int bytes = (bit_length() + 7) / 8;
  const std::size_t out_len = std::max<std::size_t>(bytes, min_len);
  Bytes out(out_len, 0);
  for (int i = 0; i < bytes; ++i) {
    const std::size_t bit_off = 8 * static_cast<std::size_t>(i);
    out[out_len - 1 - i] = static_cast<std::uint8_t>(limbs_[bit_off / 64] >> (bit_off % 64));
  }
  return out;
}

std::string BigUint::to_hex() const {
  if (is_zero()) return "00";
  return nwade::to_hex(to_bytes());
}

int BigUint::compare(const BigUint& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] < other.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUint BigUint::operator+(const BigUint& o) const {
  BigUint out;
  const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
  out.limbs_.resize(n + 1);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 sum = static_cast<u128>(limb(i)) + o.limb(i) + carry;
    out.limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  out.limbs_[n] = carry;
  out.trim();
  return out;
}

BigUint BigUint::operator-(const BigUint& o) const {
  assert(*this >= o);
  BigUint out;
  out.limbs_.resize(limbs_.size());
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const u64 rhs = o.limb(i);
    const u64 lhs = limbs_[i];
    u64 diff = lhs - rhs;
    const u64 borrow_next = (lhs < rhs) || (diff < borrow) ? 1 : 0;
    diff -= borrow;
    out.limbs_[i] = diff;
    borrow = borrow_next;
  }
  out.trim();
  return out;
}

BigUint BigUint::operator*(const BigUint& o) const {
  if (is_zero() || o.is_zero()) return BigUint();
  BigUint out;
  out.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < o.limbs_.size(); ++j) {
      const u128 cur = static_cast<u128>(limbs_[i]) * o.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out.limbs_[i + o.limbs_.size()] += carry;
  }
  out.trim();
  return out;
}

BigUint BigUint::operator<<(int bits) const {
  if (is_zero() || bits == 0) return *this;
  const int limb_shift = bits / 64;
  const int bit_shift = bits % 64;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
  }
  out.trim();
  return out;
}

BigUint BigUint::operator>>(int bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = static_cast<std::size_t>(bits) / 64;
  const int bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigUint();
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

std::pair<BigUint, BigUint> BigUint::divmod(const BigUint& divisor) const {
  assert(!divisor.is_zero());
  if (*this < divisor) return {BigUint(), *this};
  if (divisor.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    BigUint q;
    q.limbs_.resize(limbs_.size());
    const u64 d = divisor.limbs_[0];
    u128 rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const u128 cur = (rem << 64) | limbs_[i];
      q.limbs_[i] = static_cast<u64>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {q, BigUint(static_cast<u64>(rem))};
  }

  // Knuth's Algorithm D (TAOCP vol. 2, 4.3.1) on 64-bit limbs. Both operands
  // are shifted left until the divisor's top bit is set; each quotient limb
  // is then estimated from the remainder's top two limbs, corrected against
  // the divisor's second limb (the estimate is then at most one too large),
  // and multiplied and subtracted, with an add-back on that rare overshoot.
  const std::size_t n = divisor.limbs_.size();
  const std::size_t m = limbs_.size() - n;
  const int shift = std::countl_zero(divisor.limbs_.back());
  const auto shifted = [shift](const u64* x, std::size_t i) {
    // Limb i of x << shift, reading x[i - 1] for the carried-in bits.
    return shift == 0 ? x[i] : (x[i] << shift) | (i > 0 ? x[i - 1] >> (64 - shift) : 0);
  };
  detail::LimbVec v;
  v.resize(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = shifted(divisor.limbs_.data(), i);
  detail::LimbVec u;  // the running remainder, one limb longer than *this
  u.resize(m + n + 1);
  for (std::size_t i = 0; i < m + n; ++i) u[i] = shifted(limbs_.data(), i);
  u[m + n] = shift == 0 ? 0 : limbs_[m + n - 1] >> (64 - shift);

  const u64 v_top = v[n - 1];
  const u64 v_next = v[n - 2];
  BigUint quo;
  quo.limbs_.resize(m + 1);
  for (std::size_t j = m + 1; j-- > 0;) {
    const u128 top = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 qhat = top / v_top;
    u128 rhat = top % v_top;
    while ((qhat >> 64) != 0 ||
           qhat * v_next > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if ((rhat >> 64) != 0) break;
    }
    // u[j .. j+n] -= qhat * v
    u64 mul_carry = 0;
    u64 borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 p = qhat * v[i] + mul_carry;
      mul_carry = static_cast<u64>(p >> 64);
      const u64 lo = static_cast<u64>(p);
      const u64 diff = u[i + j] - lo;
      const u64 next_borrow = (u[i + j] < lo) || (diff < borrow) ? 1 : 0;
      u[i + j] = diff - borrow;
      borrow = next_borrow;
    }
    const u64 head = u[j + n] - mul_carry;
    const bool negative = (u[j + n] < mul_carry) || (head < borrow);
    u[j + n] = head - borrow;
    if (negative) {
      // qhat was one too large: add v back (the carry out cancels the borrow).
      --qhat;
      u64 carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u128 sum = static_cast<u128>(u[i + j]) + v[i] + carry;
        u[i + j] = static_cast<u64>(sum);
        carry = static_cast<u64>(sum >> 64);
      }
      u[j + n] += carry;
    }
    quo.limbs_[j] = static_cast<u64>(qhat);
  }
  quo.trim();

  // The remainder is u[0 .. n), still shifted left.
  BigUint rem;
  rem.limbs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    rem.limbs_[i] = shift == 0 ? u[i] : (u[i] >> shift) | (u[i + 1] << (64 - shift));
  }
  rem.trim();
  return {quo, rem};
}

std::uint64_t BigUint::mod_u64(std::uint64_t m) const {
  assert(m != 0);
  u128 rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << 64) | limbs_[i]) % m;
  }
  return static_cast<u64>(rem);
}

BigUint BigUint::mod_pow(const BigUint& exp, const BigUint& modulus) const {
  assert(modulus.is_odd() && modulus.bit_length() > 1);
  return Montgomery(modulus).pow(*this, exp);
}

BigUint BigUint::gcd(BigUint a, BigUint b) {
  while (!b.is_zero()) {
    BigUint r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigUint BigUint::mod_inverse(const BigUint& modulus) const {
  // Extended Euclid tracking only the coefficient of *this*, with the sign
  // carried separately (coefficients alternate in sign along the remainders).
  BigUint r0 = modulus, r1 = *this % modulus;
  BigUint t0, t1(1);  // t coefficients: inverse candidates mod modulus
  bool t0_neg = false, t1_neg = false;
  while (!r1.is_zero()) {
    const auto [q, r2] = r0.divmod(r1);
    // t2 = t0 - q * t1 with explicit sign handling.
    const BigUint qt1 = q * t1;
    BigUint t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt1) {
        t2 = t0 - qt1;
        t2_neg = t0_neg;
      } else {
        t2 = qt1 - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt1;
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = r2;
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (!r0.is_one()) return BigUint();  // not invertible
  if (t0_neg) return modulus - (t0 % modulus);
  return t0 % modulus;
}

// --- Montgomery ---------------------------------------------------------------

Montgomery::Montgomery(const BigUint& modulus) : modulus_(modulus) {
  assert(modulus.is_odd() && modulus.bit_length() > 1);
  n_ = modulus.limb_count();
  // n0_ = -m^{-1} mod 2^64 via Newton iteration on the low limb.
  const u64 m0 = modulus.limb(0);
  u64 inv = m0;  // 3 bits correct
  for (int i = 0; i < 6; ++i) inv *= 2 - m0 * inv;  // doubles correct bits
  n0_ = ~inv + 1;  // negate mod 2^64

  one_.assign(n_, 0);
  one_[0] = 1;

  // R^2 mod m where R = 2^(64 n), via 128*n modular doublings of 1. Every
  // intermediate fits in n+1 limbs, so this sidesteps the bit-at-a-time long
  // division a 2^(128 n) % m divmod would cost (and its 4096-bit temporaries).
  const u64* mod = modulus_.limbs_.data();
  std::vector<u64> acc(n_ + 1, 0);
  acc[0] = 1;  // m is odd and > 1, so 1 mod m = 1
  for (std::size_t step = 0; step < 128 * n_; ++step) {
    u64 carry = 0;
    for (std::size_t j = 0; j <= n_; ++j) {
      const u64 next = acc[j] >> 63;
      acc[j] = (acc[j] << 1) | carry;
      carry = next;
    }
    // Conditional subtract: acc < 2m after the doubling, so once is enough.
    bool ge = acc[n_] != 0;
    if (!ge) {
      ge = true;
      for (std::size_t j = n_; j-- > 0;) {
        if (acc[j] != mod[j]) {
          ge = acc[j] > mod[j];
          break;
        }
      }
    }
    if (ge) {
      u64 borrow = 0;
      for (std::size_t j = 0; j < n_; ++j) {
        const u64 lhs = acc[j];
        u64 diff = lhs - mod[j];
        const u64 next = (lhs < mod[j]) || (diff < borrow) ? 1 : 0;
        diff -= borrow;
        acc[j] = diff;
        borrow = next;
      }
      acc[n_] -= borrow;
    }
  }
  acc.resize(n_);  // reduced below m: the top limb is zero
  rr_ = std::move(acc);

  // Montgomery form of 1: mont_mul(R^2, 1) = R mod m.
  one_mont_.assign(n_, 0);
  std::vector<u64> scratch(n_ + 2);
  mont_mul(one_mont_.data(), rr_.data(), one_.data(), scratch.data());
}

void Montgomery::mont_mul(u64* dst, const u64* a, const u64* b, u64* scratch) const {
  // CIOS (coarsely integrated operand scanning) into `scratch` (n+2 limbs);
  // `dst` is written only after the final reduction, so it may alias a or b.
  const u64* mod = modulus_.limbs_.data();
  u64* t = scratch;
  std::memset(t, 0, (n_ + 2) * sizeof(u64));
  for (std::size_t i = 0; i < n_; ++i) {
    // t += a[i] * b
    u64 carry = 0;
    for (std::size_t j = 0; j < n_; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 sum = static_cast<u128>(t[n_]) + carry;
    t[n_] = static_cast<u64>(sum);
    t[n_ + 1] = static_cast<u64>(sum >> 64);

    // m = t[0] * n0' mod 2^64; t += m * mod; t >>= 64
    const u64 m = t[0] * n0_;
    const u128 first = static_cast<u128>(m) * mod[0] + t[0];
    carry = static_cast<u64>(first >> 64);
    for (std::size_t j = 1; j < n_; ++j) {
      const u128 cur = static_cast<u128>(m) * mod[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    sum = static_cast<u128>(t[n_]) + carry;
    t[n_ - 1] = static_cast<u64>(sum);
    t[n_] = t[n_ + 1] + static_cast<u64>(sum >> 64);
    t[n_ + 1] = 0;
  }
  // Conditional final subtraction.
  bool ge = t[n_] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = n_; i-- > 0;) {
      const u64 mi = mod[i];
      if (t[i] != mi) {
        ge = t[i] > mi;
        break;
      }
      if (i == 0) ge = true;  // equal -> subtract
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      const u64 mi = mod[i];
      const u64 lhs = t[i];
      u64 diff = lhs - mi;
      const u64 next = (lhs < mi) || (diff < borrow) ? 1 : 0;
      diff -= borrow;
      t[i] = diff;
      borrow = next;
    }
    t[n_] -= borrow;
  }
  std::memcpy(dst, t, n_ * sizeof(u64));
}

void Montgomery::to_mont(u64* dst, const BigUint& x, u64* scratch) const {
  if (x.compare(modulus_) < 0) {
    // Already reduced (the hot case: RSA bases are pre-reduced) — pad in place.
    const std::size_t k = x.limbs_.size();
    std::memcpy(dst, x.limbs_.data(), k * sizeof(u64));
    std::memset(dst + k, 0, (n_ - k) * sizeof(u64));
  } else {
    const BigUint xr = x % modulus_;  // cold path
    const std::size_t k = xr.limbs_.size();
    std::memcpy(dst, xr.limbs_.data(), k * sizeof(u64));
    std::memset(dst + k, 0, (n_ - k) * sizeof(u64));
  }
  mont_mul(dst, dst, rr_.data(), scratch);
}

BigUint Montgomery::pow(const BigUint& base, const BigUint& exp,
                        MontWorkspace& ws) const {
  if (exp.is_zero()) return BigUint(1) % modulus_;

  // One flat workspace: 16-entry contiguous window table, accumulator, the
  // base in Montgomery form, and the CIOS scratch — laid out back to back so
  // a warmed workspace serves every call without touching the heap.
  u64* w = ws.ensure(pow_workspace_limbs());
  u64* table = w;                  // 16 * n_ limbs: b^0 .. b^15
  u64* acc = table + 16 * n_;      // n_ limbs
  u64* basem = acc + n_;           // n_ limbs
  u64* scratch = basem + n_;       // n_ + 2 limbs

  to_mont(basem, base, scratch);
  std::memcpy(table, one_mont_.data(), n_ * sizeof(u64));  // = R mod m
  std::memcpy(table + n_, basem, n_ * sizeof(u64));
  for (int i = 2; i < 16; ++i) {
    mont_mul(table + static_cast<std::size_t>(i) * n_,
             table + static_cast<std::size_t>(i - 1) * n_, basem, scratch);
  }

  const int bits = exp.bit_length();
  const int windows = (bits + 3) / 4;
  std::memcpy(acc, table, n_ * sizeof(u64));
  for (int win = windows - 1; win >= 0; --win) {
    for (int s = 0; s < 4; ++s) mont_mul(acc, acc, acc, scratch);
    int nibble = 0;
    for (int s = 3; s >= 0; --s) {
      nibble = (nibble << 1) | (exp.bit(win * 4 + s) ? 1 : 0);
    }
    if (nibble != 0) {
      mont_mul(acc, acc, table + static_cast<std::size_t>(nibble) * n_, scratch);
    }
  }
  // Out of Montgomery form: mont_mul(acc, 1) = acc * R^{-1}.
  mont_mul(acc, acc, one_.data(), scratch);

  BigUint out;
  out.limbs_.assign(acc, n_);
  out.trim();
  return out;
}

BigUint Montgomery::pow(const BigUint& base, const BigUint& exp) const {
  static thread_local MontWorkspace tls_ws;
  return pow(base, exp, tls_ws);
}

// --- Primality ----------------------------------------------------------------

namespace {
constexpr u64 kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,
    59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127,
    131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283};
}  // namespace

bool is_probable_prime(const BigUint& n, Rng& rng, int rounds) {
  if (n.bit_length() <= 1) return false;
  if (n == BigUint(2) || n == BigUint(3)) return true;
  if (!n.is_odd()) return false;
  for (u64 p : kSmallPrimes) {
    if (n == BigUint(p)) return true;
    if (n.mod_u64(p) == 0) return false;
  }

  // Write n-1 = d * 2^r.
  const BigUint n_minus_1 = n - BigUint(1);
  BigUint d = n_minus_1;
  int r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }

  const Montgomery mont(n);
  for (int round = 0; round < rounds; ++round) {
    const BigUint a = BigUint::random_below(rng, n);
    BigUint x = mont.pow(a, d);
    if (x.is_one() || x == n_minus_1) continue;
    bool composite = true;
    for (int i = 0; i < r - 1; ++i) {
      x = mont.pow(x, BigUint(2));
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigUint generate_prime(Rng& rng, int bits) {
  assert(bits >= 16);
  for (;;) {
    BigUint candidate = BigUint::random_bits(rng, bits);
    if (!candidate.is_odd()) candidate = candidate + BigUint(1);
    // Cheap sieve before the expensive Miller-Rabin rounds.
    bool sieved = false;
    for (u64 p : kSmallPrimes) {
      if (candidate.mod_u64(p) == 0) {
        sieved = true;
        break;
      }
    }
    if (sieved) continue;
    if (is_probable_prime(candidate, rng, 24)) return candidate;
  }
}

}  // namespace nwade::crypto
