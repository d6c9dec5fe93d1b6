#include "crypto/verify_cache.h"

#include <algorithm>
#include <array>
#include <vector>

namespace nwade::crypto {

namespace {

/// The checkpoint's entry lists: key byte 8 picks the list.
constexpr std::size_t kCheckpointLists = 16;

std::size_t list_of(const Digest& key) { return key[8] % kCheckpointLists; }

}  // namespace

Digest SigVerifyCache::key_of(const Digest& verifier_fingerprint,
                              std::span<const std::uint8_t> msg,
                              std::span<const std::uint8_t> sig) {
  Sha256 h;
  h.update(verifier_fingerprint);
  // Length prefix keeps the (msg, sig) boundary unambiguous. Encoded on the
  // stack (little-endian u64, same bytes ByteWriter::u64 would emit): this
  // runs on every cache *hit*, so it must not touch the heap.
  std::uint8_t len[8];
  const std::uint64_t n = msg.size();
  for (int i = 0; i < 8; ++i) len[i] = static_cast<std::uint8_t>(n >> (8 * i));
  h.update(len);
  h.update(msg);
  h.update(sig);
  return h.finish();
}

std::optional<bool> SigVerifyCache::lookup(const Digest& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = verdicts_.find(key);
  if (it == verdicts_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;
}

void SigVerifyCache::store(const Digest& key, bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return;
  if (!verdicts_.try_emplace(key, ok).second) return;
  fifo_.emplace_back(next_seq_++, key);
  ++stats_.insertions;
  while (verdicts_.size() > capacity_) {
    verdicts_.erase(fifo_.front().second);
    fifo_.pop_front();
    ++stats_.evictions;
  }
}

std::size_t SigVerifyCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return verdicts_.size();
}

std::size_t SigVerifyCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

SigVerifyCache::Stats SigVerifyCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SigVerifyCache::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = Stats{};
}

void SigVerifyCache::checkpoint_save(ByteWriter& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.u64(capacity_);
  w.u64(next_seq_);
  w.u64(stats_.hits);
  w.u64(stats_.misses);
  w.u64(stats_.insertions);
  w.u64(stats_.evictions);
  std::array<std::vector<const std::pair<std::uint64_t, Digest>*>, kCheckpointLists>
      lists;
  for (const auto& entry : fifo_) lists[list_of(entry.second)].push_back(&entry);
  for (const auto& list : lists) {
    w.u32(static_cast<std::uint32_t>(list.size()));
    for (const auto* entry : list) {  // FIFO order within each list
      w.u64(entry->first);
      w.bytes(entry->second);
      w.u8(verdicts_.at(entry->second) ? 1 : 0);
    }
  }
}

bool SigVerifyCache::checkpoint_restore(ByteReader& r) {
  const std::uint64_t capacity = r.u64();
  const std::uint64_t next_seq = r.u64();
  Stats stats;
  stats.hits = r.u64();
  stats.misses = r.u64();
  stats.insertions = r.u64();
  stats.evictions = r.u64();
  if (!r.ok()) return false;
  std::unordered_map<Digest, bool, DigestHash> verdicts;
  std::vector<std::pair<std::uint64_t, Digest>> entries;
  for (std::size_t list = 0; list < kCheckpointLists; ++list) {
    const std::uint32_t n = r.u32();
    if (!r.ok() || n > r.remaining() / 45) return false;  // 45 bytes/entry
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t seq = r.u64();
      const Bytes key_bytes = r.bytes();
      const bool ok = r.u8() != 0;
      if (!r.ok() || key_bytes.size() != std::tuple_size_v<Digest>) return false;
      if (i > 0 && seq <= entries.back().first) return false;
      Digest key;
      std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
      if (!verdicts.try_emplace(key, ok).second) return false;
      if (verdicts.size() > capacity) return false;
      entries.emplace_back(seq, key);
    }
  }
  std::sort(entries.begin(), entries.end());

  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = static_cast<std::size_t>(capacity);
  next_seq_ = next_seq;
  stats_ = stats;
  verdicts_ = std::move(verdicts);
  fifo_.assign(entries.begin(), entries.end());
  return true;
}

}  // namespace nwade::crypto
