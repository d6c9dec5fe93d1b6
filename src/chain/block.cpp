#include "chain/block.h"

#include <utility>

namespace nwade::chain {

Block::Block(Header header, std::vector<aim::TravelPlan> plans)
    : header_(std::move(header)), plans_(std::move(plans)), tree_(tree_of(plans_)) {
  derive();
}

Block::Block(Header header, std::vector<aim::TravelPlan> plans, crypto::MerkleTree tree)
    : header_(std::move(header)), plans_(std::move(plans)), tree_(std::move(tree)) {
  derive();
}

void Block::derive() {
  payload_ = payload_of(header_);
  crypto::Sha256 h;
  h.update(header_.signature);
  h.update(payload_);
  hash_ = h.finish();
  // Header (100 bytes + signature + revoked ids) plus each length-prefixed
  // plan: exactly what serialize() writes.
  wire_size_ = 100 + header_.signature.size() + 8 * header_.revoked.size();
  for (const aim::TravelPlan& p : plans_) wire_size_ += 4 + p.wire_size();
}

Bytes Block::payload_of(const Header& header) {
  // u64 seq + length-prefixed 32-byte hashes + i64 timestamp + u32 count +
  // u64 ids.
  ByteWriter w;
  w.reserve(92 + 8 * header.revoked.size());
  w.u64(header.seq);
  w.bytes(header.prev_hash);
  w.i64(header.timestamp);
  w.bytes(header.merkle_root);
  w.u32(static_cast<std::uint32_t>(header.revoked.size()));
  for (VehicleId v : header.revoked) w.u64(v.value);
  return w.take();
}

crypto::MerkleTree Block::tree_of(const std::vector<aim::TravelPlan>& plans) {
  std::vector<Bytes> leaves;
  leaves.reserve(plans.size());
  for (const aim::TravelPlan& p : plans) leaves.push_back(p.serialize());
  return crypto::MerkleTree(leaves);
}

Block Block::package(BlockSeq seq, const crypto::Digest& prev_hash, Tick timestamp,
                     std::vector<aim::TravelPlan> plans,
                     const crypto::Signer& signer, std::vector<VehicleId> revoked) {
  crypto::MerkleTree tree = tree_of(plans);
  Header header{{}, prev_hash, timestamp, tree.root(), seq, std::move(revoked)};
  header.signature = signer.sign(payload_of(header));
  return Block(std::move(header), std::move(plans), std::move(tree));
}

bool Block::verify_signature(const crypto::Verifier& verifier) const {
  return verifier.verify(payload_, header_.signature);
}

const aim::TravelPlan* Block::plan_for(VehicleId id) const {
  for (const aim::TravelPlan& p : plans_) {
    if (p.vehicle == id) return &p;
  }
  return nullptr;
}

Bytes Block::serialize() const {
  // Reserving the exact total turns the per-plan appends from repeated
  // geometric regrowth (quadratic copying on large windows) into one
  // allocation.
  ByteWriter w;
  w.reserve(wire_size_);
  w.bytes(header_.signature);
  w.bytes(header_.prev_hash);
  w.i64(header_.timestamp);
  w.bytes(header_.merkle_root);
  w.u64(header_.seq);
  w.u32(static_cast<std::uint32_t>(header_.revoked.size()));
  for (VehicleId v : header_.revoked) w.u64(v.value);
  w.u32(static_cast<std::uint32_t>(plans_.size()));
  for (const aim::TravelPlan& p : plans_) w.bytes(p.serialize());
  return w.take();
}

std::optional<Block> Block::deserialize(const Bytes& data) {
  ByteReader r(data);
  Header h;
  h.signature = r.bytes();
  const Bytes prev = r.bytes();
  if (prev.size() != h.prev_hash.size()) return std::nullopt;
  std::copy(prev.begin(), prev.end(), h.prev_hash.begin());
  h.timestamp = r.i64();
  const Bytes root = r.bytes();
  if (root.size() != h.merkle_root.size()) return std::nullopt;
  std::copy(root.begin(), root.end(), h.merkle_root.begin());
  h.seq = r.u64();
  const std::uint32_t n_revoked = r.u32();
  if (n_revoked > 100000) return std::nullopt;
  h.revoked.reserve(n_revoked);
  for (std::uint32_t i = 0; i < n_revoked; ++i) h.revoked.push_back(VehicleId{r.u64()});
  const std::uint32_t n = r.u32();
  if (n > 100000) return std::nullopt;
  std::vector<aim::TravelPlan> plans;
  plans.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto plan = aim::TravelPlan::deserialize(r.bytes());
    if (!plan) return std::nullopt;
    plans.push_back(std::move(*plan));
  }
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return Block(std::move(h), std::move(plans));
}

}  // namespace nwade::chain
