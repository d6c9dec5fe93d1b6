#include "chain/store.h"

#include <algorithm>
#include <functional>
#include <string>

namespace nwade::chain {
namespace {

bool by_vehicle(const BlockStore::PlanRef& r, VehicleId id) { return r.vehicle < id; }

/// True when `p` points into `block`'s plans.
bool holds(const Block& block, const aim::TravelPlan* p) {
  const std::vector<aim::TravelPlan>& plans = block.plans();
  const std::less<const aim::TravelPlan*> less;
  return !less(p, plans.data()) && less(p, plans.data() + plans.size());
}

}  // namespace

const char* chain_error_name(ChainError e) {
  switch (e) {
    case ChainError::kBadSignature: return "bad_signature";
    case ChainError::kBadMerkleRoot: return "bad_merkle_root";
    case ChainError::kBrokenLinkage: return "broken_linkage";
    case ChainError::kNonMonotonicSeq: return "non_monotonic_seq";
    case ChainError::kStaleTimestamp: return "stale_timestamp";
  }
  return "?";
}

Result<void, ChainError> BlockStore::append(BlockPtr block,
                                            const crypto::Verifier& verifier) {
  if (!block->verify_signature(verifier)) return ChainError::kBadSignature;
  if (!block->verify_merkle()) return ChainError::kBadMerkleRoot;
  if (!blocks_.empty()) {
    const Block& prev = *blocks_.back();
    if (block->seq() != prev.seq() + 1) return ChainError::kNonMonotonicSeq;
    if (block->prev_hash() != prev.hash()) return ChainError::kBrokenLinkage;
    if (block->timestamp() < prev.timestamp()) return ChainError::kStaleTimestamp;
  }
  blocks_.push_back(std::move(block));
  index_plans(*blocks_.back());
  while (blocks_.size() > max_depth_) evict_oldest();
  return Result<void, ChainError>::ok();
}

void BlockStore::index_plans(const Block& block) {
  for (const aim::TravelPlan& p : block.plans()) {
    const auto it = std::lower_bound(index_.begin(), index_.end(), p.vehicle, by_vehicle);
    if (it == index_.end() || it->vehicle != p.vehicle) {
      index_.insert(it, PlanRef{p.vehicle, &p});
    } else if (!holds(block, it->plan)) {
      it->plan = &p;  // an entry into `block` is an earlier duplicate: it wins
    }
  }
}

void BlockStore::evict_oldest() {
  // No older block is cached, so an entry into the evicted block has no
  // older plan to fall back to.
  const Block& oldest = *blocks_.front();
  std::erase_if(index_, [&](const PlanRef& r) { return holds(oldest, r.plan); });
  blocks_.pop_front();
}

std::vector<BlockSeq> BlockStore::missing_before(BlockSeq incoming,
                                                 std::size_t limit) const {
  std::vector<BlockSeq> out;
  if (blocks_.empty()) return out;
  const BlockSeq expected = next_expected();
  if (incoming <= expected) return out;  // contiguous or replay
  for (BlockSeq seq = expected; seq < incoming && out.size() < limit; ++seq) {
    out.push_back(seq);
  }
  return out;
}

BlockPtr BlockStore::by_seq(BlockSeq seq) const {
  for (const BlockPtr& b : blocks_) {
    if (b->seq() == seq) return b;
  }
  return nullptr;
}

void BlockStore::checkpoint_save(ByteWriter& w, BlockTable& blocks) const {
  w.u64(max_depth_);
  w.u32(static_cast<std::uint32_t>(blocks_.size()));
  for (const BlockPtr& b : blocks_) blocks.write_ref(w, b);
}

bool BlockStore::checkpoint_restore(ByteReader& r, BlockTable& blocks) {
  max_depth_ = static_cast<std::size_t>(r.u64());
  const std::uint32_t n = r.u32();
  // Each reference is >= 4 bytes; a live store never holds more than its depth.
  if (!r.ok() || n > r.remaining() / 4) return blocks.fail("truncated store");
  if (n > max_depth_) {
    return blocks.fail("store holds " + std::to_string(n) +
                       " blocks, more than its depth " + std::to_string(max_depth_));
  }
  blocks_.clear();
  index_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    BlockPtr b = blocks.read_ref(r);
    if (!b) return false;
    if (!blocks_.empty() && b->seq() != blocks_.back()->seq() + 1) {
      return blocks.fail("store seqs are not consecutive");
    }
    blocks_.push_back(std::move(b));
    index_plans(*blocks_.back());
  }
  return true;
}

const aim::TravelPlan* BlockStore::find_plan(VehicleId id) const {
  const auto it = std::lower_bound(index_.begin(), index_.end(), id, by_vehicle);
  return it != index_.end() && it->vehicle == id ? it->plan : nullptr;
}

}  // namespace nwade::chain
