#include "chain/block_table.h"

#include <cassert>
#include <utility>

namespace nwade::chain {

std::uint32_t BlockTable::intern(const BlockPtr& block) {
  const auto [it, added] = index_.try_emplace(
      block->hash(), static_cast<std::uint32_t>(blocks_.size()));
  if (added) blocks_.push_back(block);
  return it->second;
}

void BlockTable::write_ref(ByteWriter& w, const BlockPtr& block) {
  assert(refs_ == Refs::kIndexed);
  w.u32(intern(block));
}

BlockPtr BlockTable::read_ref(ByteReader& r) {
  if (refs_ == Refs::kInline) {
    std::optional<Block> b = Block::deserialize(r.bytes());
    if (!r.ok() || !b) {
      fail("inline block does not decode");
      return nullptr;
    }
    return blocks_[intern(std::make_shared<const Block>(std::move(*b)))];
  }
  const std::uint32_t i = r.u32();
  if (!r.ok()) {
    fail("truncated block reference");
    return nullptr;
  }
  if (i >= blocks_.size()) {
    fail("block index " + std::to_string(i) + " out of range (table holds " +
         std::to_string(blocks_.size()) + ")");
    return nullptr;
  }
  return blocks_[i];
}

void BlockTable::save(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(blocks_.size()));
  for (const BlockPtr& b : blocks_) w.bytes(b->serialize());
}

bool BlockTable::load(ByteReader& r) {
  assert(refs_ == Refs::kIndexed && blocks_.empty());
  const std::uint32_t n = r.u32();
  // Each entry is at least its 4-byte length prefix.
  if (!r.ok() || n > r.remaining() / 4) return fail("truncated block table");
  blocks_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Bytes raw = r.bytes();
    if (!r.ok()) return fail("truncated block table");
    std::optional<Block> b = Block::deserialize(raw);
    if (!b) return fail("block " + std::to_string(i) + " does not decode");
    if (intern(std::make_shared<const Block>(std::move(*b))) != i) {
      return fail("block " + std::to_string(i) + " repeats an earlier hash");
    }
  }
  return true;
}

bool BlockTable::fail(std::string why) {
  if (error_.empty()) error_ = std::move(why);
  return false;
}

}  // namespace nwade::chain
