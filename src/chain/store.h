// Vehicle-side bounded blockchain cache.
//
// "Each vehicle only needs to store the blockchain at its current
// intersection... The maximum length of the chain that a vehicle needs to
// cache and verify equals tau/delta" — crossing time over processing-window
// length. The store enforces structural chain validity (signature, Merkle
// root, prev-hash linkage) on append and evicts blocks beyond the depth
// bound. Semantic plan-conflict checking lives in the NWADE protocol layer.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "chain/block.h"
#include "chain/block_table.h"
#include "util/result.h"

namespace nwade::chain {

/// Why an append was rejected; drives the vehicle FSM's reaction
/// (any rejection == "the intersection manager is compromised").
enum class ChainError {
  kBadSignature,
  kBadMerkleRoot,
  kBrokenLinkage,     ///< prev_hash does not match our latest block
  kNonMonotonicSeq,   ///< sequence number gap or replay
  kStaleTimestamp,    ///< timestamp not increasing
};

const char* chain_error_name(ChainError e);

class BlockStore {
 public:
  /// `max_depth` = tau/delta bound; older blocks are evicted after append.
  explicit BlockStore(std::size_t max_depth = 64) : max_depth_(max_depth) {}

  /// Validates and appends a block; the store keeps the handle, not a copy.
  /// On any failure the store is unchanged and the error tells the caller
  /// what was wrong with the block.
  Result<void, ChainError> append(BlockPtr block, const crypto::Verifier& verifier);

  bool empty() const { return blocks_.empty(); }
  std::size_t size() const { return blocks_.size(); }
  std::size_t max_depth() const { return max_depth_; }

  const Block* latest() const { return blocks_.empty() ? nullptr : blocks_.back().get(); }
  /// The cached block with sequence `seq`, or null.
  BlockPtr by_seq(BlockSeq seq) const;

  /// Sequence number the next append must carry to keep the chain contiguous;
  /// 0 when the store is empty (any starting seq is accepted).
  BlockSeq next_expected() const {
    return blocks_.empty() ? 0 : blocks_.back()->seq() + 1;
  }

  /// The gap an incoming block with sequence `incoming` would reveal: every
  /// missing seq in (latest, incoming), oldest first, capped at `limit`.
  /// Empty when the store is empty, the block is contiguous, or it replays an
  /// already-cached seq. Drives the protocol's gap-recovery BlockRequests.
  std::vector<BlockSeq> missing_before(BlockSeq incoming, std::size_t limit) const;

  /// All cached blocks, oldest first.
  const std::deque<BlockPtr>& blocks() const { return blocks_; }

  /// One entry of the id→plan index (16 bytes).
  struct PlanRef {
    VehicleId vehicle;
    const aim::TravelPlan* plan;
  };

  /// Finds a vehicle's most recent plan across cached blocks (newest wins —
  /// evacuation/recovery plans supersede older ones; within one block the
  /// first plan for an id wins, as in Block::plan_for). A binary search of
  /// plans_by_id().
  const aim::TravelPlan* find_plan(VehicleId id) const;

  /// Every vehicle with a cached plan in ascending id order, each paired
  /// with the plan find_plan returns for it. Maintained on append, eviction
  /// and restore; the pointers point into the cached blocks.
  const std::vector<PlanRef>& plans_by_id() const { return index_; }

  // --- checkpoint/restore (sim/checkpoint) ----------------------------------

  /// Serializes the depth bound and a reference to every cached block, oldest
  /// first, through the checkpoint's block table.
  void checkpoint_save(ByteWriter& w, BlockTable& blocks) const;

  /// Restores a saved store, taking its blocks from `blocks`. Signatures are
  /// *not* re-verified: the blocks were validated before the checkpoint, and
  /// re-verifying here would perturb the signature-verify cache's hit/miss
  /// counters on resume. The section itself is checked: at most `max_depth`
  /// blocks with consecutive seqs. Returns false on malformed input, with
  /// blocks.error() saying why (the store may then be partially filled).
  bool checkpoint_restore(ByteReader& r, BlockTable& blocks);

 private:
  /// Folds `block`, the newest cached block, into index_.
  void index_plans(const Block& block);
  /// Drops the oldest cached block and its index entries.
  void evict_oldest();

  std::size_t max_depth_;
  std::deque<BlockPtr> blocks_;
  std::vector<PlanRef> index_;  ///< ascending vehicle id
};

}  // namespace nwade::chain
