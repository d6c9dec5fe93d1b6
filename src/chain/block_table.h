// The distinct blocks of one world checkpoint (docs/CHECKPOINT.md §1).
//
// At run time every store, the IM's block log and every in-flight message
// share one Block object per broadcast. `nwade-ckpt-v2` writes each distinct
// block once, in the checkpoint's `blocks` section, and the IM's block log
// and every BlockStore write u32 indices into that table; `nwade-ckpt-v1`
// wrote every holder's blocks inline. A BlockTable serves both sides:
//
//  * the writer interns blocks in first-seen order as the holders write
//    their references, then saves the table;
//  * the reader loads the table (v2) or interns each inline block as a
//    holder reads it (v1), and hands every holder of one block the same
//    BlockPtr, so a restored world shares blocks the way a live one does.
//
// Blocks are keyed by hash, not by seq: a malicious IM sends a different
// block with the same seq to each recipient.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "chain/block.h"

namespace nwade::chain {

class BlockTable {
 public:
  /// How holders refer to blocks: u32 table indices (nwade-ckpt-v2) or each
  /// block's inline serialize() bytes (nwade-ckpt-v1, read only).
  enum class Refs { kIndexed, kInline };

  explicit BlockTable(Refs refs = Refs::kIndexed) : refs_(refs) {}

  Refs refs() const { return refs_; }
  std::size_t size() const { return blocks_.size(); }

  /// Writes a holder's reference to `block` (its table index), adding the
  /// block on first sight. Writer side; indexed tables only.
  void write_ref(ByteWriter& w, const BlockPtr& block);

  /// Reads one holder reference and returns the shared block; null on
  /// malformed input, with error() saying why.
  BlockPtr read_ref(ByteReader& r);

  /// The `blocks` section: u32 count, then each block's serialize() bytes.
  void save(ByteWriter& w) const;
  /// Loads a `blocks` section into an empty indexed table. Rejects a
  /// truncated section, an entry that does not decode, and a block hash
  /// that appears twice.
  bool load(ByteReader& r);

  /// Records why a read failed (holders add their own structural checks);
  /// always returns false.
  bool fail(std::string why);
  const std::string& error() const { return error_; }

 private:
  /// The index of the table's block with `block`'s hash, adding `block` if
  /// there is none.
  std::uint32_t intern(const BlockPtr& block);

  Refs refs_;
  std::vector<BlockPtr> blocks_;
  std::unordered_map<crypto::Digest, std::uint32_t, crypto::DigestHash> index_;
  std::string error_;
};

}  // namespace nwade::chain
