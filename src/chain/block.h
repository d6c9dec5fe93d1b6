// The travel-plan blockchain block (paper Eq. 1 and Fig. 3):
//
//   B_i = < s_i, h_{i-1}, tau_i, R_i >
//
// s_i     signature over <h_{i-1}, tau_i, R_i> by the intersection manager
// h_{i-1} SHA-256 of the previous block
// tau_i   timestamp of the processing window
// R_i     Merkle root over the window's travel plans (plans ride along as
//         the leaves, so receivers can re-derive and check R_i)
//
// A Block is an immutable value: its derived values (signed payload, hash,
// Merkle tree, wire size) are computed once, at construction, and every
// holder shares one object through `BlockPtr`. A broadcast block is verified
// by every receiver and appended to every receiver's store, so all of them
// read the same object instead of copying it.
//
// There are three ways to build one: `package` (the IM signs a window),
// `deserialize` (wire and checkpoint bytes), and the public
// `Block(Header, plans)` constructor, which derives without checking
// anything — forged blocks in the attack tests are built through it.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "aim/plan.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "util/types.h"

namespace nwade::chain {

/// Sequence number of a block within one intersection's chain (genesis = 0).
using BlockSeq = std::uint64_t;

class Block {
 public:
  struct Header {
    Bytes signature;               ///< s_i
    crypto::Digest prev_hash{};    ///< h_{i-1}
    Tick timestamp{0};             ///< tau_i
    crypto::Digest merkle_root{};  ///< R_i
    BlockSeq seq{0};
    /// Vehicles whose earlier plans are void (confirmed threats). Carried in
    /// every block (and covered by the signature) so vehicles that join after
    /// an evacuation alert do not treat a revoked plan as live when checking
    /// new blocks for conflicts.
    std::vector<VehicleId> revoked;
  };

  /// Derives payload, hash and Merkle tree from the given fields as they
  /// are; checks nothing (a mismatched root or signature fails verify_*).
  Block(Header header, std::vector<aim::TravelPlan> plans);

  /// Builds and signs a block over a window's plans.
  static Block package(BlockSeq seq, const crypto::Digest& prev_hash, Tick timestamp,
                       std::vector<aim::TravelPlan> plans, const crypto::Signer& signer,
                       std::vector<VehicleId> revoked = {});

  const Header& header() const { return header_; }
  const Bytes& signature() const { return header_.signature; }
  const crypto::Digest& prev_hash() const { return header_.prev_hash; }
  Tick timestamp() const { return header_.timestamp; }
  const crypto::Digest& merkle_root() const { return header_.merkle_root; }
  BlockSeq seq() const { return header_.seq; }
  const std::vector<VehicleId>& revoked() const { return header_.revoked; }

  /// The window's travel plans (the Merkle leaves).
  const std::vector<aim::TravelPlan>& plans() const { return plans_; }

  /// The bytes that s_i signs: <seq, h_{i-1}, tau_i, R_i, revoked>.
  const Bytes& signed_payload() const { return payload_; }

  /// SHA-256 over the header (signature + signed payload); the next block's
  /// h_{i-1}.
  const crypto::Digest& hash() const { return hash_; }

  /// Signature check against the intersection manager's public key.
  bool verify_signature(const crypto::Verifier& verifier) const;

  /// Compares the Merkle root derived from the plans with `merkle_root`.
  bool verify_merkle() const { return tree_.root() == header_.merkle_root; }

  /// The plan for a given vehicle inside this block, if present.
  const aim::TravelPlan* plan_for(VehicleId id) const;

  /// Merkle membership proof for the plan at `index` (see MerkleTree).
  crypto::MerkleProof prove_plan(std::size_t index) const { return tree_.prove(index); }

  Bytes serialize() const;
  static std::optional<Block> deserialize(const Bytes& data);

  /// Exact serialized size, serialize().size() (network-load accounting).
  std::size_t wire_size() const { return wire_size_; }

 private:
  Block(Header header, std::vector<aim::TravelPlan> plans, crypto::MerkleTree tree);

  /// Fills payload_, hash_ and wire_size_ from header_ and plans_.
  void derive();
  static Bytes payload_of(const Header& header);
  static crypto::MerkleTree tree_of(const std::vector<aim::TravelPlan>& plans);

  Header header_;
  std::vector<aim::TravelPlan> plans_;
  crypto::MerkleTree tree_;
  Bytes payload_;
  crypto::Digest hash_{};
  std::size_t wire_size_{0};
};

/// The one shared handle every store, message and node holds.
using BlockPtr = std::shared_ptr<const Block>;

}  // namespace nwade::chain
