#ifndef CLOG_NODE_HANDOFF_LEDGER_H_
#define CLOG_NODE_HANDOFF_LEDGER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"

/// \file
/// Durable per-node handoff ledger ("node.handoff", same crash-atomic
/// rewrite-wholesale idiom as the poison and restore ledgers; absent when
/// empty, so a node that never handed off a page never creates it).
///
/// The ledger is the ground truth of elastic ownership. It records three
/// facts, each durable before the protocol step it covers returns:
///
///  * An *in-flight outbound* handoff (this node is giving `pid` to
///    `target`), with its phase: kPrepared (page fenced, nothing moved) or
///    kShipped (page forced durable-latest locally; the offer may or may
///    not have reached the target). A restart that finds one re-enters:
///    prepared handoffs abort locally; shipped ones ask the target whether
///    it adopted (kHandoffQuery) and complete or abort accordingly.
///
///  * A *ceded tombstone*: `pid` (a page whose home is this node, or one
///    this node had previously adopted) now lives at `target`. For a home
///    page the space-map slot stays allocated forever — freeing it would
///    let AllocatePage mint a new page under the departed page's identity.
///
///  * An *adoption*: this node is the current owner of a page whose home
///    is elsewhere. The entry carries the page's durable image (the
///    adopted store — adopted pages live here, not in the home database
///    file), its PSN, and the PSN its durable history was seeded at (for
///    full-history rebuilds, which can no longer ask the home node's space
///    map). Writing the adoption record is the protocol's atomic commit
///    point: once it persists, exactly one ledger in the cluster claims
///    the page.

namespace clog {

/// Phase of an in-flight outbound handoff.
enum class HandoffLedgerPhase : std::uint8_t {
  kPrepared = 0,
  kShipped = 1,
};

struct InflightHandoff {
  NodeId target = kInvalidNodeId;
  HandoffLedgerPhase phase = HandoffLedgerPhase::kPrepared;
  Psn seed_psn = 0;  ///< History seed to put in the offer.
};

class HandoffLedger {
 public:
  /// Loads `dir`/node.handoff if present. A corrupt ledger is an error: an
  /// unreadable ownership record must not silently resurrect or orphan a
  /// page.
  Status Open(const std::string& dir);

  bool empty() const {
    return inflight_.empty() && ceded_.empty() && adopted_.empty();
  }

  // --- Outbound (old-owner side) ---------------------------------------

  Status RecordPrepare(PageId pid, NodeId target, Psn seed_psn);
  Status RecordShipped(PageId pid);
  /// Durably forgets an in-flight handoff (this side resumes ownership).
  Status AbortHandoff(PageId pid);
  /// Durably completes an outbound handoff: drops the in-flight record,
  /// drops the adoption record if this node had adopted the page earlier,
  /// and writes the ceded tombstone.
  Status RecordCeded(PageId pid, NodeId target);

  /// Inbound side of a *return* handoff: a page whose home is this node
  /// came back, its durable image already written into the home slot.
  /// Erasing the ceded tombstone is the durable adoption commit point for
  /// the home node.
  Status RecordReturned(PageId pid);

  std::optional<InflightHandoff> Inflight(PageId pid) const;
  std::vector<PageId> InflightPages() const;

  bool IsCeded(PageId pid) const { return ceded_.contains(pid.Pack()); }

  // --- Inbound (new-owner side) ----------------------------------------

  /// The adoption commit point: durably stores the image + metadata. The
  /// image is sealed (checksummed) before it is persisted.
  Status RecordAdopted(PageId pid, const Page& image, Psn seed_psn);

  /// Rewrites the adopted page's durable image (the adopted store's
  /// equivalent of DiskManager::WritePage on a home page).
  Status UpdateAdoptedImage(PageId pid, const Page& image);

  bool IsAdopted(PageId pid) const { return adopted_.contains(pid.Pack()); }
  /// Copies the adopted durable image into *out, verifying its checksum.
  Status ReadAdopted(PageId pid, Page* out) const;
  /// PSN of the adopted durable image (0 if not adopted).
  Psn AdoptedPsn(PageId pid) const;
  /// History-seed PSN recorded at adoption (0 if not adopted).
  Psn AdoptedSeedPsn(PageId pid) const;
  std::vector<PageId> AdoptedPages() const;

 private:
  struct Adoption {
    Psn psn = 0;
    Psn seed_psn = 0;
    std::string image;  ///< kPageSize raw frame, checksum sealed.
  };

  Status Persist() const;

  std::string path_;
  std::map<std::uint64_t, InflightHandoff> inflight_;
  std::map<std::uint64_t, NodeId> ceded_;
  std::map<std::uint64_t, Adoption> adopted_;
};

}  // namespace clog

#endif  // CLOG_NODE_HANDOFF_LEDGER_H_
