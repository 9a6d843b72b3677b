// An IOTA-style tangle (paper §II-B, footnote 1: "Other DAG approaches
// are IOTA and Byteball").
//
// Where Nano's block-lattice gives each account its own chain, the tangle
// is a single DAG in which every transaction approves TWO earlier
// transactions (trunk and branch). Issuers perform a small proof of work
// per transaction (spam protection, as in §III-B) and implicitly vote for
// the history they approve. Confirmation confidence of a transaction is
// the fraction of current tips whose past cone contains it; cumulative
// weight (1 + number of approvers, direct and indirect) drives the
// biased random walk used for tip selection (the whitepaper's MCMC).
//
// Double spends are modelled with an optional `spend_key`: two
// transactions sharing a spend key conflict, a consistent cone may
// contain at most one of them, and the network's tip selection starves
// the losing side -- the tangle's §IV analogue of fork resolution.
#pragma once

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/hashcash.hpp"
#include "crypto/keys.hpp"
#include "obs/probe.hpp"
#include "storage/ledger_store.hpp"
#include "support/result.hpp"
#include "support/rng.hpp"

namespace dlt::tangle {

using TxHash = Hash256;

struct TangleTx {
  crypto::AccountId issuer;
  TxHash trunk;    // first approved transaction
  TxHash branch;   // second approved transaction (may equal trunk)
  Hash256 payload; // opaque content commitment
  /// Two transactions with the same (nonzero) spend key conflict.
  Hash256 spend_key;
  double timestamp = 0.0;
  /// Issuer-declared weight this transaction contributes to every cone it
  /// joins (the whitepaper's "own weight"; 1 in vanilla IOTA). Hashed, so
  /// it cannot be reweighted after signing; capped by
  /// TangleParams::max_own_weight at attach (large-weight spam defence).
  std::uint64_t own_weight = 1;
  std::uint64_t work = 0;
  std::uint64_t pubkey = 0;
  crypto::Signature signature{};

  TxHash hash() const;
  Bytes work_payload() const;
  void solve_work(int difficulty_bits);
  bool verify_work(int difficulty_bits) const;
  void sign(const crypto::KeyPair& key, Rng& rng);
  bool verify_signature() const;
  /// The same check against `tx_hash`, which must be this transaction's
  /// hash(): callers that already hashed it skip a second tagged SHA-256.
  bool verify_signature(const TxHash& tx_hash) const;

  /// Lossless storage codec (RecordType::kSite): the canonical fields with
  /// the timestamp double bit-cast, plus work/pubkey/signature.
  Bytes serialize() const;
  static Result<TangleTx> deserialize(ByteView raw);

  static constexpr std::size_t kSerializedSize = 32 * 5 + 8 * 5;
};

/// Tip-selection strategy (ISSUE 8). The whitepaper's MCMC walk is the
/// reference; `uniform` is the degenerate strategy the SoK literature uses
/// as an attack baseline (uniform random tip). Chosen per tangle by
/// TangleParams::tip_selection.
enum class TipStrategy {
  kMcmc = 0,     // biased random walk, exp(alpha * cumulative weight)
  kUniform = 1,  // uniform over current tips (canonical hash order)
};

/// Canonical lower-case name ("mcmc" / "uniform").
const char* to_string(TipStrategy strategy);

struct TangleParams {
  int work_bits = 4;
  bool verify_work = true;
  /// MCMC walk bias: 0 = uniform random walk, higher = steeper preference
  /// for heavy branches (faster conflict starvation, more orphaned tips).
  double alpha = 0.05;
  /// Strategy select_tip() / walk_confidence() dispatch to.
  TipStrategy tip_selection = TipStrategy::kMcmc;
  /// Upper bound on TangleTx::own_weight a node accepts ("bad-weight"
  /// otherwise). 1 = vanilla IOTA; raising it admits weighted transactions
  /// and with them the large-weight-spam adversary (ISSUE 9 satellite).
  std::uint64_t max_own_weight = 1;
};

class Tangle {
 public:
  explicit Tangle(TangleParams params);

  const TangleParams& params() const { return params_; }
  const TxHash& genesis() const { return genesis_hash_; }
  std::size_t size() const { return dag_.size(); }

  /// Validates and attaches a transaction: signature, work, both parents
  /// present, and the union of the parents' past cones free of spend-key
  /// conflicts (with each other and with the new transaction).
  Status attach(const TangleTx& tx);

  bool contains(const TxHash& hash) const { return index_.count(hash) != 0; }
  /// The stored transaction; the pointer stays valid across later attaches.
  const TangleTx* find(const TxHash& hash) const;

  /// Transactions no one approves yet, in attach order.
  std::vector<TxHash> tips() const;
  std::size_t tip_count() const { return tips_.size(); }

  /// Sum of own weights over `hash`'s future cone (itself plus every
  /// transaction referencing it, directly or transitively) -- the
  /// whitepaper's cumulative weight. With unit own weights this is the
  /// classic "1 + number of approvers".
  std::size_t cumulative_weight(const TxHash& hash) const;

  /// Fraction of current tips whose past cone contains `hash`; the
  /// tangle's confirmation confidence (compare §IV's depth rule).
  double confirmation_confidence(const TxHash& hash) const;

  /// The confirmation tally over the whole tangle: every non-genesis
  /// transaction that at least `threshold × tip_count()` of the current
  /// tips approve (hold in their past cone), sorted by hash.
  std::vector<TxHash> confirmed_by_tips(double threshold) const;

  /// Monte-Carlo confidence: the probability that a fresh transaction's
  /// tip-selection walk approves `hash`. Unlike the tip fraction, stale
  /// abandoned tips barely matter because the walk rarely reaches them.
  double walk_confidence(const TxHash& hash, Rng& rng,
                         int samples = 64) const;

  /// Tip selection with the configured strategy (params().tip_selection):
  /// the MCMC weighted random walk by default, or one of the pluggable
  /// baseline strategies. Never selects into a cone that conflicts with
  /// `spend_keys` (the issuer's own pending spends). Returns a tip (or an
  /// interior vertex when every tip's cone conflicts — MCMC — / genesis —
  /// uniform).
  TxHash select_tip(Rng& rng,
                    const std::vector<Hash256>& spend_keys = {}) const;

  /// Tip selection with an explicit strategy (ignores the configured one).
  /// RNG discipline, pinned by tests/tip_selection_test.cpp: `uniform`
  /// consumes exactly one uniform01() draw per selection; `mcmc` consumes
  /// one per walk step. Candidate orderings are fixed: tips sorted by hash
  /// for `uniform`, each vertex's approvers in attach order for `mcmc`. So the draw count and the selected tip depend only on the
  /// replica's attach history and the RNG stream.
  TxHash select_tip_with(TipStrategy strategy, Rng& rng,
                         const std::vector<Hash256>& spend_keys = {}) const;

  /// Every transaction in `hash`'s past cone (ancestors, incl. itself).
  std::unordered_set<TxHash> past_cone(const TxHash& hash) const;

  /// All spend keys present in the past cone of `hash`.
  std::unordered_set<Hash256> cone_spend_keys(const TxHash& hash) const;

  /// Storage model: one node per transaction.
  std::uint64_t stored_bytes() const {
    return size() * TangleTx::kSerializedSize;
  }

  // ---- Persistent storage (ISSUE 9) ---------------------------------------
  /// Writes the tangle through to `store`: every attached transaction is
  /// appended to the log under RecordType::kSite and the state backend
  /// mirrors the current tip set (the head-only state §V-B keeps). On a
  /// fresh store the genesis site is persisted; on a recovered one
  /// existing records are kept — combine with replay_from_store().
  void attach_store(std::shared_ptr<storage::LedgerStore> store);
  const storage::LedgerStore* store() const { return store_.get(); }

  /// Recovery: decodes every kSite record in append order and re-offers it
  /// to attach(). Append order is admission order, so parents always
  /// precede children. Returns transactions accepted.
  std::size_t replay_from_store();

  /// §V-B head-only pruning as a log-catalog operation: erases the kSite
  /// records of every interior (non-tip, non-genesis) transaction and
  /// compacts the log. The in-RAM DAG is untouched — cone checks still
  /// work — so this is purely a storage discipline. Returns the physical
  /// bytes reclaimed by compaction.
  std::uint64_t prune_history();

  /// Observability: tangle.attached / tangle.rejected counters plus a
  /// tip_attached trace per accepted transaction. Trace timestamps use
  /// TangleTx::timestamp (issuer-assigned logical time — the tangle has
  /// no simulation clock), keeping traces deterministic.
  void set_probe(obs::Probe probe);

  /// Node id stamped on tip_attached trace events. Standalone tangles keep
  /// the historical 0; cluster replicas set their net::NodeId so per-node
  /// attach order is visible in traces.
  void set_trace_node(std::uint32_t node) { trace_node_ = node; }

 private:
  /// Position in attach order. Genesis is 0 and every transaction's
  /// parents precede it.
  using Index = std::uint32_t;

  /// Per-index DAG record.
  struct Vertex {
    TxHash hash;
    /// Parent indices; genesis names itself, so walks need no special case.
    Index trunk = 0;
    Index branch = 0;
    /// Own weights of every transaction outside this one's future cone:
    /// all earlier indices (fixed at attach) plus the later transactions
    /// that do not descend from it. Cumulative weight is total_own_ minus
    /// this.
    std::uint64_t outside = 0;
    /// The past cone holds a spend key: own key || keyed[trunk] ||
    /// keyed[branch]. A cone without one cannot conflict.
    bool keyed = false;
    /// Direct approvers in attach order (the MCMC walk's candidate order).
    std::vector<Index> approvers;
  };

  /// Duplicate check + stateless checks + cone checks + apply. `hash` is
  /// tx.hash(), computed by attach().
  Status attach_impl(const TangleTx& tx, const TxHash& hash);
  /// Signature, then hashcash, then the own-weight policy.
  Status check_stateless(const TangleTx& tx, const TxHash& hash) const;
  /// The mutation half of attach: indexes an already-validated tx.
  void apply_attached(const TangleTx& tx, const TxHash& hash, Index trunk,
                      Index branch);
  /// Adds `own_weight` to the `outside` sum of every vertex outside the
  /// past cone of {trunk, branch}.
  void credit_outside(Index trunk, Index branch, std::uint64_t own_weight);
  std::uint64_t cumulative_weight_of(Index i) const {
    return total_own_ - dag_[i].outside;
  }

  /// Depth-first walk over the past cone of `roots` (roots included), each
  /// vertex once. Only vertices `enter` accepts join the walk, so callers
  /// prune what cannot matter; a `visit` returning true stops the walk and
  /// makes it return true. The visited bitmap is local to the call.
  template <typename Enter, typename Visit>
  bool walk_past_cone(std::initializer_list<Index> roots, Enter enter,
                      Visit visit) const;
  /// Some transaction in the past cone of `roots` carries one of `keys`.
  bool cone_holds_key(std::initializer_list<Index> roots,
                      std::span<const Hash256> keys) const;
  bool cone_conflicts(Index a, Index b) const;

  TangleParams params_;
  TxHash genesis_hash_;
  std::deque<TangleTx> txs_;  // by index; a deque keeps find() stable
  std::vector<Vertex> dag_;   // by index
  std::unordered_map<TxHash, Index> index_;
  /// Indices no one approves yet, ascending.
  std::vector<Index> tips_;
  /// Sum of every attached transaction's own weight.
  std::uint64_t total_own_ = 0;
  /// Scratch of credit_outside, on the mutating path only: a mark per
  /// index (all unmarked between attaches) and the indices marked by the
  /// current scan, so clearing costs what marking did.
  std::vector<std::uint8_t> scan_mark_;
  std::vector<Index> scan_touched_;

  obs::Probe probe_;
  std::uint32_t trace_node_ = 0;
  std::shared_ptr<storage::LedgerStore> store_;
  obs::Counter* obs_attached_ = nullptr;
  obs::Counter* obs_rejected_ = nullptr;
};

/// Convenience issuer: builds, works and signs a transaction approving
/// the two selected tips. `own_weight` above the tangle's max_own_weight
/// yields a transaction attach() rejects — the spam variant.
TangleTx make_tx(const Tangle& tangle, const crypto::KeyPair& issuer,
                 const TxHash& trunk, const TxHash& branch,
                 const Hash256& payload, double timestamp, Rng& rng,
                 const Hash256& spend_key = {},
                 std::uint64_t own_weight = 1);

}  // namespace dlt::tangle
