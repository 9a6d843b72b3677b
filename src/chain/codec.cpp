#include "chain/codec.hpp"

#include <algorithm>
#include <bit>

#include "support/serialize.hpp"

namespace dlt::chain {

namespace {

constexpr std::uint8_t kModelUtxo = 0;
constexpr std::uint8_t kModelAccount = 1;

// Smallest encoding of each element a count announces.
constexpr std::size_t kTxInBytes = 32 + 4 + 8 + 8 + 8;
constexpr std::size_t kTxOutBytes = 8 + 32;
constexpr std::size_t kMinUtxoTxBytes = 1 + 1 + 4;  // no inputs or outputs
constexpr std::size_t kAccountTxBytes = 32 + 32 + 8 * 4 + 4 + 8 * 3;

// Capacity to reserve for `count` elements: no more than the unread bytes
// can hold, so a corrupt count fails in the read loop instead of
// allocating.
std::size_t capacity_for(std::uint64_t count, const Reader& r,
                         std::size_t element_bytes) {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining() / element_bytes));
}

Result<UtxoTransaction> read_utxo_tx(Reader& r) {
  UtxoTransaction tx;
  auto n_in = r.varint();
  if (!n_in) return n_in.error();
  tx.inputs.reserve(capacity_for(*n_in, r, kTxInBytes));
  for (std::uint64_t i = 0; i < *n_in; ++i) {
    TxIn in;
    auto txid = r.fixed<32>();
    if (!txid) return txid.error();
    in.prevout.txid = *txid;
    auto index = r.u32();
    if (!index) return index.error();
    in.prevout.index = *index;
    auto pubkey = r.u64();
    if (!pubkey) return pubkey.error();
    in.pubkey = *pubkey;
    auto sr = r.u64();
    if (!sr) return sr.error();
    in.signature.r = *sr;
    auto ss = r.u64();
    if (!ss) return ss.error();
    in.signature.s = *ss;
    tx.inputs.push_back(in);
  }
  auto n_out = r.varint();
  if (!n_out) return n_out.error();
  tx.outputs.reserve(capacity_for(*n_out, r, kTxOutBytes));
  for (std::uint64_t i = 0; i < *n_out; ++i) {
    TxOut out;
    auto value = r.u64();
    if (!value) return value.error();
    out.value = *value;
    auto owner = r.fixed<32>();
    if (!owner) return owner.error();
    out.owner = *owner;
    tx.outputs.push_back(out);
  }
  auto lock = r.u32();
  if (!lock) return lock.error();
  tx.lock_height = *lock;
  return tx;
}

Result<AccountTransaction> read_account_tx(Reader& r) {
  AccountTransaction tx;
  auto from = r.fixed<32>();
  if (!from) return from.error();
  tx.from = *from;
  auto to = r.fixed<32>();
  if (!to) return to.error();
  tx.to = *to;
  auto nonce = r.u64();
  if (!nonce) return nonce.error();
  tx.nonce = *nonce;
  auto value = r.u64();
  if (!value) return value.error();
  tx.value = *value;
  auto gas_limit = r.u64();
  if (!gas_limit) return gas_limit.error();
  tx.gas_limit = *gas_limit;
  auto gas_price = r.u64();
  if (!gas_price) return gas_price.error();
  tx.gas_price = *gas_price;
  auto data_size = r.u32();
  if (!data_size) return data_size.error();
  tx.data_size = *data_size;
  auto pubkey = r.u64();
  if (!pubkey) return pubkey.error();
  tx.pubkey = *pubkey;
  auto sr = r.u64();
  if (!sr) return sr.error();
  tx.signature.r = *sr;
  auto ss = r.u64();
  if (!ss) return ss.error();
  tx.signature.s = *ss;
  return tx;
}

}  // namespace

Bytes encode_header_record(const BlockHeader& header) {
  Writer w;
  w.u32(header.height);
  w.fixed(header.parent);
  w.fixed(header.merkle_root);
  w.fixed(header.state_root);
  w.u64(std::bit_cast<std::uint64_t>(header.timestamp));
  w.u64(std::bit_cast<std::uint64_t>(header.difficulty));
  w.u64(header.nonce);
  w.fixed(header.proposer);
  w.u64(header.slot);
  return std::move(w).take();
}

Result<BlockHeader> decode_header_record(ByteView raw) {
  Reader r(raw);
  BlockHeader h;
  auto height = r.u32();
  if (!height) return height.error();
  h.height = *height;
  auto parent = r.fixed<32>();
  if (!parent) return parent.error();
  h.parent = *parent;
  auto merkle = r.fixed<32>();
  if (!merkle) return merkle.error();
  h.merkle_root = *merkle;
  auto state_root = r.fixed<32>();
  if (!state_root) return state_root.error();
  h.state_root = *state_root;
  auto ts = r.u64();
  if (!ts) return ts.error();
  h.timestamp = std::bit_cast<double>(*ts);
  // BlockHeader::pow_payload truncates both doubles to u64.
  if (!fits_u64(h.timestamp * 1e6))
    return make_error("header-record-bad-timestamp");
  auto diff = r.u64();
  if (!diff) return diff.error();
  h.difficulty = std::bit_cast<double>(*diff);
  if (!fits_u64(h.difficulty))
    return make_error("header-record-bad-difficulty");
  auto nonce = r.u64();
  if (!nonce) return nonce.error();
  h.nonce = *nonce;
  auto proposer = r.fixed<32>();
  if (!proposer) return proposer.error();
  h.proposer = *proposer;
  auto slot = r.u64();
  if (!slot) return slot.error();
  h.slot = *slot;
  if (!r.done()) return make_error("header-record-trailing-bytes");
  return h;
}

Bytes encode_body_record(const Block& block) {
  Writer w;
  if (block.is_utxo()) {
    w.u8(kModelUtxo);
    const auto& txs = block.utxo_txs();
    w.varint(txs.size());
    for (const auto& tx : txs) tx.write(w);
  } else {
    w.u8(kModelAccount);
    const auto& txs = block.account_txs();
    w.varint(txs.size());
    for (const auto& tx : txs) tx.write(w);
  }
  return std::move(w).take();
}

Status decode_body_record(ByteView raw, Block& block) {
  Reader r(raw);
  auto model = r.u8();
  if (!model) return model.error();
  auto count = r.varint();
  if (!count) return count.error();
  if (*model == kModelUtxo) {
    UtxoTxList txs;
    txs.reserve(capacity_for(*count, r, kMinUtxoTxBytes));
    for (std::uint64_t i = 0; i < *count; ++i) {
      auto tx = read_utxo_tx(r);
      if (!tx) return tx.error();
      txs.push_back(std::move(*tx));
    }
    block.txs = std::move(txs);
  } else if (*model == kModelAccount) {
    AccountTxList txs;
    txs.reserve(capacity_for(*count, r, kAccountTxBytes));
    for (std::uint64_t i = 0; i < *count; ++i) {
      auto tx = read_account_tx(r);
      if (!tx) return tx.error();
      txs.push_back(std::move(*tx));
    }
    block.txs = std::move(txs);
  } else {
    return make_error("body-record-bad-model");
  }
  if (!r.done()) return make_error("body-record-trailing-bytes");
  return Status::success();
}

Result<Block> decode_block_records(ByteView header_raw, ByteView body_raw) {
  auto header = decode_header_record(header_raw);
  if (!header) return header.error();
  Block block;
  block.header = *header;
  Status st = decode_body_record(body_raw, block);
  if (!st.ok()) return st.error();
  return block;
}

}  // namespace dlt::chain
