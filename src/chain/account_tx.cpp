#include "chain/account_tx.hpp"

#include "crypto/hash.hpp"

namespace dlt::chain {
namespace {

void write_core(Writer& w, const AccountTransaction& tx, bool with_sig) {
  w.fixed(tx.from);
  w.fixed(tx.to);
  w.u64(tx.nonce);
  w.u64(tx.value);
  w.u64(tx.gas_limit);
  w.u64(tx.gas_price);
  w.u32(tx.data_size);
  if (with_sig) {
    w.u64(tx.pubkey);
    w.u64(tx.signature.r);
    w.u64(tx.signature.s);
  }
}

}  // namespace

std::uint64_t AccountTransaction::intrinsic_gas(const GasSchedule& gs) const {
  std::uint64_t gas = gs.tx_base;
  gas += static_cast<std::uint64_t>(data_size) * gs.per_data_byte;
  if (is_contract_creation()) gas += gs.contract_creation;
  return gas;
}

void AccountTransaction::write(Writer& w) const {
  write_core(w, *this, /*with_sig=*/true);
}

Bytes AccountTransaction::serialize() const {
  Writer w;
  write(w);
  return std::move(w).take();
}

std::size_t AccountTransaction::serialized_size() const {
  // 32 from + 32 to + 8*4 fields + 4 data_size + 8 pubkey + 16 sig + data.
  return 32 + 32 + 32 + 4 + 8 + 16 + data_size;
}

Hash256 AccountTransaction::id() const {
  return id_memo_.get([this] {
    const Bytes raw = serialize();
    return crypto::tagged_hash("dlt/account-tx",
                               ByteView{raw.data(), raw.size()});
  });
}

Hash256 AccountTransaction::sighash() const {
  return sighash_memo_.get([this] {
    Writer w;
    write_core(w, *this, /*with_sig=*/false);
    return crypto::tagged_hash("dlt/account-sighash",
                               ByteView{w.bytes().data(), w.size()});
  });
}

void AccountTransaction::sign(const crypto::KeyPair& key, Rng& rng) {
  from = key.account_id();
  pubkey = key.public_key();
  invalidate_digests();  // `from` is inside both digests
  signature = key.sign(sighash().view(), rng);
  id_memo_.invalidate();  // the id covers the signature just written
}

bool AccountTransaction::verify_signature(
    crypto::SignatureCache* sigcache) const {
  if (crypto::account_of(pubkey) != from) return false;
  return crypto::verify_cached(sigcache, pubkey, sighash(), signature);
}

}  // namespace dlt::chain
