#include "chain/transaction.hpp"

#include "crypto/hash.hpp"

namespace dlt::chain {
namespace {

void write_core(Writer& w, const UtxoTransaction& tx, bool with_sigs) {
  w.varint(tx.inputs.size());
  for (const TxIn& in : tx.inputs) {
    w.fixed(in.prevout.txid);
    w.u32(in.prevout.index);
    // The pubkey travels outside the sighash (like Bitcoin's scriptSig);
    // it is authenticated by the owner check + signature verification.
    if (with_sigs) {
      w.u64(in.pubkey);
      w.u64(in.signature.r);
      w.u64(in.signature.s);
    }
  }
  w.varint(tx.outputs.size());
  for (const TxOut& out : tx.outputs) {
    w.u64(out.value);
    w.fixed(out.owner);
  }
  w.u32(tx.lock_height);
}

}  // namespace

void UtxoTransaction::write(Writer& w) const {
  write_core(w, *this, /*with_sigs=*/true);
}

Bytes UtxoTransaction::serialize() const {
  Writer w;
  write(w);
  return std::move(w).take();
}

std::size_t UtxoTransaction::serialized_size() const {
  // inputs: 32 txid + 4 index + 8 pubkey + 16 sig; outputs: 8 + 32.
  return varint_size(inputs.size()) + inputs.size() * 60 +
         varint_size(outputs.size()) + outputs.size() * 40 + 4;
}

TxId UtxoTransaction::id() const {
  return id_memo_.get([this] {
    const Bytes raw = serialize();
    return crypto::sha256d(ByteView{raw.data(), raw.size()});
  });
}

Hash256 UtxoTransaction::sighash() const {
  return sighash_memo_.get([this] {
    Writer w;
    write_core(w, *this, /*with_sigs=*/false);
    return crypto::tagged_hash("dlt/utxo-sighash",
                               ByteView{w.bytes().data(), w.size()});
  });
}

void UtxoTransaction::sign_all(const std::vector<crypto::KeyPair>& keys,
                               Rng& rng) {
  const Hash256 digest = sighash();  // memoized; signatures are outside it
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const crypto::KeyPair& kp = keys[i < keys.size() ? i : keys.size() - 1];
    inputs[i].pubkey = kp.public_key();
    inputs[i].signature = kp.sign(digest.view(), rng);
  }
  id_memo_.invalidate();  // the id covers the signatures just written
}

UtxoTransaction UtxoTransaction::coinbase(const crypto::AccountId& to,
                                          Amount reward,
                                          std::uint32_t height) {
  UtxoTransaction tx;
  tx.outputs.push_back(TxOut{reward, to});
  tx.lock_height = height;  // differentiates coinbases across heights
  return tx;
}

Amount UtxoTransaction::total_output() const {
  Amount sum = 0;
  for (const TxOut& out : outputs) sum += out.value;
  return sum;
}

}  // namespace dlt::chain
