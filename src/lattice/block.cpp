#include "lattice/block.hpp"

#include "crypto/hash.hpp"
#include "support/hex.hpp"
#include "support/serialize.hpp"

namespace dlt::lattice {

const char* to_string(BlockType t) {
  switch (t) {
    case BlockType::kOpen: return "open";
    case BlockType::kSend: return "send";
    case BlockType::kReceive: return "receive";
    case BlockType::kChange: return "change";
  }
  return "?";
}

namespace {
void write_core(Writer& w, const LatticeBlock& b) {
  w.u8(static_cast<std::uint8_t>(b.type));
  w.fixed(b.account);
  w.fixed(b.previous);
  w.u64(b.balance);
  w.fixed(b.link);
  w.fixed(b.representative);
}
}  // namespace

BlockHash LatticeBlock::hash() const {
  return hash_memo_.get([this] {
    Writer w;
    write_core(w, *this);
    return crypto::tagged_hash("dlt/lattice-block",
                               ByteView{w.bytes().data(), w.size()});
  });
}

Bytes LatticeBlock::work_payload() const {
  // Work covers the chain position (account for open, previous otherwise),
  // exactly as Nano precomputes work against the current head.
  Writer w;
  if (previous.is_zero())
    w.fixed(account);
  else
    w.fixed(previous);
  return std::move(w).take();
}

Bytes LatticeBlock::serialize() const {
  Writer w;
  write_core(w, *this);
  w.u64(work);
  w.u64(pubkey);
  w.u64(signature.r);
  w.u64(signature.s);
  return std::move(w).take();
}

Result<LatticeBlock> LatticeBlock::deserialize(ByteView raw) {
  Reader r(raw);
  LatticeBlock b;
  auto type = r.u8();
  if (!type) return type.error();
  if (*type > static_cast<std::uint8_t>(BlockType::kChange))
    return make_error("lattice-record-bad-type");
  b.type = static_cast<BlockType>(*type);
  auto account = r.fixed<32>();
  if (!account) return account.error();
  b.account = *account;
  auto previous = r.fixed<32>();
  if (!previous) return previous.error();
  b.previous = *previous;
  auto balance = r.u64();
  if (!balance) return balance.error();
  b.balance = *balance;
  auto link = r.fixed<32>();
  if (!link) return link.error();
  b.link = *link;
  auto rep = r.fixed<32>();
  if (!rep) return rep.error();
  b.representative = *rep;
  auto work = r.u64();
  if (!work) return work.error();
  b.work = *work;
  auto pubkey = r.u64();
  if (!pubkey) return pubkey.error();
  b.pubkey = *pubkey;
  auto sr = r.u64();
  if (!sr) return sr.error();
  b.signature.r = *sr;
  auto ss = r.u64();
  if (!ss) return ss.error();
  b.signature.s = *ss;
  if (!r.done()) return make_error("lattice-record-trailing-bytes");
  return b;
}

void LatticeBlock::sign(const crypto::KeyPair& key, Rng& rng) {
  pubkey = key.public_key();
  signature = key.sign(hash().view(), rng);
}

bool LatticeBlock::verify_signature(crypto::SignatureCache* sigcache) const {
  if (crypto::account_of(pubkey) != account) return false;
  return crypto::verify_cached(sigcache, pubkey, hash(), signature);
}

void LatticeBlock::solve_work(int difficulty_bits) {
  const Bytes payload = work_payload();
  auto solution =
      crypto::solve(ByteView{payload.data(), payload.size()}, difficulty_bits);
  work = solution->nonce;
}

bool LatticeBlock::verify_work(int difficulty_bits) const {
  const Bytes payload = work_payload();
  return crypto::verify(ByteView{payload.data(), payload.size()}, work,
                        difficulty_bits);
}

}  // namespace dlt::lattice
