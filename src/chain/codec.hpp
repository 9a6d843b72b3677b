// Lossless storage codecs for chain blocks (ISSUE 9).
//
// These are deliberately distinct from the canonical hash encodings:
// BlockHeader::serialize() quantizes the timestamp to microseconds and
// truncates the difficulty to a u64 — fine for hashing (every node hashes
// the same truncation), fatal for storage (a replayed block must carry the
// exact doubles so revalidation and fork choice reproduce bit-identical
// results). Storage frames therefore bit-cast the doubles.
//
// Record payloads (block log):
//   kHeader — u32 height | parent | merkle | state_root | u64 ts_bits |
//             u64 diff_bits | u64 nonce | proposer | u64 slot
//   kBody   — u8 model (0 = UTXO, 1 = account) | varint count | txs,
//             each as its own write() emits it: canonical wire order
//             with signatures, the bytes the txid hashes.
#pragma once

#include "chain/block.hpp"
#include "support/bytes.hpp"
#include "support/result.hpp"

namespace dlt::chain {

Bytes encode_header_record(const BlockHeader& header);
Result<BlockHeader> decode_header_record(ByteView raw);

Bytes encode_body_record(const Block& block);
/// Fills `block.txs` (the header is untouched — pair with the kHeader
/// record under the same hash key).
Status decode_body_record(ByteView raw, Block& block);

/// Reassembles a full block from its two log records.
Result<Block> decode_block_records(ByteView header_raw, ByteView body_raw);

}  // namespace dlt::chain
