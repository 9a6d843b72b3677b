// Seeded byte mutation for decoder fuzzing: the storage frame readers and
// the chain codec records are fed bytes mutated here and must recover or
// return an error, never crash or hit UB (run under ASan and UBSan).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace dlt::testutil {

/// Flips 1-4 bytes of `data`, truncates it, or splices in up to 200 bytes
/// from one of `donors`. `data` and every donor must be non-empty.
inline void mutate_bytes(Bytes& data, Rng& rng,
                         const std::vector<Bytes>& donors) {
  switch (rng.uniform(3)) {
    case 0:  // flip 1-4 bytes
      for (std::uint64_t n = 1 + rng.uniform(4); n > 0; --n)
        data[rng.uniform(data.size())] ^=
            static_cast<Byte>(1 + rng.uniform(255));
      break;
    case 1:  // truncate
      data.resize(rng.uniform(data.size()));
      break;
    default: {  // splice
      const Bytes& donor = donors[rng.uniform(donors.size())];
      const std::size_t from = rng.uniform(donor.size());
      const std::size_t n =
          std::min<std::size_t>(1 + rng.uniform(200), donor.size() - from);
      data.insert(data.begin() + rng.uniform(data.size() + 1),
                  donor.begin() + from, donor.begin() + from + n);
    }
  }
}

}  // namespace dlt::testutil
