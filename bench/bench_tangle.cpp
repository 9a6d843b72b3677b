// Extension bench -- the paper's footnote 1 names IOTA as the other DAG
// approach. Regenerates the tangle's characteristic curves: tip-count
// equilibrium under load, confirmation confidence vs age (the DAG
// counterpart of §IV-A's depth table), and double-spend starvation vs the
// tip-selection bias alpha.
#include <iostream>
#include <string>

#include "core/json_report.hpp"
#include "core/table.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "support/rng.hpp"
#include "tangle/tangle.hpp"

using namespace dlt;
using namespace dlt::core;
using namespace dlt::tangle;

namespace {

Hash256 payload_of(int i) {
  return crypto::Sha256::digest(as_bytes("p" + std::to_string(i)));
}

/// Grows a tangle where each "round" sees `per_round` arrivals that pick
/// tips from the PREVIOUS round's view (models issuance latency h: txs
/// arriving together cannot see each other -- the whitepaper's L ~ 2*l*h).
Tangle grow_rounds(double alpha, int rounds, int per_round, Rng& rng,
                   std::vector<TxHash>* track = nullptr,
                   obs::Probe probe = {}) {
  TangleParams p;
  p.work_bits = 2;
  p.alpha = alpha;
  Tangle tangle(p);
  tangle.set_probe(probe);
  auto issuer = crypto::KeyPair::from_seed(7);
  int seq = 0;
  for (int r = 0; r < rounds; ++r) {
    std::vector<TangleTx> batch;
    for (int i = 0; i < per_round; ++i) {
      const TxHash trunk = tangle.select_tip(rng);
      const TxHash branch = tangle.select_tip(rng);
      batch.push_back(make_tx(tangle, issuer, trunk, branch,
                              payload_of(seq), seq, rng));
      ++seq;
    }
    for (const TangleTx& tx : batch) {
      if (tangle.attach(tx).ok() && track && track->size() < 4)
        track->push_back(tx.hash());
    }
  }
  return tangle;
}

}  // namespace

int main() {
  std::cout << "=== Extension / footnote 1: the IOTA-style tangle ===\n\n";
  Rng rng(2024);

  // The tangle has no cluster driver; a local registry fed through
  // obs::Probe tallies attach accounting for the report's `metrics`
  // section.
  obs::MetricsRegistry registry;
  JsonArray tips_json, confidence_json, alpha_json;

  std::cout << "Tip-count equilibrium vs arrival rate (txs per latency "
               "window; whitepaper: L ~ 2*lambda*h):\n";
  Table t1({"arrivals/round", "txs", "tips at end"});
  for (int per_round : {1, 2, 4, 8, 16}) {
    Tangle tangle = grow_rounds(0.05, 60, per_round, rng, nullptr,
                                obs::Probe{&registry, nullptr});
    t1.row({std::to_string(per_round), std::to_string(tangle.size()),
            std::to_string(tangle.tip_count())});
    JsonObject row;
    row.put("arrivals_per_round", per_round);
    row.put("txs", static_cast<std::uint64_t>(tangle.size()));
    row.put("tips", static_cast<std::uint64_t>(tangle.tip_count()));
    tips_json.push_raw(row.to_string());
  }
  t1.print();
  std::cout << "Heavier concurrent traffic sustains proportionally more "
               "tips -- the tangle widens instead of queueing (contrast "
               "the §VI-A mempool backlogs).\n";

  std::cout << "\nConfirmation confidence vs age (the DAG analogue of "
               "§IV-A's confirmation-depth table):\n";
  {
    TangleParams p;
    p.work_bits = 2;
    p.alpha = 0.05;
    Tangle tangle(p);
    auto issuer = crypto::KeyPair::from_seed(9);
    int seq = 100;
    // Busy tangle first (8 concurrent issuers per round => many tips),
    // then attach the target like any other transaction.
    auto round = [&](int arrivals) {
      std::vector<TangleTx> batch;
      for (int i = 0; i < arrivals; ++i, ++seq) {
        batch.push_back(make_tx(tangle, issuer, tangle.select_tip(rng),
                                tangle.select_tip(rng), payload_of(seq),
                                seq, rng));
      }
      for (const TangleTx& tx : batch) (void)tangle.attach(tx);
    };
    for (int r = 0; r < 8; ++r) round(8);
    TangleTx target = make_tx(tangle, issuer, tangle.select_tip(rng),
                              tangle.select_tip(rng), payload_of(1), 1,
                              rng);
    (void)tangle.attach(target);

    Table t2({"txs after target", "tip-fraction conf", "walk conf"});
    int grown = 0;
    for (int checkpoint : {0, 8, 32, 64, 128}) {
      while (grown < checkpoint) {
        round(8);
        grown += 8;
      }
      const double tip_conf = tangle.confirmation_confidence(target.hash());
      const double walk_conf =
          tangle.walk_confidence(target.hash(), rng, 128);
      t2.row({std::to_string(checkpoint), fmt(tip_conf, 3),
              fmt(walk_conf, 3)});
      JsonObject row;
      row.put("txs_after_target", checkpoint);
      row.put("tip_fraction_confidence", tip_conf);
      row.put("walk_confidence", walk_conf);
      confidence_json.push_raw(row.to_string());
    }
    t2.print();
    std::cout << "Confidence starts below 1 (concurrent tips do not see "
                 "the target) and converges as new traffic approves it -- "
                 "the probabilistic analogue of waiting 6 blocks.\n";
  }

  std::cout << "\nDouble-spend starvation vs tip-selection bias alpha "
               "(150 honest txs after the conflict):\n";
  Table t3({"alpha", "winner weight", "loser weight", "winner walk conf",
            "loser walk conf"});
  for (double alpha : {0.0, 0.05, 0.2, 0.5, 1.0}) {
    TangleParams p;
    p.work_bits = 2;
    p.alpha = alpha;
    Tangle tangle(p);
    auto issuer = crypto::KeyPair::from_seed(11);
    const Hash256 coin = crypto::Sha256::digest(as_bytes("coin"));
    TangleTx s1 = make_tx(tangle, issuer, tangle.genesis(),
                          tangle.genesis(), payload_of(1), 1, rng, coin);
    (void)tangle.attach(s1);
    TangleTx s2 = make_tx(tangle, issuer, tangle.genesis(),
                          tangle.genesis(), payload_of(2), 2, rng, coin);
    (void)tangle.attach(s2);
    int seq = 10;
    for (int i = 0; i < 150; ++i, ++seq) {
      const TxHash trunk = tangle.select_tip(rng);
      const TxHash branch = tangle.select_tip(rng);
      TangleTx tx = make_tx(tangle, issuer, trunk, branch, payload_of(seq),
                            seq, rng);
      if (!tangle.attach(tx).ok()) {
        TangleTx retry = make_tx(tangle, issuer, trunk, trunk,
                                 payload_of(seq), seq, rng);
        (void)tangle.attach(retry);
      }
    }
    const auto w1 = tangle.cumulative_weight(s1.hash());
    const auto w2 = tangle.cumulative_weight(s2.hash());
    const double c1 = tangle.walk_confidence(s1.hash(), rng, 128);
    const double c2 = tangle.walk_confidence(s2.hash(), rng, 128);
    const bool s1_wins = w1 >= w2;
    t3.row({fmt(alpha, 2), std::to_string(s1_wins ? w1 : w2),
            std::to_string(s1_wins ? w2 : w1),
            fmt(s1_wins ? c1 : c2, 3), fmt(s1_wins ? c2 : c1, 3)});
    JsonObject row;
    row.put("alpha", alpha);
    row.put("winner_weight",
            static_cast<std::uint64_t>(s1_wins ? w1 : w2));
    row.put("loser_weight", static_cast<std::uint64_t>(s1_wins ? w2 : w1));
    row.put("winner_walk_confidence", s1_wins ? c1 : c2);
    row.put("loser_walk_confidence", s1_wins ? c2 : c1);
    alpha_json.push_raw(row.to_string());
  }
  t3.print();
  std::cout << "alpha = 0 (uniform walk) keeps both sides of a double "
               "spend alive indefinitely; a biased walk starves the "
               "lighter cone, resolving the conflict -- the tangle's "
               "counterpart of the §III/§IV fork-resolution mechanisms "
               "(longest chain, weighted votes).\n";

  JsonObject report;
  report.put("bench", "tangle");
  report.put_raw("tip_equilibrium", tips_json.to_string());
  report.put_raw("confidence_vs_age", confidence_json.to_string());
  report.put_raw("alpha_sweep", alpha_json.to_string());
  report.put_raw("metrics", registry.to_json().to_string());
  write_bench_report("tangle", report);
  std::cout << "\nWrote BENCH_tangle.json\n";
  return 0;
}
