// Regenerates Fig. 8: the experimental proof-of-concept on the Fig. 7
// testbed (2 BSs, OpenFlow switch, 16-core edge CU, 64-core core CU behind
// an emulated WAN link).
//
// Scenario (§5): 9 slice requests arriving every 2 epochs over 18 one-hour
// epochs (12 × 5-minute monitoring samples each): uRLLC1-3, then mMTC1-3,
// then eMBB1-3. Every slice offers λ̄ = Λ/2 with σ = 0.1·λ̄ and m = 1.
// Output:
//   fig8a: cumulative net revenue over time + acceptance log (Fig. 8a)
//   fig8b: per-BS radio reservation / load / capacity     (Fig. 8b)
//   fig8c: per-CU-link transport reservation / load       (Fig. 8c)
//   fig8d: per-CU CPU reservation / load / capacity       (Fig. 8d)
//
// The two algorithm runs are independent simulations, so they batch
// through bench::TaskSweep: evaluated concurrently, emitted in insertion
// order (no-overbooking first), byte-identical to the sequential loop.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "orch/orchestrator.hpp"
#include "topo/generators.hpp"

namespace {

using namespace ovnes;
using namespace ovnes::orch;

slice::SliceRequest make_request(std::uint32_t id, slice::SliceType type,
                                 std::size_t arrival) {
  slice::SliceRequest req;
  req.tenant = TenantId(id);
  req.name = std::string(slice::to_string(type)) + std::to_string(id % 3 + 1);
  req.tmpl = slice::standard_template(type);
  req.arrival_epoch = arrival;
  req.duration_epochs = 100;  // outlives the 18-epoch day
  req.penalty_factor = 1.0;
  req.declared_mean = req.tmpl.sla_rate / 2.0;       // λ̄ = Λ/2
  req.declared_std = 0.1 * req.declared_mean;        // σ = 0.1·λ̄
  return req;
}

std::string drive(Algorithm algo) {
  std::string out;
  OrchestratorConfig cfg;
  cfg.algorithm = algo;
  cfg.samples_per_epoch = 12;
  cfg.hw_period = 6;
  cfg.seed = 4;
  Simulation sim(topo::make_testbed(), 2, cfg);

  const slice::SliceType kinds[3] = {slice::SliceType::uRLLC,
                                     slice::SliceType::mMTC,
                                     slice::SliceType::eMBB};
  for (std::uint32_t i = 0; i < 9; ++i) {
    slice::SliceRequest req = make_request(i, kinds[i / 3], 2 * i);
    const double mean = req.declared_mean;
    const double stddev = req.declared_std;
    sim.submit(req, [mean, stddev](BsId) {
      return std::make_unique<traffic::GaussianDemand>(mean, stddev);
    });
  }

  const std::string algo_name = to_string(algo);
  const topo::Topology& t = sim.topology();
  for (std::size_t e = 0; e < 18; ++e) {
    const EpochReport rep = sim.run_epoch();
    const double hour = 6.0 + static_cast<double>(e);  // 06:00 .. 23:00
    Row a("fig8a");
    a.set("algo", algo_name).set("hour", hour)
        .set("cumulative_net_revenue", sim.cumulative_net_revenue())
        .set("epoch_net_revenue", rep.net_revenue)
        .set("active", rep.active_slices);
    if (!rep.accepted.empty()) a.set("accepted", rep.accepted.front());
    if (!rep.rejected.empty()) a.set("rejected", rep.rejected.front());
    out += a.str() + "\n";
    for (std::size_t b = 0; b < t.num_bs(); ++b) {
      Row r("fig8b");
      r.set("algo", algo_name).set("hour", hour).set("bs", b)
          .set("reserved_prbs", rep.usage.reserved.radio_prbs[b])
          .set("load_prbs", rep.usage.load.radio_prbs[b])
          .set("capacity_prbs", t.bs(BsId(static_cast<std::uint32_t>(b))).capacity);
      out += r.str() + "\n";
    }
    // Fig. 8c selects the two links connecting each CU to the switch
    // ("to guarantee that any possible path is represented"): links 2, 3.
    for (std::size_t l = 2; l < t.graph.num_links(); ++l) {
      Row r("fig8c");
      r.set("algo", algo_name).set("hour", hour)
          .set("link", l - 2)
          .set("reserved_mbps", rep.usage.reserved.link_mbps[l])
          .set("load_mbps", rep.usage.load.link_mbps[l])
          .set("capacity_mbps", t.graph.links()[l].capacity);
      out += r.str() + "\n";
    }
    for (std::size_t c = 0; c < t.num_cu(); ++c) {
      Row r("fig8d");
      r.set("algo", algo_name).set("hour", hour)
          .set("cu", std::string(t.cu(CuId(static_cast<std::uint32_t>(c))).name))
          .set("reserved_cores", rep.usage.reserved.cpu_cores[c])
          .set("load_cores", rep.usage.load.cpu_cores[c])
          .set("capacity_cores", t.cu(CuId(static_cast<std::uint32_t>(c))).capacity);
      out += r.str() + "\n";
    }
  }
  Row total("fig8_total");
  total.set("algo", algo_name)
      .set("final_net_revenue", sim.cumulative_net_revenue())
      .set("violation_prob", sim.ledger().violation_probability());
  out += total.str() + "\n";
  return out;
}

}  // namespace

int main() {
  std::printf("# Fig 8: testbed day — 9 slice arrivals, overbooking vs "
              "no-overbooking\n");
  ovnes::bench::TaskSweep sweep;
  sweep.add([] { return drive(Algorithm::NoOverbooking); });
  sweep.add([] { return drive(Algorithm::Benders); });
  sweep.run();
  return 0;
}
