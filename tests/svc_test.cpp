// Tests for the online admission-control service (src/svc): deterministic
// replay across thread counts, tenant state transitions, typed rejection of
// malformed arrivals and forecasts, slot reuse under churn, overload
// shedding, fixed-duration expiry, from-scratch Benders re-solves, the
// greedy repack, and the hot path against the AC-RR slave.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "acrr/slave.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "svc/service.hpp"
#include "topo/generators.hpp"

namespace ovnes::svc {
namespace {

topo::Topology mini() { return topo::make_mini(4, 32.0, 64.0); }

/// A deterministic mixed-workload event script: arrivals of all three slice
/// types, forecast-refreshing demand updates, departures and epoch ticks.
std::vector<Event> make_script(std::size_t tenants, std::size_t epochs) {
  std::vector<Event> ev;
  RngStream rng(91);
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;
  for (std::size_t ep = 0; ep < epochs; ++ep) {
    for (std::size_t a = 0; a < tenants / epochs; ++a) {
      const auto pick = static_cast<int>(rng.uniform(0.0, 3.0));
      const auto type = pick == 0 ? slice::SliceType::eMBB
                        : pick == 1 ? slice::SliceType::mMTC
                                    : slice::SliceType::uRLLC;
      const double sla = slice::standard_template(type).sla_rate;
      const std::uint64_t id = next_id++;
      ev.push_back(make_arrival(id, type, rng.uniform(0.2, 0.8) * sla,
                                rng.uniform(0.05, 0.5), 1.0,
                                pick == 2 ? 2 : 0));
      live.push_back(id);
    }
    // Touch every third live tenant: refreshed forecast + observed peak.
    for (std::size_t i = 0; i < live.size(); i += 3) {
      const double obs = rng.uniform(0.0, 60.0);
      ev.push_back(make_demand_update(live[i], obs, rng.uniform(5.0, 45.0)));
    }
    // A departure per epoch once enough tenants exist.
    if (live.size() > 4) {
      ev.push_back(make_departure(live[1]));
      live.erase(live.begin() + 1);
    }
    ev.push_back(make_epoch_tick());
  }
  return ev;
}

std::string run_script(const std::vector<Event>& script, std::size_t threads,
                       std::size_t num_shards) {
  exec::ThreadPool pool(threads);
  ServiceConfig cfg;
  cfg.num_shards = num_shards;
  cfg.shard.full_resolve_every = 2;
  cfg.shard.drift_threshold = 0.10;
  AdmissionService svc(mini(), cfg, &pool);
  for (const Event& e : script) EXPECT_TRUE(svc.submit(e));
  svc.drain();
  return svc.decision_log();
}

// ------------------------------------------------------------ determinism

TEST(SvcReplay, DecisionLogByteIdenticalAcrossThreadCounts) {
  // The ISSUE acceptance bar: the decision stream is a pure function of the
  // accepted event log — OVNES_THREADS ∈ {1, 4} must replay byte-identical,
  // including the drift-triggered Benders re-solves at epoch ticks.
  const std::vector<Event> script = make_script(36, 6);
  const std::string serial = run_script(script, 1, 4);
  const std::string parallel = run_script(script, 4, 4);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(SvcReplay, DrainGranularityDoesNotChangeTheLog) {
  // Draining after every submit vs. once at the end: same log (the queue's
  // seq stamping, not the drain schedule, defines the order) — as long as
  // segment boundaries (epoch ticks) line up, which they do since ticks
  // are barriers in both drains.
  const std::vector<Event> script = make_script(24, 4);
  exec::ThreadPool pool(2);
  ServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.shard.full_resolve_every = 2;
  AdmissionService one(mini(), cfg, &pool);
  AdmissionService many(mini(), cfg, &pool);
  for (const Event& e : script) ASSERT_TRUE(one.submit(e));
  one.drain();
  for (const Event& e : script) {
    ASSERT_TRUE(many.submit(e));
    many.drain();
  }
  EXPECT_EQ(one.decision_log(), many.decision_log());
  EXPECT_EQ(one.decision_log_digest(), many.decision_log_digest());
}

// ------------------------------------------------------- state transitions

TEST(SvcState, ArrivalUpdateDepartureLifecycle) {
  exec::ThreadPool pool(1);
  ServiceConfig cfg;
  cfg.num_shards = 1;
  AdmissionService svc(mini(), cfg, &pool);
  const std::uint64_t id = 7;

  ASSERT_TRUE(svc.submit(make_arrival(id, slice::SliceType::eMBB, 20.0, 0.2)));
  svc.drain();
  ASSERT_EQ(svc.decisions().size(), 1u);
  EXPECT_EQ(svc.decisions()[0].kind, DecisionKind::Admitted);
  EXPECT_GT(svc.decisions()[0].z_total, 0.0);
  EXPECT_TRUE(svc.shard(0).has_tenant(id));
  EXPECT_GT(svc.shard(0).reservation_total(id), 0.0);

  // Duplicate arrival is rejected without touching state.
  ASSERT_TRUE(svc.submit(make_arrival(id, slice::SliceType::eMBB, 20.0, 0.2)));
  svc.drain();
  EXPECT_EQ(svc.decisions()[1].kind, DecisionKind::RejectedDuplicate);
  EXPECT_EQ(svc.shard(0).num_tenants(), 1u);

  // Saturate the radio (each mini() BS carries 150 Mbps = 3 full Λ=50
  // reservations), then overbook: tenant 10 is admitted with ~zero
  // reserved on every BS.
  ASSERT_TRUE(svc.submit(make_arrival(8, slice::SliceType::eMBB, 20.0, 0.2)));
  ASSERT_TRUE(svc.submit(make_arrival(9, slice::SliceType::eMBB, 20.0, 0.2)));
  ASSERT_TRUE(svc.submit(make_arrival(10, slice::SliceType::eMBB, 20.0, 0.2)));
  svc.drain();
  EXPECT_EQ(svc.decisions()[4].kind, DecisionKind::Admitted);
  EXPECT_LT(svc.shard(0).reservation_total(10), 1.0);

  // An observed peak above tenant 10's (empty) reservation accrues
  // SLA-violation minutes on every BS.
  ASSERT_TRUE(svc.submit(make_demand_update(10, 20.0)));
  svc.drain();
  EXPECT_EQ(svc.decisions()[5].kind, DecisionKind::Updated);
  EXPECT_GT(svc.decisions()[5].value, 0.99);  // violated-BS fraction = 1
  EXPECT_GT(svc.stats().shards.violation_minutes, 0.0);

  // Departure frees the slot and the committed capacity.
  ASSERT_TRUE(svc.submit(make_departure(id)));
  svc.drain();
  EXPECT_EQ(svc.decisions()[6].kind, DecisionKind::Departed);
  EXPECT_FALSE(svc.shard(0).has_tenant(id));
  EXPECT_EQ(svc.shard(0).num_tenants(), 3u);

  // Operations on unknown tenants are reported, not crashed on.
  ASSERT_TRUE(svc.submit(make_departure(999)));
  ASSERT_TRUE(svc.submit(make_demand_update(999, 10.0)));
  svc.drain();
  EXPECT_EQ(svc.decisions()[7].kind, DecisionKind::Unknown);
  EXPECT_EQ(svc.decisions()[8].kind, DecisionKind::Unknown);
  EXPECT_EQ(svc.stats().shards.unknown_tenant, 2u);
}

TEST(SvcState, FixedDurationSliceExpiresAtTheTick) {
  exec::ThreadPool pool(1);
  ServiceConfig cfg;
  cfg.num_shards = 1;
  AdmissionService svc(mini(), cfg, &pool);
  const std::uint64_t id = 3;
  ASSERT_TRUE(svc.submit(
      make_arrival(id, slice::SliceType::eMBB, 15.0, 0.2, 1.0, 2)));
  ASSERT_TRUE(svc.submit(make_epoch_tick()));
  svc.drain();
  EXPECT_TRUE(svc.shard(0).has_tenant(id));  // 1 of 2 epochs elapsed
  ASSERT_TRUE(svc.submit(make_epoch_tick()));
  svc.drain();
  EXPECT_FALSE(svc.shard(0).has_tenant(id));
  const Decision& last = svc.decisions().back();
  EXPECT_EQ(last.kind, DecisionKind::Expired);
  EXPECT_EQ(last.tenant_id, id);
  EXPECT_EQ(svc.stats().shards.expiries, 1u);
}

TEST(SvcState, MalformedArrivalsAreRejectedTyped) {
  // Each arrival carries one bad field. None may be admitted: a NaN σ̂ or
  // penalty factor used to price v = NaN, which no margin test rejects,
  // and a negative penalty factor priced v above the reward.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto embb = slice::SliceType::eMBB;
  const std::vector<Event> bad = {
      make_arrival(1, embb, 20.0, nan),
      make_arrival(2, embb, 20.0, 0.2, nan),
      make_arrival(3, embb, 20.0, 0.2, -3.0),
      make_arrival(4, embb, nan, 0.2),
      make_arrival(5, embb, inf, 0.2),
      make_arrival(6, embb, -inf, 0.2),
      make_arrival(7, embb, 20.0, inf),
      make_arrival(8, embb, 20.0, 0.2, inf),
      make_arrival(9, static_cast<slice::SliceType>(7), 20.0, 0.2),
  };
  Shard shard(mini(), ShardConfig{}, 0);
  for (const Event& e : bad) {
    const Decision d = shard.handle(e);
    EXPECT_EQ(d.kind, DecisionKind::RejectedInvalid)
        << "tenant " << e.tenant_id;
    EXPECT_EQ(d.tenant_id, e.tenant_id);
    EXPECT_EQ(d.z_total, 0.0);
    EXPECT_EQ(d.value, 0.0);
  }
  EXPECT_STREQ(to_string(DecisionKind::RejectedInvalid), "rej-invalid");
  EXPECT_EQ(shard.stats().arrivals, bad.size());
  EXPECT_EQ(shard.stats().rejected_invalid, bad.size());
  EXPECT_EQ(shard.stats().admitted, 0u);
  EXPECT_EQ(shard.num_tenants(), 0u);

  // Finite negative forecasts keep the clamp to 0 and are admitted, and a
  // rejected id stays free.
  const Decision ok = shard.handle(make_arrival(1, embb, -5.0, -0.1));
  EXPECT_EQ(ok.kind, DecisionKind::Admitted);
  EXPECT_TRUE(std::isfinite(ok.value));

  ShardStats sum;
  sum.accumulate(shard.stats());
  sum.accumulate(shard.stats());
  EXPECT_EQ(sum.rejected_invalid, 2 * bad.size());
}

TEST(SvcState, NonFiniteForecastKeepsTheDriftTrigger) {
  // Two tenants whose forecasts drift by 20 Mbps, one per epoch: each
  // drift exceeds the 0.25 threshold, so each tick re-solves. A λ̂ = +∞
  // update in between must be ignored like a negative one; it used to
  // turn the drift sum into NaN and switch the trigger off for good.
  const auto run = [](bool with_inf) {
    ShardConfig cfg;
    Shard shard(mini(), cfg, 0);
    std::vector<Decision> out;
    const auto embb = slice::SliceType::eMBB;
    EXPECT_EQ(shard.handle(make_arrival(1, embb, 20.0, 0.2)).kind,
              DecisionKind::Admitted);
    EXPECT_EQ(shard.handle(make_arrival(2, embb, 20.0, 0.2)).kind,
              DecisionKind::Admitted);
    EXPECT_EQ(shard.handle(make_demand_update(1, 10.0, 40.0)).kind,
              DecisionKind::Updated);
    shard.end_epoch(0, out);
    if (with_inf) {
      const Decision d = shard.handle(make_demand_update(
          2, 10.0, std::numeric_limits<double>::infinity()));
      EXPECT_EQ(d.kind, DecisionKind::Updated);
    }
    EXPECT_EQ(shard.handle(make_demand_update(2, 10.0, 40.0)).kind,
              DecisionKind::Updated);
    shard.end_epoch(1, out);
    EXPECT_TRUE(out.empty());  // open-ended tenants never expire
    return shard.stats().full_resolves;
  };
  EXPECT_EQ(run(false), 2u);
  EXPECT_EQ(run(true), 2u);
}

TEST(SvcState, CapacityPressureForcesOverbookingThenRejection) {
  // One shard owning the full mini() plane: each admission reserves less
  // than Λ once the radio saturates (overbooking), and profit eventually
  // rejects when the risk term exceeds the reward.
  exec::ThreadPool pool(1);
  ServiceConfig cfg;
  cfg.num_shards = 1;
  AdmissionService svc(mini(), cfg, &pool);
  for (std::uint64_t id = 1; id <= 30; ++id) {
    // Alternate risky tenants (near-SLA forecast, volatile, steep penalty:
    // w ≈ 0.016·R, so an empty plane is unprofitable) with safe ones
    // (w ≈ 1e-5·R: profitable even fully overbooked).
    const bool risky = (id % 2) == 1;
    ASSERT_TRUE(svc.submit(risky ? make_arrival(id, slice::SliceType::eMBB,
                                                45.0, 1.0, 16.0)
                                 : make_arrival(id, slice::SliceType::eMBB,
                                                10.0, 0.1, 1.0)));
  }
  svc.drain();
  const ServiceStats s = svc.stats();
  EXPECT_GT(s.shards.admitted, 0u);
  EXPECT_GT(s.shards.rejected_profit, 0u);
  EXPECT_GT(s.overbooked_mbps, 0.0);  // some SLA sold beyond reservations
}

// ----------------------------------------------------------- memory model

TEST(SvcMemory, SlotsAreReusedUnderChurn) {
  exec::ThreadPool pool(1);
  ServiceConfig cfg;
  cfg.num_shards = 1;
  AdmissionService svc(mini(), cfg, &pool);

  // Warm up: a few admissions create the tenant slots.
  for (std::uint64_t id = 1; id <= 8; ++id) {
    ASSERT_TRUE(svc.submit(make_arrival(id, slice::SliceType::eMBB, 10.0, 0.2)));
  }
  svc.drain();
  const std::size_t warm_slots = svc.shard(0).slot_capacity();
  EXPECT_EQ(warm_slots, 8u);

  // Steady state: churn admissions/departures. Every freed slot must be
  // reused instead of appending a new one.
  for (std::uint64_t id = 1; id <= 8; ++id) {
    ASSERT_TRUE(svc.submit(make_departure(id)));
  }
  for (std::uint64_t round = 0; round < 20; ++round) {
    for (std::uint64_t id = 100 + round * 10; id < 108 + round * 10; ++id) {
      ASSERT_TRUE(svc.submit(make_arrival(id, slice::SliceType::eMBB, 10.0, 0.2)));
    }
    for (std::uint64_t id = 100 + round * 10; id < 108 + round * 10; ++id) {
      ASSERT_TRUE(svc.submit(make_departure(id)));
    }
    svc.drain();
    EXPECT_EQ(svc.shard(0).slot_capacity(), warm_slots) << "round " << round;
  }
  EXPECT_EQ(svc.stats().shards.admitted, 8u + 20u * 8u);
  EXPECT_EQ(svc.shard(0).num_tenants(), 0u);
}

// ------------------------------------------------------- overload shedding

TEST(SvcOverload, FullQueueShedsAndFullShardRejects) {
  exec::ThreadPool pool(1);
  ServiceConfig cfg;
  cfg.num_shards = 1;
  cfg.queue_capacity = 8;
  cfg.shard.max_tenants = 2;
  AdmissionService svc(mini(), cfg, &pool);

  // Queue-level shedding: the 9th undrained submit fails.
  std::size_t accepted = 0;
  for (std::uint64_t id = 1; id <= 12; ++id) {
    if (svc.submit(make_arrival(id, slice::SliceType::eMBB, 10.0, 0.2))) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(svc.stats().queue.shed, 4u);
  svc.drain();

  // Shard-level backpressure: beyond max_tenants arrivals are rejected
  // with a decision (unlike queue shedding, which never enters the log).
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.shards.admitted, 2u);
  EXPECT_EQ(s.shards.rejected_full, 6u);
  EXPECT_EQ(s.live_tenants, 2u);
}

// ------------------------------------------------------- epoch re-solves

TEST(SvcResolve, UnchangedShardResolvesFromScratch) {
  // Periodic full re-solves of an UNCHANGED shard population: no cut
  // carries from one re-solve to the next, so the second separates as
  // many cuts as the first, takes none from an earlier pool, and lands on
  // the same reservations.
  exec::ThreadPool pool(1);
  ServiceConfig cfg;
  cfg.num_shards = 1;
  cfg.shard.full_resolve_every = 1;
  AdmissionService svc(mini(), cfg, &pool);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(svc.submit(
        make_arrival(id, slice::SliceType::eMBB, 30.0, 0.5, 4.0)));
  }
  ASSERT_TRUE(svc.submit(make_epoch_tick()));
  svc.drain();
  const ShardStats first = svc.shard(0).stats();
  std::vector<double> z_first;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    z_first.push_back(svc.shard(0).reservation_total(id));
  }
  ASSERT_TRUE(svc.submit(make_epoch_tick()));
  svc.drain();

  const ShardStats& s = svc.shard(0).stats();
  EXPECT_EQ(first.full_resolves, 1u);
  EXPECT_EQ(s.full_resolves, 2u);
  EXPECT_EQ(s.cuts_from_pool, 0);
  EXPECT_EQ(s.pool_resets, 0u);
  EXPECT_GT(first.cuts_separated, 0);
  EXPECT_EQ(s.cuts_separated, 2 * first.cuts_separated);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    EXPECT_EQ(svc.shard(0).reservation_total(id), z_first[id - 1]) << id;
  }
}

TEST(SvcResolve, GreedyRepackReproducesHotPathTotals) {
  // With no departures the repack re-prices the admission LPs in the same
  // slot order against a ledger rebuilt in that order, so every tenant
  // gets back the Σz it was admitted with.
  exec::ThreadPool pool(1);
  ServiceConfig cfg;
  cfg.num_shards = 1;
  cfg.shard.max_resolve_tenants = 0;  // every re-solve takes the repack
  cfg.shard.full_resolve_every = 1;
  AdmissionService svc(mini(), cfg, &pool);
  const slice::SliceType kinds[3] = {slice::SliceType::eMBB,
                                     slice::SliceType::mMTC,
                                     slice::SliceType::uRLLC};
  for (std::uint64_t id = 1; id <= 9; ++id) {
    const slice::SliceType type = kinds[id % 3];
    const double sla = slice::standard_template(type).sla_rate;
    const double lambda_hat = 0.1 * static_cast<double>(id) * sla;
    ASSERT_TRUE(svc.submit(make_arrival(id, type, lambda_hat, 0.3, 2.0,
                                        id % 2 == 0 ? 3 : 0)));
  }
  svc.drain();
  std::vector<double> z_admit;
  std::size_t admitted = 0;
  for (const Decision& d : svc.decisions()) {
    admitted += d.kind == DecisionKind::Admitted;
    z_admit.push_back(d.kind == DecisionKind::Admitted ? d.z_total : -1.0);
  }
  ASSERT_GE(admitted, 5u);

  ASSERT_TRUE(svc.submit(make_epoch_tick()));
  svc.drain();
  const ShardStats& s = svc.shard(0).stats();
  EXPECT_EQ(s.greedy_repacks, 1u);
  EXPECT_EQ(s.full_resolves, 0u);
  EXPECT_EQ(s.expiries, 0u);
  for (std::uint64_t id = 1; id <= 9; ++id) {
    EXPECT_NEAR(svc.shard(0).reservation_total(id), z_admit[id - 1], 1e-9)
        << "tenant " << id;
  }
}

// ------------------------------------------------------ one resource model

TEST(SvcModel, HotPathMatchesOneTenantSlave) {
  // One arrival on a fresh shard against the AC-RR slave for the same
  // tenant on the same plane (the shard's k = 1 catalog, the CU the shard
  // picks). Both price Problem 2's risk weight w over the compute,
  // transport and radio rows (14)-(16); they differ only in the floor of
  // the reservation box: 0 on the hot path, λ̂ in the slave. At λ̂ = 0 both
  // boxes are [0, Λ], so the two LPs must reserve the same Σz and the
  // hot path's value R − w·(B·Λ − Σz) must carry the slave's w.
  const slice::SliceType kinds[3] = {slice::SliceType::eMBB,
                                     slice::SliceType::mMTC,
                                     slice::SliceType::uRLLC};
  int at_zero_matched = 0;
  int binding = 0;  // cases where a capacity row held Σz below B·Λ
  int positive_matched = 0;
  int slave_infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    RngStream rng(seed);
    const auto num_bs = static_cast<std::size_t>(rng.uniform_int(2, 6));
    const double edge_cores = rng.uniform(1.0, 40.0);
    const double core_cores = rng.uniform(1.0, 40.0);
    const double link_mbps = rng.uniform(10.0, 200.0);
    const slice::SliceType type = kinds[rng.uniform_int(0, 2)];
    const slice::SliceTemplate tmpl = slice::standard_template(type);
    const bool at_zero = seed % 4 != 0;
    const double lambda_hat =
        at_zero ? 0.0 : rng.uniform(0.1, 0.9) * tmpl.sla_rate;
    const double sigma_hat = rng.uniform(0.05, 1.0);
    const double penalty = rng.uniform(0.5, 4.0);
    const auto duration = static_cast<std::uint32_t>(rng.uniform_int(0, 5));

    ShardConfig cfg;
    cfg.admit_margin = -std::numeric_limits<double>::infinity();
    Shard shard(topo::make_mini(num_bs, edge_cores, core_cores, 20000.0,
                                link_mbps),
                cfg, 0);
    const Decision d = shard.handle(
        make_arrival(1, type, lambda_hat, sigma_hat, penalty, duration));
    ASSERT_EQ(d.kind, DecisionKind::Admitted) << "seed " << seed;

    // The slave's tenant: the shard prices a risk horizon of max(1, L).
    const topo::Topology& plane = shard.topology();
    const topo::PathCatalog catalog(plane, 1);
    acrr::TenantModel tm;
    tm.request.tmpl = tmpl;
    tm.request.duration_epochs = std::max<std::uint32_t>(1, duration);
    tm.request.penalty_factor = penalty;
    tm.lambda_hat = lambda_hat;
    tm.sigma_hat = sigma_hat;
    const acrr::AcrrInstance inst(plane, catalog, {tm});
    // A fresh shard places the arrival on the feasible CU with the most
    // cores, the first one on ties.
    ASSERT_FALSE(inst.feasible_cus(0).empty()) << "seed " << seed;
    CuId cu = inst.feasible_cus(0).front();
    for (CuId c : inst.feasible_cus(0)) {
      if (plane.cu(c).capacity > plane.cu(cu).capacity) cu = c;
    }
    std::vector<char> active(inst.vars().size(), 0);
    for (const auto& group : inst.vars_by_bs(0, cu)) {
      active[static_cast<std::size_t>(group.front())] = 1;
    }
    const acrr::VarInfo& v =
        inst.vars()[static_cast<std::size_t>(inst.vars_by_bs(0, cu)[0][0])];
    const acrr::SlaveProblem slave(inst);
    const acrr::SlaveResult sr = slave.solve(active, /*allow_deficit=*/false);
    if (!sr.feasible) {
      ASSERT_FALSE(at_zero) << "seed " << seed;
      ++slave_infeasible;
      continue;
    }
    double sum_z = 0.0;
    for (double z : sr.z) sum_z += z;
    const double sold = static_cast<double>(num_bs) * tmpl.sla_rate;
    EXPECT_NEAR(d.z_total, sum_z, 1e-9) << "seed " << seed;
    EXPECT_NEAR(d.value, tmpl.reward - v.w * (sold - d.z_total),
                1e-9 * std::max(1.0, std::abs(d.value)))
        << "seed " << seed;
    if (sum_z < sold - 1e-9) ++binding;
    ++(at_zero ? at_zero_matched : positive_matched);
  }
  EXPECT_EQ(at_zero_matched, 150);
  EXPECT_EQ(binding, 134);  // of 181 comparable cases: the rows do bind
  // At λ̂ > 0 the hot path admits below the forecast where the slave's
  // floor z ≥ λ̂ cannot fit. ROADMAP's "[next] One admission model for the
  // service" item picks one box and will change this count.
  EXPECT_EQ(slave_infeasible, 19);
  EXPECT_EQ(positive_matched, 31);
}

}  // namespace
}  // namespace ovnes::svc
