// The online admission-control service: MPSC ingress queue -> sharded
// tenant state -> deterministic decision log.
//
// Execution model (docs/service.md): producers submit() typed events from
// any thread; the queue stamps each accepted event with a monotonic
// sequence number. One drain() call (single consumer) takes everything
// queued so far and processes it in sequence order:
//
//   1. the event stream is split into segments at EpochTick boundaries —
//      a tick is a barrier: every event before it settles first;
//   2. within a segment, events are routed to the shard owning their
//      tenant (hash_id(tenant) % num_shards) and the shards run in
//      parallel over the exec::ThreadPool — each shard processes ITS
//      events serially in sequence order;
//   3. each decision is written to a pre-sized slot indexed by the event's
//      position in the segment, so the log order is a pure function of
//      the accepted event log — byte-identical for every OVNES_THREADS
//      value and every producer interleaving (the determinism contract;
//      replay-tested by svc_test, digest-checked at 1 and 4 threads by
//      the bench_regression svc cases).
//
// Epoch ticks fan end_epoch() out across shards (expiries, drift-triggered
// Benders shard re-solves) and append the expiry decisions in shard order
// under the tick's sequence number.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "svc/events.hpp"
#include "svc/shard.hpp"
#include "topo/topology.hpp"

namespace ovnes::exec {
class ThreadPool;
}  // namespace ovnes::exec

namespace ovnes::svc {

struct ServiceConfig {
  std::size_t num_shards = 4;
  std::size_t queue_capacity = 1 << 16;
  /// Per-shard knobs; capacity_fraction is overwritten with 1/num_shards.
  ShardConfig shard;
};

/// Aggregated service counters (shard totals + ingress queue).
struct ServiceStats {
  ShardStats shards;               ///< Σ over shards
  EventQueue::QueueStats queue;
  std::size_t epochs = 0;          ///< EpochTicks processed
  std::uint64_t events_processed = 0;
  std::size_t live_tenants = 0;
  double overbooked_mbps = 0.0;    ///< Σ shards, SLA sold minus reserved
  double radio_headroom_mbps = 0.0;
  double cpu_headroom_cores = 0.0;
};

/// \brief The service facade: owns the ingress queue and the shards, and
/// runs the drain loop described in the file comment.
class AdmissionService {
 public:
  /// `pool` supplies the shard fan-out lanes (not owned); nullptr uses
  /// exec::ThreadPool::global(). Tests inject ThreadPool(1)/ThreadPool(4)
  /// to prove replay determinism.
  AdmissionService(const topo::Topology& base, ServiceConfig cfg,
                   exec::ThreadPool* pool = nullptr);

  /// Thread-safe producer entry. False = queue full (overload shedding).
  bool submit(const Event& e) { return queue_.submit(e); }

  /// Single-consumer: process every event queued so far, in sequence
  /// order. Returns the number of events processed.
  std::size_t drain();

  /// Every decision made so far, in canonical order (see file comment).
  [[nodiscard]] const std::vector<Decision>& decisions() const {
    return decisions_;
  }
  void clear_decisions() { decisions_.clear(); }

  /// Canonical text rendering of the decision log — excludes latency, so
  /// two replays of one event log compare byte-identical.
  [[nodiscard]] std::string decision_log() const;
  /// FNV-1a digest of decision_log() (what the bench and tests compare).
  [[nodiscard]] std::uint64_t decision_log_digest() const;

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] std::size_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] Shard& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] const Shard& shard(std::size_t i) const { return *shards_[i]; }

  /// The routing function: which shard owns tenant `id`.
  [[nodiscard]] static std::uint32_t shard_of(std::uint64_t id,
                                              std::size_t num_shards) {
    return static_cast<std::uint32_t>(hash_id(id) % num_shards);
  }

 private:
  EventQueue queue_;
  exec::ThreadPool* pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t epoch_ = 0;
  std::uint64_t events_processed_ = 0;
  std::vector<Decision> decisions_;
  // Drain scratch, reused across calls (steady-state drain allocates only
  // when a high-water mark grows).
  std::vector<Event> drained_;
  std::vector<std::vector<std::size_t>> buckets_;     ///< [shard] -> event idx
  std::vector<std::vector<Decision>> tick_out_;       ///< [shard] expiries
};

}  // namespace ovnes::svc
