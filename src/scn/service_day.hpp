// Seeded event-script generation for the online admission service: a
// simulated day of tenant arrivals, monitoring updates, departures and
// epoch ticks, shaped by the scn traffic models (diurnal envelope,
// flash-crowd windows, optional heavy-tailed forecast rates, forecast-error
// bias on the observed peaks).
//
// The svc regression cases of bench_regression, bench_e2e and scn_test
// all build their scripts here. A script is a pure function of its config
// (keyed RngStream children per arrival / update), so the same config
// yields a byte-identical event stream — script_digest pins that, and the
// service's own determinism contract turns it into a byte-identical
// decision log at any worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "scn/traffic.hpp"
#include "svc/events.hpp"

namespace ovnes::scn {

struct ServiceDayConfig {
  std::size_t tenants = 4000;    ///< arrivals over the day
  std::size_t hours = 24;        ///< one EpochTick per hour
  std::uint64_t seed = 2018;
  DiurnalConfig diurnal{.peak_ratio = 2.5, .peak_hour = 14.0};
  FlashCrowdConfig flash;        ///< spikes concentrate arrivals + load
  /// When set (spread > 0 path unused), declared rates λ̂ draw a
  /// heavy-tailed scale instead of the default uniform(0.3, 0.9)·SLA mix.
  bool heavy_tail_rates = false;
  HeavyTailConfig heavy_tail;
  /// Forecast error on the *observed* peaks relative to the declared λ̂:
  /// bias > 0 means monitoring sees more traffic than tenants declared —
  /// the overbooking-stress knob for the service.
  ForecastErrorConfig forecast;
  double depart_fraction = 0.15; ///< tenants departing explicitly (rest age out)
};

/// Build the whole day's event script (arrivals follow the envelope, every
/// live tenant files hourly demand updates, each hour ends with an
/// EpochTick). Pure function of `cfg`.
[[nodiscard]] std::vector<svc::Event> make_service_day(
    const ServiceDayConfig& cfg);

/// Canonical FNV-1a digest over the script (type, tenant, payload fields
/// through json::format_double) — byte-stable across compilers.
[[nodiscard]] std::uint64_t script_digest(const std::vector<svc::Event>& script);

}  // namespace ovnes::scn
