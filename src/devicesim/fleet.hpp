// The crowdsourced-fleet generator (§3's dataset, synthesized).
#pragma once

#include <cstdint>

#include "corpus/corpus.hpp"
#include "devicesim/scenario.hpp"
#include "devicesim/types.hpp"
#include "util/dates.hpp"

namespace iotls::devicesim {

/// Generation knobs. Defaults are calibrated so the measured pipeline output
/// approximates the paper's aggregates (DESIGN.md §6); EXPERIMENTS.md records
/// the achieved values.
struct FleetConfig {
  std::uint64_t seed = 42;
  std::int64_t capture_start = 18015;  // 2019-04-29
  std::int64_t capture_end = kCaptureEnd;
  int users = 721;

  /// Global multipliers on per-vendor stack rates (calibration levers).
  double device_stack_scale = 0.36;  // device-unique stacks
  double type_stack_scale = 0.75;    // device-type (application) stacks
  double shared_stack_scale = 1.0;   // cross-vendor SDK/app adoption

  /// The ecosystem pool: third-party application stacks and stock library
  /// builds shared across vendor fleets — the paper's "shared software
  /// supply chain" (§4.4). Drives Table 2's degree>1 tail.
  int ecosystem_pool = 200;
  int ecosystem_stock = 26;  // pool members that are pristine library builds

  /// Probability a device-unique stack is an *exact* known-library build
  /// (contributes to the §4.1 2.55% match rate).
  double exact_library_rate = 0.012;

  /// Visit every universe SNI at least once (the §5.1 server dataset is the
  /// set of SNIs observed in ClientHellos).
  bool cover_all_snis = true;

  /// Firmware churn (the paper's §7 future work): probability a device
  /// receives a mid-window firmware update that replaces its vendor base
  /// stack with the vendor's updated build. Drives the longitudinal
  /// analysis (core/longitudinal.hpp).
  double firmware_update_rate = 0.18;
};

/// Generate the full synthetic fleet: devices, users and timestamped
/// ClientHello events (wire bytes). Deterministic in `config.seed`.
FleetDataset generate_fleet(const FleetConfig& config,
                            const corpus::LibraryCorpus& corpus,
                            const ServerUniverse& universe);

/// Shape of a scale-test fleet (generate_synthetic_fleet). Unlike
/// FleetConfig this does not model the paper's ecosystem — it exists to
/// make fleets of arbitrary size (millions of devices) fast, for the
/// snapshot/import perf harness. Label and fingerprint structure is still
/// rich enough for the Table 2-5 analyses to produce non-degenerate output.
struct SyntheticFleetSpec {
  std::size_t devices = 1000;
  std::size_t events_per_device = 2;
  std::size_t vendors = 64;        // device d belongs to vendor d % vendors
  std::size_t fingerprints = 512;  // distinct ClientHello shapes
  std::size_t snis = 97;           // distinct server names
  std::size_t users = 257;         // device d belongs to user d % users
  std::int64_t day_start = 18015;  // 2019-04-29, the paper's capture start
  std::int64_t day_span = 180;
};

/// Generate a fleet of exactly `spec.devices` devices with
/// `spec.events_per_device` events each. Wire bytes are precomputed once
/// per distinct fingerprint and copied per event, so generation is O(events)
/// with a tiny constant — a 1M-device fleet builds in seconds. Fully
/// deterministic (no RNG: every field is a function of the indices).
FleetDataset generate_synthetic_fleet(const SyntheticFleetSpec& spec);

}  // namespace iotls::devicesim
