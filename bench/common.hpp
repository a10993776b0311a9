// Shared setup for the table/figure regeneration harness: build the corpus,
// universe, fleet, parsed dataset, simulated world and certificate dataset
// once per binary.
#pragma once

#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "core/cert_dataset.hpp"
#include "core/dataset.hpp"
#include "corpus/corpus.hpp"
#include "devicesim/fleet.hpp"
#include "devicesim/scenario.hpp"
#include "tls/clienthello.hpp"
#include "tls/record.hpp"
#include "util/dates.hpp"

namespace iotls::bench {

/// The paper's reference days.
inline const std::int64_t kCaptureEnd = days(2020, 8, 1);    // "as of 2020"
inline const std::int64_t kProbeDay = days(2022, 4, 15);     // April 2022 probes

struct Context {
  corpus::LibraryCorpus corpus;
  devicesim::ServerUniverse universe;
  devicesim::FleetDataset fleet;
  core::ClientDataset client;
  devicesim::SimWorld world;
  core::CertDataset certs;

  Context()
      : corpus(corpus::LibraryCorpus::standard()),
        universe(devicesim::ServerUniverse::standard()),
        fleet(devicesim::generate_fleet({}, corpus, universe)),
        client(core::ClientDataset::from_fleet(fleet)),
        world(devicesim::build_world(universe)),
        certs(core::CertDataset::collect(client, world)) {}

  static const Context& get() {
    static Context ctx;
    return ctx;
  }
};

/// Vendor -> fingerprint keys, built from the parsed events: the string
/// sets the pre-index Jaccard kernel ran on, kept as its reference input.
inline std::map<std::string, std::set<std::string>> vendor_fp_strings(
    const core::ClientDataset& ds) {
  std::map<std::string, std::set<std::string>> out;
  for (const core::ParsedEvent& e : ds.events()) out[e.vendor].insert(e.fp_key);
  return out;
}

/// Synthetic fleet at the perf-acceptance scale: `vendors` vendors, one
/// device each, proposing overlapping 250-wide windows of a `fps`-sized
/// fingerprint space (adjacent vendors share most of their window, so the
/// Table 4 Jaccard analysis has dense nonzero pairs to chew on).
inline devicesim::FleetDataset synthetic_fleet(int vendors = 64, int fps = 1000) {
  devicesim::FleetDataset out;
  out.users = {"u1"};
  for (int v = 0; v < vendors; ++v) {
    out.devices.push_back({"dev-" + std::to_string(v),
                           "Vendor" + std::to_string(v), "Widget", "u1"});
  }
  for (int v = 0; v < vendors; ++v) {
    for (int k = 0; k < 250; ++k) {
      int f = (v * (fps / vendors) + k) % fps;
      tls::ClientHello ch;
      ch.legacy_version = 0x0303;
      ch.cipher_suites = {static_cast<std::uint16_t>(0xc000 + (f & 0xff)),
                          static_cast<std::uint16_t>(0x0100 + (f >> 8)),
                          0xc02f, 0x009c};
      ch.extensions.push_back({10, {}});
      ch.extensions.push_back({11, {}});
      std::string sni = "srv-" + std::to_string(f % 97) + ".example.com";
      ch.set_sni(sni);
      Bytes msg = ch.encode();
      devicesim::ClientHelloEvent e;
      e.device_id = "dev-" + std::to_string(v);
      e.day = days(2019, 7, 1);
      e.sni = sni;
      e.wire = tls::encode_records(tls::ContentType::kHandshake, 0x0303,
                                   BytesView(msg.data(), msg.size()));
      out.events.push_back(std::move(e));
    }
  }
  return out;
}

inline void banner(const char* experiment, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", experiment, description);
  std::printf("==============================================================\n");
}

}  // namespace iotls::bench
