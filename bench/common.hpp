// Shared inputs of the google-benchmark suites: the synthetic
// perf-acceptance fleet and the string-set reference input of the Table 4
// kernel.
#pragma once

#include <map>
#include <set>
#include <string>

#include "core/dataset.hpp"
#include "devicesim/types.hpp"
#include "tls/clienthello.hpp"
#include "tls/record.hpp"
#include "util/dates.hpp"

namespace iotls::bench {

/// Vendor -> fingerprint keys, resolved from the index: the string sets the
/// pre-index Jaccard kernel ran on, kept as its reference input.
inline std::map<std::string, std::set<std::string>> vendor_fp_strings(
    const core::ClientDataset& ds) {
  const core::DatasetIndex& ix = ds.index();
  std::map<std::string, std::set<std::string>> out;
  for (std::uint32_t v = 0; v < ix.vendors().size(); ++v) {
    std::set<std::string>& fps = out[ix.vendors().str(v)];
    for (std::uint32_t f : ix.vendor_fps()[v]) fps.insert(ix.fps().str(f));
  }
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

}  // namespace iotls::bench
