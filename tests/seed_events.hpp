// The parsed events of a fleet restated straight from the raw fleet, with
// no ClientDataset and no DatasetIndex: the rows the seed's string maps
// were built from. The reference algorithms of perf_test and
// cert_pipeline_test build their maps from these rows, and
// expect_events_match checks a dataset's retained events against them.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.hpp"
#include "devicesim/types.hpp"
#include "tls/clienthello.hpp"
#include "tls/fingerprint.hpp"
#include "util/error.hpp"

namespace iotls::core {

/// One kept event with every name spelled out.
struct SeedEvent {
  std::string device_id, vendor, type, user, sni, fp_key;
  tls::Fingerprint fp;
  std::int64_t day = 0;
  bool grease_suite = false, grease_extension = false;
};

/// The fleet's kept events in input order. The first device row with an
/// id wins; an event is dropped when its device is unknown, its wire is not
/// a record stream, or the records carry no ClientHello. The SNI is the
/// hello's, or else the event's own.
inline std::vector<SeedEvent> seed_events(const devicesim::FleetDataset& fleet,
                                          const tls::FingerprintOptions& opts = {}) {
  std::map<std::string, const devicesim::Device*> devices;
  for (const devicesim::Device& d : fleet.devices) devices.emplace(d.id, &d);
  std::vector<SeedEvent> out;
  for (const devicesim::ClientHelloEvent& raw : fleet.events) {
    auto device = devices.find(raw.device_id);
    if (device == devices.end()) continue;
    std::optional<tls::ClientHello> hello;
    try {
      hello = tls::first_client_hello(BytesView(raw.wire.data(), raw.wire.size()));
    } catch (const ParseError&) {
      continue;
    }
    if (!hello.has_value()) continue;
    const devicesim::Device& d = *device->second;
    SeedEvent& e = out.emplace_back();
    e.device_id = d.id;
    e.vendor = d.vendor;
    e.type = d.type;
    e.user = d.user_id;
    e.sni = hello->sni().value_or(raw.sni);
    e.fp = tls::fingerprint_of(*hello, opts);
    e.fp_key = e.fp.key();
    e.day = raw.day;
    e.grease_suite = tls::has_grease_ciphersuite(*hello);
    e.grease_extension = tls::has_grease_extension(*hello);
  }
  return out;
}

/// Each retained event of `ds` resolves, through its index, to the names,
/// fingerprint, day and GREASE bits of the matching seed event.
inline void expect_events_match(const ClientDataset& ds,
                                const std::vector<SeedEvent>& seed) {
  const DatasetIndex& ix = ds.index();
  ASSERT_EQ(ds.events().size(), seed.size());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    const ParsedEvent& e = ds.events()[i];
    const SeedEvent& want = seed[i];
    ASSERT_EQ(ix.devices().str(e.device), want.device_id) << i;
    ASSERT_EQ(ix.vendors().str(e.vendor), want.vendor) << i;
    ASSERT_EQ(ix.types().str(e.type), want.type) << i;
    ASSERT_EQ(ix.users().str(e.user), want.user) << i;
    ASSERT_EQ(ix.snis().str(e.sni), want.sni) << i;
    ASSERT_EQ(ix.fps().str(e.fp), want.fp_key) << i;
    ASSERT_EQ(ix.fp_value(e.fp), want.fp) << i;
    ASSERT_EQ(e.day, want.day) << i;
    ASSERT_EQ(e.grease_suite, want.grease_suite) << i;
    ASSERT_EQ(e.grease_extension, want.grease_extension) << i;
  }
}

}  // namespace iotls::core
