// Tests for the anonymized dataset export/import.
#include <gtest/gtest.h>

#include "core/dataset.hpp"
#include "core/vendor_metrics.hpp"
#include "devicesim/export.hpp"
#include "devicesim/fleet.hpp"
#include "tls/record.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace iotls::devicesim {
namespace {

FleetDataset small_fleet() {
  // A trimmed generated fleet keeps the test fast but realistic.
  static const auto corpus = corpus::LibraryCorpus::standard();
  static const auto universe = ServerUniverse::standard();
  FleetDataset fleet = generate_fleet({}, corpus, universe);
  fleet.events.resize(400);
  return fleet;
}

TEST(Export, PseudonymsAreStableAndSaltSensitive) {
  EXPECT_EQ(pseudonym("amazon-echo-0001", "s1"), pseudonym("amazon-echo-0001", "s1"));
  EXPECT_NE(pseudonym("amazon-echo-0001", "s1"), pseudonym("amazon-echo-0001", "s2"));
  EXPECT_NE(pseudonym("amazon-echo-0001", "s1"), pseudonym("amazon-echo-0002", "s1"));
  EXPECT_EQ(pseudonym("x", "s").size(), 12u);
}

TEST(Export, CsvHidesRawIdentifiers) {
  FleetDataset fleet = small_fleet();
  std::string csv = export_events_csv(fleet);
  EXPECT_EQ(csv.find("user-0000"), std::string::npos);
  EXPECT_EQ(csv.find(fleet.devices.front().id), std::string::npos);
  // But vendors and SNIs (the study's subject) survive. The first fleet
  // block belongs to Roku (Table 13 order).
  EXPECT_NE(csv.find("Roku"), std::string::npos);
}

TEST(Export, RowCountsMatch) {
  FleetDataset fleet = small_fleet();
  std::string events = export_events_csv(fleet);
  std::string devices = export_devices_csv(fleet);
  auto count_lines = [](const std::string& s) {
    std::size_t n = 0;
    for (char c : s) n += (c == '\n');
    return n;
  };
  EXPECT_EQ(count_lines(events), fleet.events.size() + 1);
  EXPECT_EQ(count_lines(devices), fleet.devices.size() + 1);
}

TEST(Export, RoundTripPreservesFingerprints) {
  FleetDataset fleet = small_fleet();
  std::string events = export_events_csv(fleet);
  std::string devices = export_devices_csv(fleet);
  FleetDataset imported = import_events_csv(events, devices);
  ASSERT_EQ(imported.events.size(), fleet.events.size());

  auto original = core::ClientDataset::from_fleet(fleet);
  auto reloaded = core::ClientDataset::from_fleet(imported);
  EXPECT_EQ(reloaded.dropped_events(), 0u);
  // The fingerprint universe and its degree structure survive the export.
  const core::Interner& original_fps = original.index().fps();
  const core::Interner& reloaded_fps = reloaded.index().fps();
  ASSERT_EQ(reloaded_fps.size(), original_fps.size());
  for (std::uint32_t f = 0; f < original_fps.size(); ++f) {
    const std::string& key = original_fps.str(f);
    EXPECT_NE(reloaded_fps.find(key), core::Interner::kNone) << key;
  }
  auto d1 = core::fingerprint_degree_distribution(original);
  auto d2 = core::fingerprint_degree_distribution(reloaded);
  EXPECT_EQ(d1.degree1, d2.degree1);
  EXPECT_EQ(d1.degree2, d2.degree2);
}

TEST(Export, WireModeRoundTripsBytes) {
  FleetDataset fleet = small_fleet();
  fleet.events.resize(50);
  ExportOptions opts;
  opts.include_wire = true;
  std::string events = export_events_csv(fleet, opts);
  FleetDataset imported = import_events_csv(events, export_devices_csv(fleet, opts));
  ASSERT_EQ(imported.events.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(imported.events[i].wire, fleet.events[i].wire);
  }
}

TEST(Export, ImportRejectsMalformedInput) {
  EXPECT_THROW(import_events_csv("nonsense", "device,vendor,type,user\n"),
               ParseError);
  EXPECT_THROW(import_events_csv("device,vendor,type,user,day,sni,fp_key\n",
                                 "nonsense"),
               ParseError);
  EXPECT_THROW(import_events_csv(
                   "device,vendor,type,user,day,sni,fp_key\nonly,three,cols\n",
                   "device,vendor,type,user\n"),
               ParseError);
}

TEST(Export, DevicesCsvRejectsARepeatedDeviceId) {
  try {
    parse_devices_csv("device,vendor,type,user\nd1,V1,T,u1\nd2,V2,T,u2\nd1,V3,T,u3\n");
    FAIL() << "duplicate device id accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate device id: d1"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(import_events_csv("device,vendor,type,user,day,sni,fp_key\n",
                                 "device,vendor,type,user\nd1,V,T,u\nd1,V,T,u\n"),
               ParseError);
  EXPECT_EQ(parse_devices_csv("device,vendor,type,user\nd1,V,T,u\nd2,V,T,u\n").size(), 2u);
}

}  // namespace
}  // namespace iotls::devicesim
