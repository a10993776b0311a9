// Index-level fold identity: appending one event stream to a ClientDataset
// under any epoch split, at any jobs level, with or without retained events,
// builds the index one cold ClientDataset::from_fleet builds, field by field.
// DatasetIndex itself is also driven directly: the same recorded ids give
// the same index whether recorded and finalized at jobs 1 or jobs 4.
// The reports are a projection of the index; this suite compares the index
// itself (every interner's order, every posting list, the permutations, the
// vendor bitsets, the drop counts), so a divergence that no report happens to
// render still fails. Also pins device-table resolution (first row wins on a
// repeated id, a changed table is noticed) and the parse counters.
#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.hpp"
#include "corpus/corpus.hpp"
#include "devicesim/fleet.hpp"
#include "devicesim/scenario.hpp"
#include "obs/metrics.hpp"
#include "tls/clienthello.hpp"
#include "tls/record.hpp"

namespace iotls::core {
namespace {

using devicesim::ClientHelloEvent;
using devicesim::Device;
using devicesim::FleetDataset;

// ------------------------------------------------------------ comparison

void expect_same_interner(const Interner& a, const Interner& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::uint32_t id = 0; id < a.size(); ++id) {
    ASSERT_EQ(a.str(id), b.str(id)) << what << " id " << id;
  }
}

void expect_same_lists(const std::vector<PostingList>& a,
                       const std::vector<PostingList>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t row = 0; row < a.size(); ++row) {
    ASSERT_EQ(a[row], b[row]) << what << " row " << row;
  }
}

void expect_same_index(const DatasetIndex& a, const DatasetIndex& b) {
  expect_same_interner(a.vendors(), b.vendors(), "vendors");
  expect_same_interner(a.devices(), b.devices(), "devices");
  expect_same_interner(a.types(), b.types(), "types");
  expect_same_interner(a.users(), b.users(), "users");
  expect_same_interner(a.snis(), b.snis(), "snis");
  expect_same_interner(a.fps(), b.fps(), "fps");
  for (std::uint32_t f = 0; f < a.fps().size(); ++f) {
    ASSERT_EQ(a.fp_value(f), b.fp_value(f)) << "fp value " << f;
  }

  expect_same_lists(a.fp_vendors(), b.fp_vendors(), "fp_vendors");
  expect_same_lists(a.fp_devices(), b.fp_devices(), "fp_devices");
  expect_same_lists(a.fp_snis(), b.fp_snis(), "fp_snis");
  expect_same_lists(a.vendor_fps(), b.vendor_fps(), "vendor_fps");
  expect_same_lists(a.device_fps(), b.device_fps(), "device_fps");
  expect_same_lists(a.sni_devices(), b.sni_devices(), "sni_devices");
  expect_same_lists(a.sni_vendors(), b.sni_vendors(), "sni_vendors");
  expect_same_lists(a.sni_fps(), b.sni_fps(), "sni_fps");
  expect_same_lists(a.sni_users(), b.sni_users(), "sni_users");
  for (std::uint32_t d = 0; d < a.devices().size(); ++d) {
    ASSERT_EQ(a.device_vendor(d), b.device_vendor(d)) << "device_vendor " << d;
    ASSERT_EQ(a.device_type(d), b.device_type(d)) << "device_type " << d;
  }

  EXPECT_EQ(a.vendors_by_name(), b.vendors_by_name());
  EXPECT_EQ(a.devices_by_name(), b.devices_by_name());
  EXPECT_EQ(a.snis_by_name(), b.snis_by_name());
  EXPECT_EQ(a.fps_by_key(), b.fps_by_key());
  // And each permutation really is the lexicographic order.
  EXPECT_EQ(a.vendors_by_name(), a.vendors().ids_by_string());
  EXPECT_EQ(a.devices_by_name(), a.devices().ids_by_string());
  EXPECT_EQ(a.snis_by_name(), a.snis().ids_by_string());
  EXPECT_EQ(a.fps_by_key(), a.fps().ids_by_string());

  for (std::uint32_t v = 0; v < a.vendors().size(); ++v) {
    const Bitset& x = a.vendor_fp_bits(v);
    const Bitset& y = b.vendor_fp_bits(v);
    ASSERT_EQ(x.size(), a.fps().size()) << "bitset width, vendor " << v;
    ASSERT_EQ(x.size(), y.size()) << "vendor " << v;
    for (std::uint32_t f = 0; f < x.size(); ++f) {
      ASSERT_EQ(x.test(f), y.test(f)) << "vendor " << v << " fp " << f;
    }
    EXPECT_EQ(x.count(), a.vendor_fps()[v].size()) << "vendor " << v;
  }
}

void expect_same_dataset(const ClientDataset& got, const ClientDataset& want,
                         bool compare_events) {
  expect_same_index(got.index(), want.index());
  EXPECT_EQ(got.drop_counts().unknown_device, want.drop_counts().unknown_device);
  EXPECT_EQ(got.drop_counts().no_client_hello, want.drop_counts().no_client_hello);
  EXPECT_EQ(got.drop_counts().parse_error, want.drop_counts().parse_error);

  if (!compare_events) {
    EXPECT_TRUE(got.events().empty());
    return;
  }
  ASSERT_EQ(got.events().size(), want.events().size());
  for (std::size_t i = 0; i < got.events().size(); ++i) {
    ASSERT_EQ(got.events()[i], want.events()[i]) << i;
  }
}

// ------------------------------------------------------------ fixtures

Bytes hello_wire(std::uint16_t shape, const std::string& sni, std::uint64_t random) {
  tls::ClientHello ch;
  ch.cipher_suites = {static_cast<std::uint16_t>(0xc000 + shape), 0xc02f};
  ch.extensions.push_back({10, {}});
  if (shape % 2 == 0) ch.extensions.push_back({11, {}});
  if (!sni.empty()) ch.set_sni(sni);
  for (std::size_t i = 0; i < ch.random.size(); ++i) {
    ch.random[i] = static_cast<std::uint8_t>(random >> (8 * (i % 8)) ^ i);
  }
  Bytes msg = ch.encode();
  return tls::encode_records(tls::ContentType::kHandshake, 0x0303,
                             BytesView(msg.data(), msg.size()));
}

/// Decodes as records and handshakes, but carries a ServerHello only.
Bytes no_hello_wire() {
  Bytes body(38, 0x00);
  Bytes msg = tls::encode_handshake(tls::HandshakeType::kServerHello,
                                    BytesView(body.data(), body.size()));
  return tls::encode_records(tls::ContentType::kHandshake, 0x0303,
                             BytesView(msg.data(), msg.size()));
}

/// A record header promising more bytes than follow.
Bytes malformed_wire() { return {0x16, 0x03, 0x03, 0x00, 0x40, 0x01, 0x00}; }

/// A hand-built fleet exercising every fold path: SNI-bearing and SNI-less
/// hellos (the latter fall back to each event's own `sni`), one malformed
/// wire and one hello-less wire repeated across events, unknown devices
/// (also carrying the malformed wire: unknown_device takes precedence), and
/// late events from early devices and fingerprints. With `distinct_wires`
/// every hello carries a fresh random, so no two events share wire bytes.
FleetDataset mixed_fleet(std::uint32_t seed, bool distinct_wires) {
  std::mt19937 rng(seed);
  FleetDataset fleet;
  for (int d = 0; d < 40; ++d) {
    fleet.devices.push_back({"dev-" + std::to_string(d), "Vendor" + std::to_string(d % 7),
                             "Type" + std::to_string(d % 3), "user-" + std::to_string(d % 11)});
  }
  const Bytes bad = malformed_wire();
  const Bytes empty = no_hello_wire();
  std::uint64_t nonce = 0;
  for (int i = 0; i < 600; ++i) {
    ClientHelloEvent ev;
    ev.day = 18000 + static_cast<std::int64_t>(rng() % 90);
    ev.sni = "raw-" + std::to_string(rng() % 13) + ".example";
    std::uint32_t pick = rng() % 100;
    // The second half revisits the first ten devices and fingerprint
    // shapes, so their new postings sort below the tails already folded.
    bool early = i >= 300 && pick % 2 == 0;
    int device = early ? static_cast<int>(rng() % 10) : static_cast<int>(rng() % 40);
    std::uint16_t shape = early ? static_cast<std::uint16_t>(rng() % 4)
                                : static_cast<std::uint16_t>(rng() % 24);
    ev.device_id = "dev-" + std::to_string(device);
    std::uint64_t random = distinct_wires ? ++nonce : 0;
    if (pick < 5) {
      ev.wire = bad;
    } else if (pick < 8) {
      ev.wire = empty;
    } else if (pick < 12) {
      ev.device_id = "ghost-" + std::to_string(rng() % 3);
      ev.wire = pick < 10 ? bad : hello_wire(shape, "srv.example", random);
    } else if (pick < 40) {
      ev.wire = hello_wire(shape, "", random);  // SNI-less
    } else {
      ev.wire = hello_wire(shape, "srv-" + std::to_string(shape % 9) + ".example",
                           random);
    }
    fleet.events.push_back(std::move(ev));
  }
  return fleet;
}

FleetDataset paper_fleet() {
  devicesim::FleetConfig config;
  config.users = 10;
  return devicesim::generate_fleet(config, corpus::LibraryCorpus::standard(),
                                   devicesim::ServerUniverse::standard());
}

/// Random epoch boundaries over [0, n): many 1-event epochs, some long ones.
std::vector<std::size_t> random_cuts(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::size_t> cuts{0};
  while (cuts.back() < n) {
    std::size_t step = rng() % 3 == 0 ? 1 : 1 + rng() % (n / 4 + 1);
    cuts.push_back(std::min(n, cuts.back() + step));
  }
  return cuts;
}

void check_splits(const FleetDataset& fleet, std::uint32_t seed) {
  ClientDataset cold = ClientDataset::from_fleet(fleet);
  for (int jobs : {1, 2, 3, 8}) {
    for (bool retain : {true, false}) {
      ClientDataset streamed;
      streamed.set_retain_events(retain);
      std::vector<std::size_t> cuts = random_cuts(fleet.events.size(), seed + jobs);
      for (std::size_t c = 1; c < cuts.size(); ++c) {
        std::vector<ClientHelloEvent> epoch(fleet.events.begin() + cuts[c - 1],
                                            fleet.events.begin() + cuts[c]);
        streamed.append_events(epoch, fleet.devices, {}, jobs);
        streamed.finalize();
      }
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " retain=" + std::to_string(retain) +
                   " epochs=" + std::to_string(cuts.size() - 1));
      expect_same_dataset(streamed, cold, retain);
    }
  }
}

// ------------------------------------------------------------ tests

TEST(FoldIdentity, MixedFleetAnyEpochSplitEqualsColdBuild) {
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    FleetDataset fleet = mixed_fleet(seed, /*distinct_wires=*/false);
    check_splits(fleet, seed * 101);
  }
}

TEST(FoldIdentity, AllDistinctWiresAnyEpochSplitEqualsColdBuild) {
  FleetDataset fleet = mixed_fleet(7, /*distinct_wires=*/true);
  check_splits(fleet, 707);
}

TEST(FoldIdentity, PaperFleetAnyEpochSplitEqualsColdBuild) {
  check_splits(paper_fleet(), 11);
}

/// Every posting table of `ix`, in a fixed order.
std::vector<std::vector<PostingList>> tables(const DatasetIndex& ix) {
  return {ix.fp_vendors(),  ix.fp_devices(),  ix.fp_snis(),
          ix.vendor_fps(),  ix.device_fps(),  ix.sni_devices(),
          ix.sni_vendors(), ix.sni_fps(),     ix.sni_users()};
}

TEST(FoldIdentity, IndexRecordAndFinalizeAreTheSameAtAnyJobs) {
  DatasetIndex serial;
  DatasetIndex parallel;
  std::mt19937 rng(17);
  std::uint32_t devices = 0, fps = 0, snis = 0;
  // Draws an event over the ids interned so far plus `fresh` new ones per
  // domain, interning the same strings in both indexes.
  auto draw = [&](int fresh) {
    auto pick = [&](std::uint32_t& count) {
      std::uint32_t i = static_cast<std::uint32_t>(rng() % (count + fresh));
      count = std::max(count, i + 1);
      return i;
    };
    const std::uint32_t d = pick(devices);
    const std::string device = "dev-" + std::to_string(d);
    const std::string vendor = "V" + std::to_string(d % 9 + (d > 60 ? 9 : 0));
    const std::string type = "T" + std::to_string(d % 4);
    const std::string user = "u" + std::to_string(d % 13 + (d > 60 ? 13 : 0));
    const std::string fp = "fp-" + std::to_string(pick(fps));
    const std::string sni = "sni-" + std::to_string(pick(snis));
    EventIds ev{serial.intern_device(device, vendor, type, user),
                serial.intern_sni(sni), serial.intern_fp(fp, {})};
    EventIds twin{parallel.intern_device(device, vendor, type, user),
                  parallel.intern_sni(sni), parallel.intern_fp(fp, {})};
    EXPECT_EQ(ev.device, twin.device);
    EXPECT_EQ(ev.fp, twin.fp);
    return ev;
  };
  auto fold = [&](const std::vector<EventIds>& epoch) {
    serial.record(epoch, 1);
    serial.finalize(1);
    parallel.record(epoch, 4);
    parallel.finalize(4);
    expect_same_index(parallel, serial);
  };

  for (int e = 0; e < 6; ++e) {
    std::vector<EventIds> epoch;
    for (int i = 0; i < 400; ++i) epoch.push_back(draw(e < 3 ? 8 : 1));
    fold(epoch);
  }
  const auto before_new = tables(serial);
  // Brand-new device, vendor, user, SNI and fingerprint: every table gains
  // a row, and every permutation an id.
  EventIds fresh{serial.intern_device("dev-new", "V-new", "T-new", "u-new"),
                 serial.intern_sni("sni-new"), serial.intern_fp("fp-new", {})};
  parallel.intern_device("dev-new", "V-new", "T-new", "u-new");
  parallel.intern_sni("sni-new");
  parallel.intern_fp("fp-new", {});
  std::vector<EventIds> dirty_all = {fresh};
  for (int i = 0; i < 50; ++i) dirty_all.push_back(draw(0));
  fold(dirty_all);
  const auto after_new = tables(serial);
  for (std::size_t t = 0; t < after_new.size(); ++t) {
    EXPECT_NE(after_new[t], before_new[t]) << "table " << t << " not dirtied";
  }
  // Known ids only: the fingerprint universe does not grow, so the vendor
  // bitsets take just the new tails.
  std::vector<EventIds> known;
  for (int i = 0; i < 300; ++i) known.push_back(draw(0));
  fold(known);
  const auto after_known = tables(serial);
  // An epoch that dirties nothing leaves every table as it was.
  fold({});
  EXPECT_EQ(tables(serial), after_known);
  for (const auto& table : after_known) {
    for (const PostingList& row : table) {
      EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
      EXPECT_EQ(std::adjacent_find(row.begin(), row.end()), row.end());
    }
  }
}

TEST(FoldIdentity, EveryEventOfAnUndecodableWireIsDropped) {
  FleetDataset fleet;
  fleet.devices.push_back({"a", "V", "T", "u"});
  for (int i = 0; i < 5; ++i) fleet.events.push_back({"a", 18000, "x", malformed_wire()});
  for (int i = 0; i < 3; ++i) fleet.events.push_back({"a", 18000, "x", no_hello_wire()});
  for (int i = 0; i < 2; ++i) fleet.events.push_back({"ghost", 18000, "x", malformed_wire()});
  fleet.events.push_back({"a", 18000, "x", hello_wire(1, "", 0)});
  ClientDataset ds = ClientDataset::from_fleet(fleet);
  EXPECT_EQ(ds.drop_counts().parse_error, 5u);
  EXPECT_EQ(ds.drop_counts().no_client_hello, 3u);
  EXPECT_EQ(ds.drop_counts().unknown_device, 2u);
  ASSERT_EQ(ds.events().size(), 1u);
  // SNI-less hello: the event's own sni
  EXPECT_EQ(ds.index().snis().str(ds.events()[0].sni), "x");
}

TEST(FoldIdentity, SniLessHelloTakesEachEventsOwnSni) {
  FleetDataset fleet;
  fleet.devices.push_back({"a", "V", "T", "u"});
  const Bytes wire = hello_wire(3, "", 0);
  for (const char* sni : {"one.example", "two.example", "one.example"}) {
    fleet.events.push_back({"a", 18000, sni, wire});
  }
  fleet.events.push_back({"a", 18000, "ignored.example", hello_wire(3, "named.example", 0)});
  ClientDataset ds = ClientDataset::from_fleet(fleet);
  ASSERT_EQ(ds.index().snis().size(), 3u);
  EXPECT_EQ(ds.index().snis().str(0), "one.example");
  EXPECT_EQ(ds.index().snis().str(1), "two.example");
  EXPECT_EQ(ds.index().snis().str(2), "named.example");
}

TEST(FoldIdentity, RepeatedDeviceIdResolvesToItsFirstRow) {
  FleetDataset fleet;
  fleet.devices.push_back({"a", "First", "T1", "u1"});
  fleet.devices.push_back({"b", "Other", "T2", "u2"});
  fleet.devices.push_back({"a", "Second", "T3", "u3"});
  fleet.events.push_back({"a", 18000, "x", hello_wire(1, "s.example", 0)});
  ClientDataset ds = ClientDataset::from_fleet(fleet);
  ASSERT_EQ(ds.events().size(), 1u);
  // The same row FleetDataset::find_device resolves.
  ASSERT_NE(fleet.find_device("a"), nullptr);
  EXPECT_EQ(fleet.find_device("a")->vendor, "First");
  const DatasetIndex& ix = ds.index();
  EXPECT_EQ(ix.vendors().str(ds.events()[0].vendor), "First");
  EXPECT_EQ(ix.types().str(ds.events()[0].type), "T1");
  EXPECT_EQ(ix.users().str(ds.events()[0].user), "u1");
  EXPECT_EQ(ds.index().vendors().str(ds.index().device_vendor(0)), "First");
}

TEST(FoldIdentity, ChangedDeviceTableIsNoticed) {
  std::vector<Device> devices = {{"a", "V1", "T", "u"}, {"b", "V2", "T", "u"}};
  ClientDataset ds;
  ds.append_events({{"a", 18000, "x", hello_wire(1, "s.example", 0)}}, devices);

  // Same vector, an id rewritten in place: a hit on the old id fails the
  // row check, and the new id misses once before the table is rebuilt.
  devices[1].id = "c";
  ds.append_events({{"c", 18000, "x", hello_wire(2, "s.example", 0)},
                    {"b", 18000, "x", hello_wire(2, "s.example", 0)}},
                   devices);
  EXPECT_EQ(ds.drop_counts().unknown_device, 1u);

  // Ids swapped in place: the hit on "a" lands on the row now named "c".
  std::swap(devices[0].id, devices[1].id);
  ds.append_events({{"a", 18000, "x", hello_wire(3, "s.example", 0)}}, devices);

  // A different vector (and size).
  std::vector<Device> grown = devices;
  grown.push_back({"d", "V4", "T", "u"});
  ds.append_events({{"d", 18000, "x", hello_wire(4, "s.example", 0)}}, grown);
  ds.finalize();
  ASSERT_EQ(ds.events().size(), 4u);
  const DatasetIndex& ix = ds.index();
  auto names = [&](std::size_t i) {
    const ParsedEvent& e = ds.events()[i];
    return ix.devices().str(e.device) + "/" + ix.vendors().str(e.vendor);
  };
  EXPECT_EQ(names(1), "c/V2");
  EXPECT_EQ(names(2), "a/V2");
  EXPECT_EQ(names(3), "d/V4");
  EXPECT_EQ(ds.drop_counts().unknown_device, 1u);
  // The device's vendor follows its latest row, as the per-event fold did.
  std::uint32_t a = ds.index().devices().find("a");
  EXPECT_EQ(ds.index().vendors().str(ds.index().device_vendor(a)), "V2");
}

TEST(FoldIdentity, ParseCountersCountDistinctWiresAndFoldedEvents) {
  FleetDataset fleet;
  fleet.devices.push_back({"a", "V", "T", "u"});
  fleet.devices.push_back({"b", "V", "T", "u"});
  const Bytes w1 = hello_wire(1, "s.example", 0);
  const Bytes w2 = hello_wire(2, "s.example", 0);
  for (int i = 0; i < 6; ++i) fleet.events.push_back({i % 2 ? "a" : "b", 18000, "x", w1});
  for (int i = 0; i < 3; ++i) fleet.events.push_back({"a", 18000, "x", w2});
  fleet.events.push_back({"a", 18000, "x", malformed_wire()});
  fleet.events.push_back({"ghost", 18000, "x", hello_wire(9, "s.example", 0)});

  obs::Counter& wires = obs::metrics().counter("core.dataset.wires_parsed");
  obs::Counter& events = obs::metrics().counter("core.dataset.events_parsed");
  std::uint64_t wires_before = wires.value();
  std::uint64_t events_before = events.value();
  ClientDataset::from_fleet(fleet, {}, 8);
  // w1, w2 and the malformed wire; the unknown device's wire is never parsed.
  EXPECT_EQ(wires.value() - wires_before, 3u);
  EXPECT_EQ(events.value() - events_before, 9u);
}

}  // namespace
}  // namespace iotls::core
