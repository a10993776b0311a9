// §5 fold identity: folding one event stream epoch by epoch into the
// resident CertDataset — under random epoch splits that include 1-event
// epochs and empty heartbeats, at jobs 1/8, with and without probe faults,
// and at min_users 1 and 2 (where SNIs become eligible epochs after they
// first appear) — yields exactly what one cold collect over the
// concatenation yields: every record field, the leaves, both counters, the
// CertIndex content with ids resolved to strings, the six cert report
// bodies as bytes, and the `probe` stage's item and failure counts.
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/cert_dataset.hpp"
#include "corpus/corpus.hpp"
#include "devicesim/fleet.hpp"
#include "devicesim/scenario.hpp"
#include "net/fault.hpp"
#include "obs/trace.hpp"
#include "stream/ingest.hpp"
#include "stream/reports.hpp"

namespace iotls::stream {
namespace {

using core::CertDataset;
using core::CertIndex;
using devicesim::ClientHelloEvent;

devicesim::FleetDataset small_fleet() {
  devicesim::FleetConfig config;
  config.users = 8;
  config.cover_all_snis = false;
  return devicesim::generate_fleet(config, corpus::LibraryCorpus::standard(),
                                   devicesim::ServerUniverse::standard());
}

/// Cuts `n` events into epochs: a heartbeat, a 1-event epoch, then random
/// lengths (0, 1 or up to n/6), the last epoch taking the remainder.
std::vector<std::vector<ClientHelloEvent>> random_split(
    const std::vector<ClientHelloEvent>& events, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::vector<ClientHelloEvent>> epochs;
  std::size_t at = 0;
  auto take = [&](std::size_t len) {
    len = std::min(len, events.size() - at);
    epochs.emplace_back(events.begin() + static_cast<std::ptrdiff_t>(at),
                        events.begin() + static_cast<std::ptrdiff_t>(at + len));
    at += len;
  };
  take(0);
  take(1);
  std::uniform_int_distribution<std::size_t> kind(0, 3);
  std::uniform_int_distribution<std::size_t> span(1, events.size() / 6 + 1);
  while (at < events.size()) {
    std::size_t k = kind(rng);
    take(k == 0 ? 0 : k == 1 ? 1 : span(rng));
  }
  take(0);
  return epochs;
}

// ------------------------------------------------------------ comparison

std::set<std::string> strings(const core::Interner& domain) {
  std::set<std::string> out;
  for (std::uint32_t id = 0; id < domain.size(); ++id) out.insert(domain.str(id));
  return out;
}

/// Every relation of a CertIndex with its ids resolved to strings (a leaf
/// by its fingerprint), so two indexes compare by content whatever ids they
/// assigned.
struct IndexContent {
  std::vector<std::set<std::string>> domains;
  std::map<std::string, std::pair<std::string, std::int64_t>> fps;
  std::vector<std::string> records;  // leaf fingerprint per record
  std::map<std::string, std::set<std::string>> sni_devices, sni_vendors;
  std::map<std::string, std::set<std::string>> leaf_servers, leaf_ips;
  std::map<std::string, std::set<std::string>> vendor_leaves;

  friend bool operator==(const IndexContent&, const IndexContent&) = default;
};

/// Rows of `lists` keyed by `row_name(row)`, members by `col_name(id)`;
/// also checks each row is sorted-unique.
template <typename RowName, typename ColName>
std::map<std::string, std::set<std::string>> resolve(
    const std::vector<core::PostingList>& lists, RowName row_name,
    ColName col_name) {
  std::map<std::string, std::set<std::string>> out;
  for (std::uint32_t row = 0; row < lists.size(); ++row) {
    const core::PostingList& list = lists[row];
    for (std::size_t i = 1; i < list.size(); ++i) {
      EXPECT_LT(list[i - 1], list[i]) << "row " << row << " not sorted-unique";
    }
    if (list.empty()) continue;
    std::set<std::string>& members = out[row_name(row)];
    for (std::uint32_t id : list) members.insert(col_name(id));
  }
  return out;
}

IndexContent content(const CertIndex& ix) {
  IndexContent c;
  for (const core::Interner* domain : {&ix.snis(), &ix.devices(), &ix.vendors(),
                                       &ix.ips(), &ix.issuers(), &ix.fps()}) {
    c.domains.push_back(strings(*domain));
  }
  for (std::uint32_t fp = 0; fp < ix.fps().size(); ++fp) {
    c.fps[ix.fps().str(fp)] = {ix.issuers().str(ix.fp_issuer(fp)),
                               ix.fp_validity_days(fp)};
  }
  for (std::uint32_t fp : ix.record_fp()) {
    c.records.push_back(fp == CertIndex::kNone ? "-" : ix.fps().str(fp));
  }
  auto sni = [&](std::uint32_t id) { return ix.snis().str(id); };
  auto device = [&](std::uint32_t id) { return ix.devices().str(id); };
  auto vendor = [&](std::uint32_t id) { return ix.vendors().str(id); };
  auto ip = [&](std::uint32_t id) { return ix.ips().str(id); };
  auto leaf = [&](std::uint32_t id) { return ix.fps().str(id); };
  c.sni_devices = resolve(ix.sni_devices(), sni, device);
  c.sni_vendors = resolve(ix.sni_vendors(), sni, vendor);
  c.leaf_servers = resolve(ix.leaf_servers(), leaf, sni);
  c.leaf_ips = resolve(ix.leaf_ips(), leaf, ip);
  c.vendor_leaves = resolve(ix.vendor_leaves(), vendor, leaf);
  return c;
}

void expect_same_dataset(const CertDataset& got, const CertDataset& want,
                         const std::string& where) {
  EXPECT_EQ(got.extracted_snis(), want.extracted_snis()) << where;
  EXPECT_EQ(got.reachable_snis(), want.reachable_snis()) << where;
  ASSERT_EQ(got.records().size(), want.records().size()) << where;
  for (std::size_t i = 0; i < got.records().size(); ++i) {
    const core::SniRecord& a = got.records()[i];
    const core::SniRecord& b = want.records()[i];
    ASSERT_EQ(a.sni, b.sni) << where << " record " << i;
    EXPECT_EQ(a.reachable, b.reachable) << where << ' ' << a.sni;
    EXPECT_TRUE(a.chain == b.chain) << where << ' ' << a.sni;
    EXPECT_EQ(a.served_misordered, b.served_misordered) << where << ' ' << a.sni;
    EXPECT_EQ(a.leaf_by_vantage, b.leaf_by_vantage) << where << ' ' << a.sni;
    EXPECT_EQ(a.server_ips, b.server_ips) << where << ' ' << a.sni;
    EXPECT_EQ(a.stapled, b.stapled) << where << ' ' << a.sni;
    EXPECT_EQ(a.staple_valid, b.staple_valid) << where << ' ' << a.sni;
  }
  EXPECT_EQ(got.leaves().size(), want.leaves().size()) << where;
  EXPECT_TRUE(content(got.index()) == content(want.index())) << where;
}

std::map<std::string, std::string> render_cert_reports(StreamIngest& ingest) {
  std::map<std::string, std::string> out;
  for (const char* name : {"certs", "chains", "issuers", "ct", "stacks", "dualstack"}) {
    auto doc = render_report(name, ingest);
    out[name] = doc.has_value() ? doc->dump() : "<unknown report>";
  }
  return out;
}

struct ProbeStage {
  std::uint64_t items = 0, failures = 0;
};

ProbeStage probe_stage() {
  for (const auto& [name, stats] : obs::tracer().snapshot()) {
    if (name == "probe") return {stats.items, stats.failures};
  }
  return {};
}

// ------------------------------------------------------------ the suite

/// (min_users, fault spec, jobs). The spec is a std::string, not a
/// pointer, so the test names print its text instead of an address.
class CertFoldIdentityTest
    : public testing::TestWithParam<std::tuple<std::size_t, std::string, int>> {};

TEST_P(CertFoldIdentityTest, RandomSplitsMatchOneColdCollect) {
  const auto [min_users, fault, jobs] = GetParam();
  const devicesim::FleetDataset fleet = small_fleet();
  IngestConfig config;
  config.jobs = jobs;
  config.certs = true;
  config.min_users = min_users;
  config.fault = net::FaultSpec::parse(fault);

  obs::tracer().reset();
  StreamIngest cold(fleet.devices, config);
  cold.fold_epoch(fleet.events);
  const ProbeStage cold_probe = probe_stage();
  ASSERT_NE(cold.certs(), nullptr);
  EXPECT_EQ(cold_probe.items, cold.certs()->extracted_snis());
  EXPECT_GT(cold_probe.failures, 0u) << "fixture probes no unreachable SNI";
  const std::map<std::string, std::string> want = render_cert_reports(cold);

  for (std::uint32_t seed : {1u, 2u}) {
    std::string where = "split=" + std::to_string(seed);
    obs::tracer().reset();
    StreamIngest streamed(fleet.devices, config);
    std::size_t probed = 0;
    std::set<std::string> pending;  // client SNIs without a record
    std::size_t late = 0;           // ...that gained one later
    for (const std::vector<ClientHelloEvent>& epoch :
         random_split(fleet.events, seed)) {
      streamed.fold_epoch(epoch);
      probed += streamed.last_fold().snis_probed;
      std::set<std::string> recorded;
      for (const core::SniRecord& r : streamed.certs()->records()) {
        recorded.insert(r.sni);
      }
      for (auto it = pending.begin(); it != pending.end();) {
        if (recorded.count(*it) != 0) {
          ++late;
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
      const core::Interner& snis = streamed.client().index().snis();
      for (std::uint32_t s = 0; s < snis.size(); ++s) {
        if (recorded.count(snis.str(s)) == 0) pending.insert(snis.str(s));
      }
    }
    if (min_users > 1) {
      EXPECT_GT(late, 0u) << where << ": no late eligibility";
    }

    const ProbeStage got_probe = probe_stage();
    EXPECT_EQ(got_probe.items, cold_probe.items) << where;
    EXPECT_EQ(got_probe.failures, cold_probe.failures) << where;
    EXPECT_EQ(probed, cold.certs()->extracted_snis()) << where;

    expect_same_dataset(*streamed.certs(), *cold.certs(), where);
    EXPECT_EQ(render_cert_reports(streamed), want) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Splits, CertFoldIdentityTest,
    testing::Combine(testing::Values(std::size_t{1}, std::size_t{2}),
                     testing::Values(std::string(), std::string("seed=7,timeout=0.2")),
                     testing::Values(1, 8)));

TEST(CertIndexFoldTest, SameKeyTwoEncodingsAreTwoLeaves) {
  // One SPKI+serial served with two encodings (another issuer, another
  // validity): the fingerprints differ, so these are two leaves, whichever
  // order the folds see them in. One vendor contacts both SNIs, and
  // membership gained later must land as if it had been there all along.
  x509::Certificate a_cert;
  a_cert.serial = 7;
  a_cert.subject_key_id = "k1";
  a_cert.issuer.organization = "Org A";
  a_cert.not_after = 100;
  x509::Certificate b_cert = a_cert;
  b_cert.issuer.organization = "Org B";
  b_cert.not_after = 200;
  ASSERT_NE(a_cert.fingerprint(), b_cert.fingerprint());

  auto make = [](const std::string& sni, const x509::Certificate& cert) {
    core::SniRecord rec;
    rec.sni = sni;
    rec.reachable = true;
    rec.chain = {cert};
    rec.server_ips = {"192.0.2.1"};
    return rec;
  };
  const core::SniRecord a = make("a.example", a_cert);
  const core::SniRecord b = make("b.example", b_cert);
  // Record members come from the client index: `device` of `vendor`
  // contacting `sni`.
  auto contact = [](core::DatasetIndex& client, const char* sni,
                    const char* device, const char* vendor) {
    const std::uint32_t fp = client.intern_fp("fp", tls::Fingerprint{});
    const std::uint32_t id = client.intern_sni(sni);
    client.record({{client.intern_device(device, vendor, "Widget", "u1"), id, fp}});
    client.finalize();
    return id;
  };

  core::DatasetIndex whole;
  const std::uint32_t whole_a = contact(whole, "a.example", "d2", "V1");
  contact(whole, "b.example", "d1", "V1");
  const std::uint32_t whole_b = contact(whole, "b.example", "d9", "V3");
  CertIndex cold;
  cold.record(a, a_cert.fingerprint(), whole, whole_a);
  cold.record(b, b_cert.fingerprint(), whole, whole_b);
  cold.finalize({0, 1});

  core::DatasetIndex growing;
  const std::uint32_t grown_b = contact(growing, "b.example", "d1", "V1");
  CertIndex split;
  split.record(b, b_cert.fingerprint(), growing, grown_b);
  split.finalize({0});
  const std::uint32_t grown_a = contact(growing, "a.example", "d2", "V1");
  split.record(a, a_cert.fingerprint(), growing, grown_a);
  split.finalize({0});  // a.example sorts first
  contact(growing, "b.example", "d9", "V3");
  split.add_membership(1, growing, {growing.devices().find("d9")},
                       {growing.vendors().find("V3")});
  split.finalize({});

  for (const CertIndex* ix : {&cold, &split}) {
    ASSERT_EQ(ix->fps().size(), 2u);
    const core::PostingList& v1 = ix->vendor_leaves()[ix->vendors().find("V1")];
    ASSERT_EQ(v1.size(), 2u);
    EXPECT_EQ(strings(ix->fps()),
              (std::set<std::string>{ix->fps().str(v1[0]), ix->fps().str(v1[1])}));
    const std::uint32_t fp_a = ix->fps().find(a_cert.fingerprint());
    ASSERT_NE(fp_a, CertIndex::kNone);
    EXPECT_EQ(ix->issuers().str(ix->fp_issuer(fp_a)), "Org A");
  }
  const IndexContent want = content(cold);
  EXPECT_EQ(want.vendor_leaves.at("V3"), std::set<std::string>{b_cert.fingerprint()});
  EXPECT_TRUE(content(split) == want);
}

TEST(CertCollectMemoTest, MatchesColdCollectAtEveryPrefix) {
  // collect() given a memo folds into the memo's resident dataset and
  // returns a copy; each copy must stay intact while the memo folds on.
  const devicesim::FleetDataset fleet = small_fleet();
  const devicesim::SimWorld world =
      devicesim::build_world(devicesim::ServerUniverse::standard());
  // Heartbeat, one event, a third, heartbeat, the rest.
  const std::vector<ClientHelloEvent>& all = fleet.events;
  const auto cut = [&](std::size_t from, std::size_t to) {
    return std::vector<ClientHelloEvent>(all.begin() + static_cast<std::ptrdiff_t>(from),
                                         all.begin() + static_cast<std::ptrdiff_t>(to));
  };
  const std::size_t third = all.size() / 3;
  const std::vector<std::vector<ClientHelloEvent>> epochs = {
      {}, cut(0, 1), cut(1, third), {}, cut(third, all.size())};
  core::ClientDataset streamed;
  core::ProbeMemo memo;
  std::vector<CertDataset> copies;
  for (const std::vector<ClientHelloEvent>& epoch : epochs) {
    streamed.append_events(epoch, fleet.devices);
    streamed.finalize();
    copies.push_back(
        CertDataset::collect(streamed, world, 1, 1, nullptr, nullptr, &memo));
  }

  std::vector<ClientHelloEvent> prefix;
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    prefix.insert(prefix.end(), epochs[e].begin(), epochs[e].end());
    core::ClientDataset cold_client;
    cold_client.append_events(prefix, fleet.devices);
    cold_client.finalize();
    expect_same_dataset(copies[e], CertDataset::collect(cold_client, world),
                        "epoch " + std::to_string(e + 1));
  }
  expect_same_dataset(memo.dataset, copies.back(), "resident");
}

}  // namespace
}  // namespace iotls::stream
