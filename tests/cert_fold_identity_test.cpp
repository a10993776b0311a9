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

std::string leaf_key(const CertIndex& ix, std::uint32_t leaf) {
  if (leaf == CertIndex::kNone) return "-";
  const x509::Certificate& cert = ix.leaf_cert(leaf);
  return cert.subject_key_id + '/' + std::to_string(cert.serial);
}

/// Every relation of a CertIndex with its ids resolved to strings, so two
/// indexes compare by content whatever ids they assigned.
struct IndexContent {
  std::vector<std::set<std::string>> domains;
  // leaf key -> (fingerprint, issuer, spki, certificate fingerprint)
  std::map<std::string, std::tuple<std::string, std::string, std::string, std::string>>
      leaves;
  std::map<std::string, std::pair<std::string, std::int64_t>> fps;
  std::vector<std::pair<std::string, std::string>> records;  // (leaf, fp)
  std::map<std::string, std::set<std::string>> sni_devices, sni_vendors;
  std::map<std::string, std::set<std::string>> leaf_servers, leaf_ips;
  std::map<std::string, std::set<std::string>> vendor_leaves, issuer_leaves;

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
  for (const core::Interner* domain :
       {&ix.snis(), &ix.devices(), &ix.vendors(), &ix.users(), &ix.ips(),
        &ix.issuers(), &ix.spkis(), &ix.fps()}) {
    c.domains.push_back(strings(*domain));
  }
  for (std::uint32_t leaf = 0; leaf < ix.leaf_count(); ++leaf) {
    c.leaves[leaf_key(ix, leaf)] = {ix.leaf_fingerprint(leaf),
                                    ix.issuers().str(ix.leaf_issuer(leaf)),
                                    ix.spkis().str(ix.leaf_spki(leaf)),
                                    ix.leaf_cert(leaf).fingerprint()};
  }
  for (std::uint32_t fp = 0; fp < ix.fps().size(); ++fp) {
    c.fps[ix.fps().str(fp)] = {ix.issuers().str(ix.fp_issuer(fp)),
                               ix.fp_validity_days(fp)};
  }
  for (std::size_t i = 0; i < ix.record_leaf().size(); ++i) {
    std::uint32_t fp = ix.record_fp()[i];
    c.records.emplace_back(leaf_key(ix, ix.record_leaf()[i]),
                           fp == CertIndex::kNone ? "-" : ix.fps().str(fp));
  }
  auto sni = [&](std::uint32_t id) { return ix.snis().str(id); };
  auto device = [&](std::uint32_t id) { return ix.devices().str(id); };
  auto vendor = [&](std::uint32_t id) { return ix.vendors().str(id); };
  auto ip = [&](std::uint32_t id) { return ix.ips().str(id); };
  auto issuer = [&](std::uint32_t id) { return ix.issuers().str(id); };
  auto leaf = [&](std::uint32_t id) { return leaf_key(ix, id); };
  c.sni_devices = resolve(ix.sni_devices(), sni, device);
  c.sni_vendors = resolve(ix.sni_vendors(), sni, vendor);
  c.leaf_servers = resolve(ix.leaf_servers(), leaf, sni);
  c.leaf_ips = resolve(ix.leaf_ips(), leaf, ip);
  c.vendor_leaves = resolve(ix.vendor_leaves(), vendor, leaf);
  c.issuer_leaves = resolve(ix.issuer_leaves(), issuer, leaf);
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
    EXPECT_EQ(a.devices, b.devices) << where << ' ' << a.sni;
    EXPECT_EQ(a.vendors, b.vendors) << where << ' ' << a.sni;
    EXPECT_EQ(a.users, b.users) << where << ' ' << a.sni;
    EXPECT_EQ(a.server_ips, b.server_ips) << where << ' ' << a.sni;
    EXPECT_EQ(a.stapled, b.stapled) << where << ' ' << a.sni;
    EXPECT_EQ(a.staple_valid, b.staple_valid) << where << ' ' << a.sni;
  }
  ASSERT_EQ(got.leaves().size(), want.leaves().size()) << where;
  for (auto a = got.leaves().begin(), b = want.leaves().begin();
       a != got.leaves().end(); ++a, ++b) {
    ASSERT_EQ(a->first, b->first) << where;
    EXPECT_TRUE(a->second.cert == b->second.cert) << where << ' ' << a->first;
    EXPECT_EQ(a->second.servers, b->second.servers) << where << ' ' << a->first;
    EXPECT_EQ(a->second.ips, b->second.ips) << where << ' ' << a->first;
  }
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

/// (min_users, fault spec, jobs).
class CertFoldIdentityTest
    : public testing::TestWithParam<std::tuple<std::size_t, const char*, int>> {};

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
                     testing::Values("", "seed=7,timeout=0.2"),
                     testing::Values(1, 8)));

TEST(CertIndexFoldTest, FirstServingRecordWinsAcrossFolds) {
  // One SPKI+serial served with two encodings (another issuer, another
  // validity). A batch fold takes the lexicographically first SNI's
  // instance; a later fold that adds a smaller SNI must switch to it, and
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

  auto make = [](const std::string& sni, const x509::Certificate& cert,
                 std::set<std::string> devices, std::set<std::string> vendors) {
    core::SniRecord rec;
    rec.sni = sni;
    rec.reachable = true;
    rec.chain = {cert};
    rec.devices = std::move(devices);
    rec.vendors = std::move(vendors);
    rec.users = {"u1"};
    rec.server_ips = {"192.0.2.1"};
    return rec;
  };
  const core::SniRecord a = make("a.example", a_cert, {"d2"}, {"V2"});
  const core::SniRecord b_full = make("b.example", b_cert, {"d1", "d9"}, {"V1", "V3"});
  const core::SniRecord b_first = make("b.example", b_cert, {"d1"}, {"V1"});

  CertIndex cold;
  cold.record(a, a_cert.fingerprint());
  cold.record(b_full, b_cert.fingerprint());
  cold.finalize({0, 1});

  CertIndex split;
  split.record(b_first, b_cert.fingerprint());
  split.finalize({0});
  split.record(a, a_cert.fingerprint());
  split.finalize({0});  // a.example sorts first
  split.add_membership(1, b_full, {"d9"}, {"V3"}, {});
  split.finalize({});

  ASSERT_EQ(split.leaf_count(), 1u);
  EXPECT_EQ(split.leaf_cert(0).issuer.organization, "Org A");
  EXPECT_EQ(split.leaf_fingerprint(0), a_cert.fingerprint());
  EXPECT_TRUE(content(split) == content(cold));
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
