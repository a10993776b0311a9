// Report-level epoch-prefix identity: after every epoch of a random split
// (empty heartbeats and 1-event epochs included), at jobs 1/8, with and
// without probe faults, and at min_users 1 and 2, every stream report the
// ingest renders is byte-identical to the same report from a cold
// single-epoch ingest of the same event prefix. The render path memoizes
// per-record and per-fingerprint facts across epochs (chains(), ct(),
// server_ties()), so this is the test that no memo entry goes stale and no
// row union misses a member an epoch added.
//
// It also pins what the memo saves: across a fold plus a render of every
// report, `x509.validate.total` grows by exactly the records that became
// reachable in that fold, and a second render with no fold in between
// validates nothing and prints the same bytes.
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus.hpp"
#include "devicesim/fleet.hpp"
#include "devicesim/scenario.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stream/ingest.hpp"
#include "stream/reports.hpp"

namespace iotls::stream {
namespace {

using devicesim::ClientHelloEvent;

devicesim::FleetDataset small_fleet() {
  devicesim::FleetConfig config;
  config.users = 8;
  config.cover_all_snis = false;
  return devicesim::generate_fleet(config, corpus::LibraryCorpus::standard(),
                                   devicesim::ServerUniverse::standard());
}

/// Cuts `events` into about a dozen epochs: a heartbeat, a 1-event epoch,
/// then a random mix of heartbeats, 1-event epochs and chunks of n/8 to n/3
/// events, ending in a heartbeat.
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
  std::uniform_int_distribution<std::size_t> span(events.size() / 8 + 1,
                                                  events.size() / 3 + 1);
  while (at < events.size()) {
    std::size_t k = kind(rng);
    take(k == 0 ? 0 : k == 1 ? 1 : span(rng));
  }
  take(0);
  return epochs;
}

/// Every report, rendered and dumped, by name.
std::map<std::string, std::string> render_all(StreamIngest& ingest) {
  std::map<std::string, std::string> out;
  for (const std::string& name : report_names()) {
    std::optional<obs::Json> doc = render_report(name, ingest);
    out[name] = doc.has_value() ? doc->dump() : "<unknown report>";
  }
  return out;
}

/// (min_users, fault spec, jobs).
class ReportPrefixTest
    : public testing::TestWithParam<std::tuple<std::size_t, std::string, int>> {};

TEST_P(ReportPrefixTest, EveryEpochMatchesAColdIngestOfItsPrefix) {
  const auto [min_users, fault, jobs] = GetParam();
  const devicesim::FleetDataset fleet = small_fleet();
  IngestConfig config;
  config.jobs = jobs;
  config.certs = true;
  config.min_users = min_users;
  config.fault = net::FaultSpec::parse(fault);
  obs::Counter& validated = obs::metrics().counter("x509.validate.total");

  // A different split for every parameter set.
  const std::uint32_t seed = static_cast<std::uint32_t>(
      min_users * 100 + (fault.empty() ? 0 : 10) + static_cast<std::size_t>(jobs));
  const std::vector<std::vector<ClientHelloEvent>> epochs =
      random_split(fleet.events, seed);
  ASSERT_GE(epochs.size(), 6u);

  StreamIngest streamed(fleet.devices, config);
  std::vector<ClientHelloEvent> prefix;
  std::size_t reachable = 0;
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    const std::string where = "epoch " + std::to_string(e + 1) + " of " +
                              std::to_string(epochs.size()) + " (" +
                              std::to_string(epochs[e].size()) + " events)";
    prefix.insert(prefix.end(), epochs[e].begin(), epochs[e].end());

    const std::uint64_t before = validated.value();
    streamed.fold_epoch(epochs[e]);
    const std::map<std::string, std::string> got = render_all(streamed);
    const std::size_t now_reachable = streamed.certs()->reachable_snis();
    EXPECT_EQ(validated.value() - before, now_reachable - reachable) << where;
    reachable = now_reachable;

    const std::uint64_t settled = validated.value();
    EXPECT_EQ(render_all(streamed), got) << where << ": second render";
    EXPECT_EQ(validated.value(), settled) << where << ": second render validated";

    StreamIngest cold(fleet.devices, config);
    cold.fold_epoch(prefix);
    const std::map<std::string, std::string> want = render_all(cold);
    ASSERT_EQ(got.size(), want.size()) << where;
    for (const auto& [name, bytes] : want) {
      EXPECT_EQ(got.at(name), bytes) << where << ": report " << name;
    }
  }
  EXPECT_GT(reachable, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Splits, ReportPrefixTest,
    testing::Combine(testing::Values(std::size_t{1}, std::size_t{2}),
                     testing::Values(std::string(), std::string("seed=7,timeout=0.2")),
                     testing::Values(1, 8)));

TEST(RenderStage, EachRenderIsOneItemOfItsAnalysisStage) {
  const devicesim::FleetDataset fleet = small_fleet();
  IngestConfig config;
  config.certs = true;
  StreamIngest ingest(fleet.devices, config);
  obs::tracer().reset();
  // Before the first fold the server-side reports refuse: an item that
  // failed.
  ASSERT_TRUE(render_report("chains", ingest).has_value());
  ingest.fold_epoch(fleet.events);
  for (int i = 0; i < 3; ++i) render_all(ingest);

  std::map<std::string, obs::StageStats> stages;
  for (auto& [name, stats] : obs::tracer().snapshot()) stages[name] = stats;
  for (const std::string& name : report_names()) {
    const auto it = stages.find("analysis." + name);
    ASSERT_NE(it, stages.end()) << name;
    const std::uint64_t renders = name == "chains" ? 4 : 3;
    EXPECT_EQ(it->second.calls, renders) << name;
    EXPECT_EQ(it->second.items, renders) << name;
    EXPECT_EQ(it->second.failures, name == "chains" ? 1u : 0u) << name;
  }
  EXPECT_EQ(stages["analysis.chains"].failure_reasons["no epoch folded yet"], 1u);
  EXPECT_EQ(stages.count("analysis.bogus"), 0u);
  EXPECT_FALSE(render_report("bogus", ingest).has_value());
  for (auto& [name, stats] : obs::tracer().snapshot()) {
    EXPECT_NE(name, "analysis.bogus");
  }
}

TEST(FinalizeStage, EachEpochFoldIsOneItemOfIndexFinalize) {
  const devicesim::FleetDataset fleet = small_fleet();
  const std::size_t half = fleet.events.size() / 2;
  const std::vector<devicesim::ClientHelloEvent> first(
      fleet.events.begin(), fleet.events.begin() + static_cast<std::ptrdiff_t>(half));
  const std::vector<devicesim::ClientHelloEvent> second(
      fleet.events.begin() + static_cast<std::ptrdiff_t>(half), fleet.events.end());
  IngestConfig config;
  config.jobs = 4;
  StreamIngest ingest(fleet.devices, config);
  obs::tracer().reset();
  auto finalize_stage = [] {
    for (auto& [name, stats] : obs::tracer().snapshot()) {
      if (name == "index.finalize") return stats;
    }
    return obs::StageStats{};
  };
  ingest.fold_epoch(first);
  EXPECT_EQ(finalize_stage().calls, 1u);
  EXPECT_EQ(finalize_stage().items, 1u);
  ingest.fold_epoch(second);
  EXPECT_EQ(finalize_stage().calls, 2u);
  EXPECT_EQ(finalize_stage().items, 2u);
  EXPECT_EQ(finalize_stage().failures, 0u);
}

}  // namespace
}  // namespace iotls::stream
