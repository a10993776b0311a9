// Golden outputs: the paper outputs pinned byte for byte.
//
// Three families of goldens live in tests/golden/:
//  * report_<name>.json — every stream::render_report document and
//  * paper_<name>.txt — the text of every stream::render_text_report entry
//    (the set of these files is the set of text entries), plus the files
//    an entry writes (the fig01/fig03 DOT graphs) under their own names,
//    all over the default generate_fleet with certs on, at jobs 1 and at
//    jobs 8 against the same file: the --jobs byte-identity contract is
//    pinned together with the content.
//  * survey_<name>.txt — the §5 certificate survey and the dual-stack
//    battery over the default world's SNIs (plus duplicates and a dead
//    host) under one fixed fault spec with retries: the full survey dump,
//    then the deltas of the counters the survey wrote and the virtual
//    clock reading. Where jobs 8 is checked it is compared against the
//    jobs 1 file.
//
// On a mismatch the actual bytes are written to the build tree as
// <golden>.actual; a golden may only be replaced by one of those, with the
// reason stated in CHANGES.md.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus.hpp"
#include "devicesim/fleet.hpp"
#include "devicesim/scenario.hpp"
#include "net/fault.hpp"
#include "net/prober.hpp"
#include "net/stack_fingerprint.hpp"
#include "net/survey_json.hpp"
#include "obs/metrics.hpp"
#include "stack_survey_text.hpp"
#include "stream/ingest.hpp"
#include "stream/reports.hpp"

namespace iotls {
namespace {

namespace fs = std::filesystem;

const fs::path kGoldenDir = IOTLS_GOLDEN_DIR;
const fs::path kWorkDir = IOTLS_GOLDEN_WORK_DIR;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Compare `actual` with the golden `name`; on a mismatch (or a missing
/// golden), write the actual bytes to the work directory as `name`.actual.
void expect_golden(const std::string& name, const std::string& actual) {
  const fs::path golden = kGoldenDir / name;
  const bool exists = fs::exists(golden);
  if (exists && read_file(golden) == actual) return;
  fs::create_directories(kWorkDir);
  const fs::path dump = kWorkDir / (name + ".actual");
  std::ofstream(dump, std::ios::binary) << actual;
  ADD_FAILURE() << name << (exists ? " differs from its golden" : " has no golden")
                << "; actual output in " << dump;
}

// ------------------------------------------------------------- reports

const devicesim::FleetDataset& default_fleet() {
  static const devicesim::FleetDataset fleet =
      devicesim::generate_fleet({}, corpus::LibraryCorpus::standard(),
                                devicesim::ServerUniverse::standard());
  return fleet;
}

/// The default fleet folded in one epoch at `jobs`, certs on and events
/// retained: every input any entry reads. Built once per jobs level.
stream::StreamIngest& default_ingest(int jobs) {
  static std::map<int, std::unique_ptr<stream::StreamIngest>> ingests;
  std::unique_ptr<stream::StreamIngest>& ingest = ingests[jobs];
  if (ingest == nullptr) {
    stream::IngestConfig config;
    config.jobs = jobs;
    config.certs = true;
    ingest = std::make_unique<stream::StreamIngest>(default_fleet().devices, config);
    ingest->fold_epoch(default_fleet().events);
  }
  return *ingest;
}

void check_reports(int jobs) {
  for (const std::string& name : stream::report_names()) {
    auto doc = stream::render_report(name, default_ingest(jobs));
    ASSERT_TRUE(doc.has_value()) << name;
    expect_golden("report_" + name + ".json", doc->dump() + "\n");
  }
}

TEST(GoldenReports, DefaultFleetJobs1) { check_reports(1); }
TEST(GoldenReports, DefaultFleetJobs8) { check_reports(8); }

// ------------------------------------------------------------- surveys

const devicesim::SimWorld& survey_world() {
  static const devicesim::SimWorld world =
      devicesim::build_world(devicesim::ServerUniverse::standard());
  return world;
}

/// Every `stride`-th SNI of the default world, a dead host (first, in the
/// middle and twice at the end, so its breaker opens, denies and
/// half-opens), and repeats of the first eight SNIs (duplicates keep their
/// own slots).
std::vector<std::string> survey_snis(std::size_t stride) {
  const std::string dead = "dead.golden.invalid";
  std::vector<std::string> snis = {dead};
  const std::vector<const net::SimServer*> servers =
      survey_world().internet.servers();
  for (std::size_t i = 0; i < servers.size(); i += stride) {
    snis.push_back(servers[i]->sni);
  }
  const std::size_t middle = snis.size() / 2;
  snis.insert(snis.begin() + static_cast<std::ptrdiff_t>(middle), dead);
  for (std::size_t i = 1; i <= 8; ++i) snis.push_back(snis[i]);
  snis.push_back(dead);
  snis.push_back(dead);
  return snis;
}

const char* const kSurveyFaults =
    "seed=7,timeout=0.2,reset=0.05,truncate=0.01,garble=0.01";

/// What a survey wrote into the registry and onto its clock: the delta of
/// every net.probe.* counter and of net.fingerprint.probes that moved, one
/// "name delta" line each in name order, then "clock_ms=N".
class SurveyCounters {
 public:
  SurveyCounters() {
    for (const auto& [name, value] : obs::metrics().counter_values()) {
      before_[name] = value;
    }
  }

  std::string text(const net::VirtualClock& clock) const {
    std::ostringstream out;
    for (const auto& [name, value] : obs::metrics().counter_values()) {
      if (name.rfind("net.probe.", 0) != 0 && name != "net.fingerprint.probes") {
        continue;
      }
      auto it = before_.find(name);
      const std::uint64_t delta = value - (it == before_.end() ? 0 : it->second);
      if (delta != 0) out << name << " " << delta << "\n";
    }
    out << "clock_ms=" << clock.now_ms() << "\n";
    return out.str();
  }

 private:
  std::map<std::string, std::uint64_t> before_;
};

/// The §5 survey of every world SNI under kSurveyFaults with 3 attempts per
/// probe, through a fresh injector and clock: survey_report_dump split into
/// one line per result and one for the summary, then the counters.
std::string prober_survey(int jobs, std::uint64_t retry_budget) {
  net::FaultInjector injector(survey_world().internet,
                              net::FaultSpec::parse(kSurveyFaults));
  net::VirtualClock clock;
  net::TlsProber prober(injector);
  net::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.retry_budget = retry_budget;
  prober.set_retry_policy(retry);
  prober.set_clock(&clock);
  prober.set_jobs(jobs);
  SurveyCounters counters;
  const net::SurveyReport report = prober.survey_report(survey_snis(1));
  const obs::Json doc = net::survey_report_json(report);
  std::string out;
  std::string joined;
  for (const obs::Json& result : doc.find("results")->as_array()) {
    const std::string line = result.dump();
    out += line + "\n";
    if (!joined.empty()) joined += ',';
    joined += line;
  }
  const std::string summary = doc.find("summary")->dump();
  EXPECT_EQ("{\"results\":[" + joined + "],\"summary\":" + summary + "}",
            net::survey_report_dump(report));
  return out + summary + "\n" + counters.text(clock);
}

TEST(GoldenSurveys, ProberUnderFaultsJobs1) {
  expect_golden("survey_prober.txt", prober_survey(1, UINT64_MAX));
}

TEST(GoldenSurveys, ProberUnderFaultsJobs8) {
  expect_golden("survey_prober.txt", prober_survey(8, UINT64_MAX));
}

// A budget that runs out mid-survey: which probes it starves depends on the
// walk order, so only the sequential walk is pinned (README "Parallelism").
TEST(GoldenSurveys, ProberBindingRetryBudgetJobs1) {
  const std::string out = prober_survey(1, 200);
  EXPECT_NE(out.find("\"budget_denied\":"), std::string::npos);
  EXPECT_EQ(out.find("\"budget_denied\":0,"), std::string::npos)
      << "the budget must bind";
  expect_golden("survey_prober_budget.txt", out);
}

/// The dual-stack battery of every eighth world SNI under kSurveyFaults
/// with 3 attempts per probe, through a fresh injector and clock.
std::string battery_survey(int jobs) {
  net::FaultInjector injector(survey_world().internet,
                              net::FaultSpec::parse(kSurveyFaults));
  net::VirtualClock clock;
  net::StackFingerprinter fingerprinter(injector);
  fingerprinter.set_families({net::AddressFamily::kIPv4, net::AddressFamily::kIPv6});
  net::RetryPolicy retry;
  retry.max_attempts = 3;
  fingerprinter.set_retry_policy(retry);
  fingerprinter.set_clock(&clock);
  fingerprinter.set_jobs(jobs);
  SurveyCounters counters;
  net::StackSurvey survey = fingerprinter.survey(survey_snis(8));
  return net::serialize(survey) + counters.text(clock);
}

TEST(GoldenSurveys, BatteryUnderFaultsJobs1) {
  expect_golden("survey_battery.txt", battery_survey(1));
}

TEST(GoldenSurveys, BatteryUnderFaultsJobs8) {
  expect_golden("survey_battery.txt", battery_survey(8));
}

// ------------------------------------------------------- paper entries

/// Compare a text entry's output and the files it writes with its goldens.
void expect_text_golden(const std::string& name, const stream::TextReport& out) {
  expect_golden("paper_" + name + ".txt", out.text);
  for (const auto& [file, contents] : out.files) expect_golden(file, contents);
}

TEST(GoldenPaper, EveryTextEntryHasOneGolden) {
  std::set<std::string> goldens;
  for (const fs::directory_entry& entry : fs::directory_iterator(kGoldenDir)) {
    const std::string stem = entry.path().stem().string();
    if (stem.rfind("paper_", 0) == 0 && entry.path().extension() == ".txt") {
      goldens.insert(stem.substr(6));
    }
  }
  const std::vector<std::string>& names = stream::text_report_names();
  EXPECT_EQ(goldens, std::set<std::string>(names.begin(), names.end()));
}

/// An entry that does not declare kNeedsEvents (or kNeedsFleet) renders
/// the same bytes without them: the declarations are what iotls_audit
/// builds its ingest from.
TEST(GoldenPaper, DeclaredInputsSuffice) {
  stream::IngestConfig config;
  config.certs = true;
  config.retain_events = false;
  stream::StreamIngest lean(default_fleet().devices, config);
  lean.fold_epoch(default_fleet().events);
  for (const std::string& name : stream::text_report_names()) {
    const unsigned needs = *stream::report_needs(name);
    if ((needs & stream::kNeedsEvents) != 0) {
      EXPECT_THROW(stream::render_text_report(name, lean, &default_fleet()),
                   std::logic_error)
          << name;
      continue;
    }
    const devicesim::FleetDataset* fleet =
        (needs & stream::kNeedsFleet) != 0 ? &default_fleet() : nullptr;
    expect_text_golden(name, *stream::render_text_report(name, lean, fleet));
  }
}

TEST(GoldenPaper, EveryEntryJobs8) {
  for (const std::string& name : stream::text_report_names()) {
    SCOPED_TRACE("entry " + name);
    auto out = stream::render_text_report(name, default_ingest(8), &default_fleet());
    ASSERT_TRUE(out.has_value());
    expect_text_golden(name, *out);
  }
}

// One jobs-1 test per text entry. The ids keep the names of the per-table
// `bench_<name>` executables the entries replaced, so each table's test
// history carries across.
class GoldenBench : public testing::TestWithParam<std::string> {};

TEST_P(GoldenBench, OutputsMatch) {
  const std::string name = GetParam().substr(6);  // without "bench_"
  auto out = stream::render_text_report(name, default_ingest(1), &default_fleet());
  ASSERT_TRUE(out.has_value()) << name;
  expect_text_golden(name, *out);
}

std::vector<std::string> bench_ids() {
  std::vector<std::string> out;
  for (const std::string& name : stream::text_report_names()) {
    out.push_back("bench_" + name);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Paper, GoldenBench, testing::ValuesIn(bench_ids()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace iotls
