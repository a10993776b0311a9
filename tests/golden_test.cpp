// Golden outputs: the paper outputs pinned byte for byte.
//
// Two families of goldens live in tests/golden/:
//  * report_<name>.json — every stream::render_report document over the
//    default generate_fleet with certs on. jobs 1 and jobs 8 are compared
//    against the same file, so the --jobs byte-identity contract is pinned
//    together with the content.
//  * bench_<name>.txt — the stdout of each paper bench_* main whose output
//    is byte-stable across runs (mains that print wall times are not
//    pinned). The set of these files is the set of pinned mains. A file a
//    main writes into its working directory (fig01/fig03 write DOT graphs)
//    is compared against the golden of the same name.
//  * survey_<name>.txt — the §5 certificate survey and the dual-stack
//    battery over the default world's SNIs (plus duplicates and a dead
//    host) under one fixed fault spec with retries: the full survey dump,
//    then the deltas of the counters the survey wrote and the virtual
//    clock reading. Where jobs 8 is checked it is compared against the
//    jobs 1 file.
//
// Each bench main runs in its own directory under the build tree, so no run
// rewrites a tracked file. On a mismatch the actual bytes are written next
// to the run as <golden>.actual; a golden may only be replaced by one of
// those, with the reason stated in CHANGES.md.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
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
const fs::path kBenchDir = IOTLS_BENCH_DIR;
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

void check_reports(int jobs) {
  devicesim::FleetDataset fleet =
      devicesim::generate_fleet({}, corpus::LibraryCorpus::standard(),
                                devicesim::ServerUniverse::standard());
  stream::IngestConfig config;
  config.jobs = jobs;
  config.certs = true;
  stream::StreamIngest ingest(fleet.devices, config);
  ingest.fold_epoch(fleet.events);
  for (const std::string& name : stream::report_names()) {
    auto doc = stream::render_report(name, ingest);
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

// --------------------------------------------------------- bench mains

/// The pinned mains: one per tests/golden/bench_*.txt, in name order.
std::vector<std::string> pinned_mains() {
  std::vector<std::string> out;
  for (const fs::directory_entry& entry : fs::directory_iterator(kGoldenDir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("bench_", 0) == 0 && entry.path().extension() == ".txt") {
      out.push_back(entry.path().stem().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

class GoldenBench : public testing::TestWithParam<std::string> {};

/// Run the main in an empty directory of its own: its stdout must match
/// <main>.txt, and every file it writes there must match the golden of the
/// same name.
TEST_P(GoldenBench, OutputsMatch) {
  const std::string& main = GetParam();
  const fs::path dir = kWorkDir / main;
  fs::remove_all(dir);
  fs::create_directories(dir);

  const std::string cmd =
      "cd '" + dir.string() + "' && '" + (kBenchDir / main).string() + "'";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr) << cmd;
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) {
    out.append(buf, n);
  }
  ASSERT_EQ(pclose(pipe), 0) << cmd;

  expect_golden(main + ".txt", out);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    expect_golden(entry.path().filename().string(), read_file(entry.path()));
  }
}

INSTANTIATE_TEST_SUITE_P(Paper, GoldenBench, testing::ValuesIn(pinned_mains()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace iotls
