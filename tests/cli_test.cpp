// The tools' shared argument handling: the one `--jobs=N` parser every tool
// uses, and `iotls_audit --report=NAME` rejecting an unknown name before it
// reads any input.
#include <sys/wait.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "obs_cli.hpp"
#include "stream/reports.hpp"

namespace iotls::tools {
namespace {

TEST(ParseJobs, AcceptsZeroToTheCap) {
  int jobs = -1;
  EXPECT_TRUE(parse_jobs("0", &jobs));
  EXPECT_EQ(jobs, 0);
  EXPECT_TRUE(parse_jobs("8", &jobs));
  EXPECT_EQ(jobs, 8);
  EXPECT_TRUE(parse_jobs(std::to_string(kMaxJobs).c_str(), &jobs));
  EXPECT_EQ(jobs, static_cast<int>(kMaxJobs));
}

TEST(ParseJobs, RejectsValuesThatUsedToWrapOrGoNegative) {
  // Parsing only: a rejected value never reaches a pool, so no thread starts.
  int jobs = 3;
  for (const char* value :
       {"4294967297", "3000000000", "18446744073709551616", "1025", "-1", "+2",
        " 2", "2x", ""}) {
    EXPECT_FALSE(parse_jobs(value, &jobs)) << "'" << value << "'";
    EXPECT_EQ(jobs, 3) << "'" << value << "'";
  }
}

/// Run `cmd` with stderr folded into stdout; returns the exit status.
int run(const std::string& cmd, std::string* out) {
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) {
    out->append(buf, n);
  }
  int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(AuditCli, UnknownReportFailsBeforeReadingInput) {
  // The CSV paths do not exist: reaching the import would fail with
  // "cannot open" and exit 1 instead.
  std::string out;
  int status = run(std::string(IOTLS_TOOLS_DIR) +
                       "/iotls_audit --report=bogus /nonexistent/events.csv "
                       "/nonexistent/devices.csv",
                   &out);
  EXPECT_EQ(status, 2) << out;
  EXPECT_NE(out.find("unknown report: bogus"), std::string::npos) << out;
  for (const std::string& name : stream::report_names()) {
    EXPECT_NE(out.find(" " + name), std::string::npos) << name << " not listed: " << out;
  }
  EXPECT_EQ(out.find("cannot open"), std::string::npos) << out;
}

TEST(AuditCli, OversizedJobsIsAnAttributedError) {
  std::string out;
  int status = run(std::string(IOTLS_TOOLS_DIR) +
                       "/iotls_audit --jobs=4294967297 /nonexistent/events.csv "
                       "/nonexistent/devices.csv",
                   &out);
  EXPECT_EQ(status, 2) << out;
  EXPECT_NE(out.find("--jobs="), std::string::npos) << out;
}

}  // namespace
}  // namespace iotls::tools
