// Line-oriented text form of a StackSurvey: every fingerprint, every
// observation and the summary. Two surveys are byte-identical exactly when
// these strings are, so the determinism tests and the survey goldens
// compare it.
#pragma once

#include <sstream>
#include <string>

#include "net/stack_fingerprint.hpp"

namespace iotls::net {

inline std::string serialize(const StackSurvey& survey) {
  std::ostringstream out;
  for (const ServerStackResult& r : survey.results) {
    out << r.sni << "\n";
    for (const auto& [vantage, families] : r.fingerprints)
      for (const auto& [family, print] : families) {
        out << "  " << vantage_name(vantage) << "/" << family_name(family)
            << " " << print.digest << " " << print.answered << " "
            << print.leaf_fp << "\n";
        for (const ProbeObservation& obs : print.observations)
          out << "    " << obs.probe << " " << obs.canonical << " "
              << obs.attempts << "\n";
      }
  }
  const StackSurveySummary& s = survey.summary;
  out << "snis=" << s.snis << " probes=" << s.probes
      << " attempts=" << s.attempts << " retries=" << s.retries
      << " answered=" << s.answered_probes << " skipped=" << s.skipped_probes
      << "\n";
  return out.str();
}

}  // namespace iotls::net
