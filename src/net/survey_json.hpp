// Canonical JSON serialization of a SurveyReport.
//
// This is the byte-level contract behind the parallel survey's determinism
// guarantee: `--jobs N` and `--jobs 1` must serialize to the *identical*
// string. Every semantically meaningful field of every probe is included
// (chains as leaf-first certificate fingerprints), object member order is
// fixed, and the encoder escapes arbitrary bytes (garbled-stream faults
// can put anything into error_detail), so equality of the dumps is
// equality of the reports.
#pragma once

#include <string>

#include "net/prober.hpp"
#include "obs/json.hpp"

namespace iotls::net {

/// {"results":[...],"summary":{...}} — results in survey input order,
/// vantages in enum order within each SNI.
obs::Json survey_report_json(const SurveyReport& report);

/// survey_report_json(report).dump() — the canonical byte string two runs
/// of the same seeded survey must agree on.
std::string survey_report_dump(const SurveyReport& report);

}  // namespace iotls::net
