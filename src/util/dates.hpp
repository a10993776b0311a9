// Civil-calendar date arithmetic for certificate validity handling.
//
// Certificates, CT entries and fleet events all carry timestamps as days
// since the Unix epoch (1970-01-01). The conversions below use Howard
// Hinnant's well-known civil-calendar algorithms; they are exact over the
// proleptic Gregorian calendar.
#pragma once

#include <cstdint>
#include <string>

namespace iotls {

/// A calendar date (proleptic Gregorian).
struct CivilDate {
  int year = 1970;
  int month = 1;  // 1..12
  int day = 1;    // 1..31

  friend bool operator==(const CivilDate&, const CivilDate&) = default;
};

/// Days since 1970-01-01 (negative before the epoch).
std::int64_t days_from_civil(CivilDate d);

/// Inverse of days_from_civil.
CivilDate civil_from_days(std::int64_t days);

/// "YYYY-MM-DD".
std::string format_date(std::int64_t days_since_epoch);

/// Gregorian leap-year test.
bool is_leap_year(int y);

/// Length of `month` (1..12) in `year`; 0 for an out-of-range month.
int days_in_month(int year, int month);

/// Parse "YYYY-MM-DD"; throws ParseError on malformed input, including
/// calendar-impossible days such as 2019-02-31 or 2100-02-29.
std::int64_t parse_date(const std::string& iso);

/// Convenience: days-since-epoch for a literal date.
inline std::int64_t days(int y, int m, int d) {
  return days_from_civil({y, m, d});
}

/// The paper's two reference days, as days since the epoch: the end of the
/// IoT Inspector capture (2020-08-01; "unsupported as of 2020") and the day
/// the §5 servers were probed (2022-04-15).
inline constexpr std::int64_t kCaptureEnd = 18475;
inline constexpr std::int64_t kProbeDay = 19097;

}  // namespace iotls
