#include "util/strings.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>

namespace iotls {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> split_views(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::size_t split_views(std::string_view s, char delim,
                        std::span<std::string_view> out) {
  std::size_t fields = 0;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(delim, start);
    std::string_view field =
        pos == std::string_view::npos ? s.substr(start) : s.substr(start, pos - start);
    if (fields < out.size()) out[fields] = field;
    ++fields;
    if (pos == std::string_view::npos) return fields;
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view delim) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delim;
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string second_level_domain(std::string_view fqdn) {
  static const std::array<std::string_view, 6> kTwoPartSuffixes = {
      "co.kr", "co.uk", "co.jp", "com.cn", "com.br", "net.au"};
  // Start of the suffix after the k-th '.' from the end; npos when the
  // name has fewer than k dots (k + 1 labels).
  auto suffix_start = [fqdn](int k) {
    std::size_t dot = fqdn.size();
    for (int i = 0; i < k; ++i) {
      if (dot == 0) return std::string_view::npos;
      dot = fqdn.rfind('.', dot - 1);
      if (dot == std::string_view::npos) return dot;
    }
    return dot + 1;
  };
  const std::size_t last_two = suffix_start(2);
  if (last_two == std::string_view::npos) return std::string(fqdn);
  const bool two_part_suffix =
      std::find(kTwoPartSuffixes.begin(), kTwoPartSuffixes.end(),
                fqdn.substr(last_two)) != kTwoPartSuffixes.end();
  const std::size_t keep = two_part_suffix ? suffix_start(3) : last_two;
  return std::string(keep == std::string_view::npos ? fqdn : fqdn.substr(keep));
}

std::string fmt_double(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string fmt_percent(double ratio, int decimals) {
  return fmt_double(ratio * 100.0, decimals) + "%";
}

}  // namespace iotls
