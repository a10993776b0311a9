#include "net/vantage.hpp"

namespace iotls::net {

std::string vantage_name(VantagePoint v) {
  switch (v) {
    case VantagePoint::kNewYork: return "New York";
    case VantagePoint::kFrankfurt: return "Frankfurt";
    case VantagePoint::kSingapore: return "Singapore";
  }
  return "?";
}

std::string family_name(AddressFamily f) {
  switch (f) {
    case AddressFamily::kIPv4: return "v4";
    case AddressFamily::kIPv6: return "v6";
  }
  return "?";
}

}  // namespace iotls::net
