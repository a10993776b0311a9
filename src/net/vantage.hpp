// Probing vantage points (§5.1: New York, Frankfurt, Singapore) and the
// address family a connection travels over (dual-stack probing, after
// "Analyzing IoT Hosts in the IPv6 Internet", arxiv 2307.09918).
#pragma once

#include <array>
#include <string>

namespace iotls::net {

enum class VantagePoint { kNewYork, kFrankfurt, kSingapore };

constexpr std::array<VantagePoint, 3> kAllVantagePoints = {
    VantagePoint::kNewYork, VantagePoint::kFrankfurt, VantagePoint::kSingapore};

std::string vantage_name(VantagePoint v);

/// IP address family of one connection. Every vantage point is dual-homed;
/// whether the *server* answers on IPv6 is the server's property
/// (SimServer::dual_stack). kIPv4 is the compat default everywhere a
/// family is optional — pre-dual-stack reports stay byte-identical.
enum class AddressFamily { kIPv4, kIPv6 };


/// Short wire/report slug: "v4" / "v6".
std::string family_name(AddressFamily f);


}  // namespace iotls::net
