// The simulated internet: SNI-addressed servers answering TLS handshakes.
//
// Substitution (DESIGN.md §2): replaces live sockets. The handshake itself
// is performed over real wire bytes — the caller supplies an encoded
// ClientHello record stream and receives an encoded ServerHello+Certificate
// record stream, exactly what a passive capture of the exchange would hold.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/server.hpp"
#include "net/vantage.hpp"
#include "tls/clienthello.hpp"
#include "tls/record.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace iotls::net {

/// What one connect came back with: the server's record stream, or the
/// connection-level failure that took its place. A refused or timed-out
/// connect is an ordinary outcome of a survey (a third of a faulted
/// battery's attempts), so it travels as a value, not as an exception.
struct ConnectResult {
  Bytes response;                 // the server's records; empty on failure
  std::optional<NetError> error;  // set when the connection failed

  ConnectResult(Bytes records) : response(std::move(records)) {}
  ConnectResult(NetError failure) : error(std::move(failure)) {}

  bool ok() const { return !error.has_value(); }
};

/// Anything a prober can open TLS connections through: the simulated
/// internet itself, or a decorator layered over it (fault injection,
/// capture, rate limiting). One method — a full request/response exchange
/// of encoded TLS record streams, addressed by the ClientHello's SNI.
class Internet {
 public:
  virtual ~Internet() = default;

  /// Send a client record stream from `vantage` over `family`; returns the
  /// server's record stream, or a NetError value for a connection-level
  /// failure (IPv6 to a v4-only server is kNoRoute: no AAAA record).
  /// Throws ParseError for malformed client bytes: those are the caller's
  /// bug, not the network's answer.
  virtual ConnectResult connect(VantagePoint vantage, AddressFamily family,
                                BytesView client_records) const = 0;

  /// Compat entry point: the pre-dual-stack single-family connect. Every
  /// caller that does not say otherwise probes over IPv4.
  ConnectResult connect(VantagePoint vantage, BytesView client_records) const {
    return connect(vantage, AddressFamily::kIPv4, client_records);
  }
};

/// Parse a client flight down to its ClientHello (the routing key every
/// Internet implementation needs). Throws ParseError when the stream is
/// malformed or carries no ClientHello.
tls::ClientHello client_hello_of(BytesView client_records);

/// client_hello_of() read in place, as a view into `records`.
tls::ClientHelloView client_hello_view_of(const tls::RecordStream& records);

class SimInternet final : public Internet {
 public:
  /// Register a server; replaces any existing server with the same SNI.
  void add_server(SimServer server);

  const SimServer* find(const std::string& sni) const;
  /// Mutable lookup for post-registration reconfiguration (the scenario
  /// builder wires dual-stack overrides in a second pass; see
  /// devicesim::build_world).
  SimServer* find_mutable(const std::string& sni);
  std::vector<const SimServer*> servers() const;

  using Internet::connect;

  /// Perform the server side of a TLS handshake:
  ///  1. parse the client's record stream and extract its ClientHello;
  ///  2. route by SNI (the hello's SNI must name a registered server;
  ///     IPv6 additionally requires the server to be dual-stack);
  ///  3. negotiate a protocol version against the server stack's
  ///     [min_tls_version, max_tls_version] window (fatal protocol_version
  ///     alert below the floor; supported_versions echo for TLS 1.3
  ///     stacks) and a ciphersuite from the family's preference list;
  ///  4. answer with records carrying ServerHello ‖ Certificate ‖ Done,
  ///     echoing ALPN / session_ticket when the stack negotiates them.
  /// Returns a NetError for unreachable hosts / unknown SNI / a hello
  /// without SNI; throws ParseError for malformed client bytes.
  ConnectResult connect(VantagePoint vantage, AddressFamily family,
                        BytesView client_records) const override;

 private:
  std::map<std::string, SimServer> servers_;
};

}  // namespace iotls::net
