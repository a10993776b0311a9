// Extension bench: what if IoT devices validated like browsers?
//
// §5.3's implicit experiment: devices kept talking to servers with expired
// certificates and broken chains, so they evidently do not validate. Here a
// strict, browser-grade client policy is replayed over every observed
// device→server connection to count what would have failed.
#include "common.hpp"
#include "core/chains.hpp"
#include "report/table.hpp"
#include "util/strings.hpp"

using namespace iotls;

int main() {
  const auto& ctx = bench::Context::get();
  bench::banner("EXT: strict client", "replaying connections under browser-grade validation");

  auto report = core::validate_dataset(ctx.certs, ctx.world, bench::kProbeDay);

  // Index validation outcomes by SNI.
  std::map<std::string, const core::SniValidation*> by_sni;
  for (const core::SniValidation* v : report.validations) by_sni[v->sni] = v;

  std::size_t connections = 0, refused = 0;
  std::map<std::string, std::size_t> refused_reason;
  std::set<std::string> affected_devices, affected_vendors;
  for (const core::ParsedEvent& e : ctx.client.events()) {
    auto it = by_sni.find(e.sni);
    if (it == by_sni.end()) continue;  // server dark by probe time
    ++connections;
    const auto& v = *it->second;
    std::string reason;
    if (!x509::chain_trusted(v.result.status)) {
      reason = x509::chain_status_name(v.result.status);
    } else if (v.result.expired) {
      reason = "expired certificate";
    } else if (!v.result.hostname_ok) {
      reason = "hostname mismatch";
    }
    if (reason.empty()) continue;
    ++refused;
    ++refused_reason[reason];
    affected_devices.insert(e.device_id);
    affected_vendors.insert(e.vendor);
  }

  std::printf("replayed device connections: %zu\n", connections);
  std::printf("a strict client would REFUSE: %zu (%s), touching %zu devices "
              "of %zu vendors\n\n",
              refused, fmt_percent(connections ? double(refused) / connections : 0).c_str(),
              affected_devices.size(), affected_vendors.size());

  report::Table table({"refusal reason", "connections"});
  for (const auto& [reason, count] : refused_reason) {
    table.add_row({reason, std::to_string(count)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nreading: every one of these connections HAPPENED in the wild "
              "— the §5.3 evidence that IoT clients skip validation; a strict "
              "policy would have bricked these device features instead, which "
              "is exactly the availability/security tension §7 discusses\n");
  return 0;
}
