#include "obs/health.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace iotls::obs {

namespace {

using Entry = std::pair<std::string, HealthCheck>;

std::vector<Entry>::iterator find_entry(std::vector<Entry>& v,
                                        const std::string& name) {
  return std::find_if(v.begin(), v.end(),
                      [&](const Entry& e) { return e.first == name; });
}

}  // namespace

void HealthRegistry::register_check(const std::string& name, HealthKind kind,
                                    HealthCheck fn) {
  std::string canonical = sanitize_metric_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto& checks = slot(kind);
  auto it = find_entry(checks, canonical);
  if (it != checks.end()) {
    it->second = std::move(fn);
    return;
  }
  checks.emplace_back(std::move(canonical), std::move(fn));
  std::sort(checks.begin(), checks.end(),
            [](const Entry& a, const Entry& b) { return a.first < b.first; });
}

void HealthRegistry::unregister(const std::string& name, HealthKind kind) {
  std::string canonical = sanitize_metric_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto& checks = slot(kind);
  auto it = find_entry(checks, canonical);
  if (it != checks.end()) checks.erase(it);
}

HealthRegistry::Report HealthRegistry::run(HealthKind kind) const {
  // Checks run under the registry mutex: they are contractually cheap, and
  // holding the lock means a component's ScopedHealthCheck destructor can
  // never race a callback reading that component's freed state.
  std::lock_guard<std::mutex> lock(mu_);
  Report report;
  for (const auto& [name, fn] : slot(kind)) {
    HealthStatus status = fn ? fn() : HealthStatus::unhealthy("null check");
    report.ok = report.ok && status.ok;
    report.checks.push_back(CheckResult{name, std::move(status)});
  }
  return report;
}

Json HealthRegistry::to_json_value(HealthKind kind) const {
  Report report = run(kind);
  Json checks{Json::Object{}};
  for (const CheckResult& check : report.checks) {
    Json entry{Json::Object{}};
    entry.set("ok", Json(check.status.ok));
    entry.set("detail", Json(check.status.detail));
    checks.set(check.name, std::move(entry));
  }
  Json out{Json::Object{}};
  out.set("ok", Json(report.ok));
  out.set("checks", std::move(checks));
  return out;
}

std::size_t HealthRegistry::size(HealthKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slot(kind).size();
}

// Never destroyed: a ScopedHealthCheck with static storage may unregister
// during teardown.
HealthRegistry& health() {
  static HealthRegistry* registry = new HealthRegistry;
  return *registry;
}

ScopedHealthCheck::ScopedHealthCheck(std::string name, HealthKind kind,
                                     HealthCheck fn)
    : name_(sanitize_metric_name(name)), kind_(kind) {
  health().register_check(name_, kind_, std::move(fn));
}

ScopedHealthCheck::~ScopedHealthCheck() { health().unregister(name_, kind_); }

}  // namespace iotls::obs
