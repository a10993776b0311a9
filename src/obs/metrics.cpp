#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace iotls::obs {

std::size_t Counter::stripe_index() {
  // Hand each thread a stable ordinal on first use; threads then map
  // round-robin onto stripes. Survey pools are small (<= ~16 workers), so
  // collisions are rare and harmless — a shared stripe is still correct,
  // just marginally more contended.
  static std::atomic<std::size_t> next_ordinal{0};
  thread_local const std::size_t ordinal =
      next_ordinal.fetch_add(1, std::memory_order_relaxed);
  return ordinal % kStripes;
}

Histogram::Histogram(std::vector<std::uint64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  if (bounds_.empty()) throw std::invalid_argument("histogram needs >= 1 bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument("histogram bounds must be strictly increasing");
    }
  }
}

void Histogram::observe(std::uint64_t sample) {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), sample);
  std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) out.push_back(b.load(std::memory_order_relaxed));
  return out;
}

std::uint64_t Histogram::quantile_bound(double q) const {
  std::uint64_t total = count();
  if (total == 0) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  std::uint64_t target = static_cast<std::uint64_t>(q * static_cast<double>(total));
  if (target == 0) target = 1;
  std::uint64_t seen = 0;
  auto counts = bucket_counts();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= target) {
      return i < bounds_.size() ? bounds_[i] : bounds_.back();
    }
  }
  return bounds_.back();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

const std::vector<std::uint64_t>& latency_buckets_ns() {
  static const std::vector<std::uint64_t> kBuckets = {
      1'000,       2'000,       5'000,        10'000,      20'000,
      50'000,      100'000,     200'000,      500'000,     1'000'000,
      2'000'000,   5'000'000,   10'000'000,   20'000'000,  50'000'000,
      100'000'000, 200'000'000, 500'000'000,  1'000'000'000};
  return kBuckets;
}

std::string sanitize_metric_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    unsigned char u = static_cast<unsigned char>(c);
    if ((u >= 'a' && u <= 'z') || (u >= '0' && u <= '9') || u == '_' || u == '.') {
      out.push_back(c);
    } else if (u >= 'A' && u <= 'Z') {
      out.push_back(static_cast<char>(u - 'A' + 'a'));
    } else {
      out.push_back('_');
    }
  }
  if (out.empty() || (out.front() >= '0' && out.front() <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[sanitize_metric_name(name)];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[sanitize_metric_name(name)];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::vector<std::uint64_t>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[sanitize_metric_name(name)];
  if (!slot) slot = std::make_unique<Histogram>(bounds);
  return *slot;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counter_values() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, std::int64_t>> Registry::gauge_values() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, const Histogram*>> Registry::histogram_entries()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h.get());
  return out;
}

std::string Registry::to_text() const {
  std::string out;
  char buf[160];
  for (const auto& [name, value] : counter_values()) {
    std::snprintf(buf, sizeof(buf), "counter    %-44s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += buf;
  }
  for (const auto& [name, value] : gauge_values()) {
    std::snprintf(buf, sizeof(buf), "gauge      %-44s %lld\n", name.c_str(),
                  static_cast<long long>(value));
    out += buf;
  }
  for (const auto& [name, hist] : histogram_entries()) {
    std::uint64_t n = hist->count();
    std::snprintf(buf, sizeof(buf),
                  "histogram  %-44s count=%llu sum=%llu p50<=%llu p99<=%llu\n",
                  name.c_str(), static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(hist->sum()),
                  static_cast<unsigned long long>(hist->quantile_bound(0.5)),
                  static_cast<unsigned long long>(hist->quantile_bound(0.99)));
    out += buf;
  }
  return out;
}

Json Registry::to_json_value() const {
  Json counters{Json::Object{}};
  for (const auto& [name, value] : counter_values()) counters.set(name, Json(value));
  Json gauges{Json::Object{}};
  for (const auto& [name, value] : gauge_values()) gauges.set(name, Json(value));
  Json histograms{Json::Object{}};
  for (const auto& [name, hist] : histogram_entries()) {
    Json::Array buckets;
    auto counts = hist->bucket_counts();
    const auto& bounds = hist->bounds();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      Json bucket{Json::Object{}};
      // The overflow bucket has no finite upper bound: le=null.
      bucket.set("le", i < bounds.size() ? Json(bounds[i]) : Json(nullptr));
      bucket.set("count", Json(counts[i]));
      buckets.push_back(std::move(bucket));
    }
    Json h{Json::Object{}};
    h.set("count", Json(hist->count()));
    h.set("sum", Json(hist->sum()));
    h.set("buckets", Json(std::move(buckets)));
    histograms.set(name, std::move(h));
  }
  Json out{Json::Object{}};
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

// Never destroyed, like the arena accounts that keep Gauge* into it: an
// object with static storage may still report to it during teardown.
Registry& metrics() {
  static Registry* registry = new Registry;
  return *registry;
}

}  // namespace iotls::obs
