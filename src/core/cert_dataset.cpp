#include "core/cert_dataset.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "exec/pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"
#include "x509/validation.hpp"

namespace iotls::core {

namespace {

/// One freshly probed SNI out of the parallel stage: the record itself plus
/// the two values the sequential fold needs (the leaf fingerprint, hashed
/// once here and reused for dedup and the index memo, and the failure
/// reason for span bookkeeping).
struct ProbedSni {
  SniRecord record;
  std::string leaf_fp;
  std::string fail_reason;
};

/// Row `id` of a posting table, empty past its end.
const PostingList& row(const std::vector<PostingList>& lists, std::uint32_t id) {
  static const PostingList kEmpty;
  return id < lists.size() ? lists[id] : kEmpty;
}

std::set<std::string> names(const Interner& domain, const PostingList& ids) {
  std::set<std::string> out;
  for (std::uint32_t id : ids) out.insert(domain.str(id));
  return out;
}

/// Add the members of `now` missing from `before` (both sorted-unique,
/// `before` a subset of `now`) to `members`, listing them in `added`.
void add_names(const Interner& domain, const PostingList& before,
               const PostingList& now, std::set<std::string>& members,
               std::vector<std::string_view>& added) {
  added.clear();
  auto seen = before.begin();
  for (std::uint32_t id : now) {
    if (seen != before.end() && *seen == id) {
      ++seen;
      continue;
    }
    members.insert(domain.str(id));
    added.emplace_back(domain.str(id));
  }
}

}  // namespace

CertDataset CertDataset::collect(const ClientDataset& client,
                                 const devicesim::SimWorld& world,
                                 std::size_t min_users, int jobs,
                                 x509::ValidationCache* cache,
                                 const net::Internet* internet,
                                 ProbeMemo* memo) {
  if (memo != nullptr) {
    memo->dataset.fold(client, world, min_users, jobs, cache, internet);
    return memo->dataset;
  }
  CertDataset ds;
  ds.fold(client, world, min_users, jobs, cache, internet);
  return ds;
}

CertDataset::FoldStats CertDataset::fold(const ClientDataset& client,
                                         const devicesim::SimWorld& world,
                                         std::size_t min_users, int jobs,
                                         x509::ValidationCache* cache,
                                         const net::Internet* internet) {
  static obs::Counter& probed_counter =
      obs::metrics().counter("core.cert.snis_probed");
  static obs::Counter& refreshed_counter =
      obs::metrics().counter("core.cert.records_refreshed");
  auto span = obs::tracer().span("probe");
  const DatasetIndex& cx = client.index();
  if (cx.snis().size() < folded_.size()) {
    throw std::logic_error("CertDataset::fold: the client dataset shrank");
  }
  folded_.resize(cx.snis().size());

  // Delta detection in lexicographic SNI order, the order records are kept
  // in: new SNIs (eligible, no record yet) and dirty records (a posting
  // list grew since the fold that last read it).
  std::vector<std::uint32_t> fresh, dirty;
  for (std::uint32_t s : cx.snis_by_name()) {
    const FoldedSni& f = folded_[s];
    if (!f.recorded) {
      if (s < cx.sni_users().size() && cx.sni_users()[s].size() >= min_users) {
        fresh.push_back(s);
      }
    } else if (row(cx.sni_devices(), s).size() > f.devices.size() ||
               row(cx.sni_vendors(), s).size() > f.vendors.size() ||
               row(cx.sni_users(), s).size() > f.users.size()) {
      dirty.push_back(s);
    }
  }

  // Parallel stage: pure per-SNI probing and record construction into
  // pre-sized slots (probe_all_vantages is per-SNI deterministic and has no
  // survey-wide state). Counters, span bookkeeping, leaf dedup and the
  // index fold stay sequential so the dataset is byte-identical at any
  // jobs level.
  net::TlsProber prober(internet != nullptr ? *internet : world.internet);
  std::vector<ProbedSni> probed(fresh.size());
  exec::parallel_for(jobs, fresh.size(), [&](std::size_t i) {
    const std::uint32_t s = fresh[i];
    ProbedSni& out = probed[i];
    SniRecord& record = out.record;
    const std::string& sni = cx.snis().str(s);
    record.sni = sni;
    record.users = names(cx.users(), row(cx.sni_users(), s));
    record.devices = names(cx.devices(), row(cx.sni_devices(), s));
    record.vendors = names(cx.vendors(), row(cx.sni_vendors(), s));

    net::MultiVantageResult multi = prober.probe_all_vantages(sni);
    for (const auto& [vantage, result] : multi.by_vantage) {
      if (result.reachable && !result.chain.empty()) {
        auto normalized = x509::normalize_chain_order(result.chain, sni);
        record.leaf_by_vantage[vantage] = normalized.front().fingerprint();
      } else {
        record.leaf_by_vantage[vantage] = std::nullopt;
      }
    }

    const net::ProbeResult& ny = multi.by_vantage.at(net::VantagePoint::kNewYork);
    record.reachable = ny.reachable;
    if (!ny.reachable) out.fail_reason = net::probe_error_name(ny.error);
    if (ny.stapled.has_value()) {
      record.stapled = true;
      record.staple_valid = cache != nullptr
                                ? cache->ocsp_ok(*ny.stapled, world.keys)
                                : x509::verify_ocsp(*ny.stapled, world.keys);
    }
    if (ny.reachable) {
      record.chain = x509::normalize_chain_order(ny.chain, sni);
      record.served_misordered = !(record.chain == ny.chain);
      if (const net::SimServer* server = world.internet.find(sni)) {
        record.server_ips = server->ips;
      }
      if (!record.chain.empty()) {
        out.leaf_fp = record.chain.front().fingerprint();
      }
    }
  });

  // Membership refresh of dirty records, at their current positions: only
  // the members each gained are added to the record and the index.
  std::vector<std::string_view> devices, vendors, users;
  auto pos = records_.begin();
  for (std::uint32_t s : dirty) {
    const std::string& sni = cx.snis().str(s);
    pos = std::lower_bound(pos, records_.end(), sni,
                           [](const SniRecord& r, const std::string& key) {
                             return r.sni < key;
                           });
    FoldedSni& f = folded_[s];
    add_names(cx.devices(), f.devices, row(cx.sni_devices(), s), pos->devices, devices);
    add_names(cx.vendors(), f.vendors, row(cx.sni_vendors(), s), pos->vendors, vendors);
    add_names(cx.users(), f.users, row(cx.sni_users(), s), pos->users, users);
    index_.add_membership(static_cast<std::size_t>(pos - records_.begin()),
                          *pos, devices, vendors, users);
    f.devices = row(cx.sni_devices(), s);
    f.vendors = row(cx.sni_vendors(), s);
    f.users = row(cx.sni_users(), s);
  }

  // Sequential fold of the new records, SNI order: aggregation and the
  // interned index.
  if (records_.empty()) index_.reserve(probed.size());
  for (std::size_t i = 0; i < probed.size(); ++i) {
    ProbedSni& p = probed[i];
    ++extracted_;
    span.add_items();
    if (!p.record.reachable) {
      span.fail(p.fail_reason);
    } else {
      ++reachable_;
      if (!p.record.chain.empty()) {
        LeafRecord& leaf = leaves_[p.leaf_fp];
        if (leaf.servers.empty()) leaf.cert = p.record.chain.front();
        leaf.servers.insert(p.record.sni);
        for (const std::string& ip : p.record.server_ips) leaf.ips.insert(ip);
      }
    }
    index_.record(p.record, p.leaf_fp);
    const std::uint32_t s = fresh[i];
    folded_[s] = {true, row(cx.sni_devices(), s), row(cx.sni_vendors(), s),
                  row(cx.sni_users(), s)};
  }

  // Merge the new records into lexicographic order from the back; earlier
  // records move once each, and only when something lands before them.
  std::vector<std::size_t> at(probed.size());
  std::size_t old = records_.size();
  records_.resize(old + probed.size());
  for (std::size_t k = records_.size(), j = probed.size(); j > 0;) {
    --k;
    if (old > 0 && probed[j - 1].record.sni < records_[old - 1].sni) {
      records_[k] = std::move(records_[--old]);
    } else {
      --j;
      records_[k] = std::move(probed[j].record);
      at[j] = k;
    }
  }
  index_.finalize(at);

  probed_counter.inc(fresh.size());
  refreshed_counter.inc(dirty.size());
  return {fresh.size(), dirty.size()};
}

std::set<std::string> CertDataset::issuer_organizations() const {
  std::set<std::string> out;
  for (const auto& [fp, leaf] : leaves_) out.insert(leaf.cert.issuer.organization);
  return out;
}

std::vector<SldPopularity> CertDataset::popular_slds(std::size_t n) const {
  std::map<std::string, SldPopularity> by_sld;
  std::map<std::string, std::set<std::string>> sld_devices;
  for (const SniRecord& record : records_) {
    if (!record.reachable) continue;
    std::string sld = second_level_domain(record.sni);
    SldPopularity& row = by_sld[sld];
    row.sld = sld;
    ++row.servers;
    for (const std::string& device : record.devices) sld_devices[sld].insert(device);
  }
  std::vector<SldPopularity> rows;
  for (auto& [sld, row] : by_sld) {
    row.devices = sld_devices[sld].size();
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(), [](const SldPopularity& a, const SldPopularity& b) {
    return a.devices > b.devices;
  });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

std::size_t CertDataset::distinct_slds() const {
  std::set<std::string> slds;
  for (const SniRecord& record : records_) {
    if (record.reachable) slds.insert(second_level_domain(record.sni));
  }
  return slds.size();
}

CertDataset::SharingStats CertDataset::sharing_stats() const {
  SharingStats stats;
  if (leaves_.empty()) return stats;
  std::size_t total_servers = 0;
  std::size_t multi_ip_total = 0;
  for (const auto& [fp, leaf] : leaves_) {
    total_servers += leaf.servers.size();
    stats.max_servers_per_cert = std::max(stats.max_servers_per_cert, leaf.servers.size());
    if (leaf.ips.size() > 1) {
      ++stats.certs_on_multiple_ips;
      multi_ip_total += leaf.ips.size();
      stats.max_ips_per_cert = std::max(stats.max_ips_per_cert, leaf.ips.size());
    }
  }
  stats.mean_servers_per_cert =
      static_cast<double>(total_servers) / static_cast<double>(leaves_.size());
  if (stats.certs_on_multiple_ips > 0) {
    stats.mean_ips_per_cert = static_cast<double>(multi_ip_total) /
                              static_cast<double>(stats.certs_on_multiple_ips);
  }
  stats.multi_ip_ratio = static_cast<double>(stats.certs_on_multiple_ips) /
                         static_cast<double>(leaves_.size());
  return stats;
}

GeoComparison CertDataset::geo_comparison() const {
  GeoComparison geo;
  for (const SniRecord& record : records_) {
    std::set<std::string> distinct;
    std::size_t with_cert = 0;
    for (const auto& [vantage, leaf] : record.leaf_by_vantage) {
      if (!leaf.has_value()) continue;
      ++geo.extracted[vantage];
      ++with_cert;
      distinct.insert(*leaf);
    }
    if (with_cert == record.leaf_by_vantage.size() && distinct.size() == 1) {
      ++geo.shared_all;
    }
    // "Exclusive": the certificate at this vantage differs from every other
    // vantage's certificate for the same SNI.
    for (const auto& [vantage, leaf] : record.leaf_by_vantage) {
      if (!leaf.has_value()) continue;
      bool unique = true;
      for (const auto& [other, other_leaf] : record.leaf_by_vantage) {
        if (other == vantage || !other_leaf.has_value()) continue;
        if (*other_leaf == *leaf) unique = false;
      }
      if (unique && record.leaf_by_vantage.size() > 1 && distinct.size() > 1) {
        ++geo.exclusive[vantage];
      }
    }
  }
  return geo;
}

}  // namespace iotls::core
