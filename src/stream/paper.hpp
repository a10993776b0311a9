// The text renderers of the report registry (stream/reports.cpp): one per
// paper table, figure, ablation and extension. Each returns the text it
// prints and the files it writes; none touches stdout or the disk itself.
#pragma once

#include "devicesim/types.hpp"
#include "stream/ingest.hpp"
#include "stream/reports.hpp"

namespace iotls::stream::paper {

/// A text renderer. `fleet` is non-null only for entries that need the raw
/// fleet; render_text_report checks every declared input first.
using TextRenderer = TextReport(StreamIngest& ingest,
                                const devicesim::FleetDataset* fleet);

// Each name below declares one renderer of type TextRenderer.
TextRenderer s41_library_match, fig01_vendor_graph, table02_degree,
    fig02_doc_cdf, table03_heterogeneity, fig03_amazon, table04_jaccard,
    table05_server_fp, table06_cert_summary, fig05_issuer_matrix,
    table07_invalid_chains, table08_expired, table09_netflix, fig06_validity,
    fig07_smart_tv, table10_releases, table11_semantic, fig08_cs_jaccard,
    table12_versions, fig09_vuln_flows, fig10_doc_devices, fig11_vuln_index,
    fig12_preferred, fig13_ct_private, table14_private_chains, table15_slds,
    table16_geo, app_b_extensions, s62_local_pki, ablation_fpdef,
    ablation_similarity, ablation_threshold, ext_acme, ext_ct_monitor,
    ext_revocation, ext_longitudinal, ext_strict_client;

}  // namespace iotls::stream::paper
