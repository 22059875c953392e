//! Ground-truth labelling, including the paper's payload-signature method.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use pw_flow::signatures::{classify_flow, P2pApp};
use pw_flow::{FlowRecord, FlowTable, HostId};

/// Labels internal hosts as Traders by scanning the 64 payload bytes of
/// their flows, exactly as §III of the paper builds its Trader dataset.
///
/// A host is labelled with the protocol that signed the most of its flows;
/// `min_flows` signed flows are required (the paper's scan is effectively
/// `≥ 1`, the default). Endpoints are interned into a [`FlowTable`], so the
/// internality oracle runs once per distinct host and the tallies live in
/// a dense id-indexed table; payloads are read from `flows`.
pub fn label_traders_by_payload<F>(
    flows: &[FlowRecord],
    is_internal: F,
    min_flows: usize,
) -> HashMap<Ipv4Addr, P2pApp>
where
    F: Fn(Ipv4Addr) -> bool,
{
    let table = FlowTable::from_records(flows);
    let internal: Vec<bool> = table
        .hosts()
        .ips()
        .iter()
        .map(|&ip| is_internal(ip))
        .collect();
    let mut counts: Vec<HashMap<P2pApp, usize>> = vec![HashMap::new(); table.hosts().len()];
    for (row, f) in flows.iter().enumerate() {
        let Some(app) = classify_flow(f) else {
            continue;
        };
        for id in [table.src(row), table.dst(row)] {
            if internal[id.index()] {
                *counts[id.index()].entry(app).or_insert(0) += 1;
            }
        }
    }
    counts
        .into_iter()
        .enumerate()
        .filter_map(|(idx, apps)| {
            let (app, n) = apps.into_iter().max_by_key(|&(app, n)| (n, app))?;
            (n >= min_flows.max(1)).then(|| (table.hosts().resolve(HostId::from_index(idx)), app))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_flow::signatures::build;
    use pw_flow::{FlowState, Payload, Proto};
    use pw_netsim::SimTime;

    fn flow_with_payload(src: Ipv4Addr, dst: Ipv4Addr, payload: Payload) -> FlowRecord {
        FlowRecord {
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            src,
            sport: 1,
            dst,
            dport: 2,
            proto: Proto::Tcp,
            src_pkts: 1,
            src_bytes: 10,
            dst_pkts: 1,
            dst_bytes: 10,
            state: FlowState::Established,
            payload,
        }
    }

    const IN1: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
    const IN2: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2);
    const EXT: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

    fn internal(ip: Ipv4Addr) -> bool {
        ip.octets()[0] == 10
    }

    #[test]
    fn labels_by_majority_signature() {
        let flows = vec![
            flow_with_payload(IN1, EXT, build::gnutella_connect()),
            flow_with_payload(IN1, EXT, build::gnutella_connect()),
            flow_with_payload(IN1, EXT, build::bittorrent_handshake()),
            flow_with_payload(IN2, EXT, build::emule_hello()),
        ];
        let labels = label_traders_by_payload(&flows, internal, 1);
        assert_eq!(labels[&IN1], P2pApp::Gnutella);
        assert_eq!(labels[&IN2], P2pApp::Emule);
    }

    #[test]
    fn inbound_signatures_count_for_the_internal_side() {
        // An external peer's BitTorrent handshake labels the internal host.
        let flows = vec![flow_with_payload(EXT, IN1, build::bittorrent_handshake())];
        let labels = label_traders_by_payload(&flows, internal, 1);
        assert_eq!(labels[&IN1], P2pApp::BitTorrent);
    }

    #[test]
    fn unsigned_hosts_unlabelled() {
        let flows = vec![flow_with_payload(
            IN1,
            EXT,
            Payload::capture(b"GET / HTTP/1.1"),
        )];
        assert!(label_traders_by_payload(&flows, internal, 1).is_empty());
    }

    #[test]
    fn min_flow_threshold_applies() {
        let flows = vec![flow_with_payload(IN1, EXT, build::emule_hello())];
        assert!(label_traders_by_payload(&flows, internal, 2).is_empty());
        assert_eq!(label_traders_by_payload(&flows, internal, 1).len(), 1);
    }

    #[test]
    fn external_hosts_never_labelled() {
        let flows = vec![flow_with_payload(EXT, IN1, build::emule_hello())];
        let labels = label_traders_by_payload(&flows, internal, 1);
        assert!(!labels.contains_key(&EXT));
    }
}
