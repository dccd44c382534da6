//! libpcap captures of simulated traffic.
//!
//! smoltcp-style debugging parity: any node can be tapped and every packet
//! arriving there is appended, as an Ethernet frame, to a standard libpcap
//! byte stream that Wireshark/tcpdump open directly.
//!
//! ```no_run
//! use scotch::scenario::Scenario;
//! use scotch_sim::SimTime;
//!
//! let mut sim = Scenario::overlay_datacenter(2).with_clients(50.0).build(1);
//! let server = sim.topo.nodes_of_kind(scotch_net::NodeKind::Host)[2];
//! sim.capture_at(server);
//! let report = sim.run(SimTime::from_secs(3));
//! std::fs::write("server.pcap", report.captures[&server].bytes()).unwrap();
//! ```
//!
//! ## Frame format and documented deviations
//!
//! Each packet becomes Ethernet (zero MACs) / MPLS label stack, if any /
//! IPv4 (no options) / a 20-byte TCP-shaped L4 header, also for UDP.
//!
//! * Simulation-only metadata does not ride the wire: a decoded packet's
//!   `flow_id`, `born_at` and `is_attack` come back as defaults.
//! * Our MPLS-ish [`Label`] maps onto the 20-bit MPLS label space: bit 19
//!   distinguishes tunnel labels (ids < 2^19) from ingress-port labels
//!   (< 2^16). A tunnel id ≥ 2^19 cannot be represented, and
//!   [`PcapCapture::record`] skips such packets.

use scotch_net::{Label, Packet, PacketKind, TunnelId};
use scotch_sim::SimTime;

/// libpcap little-endian magic.
pub const PCAP_MAGIC: u32 = 0xa1b2_c3d4;
/// Link type: Ethernet.
pub const LINKTYPE_ETHERNET: u32 = 1;

const ETH_TYPE_IPV4: u16 = 0x0800;
const ETH_TYPE_MPLS: u16 = 0x8847;

/// The one encoding failure: a tunnel id at or above 2^19 does not fit the
/// tunnel half of the 20-bit MPLS label space.
#[derive(Debug, PartialEq)]
struct TunnelIdOutOfRange;

fn label_to_mpls(l: Label) -> Result<u32, TunnelIdOutOfRange> {
    match l {
        Label::Tunnel(TunnelId(t)) if t >= 1 << 19 => Err(TunnelIdOutOfRange),
        Label::Tunnel(TunnelId(t)) => Ok((1 << 19) | t),
        Label::IngressPort(p) => Ok(p as u32),
    }
}

/// Serialize a simulated packet to frame bytes.
fn encode_packet(p: &Packet) -> Result<Vec<u8>, TunnelIdOutOfRange> {
    let mut w = Vec::with_capacity(64);
    // Ethernet: zero MACs; ethertype depends on label stack.
    w.extend_from_slice(&[0; 12]);
    if p.labels.is_empty() {
        w.extend_from_slice(&ETH_TYPE_IPV4.to_be_bytes());
    } else {
        w.extend_from_slice(&ETH_TYPE_MPLS.to_be_bytes());
        // Top of stack first on the wire.
        for (i, l) in p.labels.iter().rev().enumerate() {
            let v = label_to_mpls(l)?;
            let bottom = (i == p.labels.len() - 1) as u32;
            w.extend_from_slice(&((v << 12) | (bottom << 8) | 64).to_be_bytes());
        }
    }
    // IPv4 header (20 bytes, no options).
    let l4_len = 20u16; // tcp/udp header (udp padded for simplicity)
    w.extend_from_slice(&[0x45, 0]);
    w.extend_from_slice(&(20 + l4_len).to_be_bytes());
    w.extend_from_slice(&(p.seq as u16).to_be_bytes()); // identification: carries the sequence number
    w.extend_from_slice(&[0, 0]); // flags, fragment offset
    w.extend_from_slice(&[64, p.key.proto.number()]); // ttl, protocol
    w.extend_from_slice(&[0, 0]); // checksum (not computed in the simulator)
    w.extend_from_slice(&p.key.src.0.to_be_bytes());
    w.extend_from_slice(&p.key.dst.0.to_be_bytes());
    // TCP-shaped L4 header (UDP uses the same 20-byte layout, padded).
    w.extend_from_slice(&p.key.sport.to_be_bytes());
    w.extend_from_slice(&p.key.dport.to_be_bytes());
    w.extend_from_slice(&p.seq.to_be_bytes());
    w.extend_from_slice(&[0; 4]); // ack
    let flags = if p.kind == PacketKind::FlowStart {
        0x02 // SYN
    } else {
        0x10 // ACK
    };
    w.extend_from_slice(&[0x50, flags]); // data offset, flags
    w.extend_from_slice(&0xffffu16.to_be_bytes()); // window
    w.extend_from_slice(&[0; 4]); // checksum, urgent
    Ok(w)
}

/// An in-memory libpcap capture.
#[derive(Debug, Clone)]
pub struct PcapCapture {
    buf: Vec<u8>,
    records: u64,
}

impl Default for PcapCapture {
    fn default() -> Self {
        Self::new()
    }
}

impl PcapCapture {
    /// An empty capture with the global header written.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&PCAP_MAGIC.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes()); // version major
        buf.extend_from_slice(&4u16.to_le_bytes()); // version minor
        buf.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        buf.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        buf.extend_from_slice(&65_535u32.to_le_bytes()); // snaplen
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        PcapCapture { buf, records: 0 }
    }

    /// Append one packet observed at `at`.
    ///
    /// Packets the frame format cannot represent (a tunnel id ≥ 2^19) are
    /// skipped — captures are diagnostics, not ground truth for
    /// accounting.
    pub fn record(&mut self, at: SimTime, packet: &Packet) {
        let Ok(data) = encode_packet(packet) else {
            return;
        };
        let nanos = at.as_nanos();
        let secs = (nanos / 1_000_000_000) as u32;
        let usecs = ((nanos % 1_000_000_000) / 1_000) as u32;
        self.buf.extend_from_slice(&secs.to_le_bytes());
        self.buf.extend_from_slice(&usecs.to_le_bytes());
        self.buf
            .extend_from_slice(&(data.len() as u32).to_le_bytes());
        // Original length: the simulated on-wire size (payload included).
        self.buf
            .extend_from_slice(&packet.size.max(data.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&data);
        self.records += 1;
    }

    /// The capture as libpcap bytes (global header + records).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of recorded packets.
    pub fn records(&self) -> u64 {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scotch_net::{FlowId, FlowKey, IpAddr, LabelStack, Protocol};

    fn pkt(sport: u16) -> Packet {
        Packet::flow_start(
            FlowKey::tcp(IpAddr::new(1, 0, 0, 1), sport, IpAddr::new(2, 0, 0, 2), 80),
            FlowId(1),
            SimTime::from_millis(1500),
        )
    }

    fn mpls_to_label(v: u32) -> Label {
        if v & (1 << 19) != 0 {
            Label::Tunnel(TunnelId(v & ((1 << 19) - 1)))
        } else {
            Label::IngressPort((v & 0xffff) as u16)
        }
    }

    /// The roundtrip oracle: parse frame bytes back into a packet. `size`
    /// is restored from `wire_size` (the original on-wire length, possibly
    /// larger than the header bytes). Panics on a frame `encode_packet`
    /// would not produce.
    fn decode_packet(buf: &[u8], wire_size: u32) -> Packet {
        let be16 = |at: usize| u16::from_be_bytes([buf[at], buf[at + 1]]);
        let be32 = |at: usize| u32::from_be_bytes(buf[at..at + 4].try_into().unwrap());
        let mut ip = 14;
        let mut labels_top_first = Vec::new();
        if be16(12) == ETH_TYPE_MPLS {
            loop {
                let shim = be32(ip);
                ip += 4;
                labels_top_first.push(mpls_to_label(shim >> 12));
                if shim & (1 << 8) != 0 {
                    break;
                }
            }
        } else {
            assert_eq!(be16(12), ETH_TYPE_IPV4, "ethertype");
        }
        assert_eq!(buf[ip], 0x45, "ipv4 header");
        let proto = match buf[ip + 9] {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            1 => Protocol::Icmp,
            other => panic!("ip protocol {other}"),
        };
        let l4 = ip + 20;
        let key = FlowKey {
            src: IpAddr(be32(ip + 12)),
            dst: IpAddr(be32(ip + 16)),
            proto,
            sport: be16(l4),
            dport: be16(l4 + 2),
        };
        let kind = if buf[l4 + 13] & 0x02 != 0 {
            PacketKind::FlowStart
        } else {
            PacketKind::Data
        };
        let mut p = Packet {
            key,
            flow_id: FlowId(0),
            kind,
            size: wire_size,
            born_at: SimTime::ZERO,
            seq: be32(l4 + 4),
            labels: LabelStack::new(),
            is_attack: false,
        };
        // Stack stores bottom-first.
        for l in labels_top_first.into_iter().rev() {
            p.labels.push(l);
        }
        p
    }

    #[test]
    fn global_header_is_valid_libpcap() {
        let cap = PcapCapture::new();
        let b = cap.bytes();
        assert_eq!(b.len(), 24);
        assert_eq!(u32::from_le_bytes(b[0..4].try_into().unwrap()), PCAP_MAGIC);
        assert_eq!(u16::from_le_bytes(b[4..6].try_into().unwrap()), 2);
        assert_eq!(u16::from_le_bytes(b[6..8].try_into().unwrap()), 4);
        assert_eq!(
            u32::from_le_bytes(b[20..24].try_into().unwrap()),
            LINKTYPE_ETHERNET
        );
    }

    #[test]
    fn records_carry_timestamps_and_lengths() {
        let mut cap = PcapCapture::new();
        cap.record(SimTime::from_millis(1_234), &pkt(1));
        assert_eq!(cap.records(), 1);
        let b = cap.bytes();
        let rec = &b[24..];
        let secs = u32::from_le_bytes(rec[0..4].try_into().unwrap());
        let usecs = u32::from_le_bytes(rec[4..8].try_into().unwrap());
        assert_eq!(secs, 1);
        assert_eq!(usecs, 234_000);
        let incl = u32::from_le_bytes(rec[8..12].try_into().unwrap()) as usize;
        assert_eq!(rec.len(), 16 + incl);
    }

    #[test]
    fn recorded_bytes_decode_back() {
        let mut cap = PcapCapture::new();
        let p = pkt(9);
        cap.record(SimTime::ZERO, &p);
        let rec = &cap.bytes()[24..];
        let incl = u32::from_le_bytes(rec[8..12].try_into().unwrap()) as usize;
        let data = &rec[16..16 + incl];
        let back = decode_packet(data, p.size);
        assert_eq!(back.key, p.key);
    }

    #[test]
    fn multiple_records_append() {
        let mut cap = PcapCapture::new();
        for i in 0..10 {
            cap.record(SimTime::from_millis(i), &pkt(i as u16));
        }
        assert_eq!(cap.records(), 10);
        assert!(cap.bytes().len() > 24 + 10 * 16);
    }

    #[test]
    fn label_mapping_is_bijective_in_range() {
        for l in [
            Label::Tunnel(TunnelId(0)),
            Label::Tunnel(TunnelId(524_287)),
            Label::IngressPort(0),
            Label::IngressPort(65_535),
        ] {
            assert_eq!(mpls_to_label(label_to_mpls(l).unwrap()), l);
        }
        assert_eq!(
            label_to_mpls(Label::Tunnel(TunnelId(1 << 19))),
            Err(TunnelIdOutOfRange)
        );
    }

    #[test]
    fn packet_bytes_roundtrip_with_label_stack() {
        let key = FlowKey::tcp(IpAddr::new(10, 0, 0, 1), 1234, IpAddr::new(10, 0, 1, 2), 80);
        let mut p = Packet::flow_start(key, FlowId(3), SimTime::ZERO).with_size(500);
        p.push_label(Label::IngressPort(2));
        p.push_label(Label::Tunnel(TunnelId(9)));
        let bytes = encode_packet(&p).unwrap();
        let back = decode_packet(&bytes, p.size);
        assert_eq!(back.key, p.key);
        assert_eq!(back.labels, p.labels);
        // 500 B payload + two 4 B label shims.
        assert_eq!(back.size, 508);
        assert_eq!(back.kind, PacketKind::FlowStart);
    }

    proptest! {
        /// Arbitrary packets survive the bytes roundtrip (protocol-visible
        /// fields).
        #[test]
        fn prop_packet_roundtrip(
            src: u32, dst: u32, sport: u16, dport: u16,
            seq in 0u32..1_000_000,
            size in 64u32..9000,
            // The inline stack holds at most 2 labels (§5.2).
            n_labels in 0usize..3,
        ) {
            let k = FlowKey::tcp(IpAddr(src), sport, IpAddr(dst), dport);
            let mut p = Packet::data(k, FlowId(1), SimTime::ZERO, seq, size);
            for i in 0..n_labels {
                p.push_label(if i % 2 == 0 {
                    Label::IngressPort(i as u16)
                } else {
                    Label::Tunnel(TunnelId(i as u32 * 100))
                });
            }
            let bytes = encode_packet(&p).unwrap();
            let back = decode_packet(&bytes, p.size);
            prop_assert_eq!(back.key, p.key);
            prop_assert_eq!(back.labels, p.labels);
            prop_assert_eq!(back.seq, seq);
        }
    }
}
