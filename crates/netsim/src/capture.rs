//! In-memory packet capture.
//!
//! The paper's methodology is "capture packets at both ends and
//! analyze" (§3.1). `Capture` is the pcap stand-in: a filterable,
//! append-only log of packets with the handful of query helpers the
//! analysis crate builds on.

use crate::conn::ConnId;
use crate::packet::Packet;

/// A capture's stored-packet predicate.
type PacketFilter = Box<dyn Fn(&Packet) -> bool>;

/// An append-only packet log with a filter predicate.
pub struct Capture {
    /// Only packets matching this filter are stored (e.g. "addressed to
    /// my server"). `None` stores everything.
    filter: Option<PacketFilter>,
    packets: Vec<Packet>,
}

impl Default for Capture {
    fn default() -> Self {
        Capture::all()
    }
}

impl Capture {
    /// Capture everything.
    pub fn all() -> Capture {
        Capture {
            filter: None,
            packets: Vec::new(),
        }
    }

    /// Capture with an arbitrary predicate.
    pub fn with_filter(f: impl Fn(&Packet) -> bool + 'static) -> Capture {
        Capture {
            filter: Some(Box::new(f)),
            packets: Vec::new(),
        }
    }

    /// Offer a packet to the capture.
    pub fn observe(&mut self, pkt: &Packet) {
        if self.filter.as_ref().is_none_or(|f| f(pkt)) {
            self.packets.push(pkt.clone());
        }
    }

    /// All captured packets, in arrival order.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Packets belonging to one connection.
    pub fn conn(&self, id: ConnId) -> impl Iterator<Item = &Packet> {
        self.packets.iter().filter(move |p| p.conn == id)
    }

    /// SYN packets (handshake openers) — the packets Fig 5 and Fig 6
    /// fingerprint.
    pub fn syns(&self) -> impl Iterator<Item = &Packet> {
        self.packets.iter().filter(|p| p.flags.syn && !p.flags.ack)
    }

    /// Data-carrying (PSH/ACK) packets.
    pub fn data_packets(&self) -> impl Iterator<Item = &Packet> {
        self.packets.iter().filter(|p| p.has_payload())
    }

    /// The first data-carrying packet of each connection, client side —
    /// the packet the GFW's passive detector keys on (§4).
    pub fn first_data_per_conn(&self) -> Vec<&Packet> {
        let mut seen = crate::hash::HashSet::default();
        let mut out = Vec::new();
        for p in &self.packets {
            if p.has_payload() && seen.insert(p.conn) {
                out.push(p);
            }
        }
        out
    }

    /// Drop everything captured so far (keeps the filter).
    pub fn clear(&mut self) {
        self.packets.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Ipv4, Payload, SocketAddr, TcpFlags};
    use crate::time::SimTime;
    use bytes::Bytes;

    fn mk(src: SocketAddr, dst: SocketAddr, flags: TcpFlags, payload: &[u8], conn: u64) -> Packet {
        Packet {
            sent_at: SimTime::ZERO,
            src,
            dst,
            flags,
            seq: 0,
            ack: 0,
            window: 65535,
            ttl: 64,
            ip_id: 0,
            tsval: Some(0),
            payload: Payload::Bytes(Bytes::copy_from_slice(payload)),
            conn: ConnId(conn),
            retx: false,
        }
    }

    #[test]
    fn filter_by_host() {
        let a = Ipv4::new(1, 1, 1, 1);
        let b = Ipv4::new(2, 2, 2, 2);
        let c = Ipv4::new(3, 3, 3, 3);
        let mut cap = Capture::with_filter(move |p| p.src.0 == a || p.dst.0 == a);
        cap.observe(&mk((a, 1), (b, 2), TcpFlags::SYN, b"", 1));
        cap.observe(&mk((b, 2), (a, 1), TcpFlags::SYN_ACK, b"", 1));
        cap.observe(&mk((b, 2), (c, 3), TcpFlags::SYN, b"", 2));
        assert_eq!(cap.len(), 2);
    }

    #[test]
    fn first_data_per_conn_picks_earliest() {
        let a = Ipv4::new(1, 1, 1, 1);
        let b = Ipv4::new(2, 2, 2, 2);
        let mut cap = Capture::all();
        cap.observe(&mk((a, 1), (b, 2), TcpFlags::SYN, b"", 1));
        cap.observe(&mk((a, 1), (b, 2), TcpFlags::PSH_ACK, b"first", 1));
        cap.observe(&mk((a, 1), (b, 2), TcpFlags::PSH_ACK, b"second", 1));
        cap.observe(&mk((a, 3), (b, 2), TcpFlags::PSH_ACK, b"other", 2));
        let firsts = cap.first_data_per_conn();
        assert_eq!(firsts.len(), 2);
        assert_eq!(&firsts[0].payload.bytes()[..], b"first");
        assert_eq!(&firsts[1].payload.bytes()[..], b"other");
    }

    #[test]
    fn syn_selector_excludes_synack() {
        let a = Ipv4::new(1, 1, 1, 1);
        let b = Ipv4::new(2, 2, 2, 2);
        let mut cap = Capture::all();
        cap.observe(&mk((a, 1), (b, 2), TcpFlags::SYN, b"", 1));
        cap.observe(&mk((b, 2), (a, 1), TcpFlags::SYN_ACK, b"", 1));
        assert_eq!(cap.syns().count(), 1);
    }
}
