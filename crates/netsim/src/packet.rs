//! Packets as they appear on the simulated wire.
//!
//! Only the header fields the paper's analysis actually touches are
//! modelled: addressing, TCP flags/seq numbers, the receive window
//! (brdgrd, §7.1), IP TTL and ID (§3.4), and the TCP timestamp option
//! (§3.4's prober-process side channel).

use crate::conn::ConnId;
use crate::flow::fill_bulk;
use crate::time::SimTime;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// IPv4 address. A thin newtype over the four octets so we control
/// formatting and serde without pulling in `std::net` parsing semantics.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ipv4(pub [u8; 4]);

impl Ipv4 {
    /// Construct from octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4 {
        Ipv4([a, b, c, d])
    }

    /// The /16 prefix, useful for coarse grouping.
    pub fn prefix16(self) -> [u8; 2] {
        [self.0[0], self.0[1]]
    }
}

impl std::fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl std::fmt::Debug for Ipv4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self}")
    }
}

impl From<[u8; 4]> for Ipv4 {
    fn from(o: [u8; 4]) -> Ipv4 {
        Ipv4(o)
    }
}

/// An (address, port) endpoint.
pub type SocketAddr = (Ipv4, u16);

/// TCP flag bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TcpFlags {
    /// Synchronize.
    pub syn: bool,
    /// Acknowledge.
    pub ack: bool,
    /// Push (set on data-carrying segments).
    pub psh: bool,
    /// Finish.
    pub fin: bool,
    /// Reset.
    pub rst: bool,
}

impl TcpFlags {
    /// SYN only (client handshake opener).
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        psh: false,
        fin: false,
        rst: false,
    };
    /// SYN-ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        psh: false,
        fin: false,
        rst: false,
    };
    /// Pure ACK.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        psh: false,
        fin: false,
        rst: false,
    };
    /// PSH-ACK (data).
    pub const PSH_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        psh: true,
        fin: false,
        rst: false,
    };
    /// FIN-ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        psh: false,
        fin: true,
        rst: false,
    };
    /// RST.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        psh: false,
        fin: false,
        rst: true,
    };
}

impl std::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let set = [
            (self.syn, "SYN"),
            (self.rst, "RST"),
            (self.fin, "FIN"),
            (self.psh, "PSH"),
            (self.ack, "ACK"),
        ];
        let mut first = true;
        for (on, name) in set {
            if on {
                if !first {
                    f.write_str("/")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        Ok(())
    }
}

/// A segment's application payload: the bytes an app sent, or a
/// description of where they come from, synthesized only when read.
///
/// No detector reads a bulk byte past a connection's first data
/// segment, nor a background server's response after the client's
/// first payload (DESIGN §6i), so such a segment carries where its
/// bytes come from rather than the bytes. [`Payload::len`] and
/// [`Payload::is_empty`] never synthesize; [`Payload::bytes`] does, on
/// each call. Equality and `Debug` go by content, so a `Bulk` or
/// `Synth` payload equals the `Bytes` payload it synthesizes to.
#[derive(Clone)]
pub enum Payload {
    /// Bytes an app handed to [`crate::app::Ctx::send`].
    Bytes(Bytes),
    /// `len` bytes of [`fill_bulk`]'s stream for `conn`, starting at
    /// stream position `offset` (positions wrap at `u64::MAX`).
    Bulk {
        /// Connection whose bulk stream this is.
        conn: ConnId,
        /// Stream position of the first byte.
        offset: u64,
        /// Number of bytes.
        len: u32,
    },
    /// Bytes `offset..offset + len` of the message `synth(key)`, as
    /// sent with [`crate::app::Ctx::send_synth`]. `synth` must be a
    /// pure function of `key`.
    Synth {
        /// Regenerates the whole message from `key`.
        synth: fn(u64) -> Vec<u8>,
        /// What the message is a function of.
        key: u64,
        /// Position of this segment's first byte in the message.
        offset: u16,
        /// Number of bytes.
        len: u16,
    },
}

impl Payload {
    /// Length in bytes, without synthesizing.
    pub fn len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Bulk { len, .. } => *len as usize,
            Payload::Synth { len, .. } => usize::from(*len),
        }
    }

    /// True if the payload carries no bytes, without synthesizing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload's bytes: borrowed for app bytes, synthesized on
    /// this call for a bulk range or a synthesized message.
    pub fn bytes(&self) -> Cow<'_, [u8]> {
        match self {
            Payload::Bytes(b) => Cow::Borrowed(b),
            &Payload::Bulk { conn, offset, len } => {
                let mut buf = vec![0; len as usize];
                fill_bulk(&mut buf, conn, offset);
                Cow::Owned(buf)
            }
            &Payload::Synth {
                synth,
                key,
                offset,
                len,
            } => {
                let mut msg = synth(key);
                msg.truncate(usize::from(offset) + usize::from(len));
                msg.drain(..usize::from(offset));
                Cow::Owned(msg)
            }
        }
    }
}

impl Default for Payload {
    /// The empty payload (does not allocate).
    fn default() -> Payload {
        Payload::Bytes(Bytes::new())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.len() == other.len() && self.bytes() == other.bytes()
    }
}

impl Eq for Payload {}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"{}\"", self.bytes().escape_ascii())
    }
}

/// A TCP/IPv4 packet on the simulated wire.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Time the packet was put on the wire.
    pub sent_at: SimTime,
    /// Source endpoint.
    pub src: SocketAddr,
    /// Destination endpoint.
    pub dst: SocketAddr,
    /// TCP flags.
    pub flags: TcpFlags,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number (meaningful when `flags.ack`).
    pub ack: u32,
    /// Advertised receive window.
    pub window: u16,
    /// IP time-to-live as observed at the capture point.
    pub ttl: u8,
    /// IP identification field.
    pub ip_id: u16,
    /// TCP timestamp option value (TSval); RST segments carry none.
    pub tsval: Option<u32>,
    /// Application payload.
    pub payload: Payload,
    /// Simulator connection this packet belongs to.
    pub conn: ConnId,
    /// True if this is a retransmission of an earlier segment (set by
    /// the impairment layer's loss-recovery machine; captures can use
    /// it to separate original transmissions from retries).
    pub retx: bool,
}

impl Packet {
    /// True if this packet carries application data.
    pub fn has_payload(&self) -> bool {
        !self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_display() {
        assert_eq!(Ipv4::new(175, 42, 1, 21).to_string(), "175.42.1.21");
    }

    #[test]
    fn flags_display() {
        assert_eq!(TcpFlags::SYN_ACK.to_string(), "SYN/ACK");
        assert_eq!(TcpFlags::PSH_ACK.to_string(), "PSH/ACK");
        assert_eq!(TcpFlags::RST.to_string(), "RST");
    }

    #[test]
    fn prefix16() {
        assert_eq!(Ipv4::new(202, 108, 181, 70).prefix16(), [202, 108]);
    }

    /// Every queued, captured and reordered segment is a `Packet`: a
    /// fatter payload representation would cost memory on every one.
    #[test]
    fn packet_stays_within_80_bytes() {
        assert_eq!(std::mem::size_of::<Payload>(), 24);
        assert!(std::mem::size_of::<Packet>() <= 80);
    }

    #[test]
    fn bulk_payload_reads_the_bulk_stream() {
        let conn = ConnId(9);
        let bulk = Payload::Bulk {
            conn,
            offset: 5,
            len: 11,
        };
        let mut want = [0u8; 11];
        fill_bulk(&mut want, conn, 5);
        assert_eq!(bulk.len(), 11);
        assert!(!bulk.is_empty());
        assert_eq!(&bulk.bytes()[..], &want[..]);
        let app = Payload::Bytes(Bytes::copy_from_slice(&want));
        assert_eq!(bulk, app);
        assert_eq!(format!("{bulk:?}"), format!("{app:?}"));
        assert_ne!(bulk, Payload::default());
        assert!(Payload::default().is_empty());
    }

    /// A message regenerated from its key: bytes `3 * key + i`.
    fn counting(key: u64) -> Vec<u8> {
        (0..40u64).map(|i| (3 * key + i) as u8).collect()
    }

    #[test]
    fn synth_len_never_synthesizes() {
        let synth: fn(u64) -> Vec<u8> = |_| panic!("len() must not synthesize");
        let seg = Payload::Synth {
            synth,
            key: 1,
            offset: 7,
            len: 9,
        };
        assert_eq!(seg.len(), 9);
        assert!(!seg.is_empty());
        let empty = Payload::Synth {
            synth,
            key: 1,
            offset: 7,
            len: 0,
        };
        assert!(empty.is_empty());
    }

    #[test]
    fn synth_segment_reads_its_slice_of_the_message() {
        let msg = counting(5);
        let seg = Payload::Synth {
            synth: counting,
            key: 5,
            offset: 12,
            len: 20,
        };
        assert_eq!(&seg.bytes()[..], &msg[12..32]);
        let whole = Payload::Synth {
            synth: counting,
            key: 5,
            offset: 0,
            len: 40,
        };
        assert_eq!(&whole.bytes()[..], &msg[..]);
        let app = Payload::Bytes(Bytes::copy_from_slice(&msg[12..32]));
        assert_eq!(seg, app);
        assert_eq!(format!("{seg:?}"), format!("{app:?}"));
        let other_key = Payload::Synth {
            synth: counting,
            key: 6,
            offset: 12,
            len: 20,
        };
        assert_ne!(seg, other_key);
    }
}
