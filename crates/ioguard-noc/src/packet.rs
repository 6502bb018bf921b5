//! Packet and flit protocol.
//!
//! I/O requests and responses are encapsulated as packets using a
//! BlueShell-style protocol (assumption (ii) of Sec. II): a *header flit*
//! carrying routing and virtualization metadata followed by payload flits
//! and a *tail flit* that releases the wormhole channel.

use crate::error::NocError;
use crate::topology::NodeId;

/// Kind of traffic a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// An I/O request from a VM toward a device (or the hypervisor).
    IoRequest,
    /// An I/O response back to a VM.
    IoResponse,
    /// Memory traffic (synthetic background load in the case study).
    Memory,
}

/// A wormhole packet: header + payload flits + implicit tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    id: u64,
    kind: PacketKind,
    src: NodeId,
    dst: NodeId,
    /// Number of payload flits (excludes the header flit).
    payload_flits: u32,
    /// Virtual machine the packet belongs to (for the virtualized systems).
    vm: u32,
}

impl Packet {
    /// Creates a packet.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::EmptyPacket`] when `payload_flits == 0` — the
    /// protocol requires at least one payload flit after the header.
    pub fn new(
        id: u64,
        kind: PacketKind,
        src: NodeId,
        dst: NodeId,
        payload_flits: u32,
        vm: u32,
    ) -> Result<Self, NocError> {
        if payload_flits == 0 {
            return Err(NocError::EmptyPacket { id });
        }
        Ok(Self {
            id,
            kind,
            src,
            dst,
            payload_flits,
            vm,
        })
    }

    /// Convenience constructor for an I/O request from VM 0.
    ///
    /// # Errors
    ///
    /// See [`Packet::new`].
    pub fn request(
        id: u64,
        src: NodeId,
        dst: NodeId,
        payload_flits: u32,
    ) -> Result<Self, NocError> {
        Self::new(id, PacketKind::IoRequest, src, dst, payload_flits, 0)
    }

    /// Packet id (unique per injection).
    pub const fn id(&self) -> u64 {
        self.id
    }

    /// Traffic kind.
    pub const fn kind(&self) -> PacketKind {
        self.kind
    }

    /// Source node.
    pub const fn src(&self) -> NodeId {
        self.src
    }

    /// Destination node.
    pub const fn dst(&self) -> NodeId {
        self.dst
    }

    /// Owning VM index.
    pub const fn vm(&self) -> u32 {
        self.vm
    }

    /// Payload flit count (header excluded).
    pub const fn payload_flits(&self) -> u32 {
        self.payload_flits
    }

    /// Total flits on the wire: header + payload (the last payload flit
    /// doubles as the tail).
    pub const fn total_flits(&self) -> u32 {
        1 + self.payload_flits
    }
}

/// One flit in flight. Wormhole switching moves these one link per cycle;
/// only the head flit carries routing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Id of the packet this flit belongs to.
    pub packet: u64,
    /// Position within the packet: 0 = header.
    pub seq: u32,
    /// True for the final flit (releases the channel).
    pub is_tail: bool,
    /// Destination (replicated so body flits can be validated in tests).
    pub dst: NodeId,
}

impl Flit {
    /// Expands a packet into its flit stream.
    pub fn stream(packet: &Packet) -> Vec<Flit> {
        let total = packet.total_flits();
        (0..total)
            .map(|seq| Flit {
                packet: packet.id(),
                seq,
                is_tail: seq + 1 == total,
                dst: packet.dst(),
            })
            .collect()
    }

    /// True for the header flit.
    pub const fn is_head(&self) -> bool {
        self.seq == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(x: u16, y: u16) -> NodeId {
        NodeId::new(x, y)
    }

    #[test]
    fn packet_accessors() {
        let p = Packet::new(9, PacketKind::Memory, node(1, 2), node(3, 4), 5, 7).unwrap();
        assert_eq!(p.id(), 9);
        assert_eq!(p.kind(), PacketKind::Memory);
        assert_eq!(p.src(), node(1, 2));
        assert_eq!(p.dst(), node(3, 4));
        assert_eq!(p.vm(), 7);
        assert_eq!(p.payload_flits(), 5);
        assert_eq!(p.total_flits(), 6);
    }

    #[test]
    fn zero_payload_rejected() {
        assert!(matches!(
            Packet::request(1, node(0, 0), node(1, 1), 0),
            Err(NocError::EmptyPacket { id: 1 })
        ));
    }

    #[test]
    fn flit_stream_structure() {
        let p = Packet::request(3, node(0, 0), node(2, 2), 3).unwrap();
        let flits = Flit::stream(&p);
        assert_eq!(flits.len(), 4);
        assert!(flits[0].is_head());
        assert!(!flits[0].is_tail);
        assert!(flits[3].is_tail);
        assert!(flits.iter().all(|f| f.packet == 3 && f.dst == node(2, 2)));
        let seqs: Vec<u32> = flits.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn request_constructor_is_an_io_request_from_vm_0() {
        let rq = Packet::request(1, node(0, 0), node(1, 0), 2).unwrap();
        assert_eq!(rq.kind(), PacketKind::IoRequest);
        assert_eq!(rq.vm(), 0);
    }
}
