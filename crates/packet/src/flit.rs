//! Flit segmentation for the wormhole-routed on-chip network.
//!
//! On-chip channels are `width` bits wide (Table 3 evaluates 64-bit and
//! 128-bit channels), so a message occupies `ceil(bits / width)` cycles
//! of every link it crosses. The NoC routes *flits*: the head flit
//! carries routing information and reserves the path; body flits
//! follow; the tail flit releases it. The message object itself never
//! rides a flit: the NoC parks it in a slab from send until its tail is
//! delivered, and its flits name the slot.

use crate::chain::EngineId;
use crate::message::{Message, MessageId, TenantId};

/// Position of a flit within its message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// First flit: carries routing info, allocates the path.
    Head,
    /// Middle flit.
    Body,
    /// Last flit: releases the path and completes the message.
    Tail,
    /// A single-flit message (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// The kind of flit `seq` (0-based) of a `total`-flit message.
    #[must_use]
    pub fn at(seq: u32, total: u32) -> FlitKind {
        debug_assert!(seq < total, "flit {seq} of a {total}-flit message");
        match (seq == 0, seq + 1 == total) {
            (true, true) => FlitKind::HeadTail,
            (true, false) => FlitKind::Head,
            (false, true) => FlitKind::Tail,
            (false, false) => FlitKind::Body,
        }
    }

    /// True if this flit opens a wormhole (Head or HeadTail).
    #[must_use]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// True if this flit closes a wormhole (Tail or HeadTail).
    #[must_use]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flit of a segmented message, as [`Flit::segment`] describes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Message this flit belongs to.
    pub msg_id: MessageId,
    /// Head/body/tail position.
    pub kind: FlitKind,
    /// Destination engine — the NoC maps this to a mesh coordinate.
    pub dest: EngineId,
    /// Index of this flit within the message (0-based).
    pub seq: u32,
    /// Total flits in the message.
    pub total: u32,
    /// Tenant tag, copied from the message at segmentation time.
    pub tenant: TenantId,
}

impl Flit {
    /// Segments `msg` into flits for a `width_bits`-wide channel headed
    /// to `dest`, in sequence order. Always yields at least one flit.
    ///
    /// # Panics
    /// Panics if `width_bits` is zero.
    pub fn segment(
        msg: &Message,
        dest: EngineId,
        width_bits: u64,
    ) -> impl ExactSizeIterator<Item = Flit> {
        let total = Self::flits_for(msg, width_bits);
        let msg_id = msg.id;
        let tenant = msg.tenant;
        (0..total).map(move |seq| Flit {
            msg_id,
            kind: FlitKind::at(seq, total),
            dest,
            seq,
            total,
            tenant,
        })
    }

    /// Number of flits `msg` occupies on a `width_bits`-wide channel.
    ///
    /// # Panics
    /// Panics if `width_bits` is zero.
    #[must_use]
    pub fn flits_for(msg: &Message, width_bits: u64) -> u32 {
        msg.wire_size().beats(width_bits).max(1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;
    use bytes::Bytes;

    fn msg(payload_len: usize) -> Message {
        Message::builder(MessageId(9), MessageKind::EthernetFrame)
            .payload(Bytes::from(vec![0u8; payload_len]))
            .build()
    }

    fn segment(m: &Message, dest: EngineId, width_bits: u64) -> Vec<Flit> {
        Flit::segment(m, dest, width_bits).collect()
    }

    #[test]
    fn single_flit_message() {
        // Empty chain header is 2 bytes; payload 4 bytes => 48 bits,
        // one 64-bit flit.
        let flits = segment(&msg(4), EngineId(3), 64);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head() && flits[0].kind.is_tail());
        assert_eq!(flits[0].dest, EngineId(3));
        assert_eq!(flits[0].total, 1);
        assert_eq!(flits[0].msg_id, MessageId(9));
    }

    #[test]
    fn multi_flit_structure() {
        // 64B payload + 2B chain = 66B = 528 bits => 9 flits at 64 bits.
        let flits = segment(&msg(64), EngineId(1), 64);
        assert_eq!(flits.len(), 9);
        assert_eq!(Flit::segment(&msg(64), EngineId(1), 64).len(), 9);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert!(flits[1..8].iter().all(|f| f.kind == FlitKind::Body));
        assert_eq!(flits[8].kind, FlitKind::Tail);
        for (i, f) in flits.iter().enumerate() {
            assert_eq!(f.seq, i as u32);
            assert_eq!(f.total, 9);
            assert_eq!(f.msg_id, MessageId(9));
            assert_eq!(f.kind, FlitKind::at(f.seq, f.total));
        }
    }

    #[test]
    fn wider_channel_fewer_flits() {
        let narrow = Flit::segment(&msg(64), EngineId(0), 64).len();
        let wide = Flit::segment(&msg(64), EngineId(0), 128).len();
        assert_eq!(narrow, 9);
        assert_eq!(wide, 5); // 528 bits / 128 = 4.125 -> 5
    }

    #[test]
    fn tenant_tag_rides_every_flit() {
        let m = Message::builder(MessageId(4), MessageKind::EthernetFrame)
            .tenant(TenantId(7))
            .payload(Bytes::from(vec![0u8; 64]))
            .build();
        let flits = segment(&m, EngineId(1), 64);
        assert!(flits.len() > 1);
        assert!(flits.iter().all(|f| f.tenant == TenantId(7)));
    }
}
