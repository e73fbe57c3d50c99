//! Typed wire envelopes: a single serializable message type unifying
//! every LightSecAgg protocol message.
//!
//! [`Envelope`] is the unit a [`crate::transport::Transport`] carries.
//! Every message of both protocol variants — coded mask shares, masked
//! models, survivor announcements, aggregated shares, and the
//! timestamped asynchronous variants — round-trips through a canonical
//! byte encoding ([`Envelope::to_bytes`] / [`Envelope::from_bytes`]), so
//! simulated transports can charge *actual* serialized sizes and a real
//! network backend can be dropped in without touching the sessions.
//!
//! # Encoding
//!
//! Fixed-width little-endian, no self-description:
//!
//! ```text
//! [0]      tag (one byte per message kind)
//! [1..5]   group word as u32: the wire-version bit (bit 31, always
//!          set in v2) | the tree-namespaced group id (fixed offset
//!          for every kind, so routers can dispatch without decoding
//!          the payload)
//! [5..]    kind-specific header fields (u32 ids, u64 rounds/weights)
//! [..]     element count as u32, then residues, each in
//!          ceil(F::BITS / 8) bytes
//! ```
//!
//! Every envelope kind carries a **round id** ([`Envelope::round`]): a
//! multi-round federation interleaves traffic from adjacent rounds
//! (offline sharing for round `t+1` overlaps round `t`, §4.1), so
//! endpoints route by round and reject replays from past rounds with
//! [`crate::ProtocolError::StaleRound`].
//!
//! Every envelope kind also carries a **group id** ([`Envelope::group`]):
//! a grouped topology ([`crate::topology`]) runs one protocol instance
//! per leaf group with group-local user indices, so endpoints reject
//! cross-group traffic with [`crate::ProtocolError::WrongGroup`]. The
//! id is **namespaced across the whole aggregator tree**: every leaf of
//! a (possibly nested) topology is allocated a unique id in depth-first
//! order, so an envelope names its leaf unambiguously no matter how
//! deep the hierarchy is. The flat topology is group 0.
//!
//! The top bit of the group word is the **wire version bit**
//! ([`GROUP_VERSION_BIT`]). This crate speaks **Wire v2**
//! ([`WIRE_VERSION`]): every encoder sets the bit, and the byte layout
//! documented here is **frozen** — these are the first bytes that leave
//! the address space over [`lsa_net::tcp`], so any change must claim a
//! new version, not move an existing byte. Decoders reject a clear bit
//! (a legacy v1 envelope, or a corrupted word) with
//! [`WireError::UnsupportedVersion`] before looking at anything else.
//! Usable group ids are `0 ..= MAX_GROUP_ID`.
//!
//! Residues are validated on decode: a non-canonical value (≥ the field
//! modulus) is rejected with [`WireError::NonCanonicalElement`] rather
//! than silently reduced, so a corrupted byte can never masquerade as a
//! valid share.
//!
//! The buffered variant's round-stamped share (`0x05`) and update
//! (`0x06`) have exactly the shape of the synchronous share (`0x01`) and
//! upload (`0x02`): [`crate::asynchronous::TimestampedShare`] and
//! [`crate::asynchronous::TimestampedUpdate`] are aliases of
//! [`CodedMaskShare`] and [`MaskedModel`], and each pair encodes
//! byte-for-byte alike apart from the tag.

use crate::asynchronous::BufferEntry;
use crate::ratchet::{PadTopology, RatchetAnnouncement, RatchetWindowCommit};
use core::fmt;
use lsa_field::Field;

/// The wire version this crate speaks. Version 2 froze the byte layout
/// when envelopes first crossed a process boundary (the
/// [`lsa_net::tcp`] backend); v1 was the in-process era whose encoding
/// kept the version bit clear.
pub const WIRE_VERSION: u32 = 2;

/// The wire-version bit of the group-id word (bytes `[1..5]` of every
/// envelope). Wire v2 **sets** this bit on every encode; a clear bit
/// marks a legacy v1 envelope and is rejected with
/// [`WireError::UnsupportedVersion`]. Routers can thus check the
/// version and the group id from the same fixed-offset word.
pub const GROUP_VERSION_BIT: u32 = 1 << 31;

/// Largest group id the wire encoding can carry (the version bit is not
/// part of the id namespace): an aggregator tree may hold at most
/// `MAX_GROUP_ID + 1` leaves.
pub const MAX_GROUP_ID: u32 = GROUP_VERSION_BIT - 1;

/// Errors produced while encoding or decoding an [`Envelope`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure was complete.
    Truncated {
        /// Bytes needed to finish the current item.
        needed: usize,
        /// Bytes actually remaining.
        got: usize,
    },
    /// The leading tag byte does not name a message kind.
    UnknownTag(u8),
    /// An element's residue is outside `[0, MODULUS)`.
    NonCanonicalElement {
        /// Index of the offending element within its vector.
        index: usize,
        /// The raw residue read from the wire.
        value: u64,
    },
    /// Bytes remained after a complete message was decoded.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A count field exceeds the decoder's sanity limit.
    ImplausibleLength {
        /// The claimed element count.
        claimed: u64,
    },
    /// The group word claims a wire version other than
    /// [`WIRE_VERSION`] — a legacy v1 envelope (version bit clear), or
    /// a corrupted word. Rejected before any payload parsing: the byte
    /// layout of another version cannot be assumed.
    UnsupportedVersion {
        /// The version the envelope claims (1 when the bit is clear).
        got: u32,
        /// The raw group word read from the wire.
        raw: u32,
    },
    /// A pad-topology byte does not name a known
    /// [`crate::ratchet::PadTopology`].
    InvalidTopology(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(
                    f,
                    "truncated envelope: needed {needed} more bytes, got {got}"
                )
            }
            WireError::UnknownTag(t) => write!(f, "unknown envelope tag {t:#04x}"),
            WireError::NonCanonicalElement { index, value } => {
                write!(f, "element {index} has non-canonical residue {value}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete envelope")
            }
            WireError::ImplausibleLength { claimed } => {
                write!(f, "implausible element count {claimed}")
            }
            WireError::UnsupportedVersion { got, raw } => {
                write!(
                    f,
                    "unsupported wire version {got} (group word {raw:#010x}); \
                     this endpoint speaks only v{WIRE_VERSION}"
                )
            }
            WireError::InvalidTopology(t) => {
                write!(f, "unknown pad-topology byte {t:#04x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Decoder sanity limit on vector lengths (64 Mi elements ≈ 512 MB of
/// `Fp61` — far beyond any model in the paper).
const MAX_ELEMS: u64 = 1 << 26;

/// The kind of message an [`Envelope`] carries (used in errors and
/// dispatch without matching the payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvelopeKind {
    /// Offline coded mask share `[~z_i]_j` (sync).
    CodedMaskShare,
    /// Masked model upload `~x_i` (sync).
    MaskedModel,
    /// Server's survivor-set announcement `U₁` (sync).
    SurvivorAnnouncement,
    /// Aggregated coded mask for one-shot recovery (both variants).
    AggregatedShare,
    /// Round-stamped coded mask share (async).
    TimestampedShare,
    /// Round-stamped masked update (async).
    TimestampedUpdate,
    /// Server's buffered-entry announcement (async).
    BufferAnnouncement,
    /// Stable-cohort ratchet nonce commit / fingerprint ack (both
    /// variants). Appended to the frozen v2 layout: a new tag extends
    /// the namespace without moving any existing byte.
    RatchetAnnouncement,
    /// Batched ratchet nonce commit covering a window of W rounds /
    /// fingerprint ack. Appended to the frozen v2 layout as tag 0x09;
    /// every pre-existing kind's bytes are untouched.
    RatchetWindowCommit,
}

impl EnvelopeKind {
    /// All message kinds, in tag order.
    pub const ALL: [EnvelopeKind; 9] = [
        EnvelopeKind::CodedMaskShare,
        EnvelopeKind::MaskedModel,
        EnvelopeKind::SurvivorAnnouncement,
        EnvelopeKind::AggregatedShare,
        EnvelopeKind::TimestampedShare,
        EnvelopeKind::TimestampedUpdate,
        EnvelopeKind::BufferAnnouncement,
        EnvelopeKind::RatchetAnnouncement,
        EnvelopeKind::RatchetWindowCommit,
    ];

    /// Stable wire tag.
    pub fn tag(self) -> u8 {
        match self {
            EnvelopeKind::CodedMaskShare => 0x01,
            EnvelopeKind::MaskedModel => 0x02,
            EnvelopeKind::SurvivorAnnouncement => 0x03,
            EnvelopeKind::AggregatedShare => 0x04,
            EnvelopeKind::TimestampedShare => 0x05,
            EnvelopeKind::TimestampedUpdate => 0x06,
            EnvelopeKind::BufferAnnouncement => 0x07,
            EnvelopeKind::RatchetAnnouncement => 0x08,
            EnvelopeKind::RatchetWindowCommit => 0x09,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            EnvelopeKind::CodedMaskShare => "CodedMaskShare",
            EnvelopeKind::MaskedModel => "MaskedModel",
            EnvelopeKind::SurvivorAnnouncement => "SurvivorAnnouncement",
            EnvelopeKind::AggregatedShare => "AggregatedShare",
            EnvelopeKind::TimestampedShare => "TimestampedShare",
            EnvelopeKind::TimestampedUpdate => "TimestampedUpdate",
            EnvelopeKind::BufferAnnouncement => "BufferAnnouncement",
            EnvelopeKind::RatchetAnnouncement => "RatchetAnnouncement",
            EnvelopeKind::RatchetWindowCommit => "RatchetWindowCommit",
        }
    }
}

impl fmt::Display for EnvelopeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Offline phase: user `from` sends the coded mask segment `[~z_from]_to`
/// to user `to` over a private channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodedMaskShare<F> {
    /// Sender (mask owner) index, local to the group.
    pub from: usize,
    /// Recipient index, local to the group.
    pub to: usize,
    /// Aggregation group (0 in the flat topology).
    pub group: usize,
    /// Round the mask was generated for.
    pub round: u64,
    /// The coded segment, length `⌈d/(U−T)⌉`.
    pub payload: Vec<F>,
}

/// Upload phase: user `from` uploads its masked (padded, quantized) model
/// `~x_from = x_from + z_from`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedModel<F> {
    /// Uploading user index, local to the group.
    pub from: usize,
    /// Aggregation group (0 in the flat topology).
    pub group: usize,
    /// Round the upload belongs to (the base round, for a buffered one).
    pub round: u64,
    /// Masked model of padded length.
    pub payload: Vec<F>,
}

/// Recovery phase: surviving user `from` uploads its aggregated coded
/// mask `Σ_{i∈U₁} [~z_i]_from`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregatedShare<F> {
    /// Uploading user index, local to the group.
    pub from: usize,
    /// Aggregation group (0 in the flat topology).
    pub group: usize,
    /// Round (sync) or buffer-flush round (async) being recovered.
    pub round: u64,
    /// Aggregated coded segment, length `⌈d/(U−T)⌉`.
    pub payload: Vec<F>,
}

/// The server's announcement of the survivor set `U₁` (Algorithm 1
/// line 17), sent to each surviving user so it can aggregate the right
/// coded shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurvivorAnnouncement {
    /// Aggregation group whose upload phase closed (0 when flat).
    pub group: usize,
    /// The round whose upload phase just closed.
    pub round: u64,
    /// The survivor set (group-local indices), ascending.
    pub survivors: Vec<usize>,
}

/// The async server's announcement of the buffered entries (who, base
/// round, integer staleness weight) users must weight their stored coded
/// shares by (Appendix F.3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferAnnouncement {
    /// Aggregation group (the async variant runs flat, so always 0).
    pub group: usize,
    /// The global round at which the buffer was fixed; clients echo it in
    /// their [`AggregatedShare`] so late responses to an earlier flush
    /// are rejected as stale.
    pub round: u64,
    /// The fixed buffer contents.
    pub entries: Vec<BufferEntry>,
}

/// One wire message: the single type every transport carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Envelope<F> {
    /// Offline coded mask share (sync).
    CodedMaskShare(CodedMaskShare<F>),
    /// Masked model upload (sync).
    MaskedModel(MaskedModel<F>),
    /// Survivor-set announcement (sync).
    SurvivorAnnouncement(SurvivorAnnouncement),
    /// Aggregated coded mask (both variants).
    AggregatedShare(AggregatedShare<F>),
    /// Round-stamped coded mask share (async).
    TimestampedShare(CodedMaskShare<F>),
    /// Round-stamped masked update (async).
    TimestampedUpdate(MaskedModel<F>),
    /// Buffered-entry announcement (async).
    BufferAnnouncement(BufferAnnouncement),
    /// Stable-cohort ratchet nonce commit / fingerprint ack.
    RatchetAnnouncement(RatchetAnnouncement),
    /// Batched ratchet nonce commit over a window of rounds / ack.
    RatchetWindowCommit(RatchetWindowCommit),
}

impl<F: Field> Envelope<F> {
    /// Bytes per serialized field element.
    pub const fn elem_bytes() -> usize {
        (F::BITS as usize).div_ceil(8)
    }

    /// Which kind of message this is.
    pub fn kind(&self) -> EnvelopeKind {
        match self {
            Envelope::CodedMaskShare(_) => EnvelopeKind::CodedMaskShare,
            Envelope::MaskedModel(_) => EnvelopeKind::MaskedModel,
            Envelope::SurvivorAnnouncement(_) => EnvelopeKind::SurvivorAnnouncement,
            Envelope::AggregatedShare(_) => EnvelopeKind::AggregatedShare,
            Envelope::TimestampedShare(_) => EnvelopeKind::TimestampedShare,
            Envelope::TimestampedUpdate(_) => EnvelopeKind::TimestampedUpdate,
            Envelope::BufferAnnouncement(_) => EnvelopeKind::BufferAnnouncement,
            Envelope::RatchetAnnouncement(_) => EnvelopeKind::RatchetAnnouncement,
            Envelope::RatchetWindowCommit(_) => EnvelopeKind::RatchetWindowCommit,
        }
    }

    /// The round id this envelope belongs to — every message kind is
    /// round-scoped, so endpoints can route interleaved multi-round
    /// traffic and reject cross-round replays.
    pub fn round(&self) -> u64 {
        match self {
            Envelope::CodedMaskShare(m) | Envelope::TimestampedShare(m) => m.round,
            Envelope::MaskedModel(m) | Envelope::TimestampedUpdate(m) => m.round,
            Envelope::SurvivorAnnouncement(a) => a.round,
            Envelope::AggregatedShare(m) => m.round,
            Envelope::BufferAnnouncement(a) => a.round,
            Envelope::RatchetAnnouncement(a) => a.round,
            Envelope::RatchetWindowCommit(w) => w.round,
        }
    }

    /// The aggregation group this envelope belongs to — every message
    /// kind is group-scoped, so a shared transport can dispatch traffic
    /// from several per-group protocol instances and cross-group shares
    /// are rejected rather than misdelivered (the flat topology is
    /// group 0).
    pub fn group(&self) -> usize {
        match self {
            Envelope::CodedMaskShare(m) | Envelope::TimestampedShare(m) => m.group,
            Envelope::MaskedModel(m) | Envelope::TimestampedUpdate(m) => m.group,
            Envelope::SurvivorAnnouncement(a) => a.group,
            Envelope::AggregatedShare(m) => m.group,
            Envelope::BufferAnnouncement(a) => a.group,
            Envelope::RatchetAnnouncement(a) => a.group,
            Envelope::RatchetWindowCommit(w) => w.group,
        }
    }

    /// The client id that claims to have originated this envelope, or
    /// `None` for server-announced kinds (survivor/buffer
    /// announcements, and ratchet commits stamped
    /// [`crate::ratchet::RATCHET_FROM_SERVER`]). This is the *claimed*
    /// sender off the wire — ingress accounting (per-client quotas)
    /// keys on it, while the sessions still validate it against the
    /// round's membership.
    pub fn sender(&self) -> Option<usize> {
        match self {
            Envelope::CodedMaskShare(m) | Envelope::TimestampedShare(m) => Some(m.from),
            Envelope::MaskedModel(m) | Envelope::TimestampedUpdate(m) => Some(m.from),
            Envelope::SurvivorAnnouncement(_) | Envelope::BufferAnnouncement(_) => None,
            Envelope::AggregatedShare(m) => Some(m.from),
            Envelope::RatchetAnnouncement(a) => {
                (a.from != crate::ratchet::RATCHET_FROM_SERVER).then_some(a.from as usize)
            }
            Envelope::RatchetWindowCommit(w) => {
                (w.from != crate::ratchet::RATCHET_FROM_SERVER).then_some(w.from as usize)
            }
        }
    }

    /// Exact serialized size in bytes (what a transport charges).
    pub fn wire_len(&self) -> usize {
        let eb = Self::elem_bytes();
        // 1 tag + 4 group id, then the kind-specific header and payload
        1 + 4
            + match self {
                Envelope::CodedMaskShare(m) | Envelope::TimestampedShare(m) => {
                    4 + 4 + 8 + 4 + m.payload.len() * eb
                }
                Envelope::MaskedModel(m) | Envelope::TimestampedUpdate(m) => {
                    4 + 8 + 4 + m.payload.len() * eb
                }
                Envelope::SurvivorAnnouncement(a) => 8 + 4 + a.survivors.len() * 4,
                Envelope::AggregatedShare(m) => 4 + 8 + 4 + m.payload.len() * eb,
                Envelope::BufferAnnouncement(a) => 8 + 4 + a.entries.len() * (4 + 8 + 8),
                Envelope::RatchetAnnouncement(_) => 4 + 8 + 8 + 8,
                Envelope::RatchetWindowCommit(w) => 4 + 8 + 8 + 1 + 4 + w.nonces.len() * 8,
            }
    }

    /// Serialize to the canonical byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.push(self.kind().tag());
        debug_assert!(
            self.group() as u64 <= MAX_GROUP_ID as u64,
            "group id {} collides with the wire-version bit",
            self.group()
        );
        put_u32(&mut out, self.group() as u32 | GROUP_VERSION_BIT);
        match self {
            Envelope::CodedMaskShare(m) | Envelope::TimestampedShare(m) => {
                put_u32(&mut out, m.from as u32);
                put_u32(&mut out, m.to as u32);
                put_u64(&mut out, m.round);
                put_elems(&mut out, &m.payload);
            }
            Envelope::MaskedModel(m) | Envelope::TimestampedUpdate(m) => {
                put_u32(&mut out, m.from as u32);
                put_u64(&mut out, m.round);
                put_elems(&mut out, &m.payload);
            }
            Envelope::SurvivorAnnouncement(a) => {
                put_u64(&mut out, a.round);
                put_u32(&mut out, a.survivors.len() as u32);
                for &s in &a.survivors {
                    put_u32(&mut out, s as u32);
                }
            }
            Envelope::AggregatedShare(m) => {
                put_u32(&mut out, m.from as u32);
                put_u64(&mut out, m.round);
                put_elems(&mut out, &m.payload);
            }
            Envelope::BufferAnnouncement(a) => {
                put_u64(&mut out, a.round);
                put_u32(&mut out, a.entries.len() as u32);
                for e in &a.entries {
                    put_u32(&mut out, e.who as u32);
                    put_u64(&mut out, e.round);
                    put_u64(&mut out, e.weight);
                }
            }
            Envelope::RatchetAnnouncement(a) => {
                put_u32(&mut out, a.from);
                put_u64(&mut out, a.round);
                put_u64(&mut out, a.nonce);
                put_u64(&mut out, a.fingerprint);
            }
            Envelope::RatchetWindowCommit(w) => {
                put_u32(&mut out, w.from);
                put_u64(&mut out, w.round);
                put_u64(&mut out, w.fingerprint);
                out.push(w.topology.tag());
                put_u32(&mut out, w.nonces.len() as u32);
                for &n in &w.nonces {
                    put_u64(&mut out, n);
                }
            }
        }
        debug_assert_eq!(out.len(), self.wire_len());
        out
    }

    /// Decode from the canonical byte encoding, validating every residue
    /// and rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// See [`WireError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let tag = r.u8()?;
        let raw_group = r.u32()?;
        if raw_group & GROUP_VERSION_BIT == 0 {
            return Err(WireError::UnsupportedVersion {
                got: 1,
                raw: raw_group,
            });
        }
        let group = (raw_group & MAX_GROUP_ID) as usize;
        let env = match tag {
            0x01 | 0x05 => {
                let share = CodedMaskShare {
                    from: r.u32()? as usize,
                    to: r.u32()? as usize,
                    group,
                    round: r.u64()?,
                    payload: r.elems::<F>()?,
                };
                match tag {
                    0x01 => Envelope::CodedMaskShare(share),
                    _ => Envelope::TimestampedShare(share),
                }
            }
            0x02 | 0x06 => {
                let upload = MaskedModel {
                    from: r.u32()? as usize,
                    group,
                    round: r.u64()?,
                    payload: r.elems::<F>()?,
                };
                match tag {
                    0x02 => Envelope::MaskedModel(upload),
                    _ => Envelope::TimestampedUpdate(upload),
                }
            }
            0x03 => {
                let round = r.u64()?;
                let len = r.len_prefix(4)?;
                let mut survivors = Vec::with_capacity(len);
                for _ in 0..len {
                    survivors.push(r.u32()? as usize);
                }
                Envelope::SurvivorAnnouncement(SurvivorAnnouncement {
                    group,
                    round,
                    survivors,
                })
            }
            0x04 => Envelope::AggregatedShare(AggregatedShare {
                from: r.u32()? as usize,
                group,
                round: r.u64()?,
                payload: r.elems::<F>()?,
            }),
            0x07 => {
                let round = r.u64()?;
                let len = r.len_prefix(4 + 8 + 8)?;
                let mut entries = Vec::with_capacity(len);
                for _ in 0..len {
                    entries.push(BufferEntry {
                        who: r.u32()? as usize,
                        round: r.u64()?,
                        weight: r.u64()?,
                    });
                }
                Envelope::BufferAnnouncement(BufferAnnouncement {
                    group,
                    round,
                    entries,
                })
            }
            0x08 => Envelope::RatchetAnnouncement(RatchetAnnouncement {
                from: r.u32()?,
                group,
                round: r.u64()?,
                nonce: r.u64()?,
                fingerprint: r.u64()?,
            }),
            0x09 => {
                let from = r.u32()?;
                let round = r.u64()?;
                let fingerprint = r.u64()?;
                let topo = r.u8()?;
                let topology =
                    PadTopology::from_tag(topo).ok_or(WireError::InvalidTopology(topo))?;
                let len = r.len_prefix(8)?;
                let mut nonces = Vec::with_capacity(len);
                for _ in 0..len {
                    nonces.push(r.u64()?);
                }
                Envelope::RatchetWindowCommit(RatchetWindowCommit {
                    from,
                    group,
                    round,
                    fingerprint,
                    topology,
                    nonces,
                })
            }
            other => return Err(WireError::UnknownTag(other)),
        };
        if r.pos != bytes.len() {
            return Err(WireError::TrailingBytes {
                extra: bytes.len() - r.pos,
            });
        }
        Ok(env)
    }
}

/// Read the wire version claimed by an encoded envelope without
/// decoding it (`None` if the buffer cannot even hold the fixed
/// header). Routers use this to drop foreign-version traffic before
/// touching the payload.
pub fn peek_version(bytes: &[u8]) -> Option<u32> {
    let word = u32::from_le_bytes(bytes.get(1..5)?.try_into().ok()?);
    Some(if word & GROUP_VERSION_BIT != 0 { 2 } else { 1 })
}

/// Read the tree-namespaced group id from an encoded envelope's
/// fixed-offset group word without decoding the payload (`None` when
/// the buffer is too short or the version is not [`WIRE_VERSION`]).
pub fn peek_group(bytes: &[u8]) -> Option<u32> {
    let word = u32::from_le_bytes(bytes.get(1..5)?.try_into().ok()?);
    (word & GROUP_VERSION_BIT != 0).then_some(word & MAX_GROUP_ID)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_elems<F: Field>(out: &mut Vec<u8>, elems: &[F]) {
    let eb = Envelope::<F>::elem_bytes();
    debug_assert!(
        elems.len() as u64 <= MAX_ELEMS,
        "payload of {} elements exceeds what the decoder accepts",
        elems.len()
    );
    put_u32(out, elems.len() as u32);
    // sized once, then fixed-width stores the compiler vectorises
    let start = out.len();
    out.resize(start + elems.len() * eb, 0);
    for (dst, e) in out[start..].chunks_exact_mut(eb).zip(elems) {
        dst.copy_from_slice(&e.residue().to_le_bytes()[..eb]);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated {
                needed: n,
                got: self.buf.len() - self.pos,
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a u32 length prefix for items of `item_bytes` each,
    /// rejecting counts that exceed the sanity limit — or the remaining
    /// buffer — *before* any allocation, so a tiny corrupt message can
    /// never trigger a huge `Vec::with_capacity`.
    fn len_prefix(&mut self, item_bytes: usize) -> Result<usize, WireError> {
        let len = self.u32()? as u64;
        if len > MAX_ELEMS {
            return Err(WireError::ImplausibleLength { claimed: len });
        }
        let needed = len as usize * item_bytes;
        let remaining = self.buf.len() - self.pos;
        if needed > remaining {
            return Err(WireError::Truncated {
                needed,
                got: remaining,
            });
        }
        Ok(len as usize)
    }

    fn elems<F: Field>(&mut self) -> Result<Vec<F>, WireError> {
        let eb = Envelope::<F>::elem_bytes();
        let len = self.len_prefix(eb)?;
        // the payload is bounds-checked once; per element only the
        // `< q` test remains, and past it `from_u64` has nothing left
        // to reduce
        let raw = self.take(len * eb)?;
        let mut out = Vec::with_capacity(len);
        for (index, chunk) in raw.chunks_exact(eb).enumerate() {
            let mut word = [0u8; 8];
            word[..eb].copy_from_slice(&chunk[..eb]);
            let value = u64::from_le_bytes(word);
            if value >= F::MODULUS {
                return Err(WireError::NonCanonicalElement { index, value });
            }
            out.push(F::from_u64(value));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::{Fp32, Fp61};

    fn share() -> Envelope<Fp61> {
        Envelope::CodedMaskShare(CodedMaskShare {
            from: 3,
            to: 1,
            group: 2,
            round: 42,
            payload: vec![Fp61::from_u64(7), Fp61::from_u64(u64::MAX / 3)],
        })
    }

    #[test]
    fn roundtrip_preserves_value_and_length() {
        let e = share();
        let bytes = e.to_bytes();
        assert_eq!(bytes.len(), e.wire_len());
        assert_eq!(Envelope::<Fp61>::from_bytes(&bytes).unwrap(), e);
    }

    #[test]
    fn truncation_detected() {
        let bytes = share().to_bytes();
        for cut in 0..bytes.len() {
            let err = Envelope::<Fp61>::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = share().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Envelope::<Fp61>::from_bytes(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn unknown_tag_detected() {
        // tag byte + a valid v2 group word, then the unknown tag
        // surfaces (a 1-byte buffer is Truncated at the group read)
        let mut bytes = vec![0xFFu8];
        bytes.extend_from_slice(&GROUP_VERSION_BIT.to_le_bytes());
        assert!(matches!(
            Envelope::<Fp61>::from_bytes(&bytes),
            Err(WireError::UnknownTag(0xFF))
        ));
        assert!(matches!(
            Envelope::<Fp61>::from_bytes(&[0xFF]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn v1_envelope_rejected_before_tag_dispatch() {
        // a clear version bit is rejected for every tag — even unknown
        // ones: the version gate runs before the tag is interpreted
        for tag in [0x01u8, 0x03, 0x07, 0xFF] {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&7u32.to_le_bytes()); // v1 group word
            assert!(
                matches!(
                    Envelope::<Fp61>::from_bytes(&bytes),
                    Err(WireError::UnsupportedVersion { got: 1, raw: 7 })
                ),
                "tag {tag:#04x}"
            );
        }
    }

    #[test]
    fn non_canonical_residue_rejected() {
        // an Fp32 element with residue ≥ 2^32 − 5
        let e: Envelope<Fp32> = Envelope::AggregatedShare(AggregatedShare {
            from: 0,
            group: 0,
            round: 0,
            payload: vec![Fp32::from_u64(1)],
        });
        let mut bytes = e.to_bytes();
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Envelope::<Fp32>::from_bytes(&bytes),
            Err(WireError::NonCanonicalElement { index: 0, .. })
        ));
    }

    #[test]
    fn elem_width_follows_field() {
        assert_eq!(Envelope::<Fp32>::elem_bytes(), 4);
        assert_eq!(Envelope::<Fp61>::elem_bytes(), 8);
    }

    #[test]
    fn implausible_length_rejected() {
        // MaskedModel claiming 2^32−1 elements
        let mut bytes = vec![0x02];
        bytes.extend_from_slice(&GROUP_VERSION_BIT.to_le_bytes()); // group 0, v2
        bytes.extend_from_slice(&0u32.to_le_bytes()); // from
        bytes.extend_from_slice(&0u64.to_le_bytes()); // round
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Envelope::<Fp61>::from_bytes(&bytes),
            Err(WireError::ImplausibleLength { .. })
        ));
    }

    #[test]
    fn length_prefix_exceeding_buffer_rejected_before_allocation() {
        // a short message claiming MAX_ELEMS elements must fail with
        // Truncated immediately (no multi-hundred-MB pre-allocation)
        for tag in [0x02u8, 0x03, 0x04, 0x07] {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&GROUP_VERSION_BIT.to_le_bytes()); // group 0, v2
            if tag != 0x03 && tag != 0x07 {
                bytes.extend_from_slice(&0u32.to_le_bytes()); // from
            }
            bytes.extend_from_slice(&0u64.to_le_bytes()); // round
            bytes.extend_from_slice(&(MAX_ELEMS as u32).to_le_bytes());
            assert!(
                matches!(
                    Envelope::<Fp61>::from_bytes(&bytes),
                    Err(WireError::Truncated { .. })
                ),
                "tag {tag:#04x}"
            );
        }
    }

    #[test]
    fn every_kind_reports_its_round_and_group() {
        assert_eq!(share().round(), 42);
        assert_eq!(share().group(), 2);
        let ann: Envelope<Fp61> = Envelope::SurvivorAnnouncement(SurvivorAnnouncement {
            group: 1,
            round: 9,
            survivors: vec![0, 2],
        });
        assert_eq!(ann.round(), 9);
        assert_eq!(ann.group(), 1);
        let buf: Envelope<Fp61> = Envelope::BufferAnnouncement(BufferAnnouncement {
            group: 0,
            round: 17,
            entries: Vec::new(),
        });
        assert_eq!(buf.round(), 17);
        assert_eq!(buf.group(), 0);
    }

    #[test]
    fn group_id_namespace_edges() {
        // the largest usable id round-trips untouched...
        let e: Envelope<Fp61> = Envelope::SurvivorAnnouncement(SurvivorAnnouncement {
            group: MAX_GROUP_ID as usize,
            round: 1,
            survivors: vec![0],
        });
        let bytes = e.to_bytes();
        assert_eq!(
            Envelope::<Fp61>::from_bytes(&bytes).unwrap().group(),
            MAX_GROUP_ID as usize
        );
        // ...while clearing the version bit demotes the same bytes to a
        // rejected v1 envelope for every message kind
        for tag in [0x01u8, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09] {
            let mut bad = vec![tag];
            bad.extend_from_slice(&MAX_GROUP_ID.to_le_bytes());
            assert!(
                matches!(
                    Envelope::<Fp61>::from_bytes(&bad),
                    Err(WireError::UnsupportedVersion {
                        got: 1,
                        raw: MAX_GROUP_ID
                    })
                ),
                "tag {tag:#04x}"
            );
        }
        // the all-ones word is a valid v2 header naming MAX_GROUP_ID;
        // the failure is the missing payload, not the version
        let mut bad = vec![0x01u8];
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Envelope::<Fp61>::from_bytes(&bad),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn group_id_sits_at_fixed_offset_for_every_kind() {
        // routers dispatch server-bound traffic by group without a full
        // decode — bytes [1..5] must be the versioned group word for
        // every kind, and the peek helpers must agree with the decoder
        let bytes = share().to_bytes();
        assert_eq!(
            u32::from_le_bytes(bytes[1..5].try_into().unwrap()),
            2 | GROUP_VERSION_BIT
        );
        assert_eq!(peek_group(&bytes), Some(2));
        assert_eq!(peek_version(&bytes), Some(WIRE_VERSION));
        let ann: Envelope<Fp61> = Envelope::SurvivorAnnouncement(SurvivorAnnouncement {
            group: 7,
            round: 1,
            survivors: vec![0],
        });
        let bytes = ann.to_bytes();
        assert_eq!(peek_group(&bytes), Some(7));
        assert_eq!(Envelope::<Fp61>::from_bytes(&bytes).unwrap().group(), 7);
    }

    #[test]
    fn ratchet_announcement_roundtrips_with_fixed_length() {
        let e: Envelope<Fp61> = Envelope::RatchetAnnouncement(RatchetAnnouncement {
            from: crate::ratchet::RATCHET_FROM_SERVER,
            group: 3,
            round: 11,
            nonce: 0xDEAD_BEEF_CAFE_F00D,
            fingerprint: u64::MAX,
        });
        let bytes = e.to_bytes();
        // fixed 33-byte frame: tag + group word + from + round + nonce
        // + fingerprint, no length prefix
        assert_eq!(bytes.len(), 33);
        assert_eq!(bytes.len(), e.wire_len());
        assert_eq!(Envelope::<Fp61>::from_bytes(&bytes).unwrap(), e);
        assert_eq!(e.round(), 11);
        assert_eq!(e.group(), 3);
        assert_eq!(e.kind().tag(), 0x08);
    }

    #[test]
    fn ratchet_window_commit_roundtrips_and_rejects_bad_topology() {
        let e: Envelope<Fp61> = Envelope::RatchetWindowCommit(RatchetWindowCommit {
            from: crate::ratchet::RATCHET_FROM_SERVER,
            group: 5,
            round: 40,
            fingerprint: 0x1234_5678_9ABC_DEF0,
            topology: PadTopology::Hypercube,
            nonces: vec![1, 2, 3, 4],
        });
        let bytes = e.to_bytes();
        // tag + group word + from + round + fingerprint + topology byte
        // + u32 count + 4×u64 nonces
        assert_eq!(bytes.len(), 1 + 4 + 4 + 8 + 8 + 1 + 4 + 4 * 8);
        assert_eq!(bytes.len(), e.wire_len());
        assert_eq!(Envelope::<Fp61>::from_bytes(&bytes).unwrap(), e);
        assert_eq!(e.kind().tag(), 0x09);
        assert_eq!(e.round(), 40);
        assert_eq!(e.group(), 5);
        assert_eq!(e.sender(), None, "server-stamped commits have no sender");

        // a client ack carries its id as the sender
        let ack: Envelope<Fp61> = Envelope::RatchetWindowCommit(RatchetWindowCommit {
            from: 6,
            group: 5,
            round: 40,
            fingerprint: 1,
            topology: PadTopology::Clique,
            nonces: Vec::new(),
        });
        assert_eq!(ack.sender(), Some(6));
        let ack_bytes = ack.to_bytes();
        assert_eq!(Envelope::<Fp61>::from_bytes(&ack_bytes).unwrap(), ack);

        // an unknown topology byte is a typed rejection, not a panic
        let topo_off = 1 + 4 + 4 + 8 + 8;
        let mut bad = bytes.clone();
        bad[topo_off] = 0x7F;
        assert!(matches!(
            Envelope::<Fp61>::from_bytes(&bad),
            Err(WireError::InvalidTopology(0x7F))
        ));
    }

    #[test]
    fn peek_helpers_reject_short_or_v1_buffers() {
        assert_eq!(peek_version(&[0x01, 0, 0]), None);
        assert_eq!(peek_group(&[0x01, 0, 0]), None);
        let mut v1 = vec![0x01u8];
        v1.extend_from_slice(&9u32.to_le_bytes());
        assert_eq!(peek_version(&v1), Some(1));
        assert_eq!(peek_group(&v1), None, "v1 group ids are not ours to read");
    }
}
