//! Transports: how serialized envelopes travel between sessions.
//!
//! A [`Transport`] carries [`Envelope`]s as *bytes* — every message is
//! serialized on [`Transport::send`] and deserialized on
//! [`Transport::recv`], so the canonical wire encoding is exercised on
//! every hop and a transport knows the exact size of everything it
//! moves. The leaf driver ([`crate::federation`]) receives after every
//! sender, so a backend that delivers immediately holds one sender's
//! envelopes at a time; one that delivers at [`Transport::flush`]
//! (`SimTransport`) sees whole phases, as it always did.
//!
//! Three backends ship with the workspace:
//!
//! * [`MemTransport`] — ordered in-memory queues; the default for tests
//!   and in-process federations;
//! * [`SimTransport`] — drives the [`lsa_net`] discrete-event network so
//!   protocol bytes pay simulated bandwidth and latency; phase timings
//!   come from the *actual serialized envelope sizes*, not a
//!   side-channel cost model;
//! * [`lsa_net::TcpTransport`] — real blocking sockets over `std::net`;
//!   this module implements [`Transport`] for it so the same poll-based
//!   sessions run unchanged across OS processes (Wire-v2 envelopes in
//!   length-prefixed frames).
//!
//! [`FaultTransport`] wraps a [`MemTransport`] for tests: it records
//! what it delivers and duplicates or bit-flips an addressed frame.

use crate::session::Recipient;
use crate::wire::{Envelope, EnvelopeKind};
use crate::ProtocolError;
use lsa_field::Field;
use lsa_net::{Duplex, Network, NetworkConfig, NodeId, TcpTransport, Transfer};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

// The timing currency lives with the network backends so both the
// simulator and the TCP transport can mint records; re-exported here so
// `lsa_protocol::transport::PhaseTiming` keeps working.
pub use lsa_net::timing::PhaseTiming;

/// One received envelope with its routing metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<F> {
    /// Sender address.
    pub(crate) from: Recipient,
    /// Destination address.
    pub to: Recipient,
    /// The decoded message.
    pub envelope: Envelope<F>,
    /// Serialized size this message occupied on the wire.
    pub(crate) wire_bytes: usize,
}

/// A byte-level message channel between protocol endpoints.
pub trait Transport<F: Field> {
    /// Serialize and enqueue one envelope.
    ///
    /// # Errors
    ///
    /// Transports may reject malformed envelopes with
    /// [`ProtocolError::Wire`].
    fn send(
        &mut self,
        from: Recipient,
        to: Recipient,
        envelope: &Envelope<F>,
    ) -> Result<(), ProtocolError>;

    /// Dequeue, decode and return the next deliverable envelope, or
    /// `None` when nothing is ready.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Wire`] if the queued bytes fail to
    /// decode (corruption).
    fn recv(&mut self) -> Result<Option<Delivery<F>>, ProtocolError>;

    /// Mark a protocol phase boundary named `label`. Queue-based
    /// transports ignore this; simulated transports schedule everything
    /// sent since the previous boundary and advance their clock.
    fn flush(&mut self, label: &'static str) {
        let _ = label;
    }

    /// Total serialized bytes ever sent through this transport. An
    /// aggregator tree sums this across its per-subtree transports, so
    /// communication accounting survives the composition. Backends that
    /// don't track traffic report 0.
    fn bytes_sent(&self) -> usize {
        0
    }

    /// Total envelopes ever sent through this transport (0 for
    /// backends that don't count).
    fn messages_sent(&self) -> usize {
        0
    }

    /// Transport framing overhead sent on top of [`Self::bytes_sent`]:
    /// 0 for in-memory and simulated backends (an envelope *is* its
    /// payload there), [`lsa_net::FRAME_OVERHEAD`] per frame for TCP.
    /// Kept separate so the payload-byte column is identical across
    /// backends for the same round.
    fn framing_bytes(&self) -> usize {
        0
    }

    /// Per-phase wall-clock records, for transports with a notion of
    /// simulated time (empty otherwise).
    fn timings(&self) -> &[PhaseTiming] {
        &[]
    }

    /// Current simulated time in seconds (0 for untimed backends).
    fn elapsed(&self) -> f64 {
        0.0
    }
}

// ---------------------------------------------------------------------
// MemTransport
// ---------------------------------------------------------------------

/// Ordered in-memory byte queues: messages are delivered FIFO in send
/// order, after a serialize → deserialize round trip.
#[derive(Debug, Clone, Default)]
pub struct MemTransport {
    queue: VecDeque<(Recipient, Recipient, Vec<u8>)>,
    bytes_sent: usize,
    messages_sent: usize,
    /// Messages ever sent, per envelope kind (indexed by `tag() - 1`).
    counts: [usize; EnvelopeKind::ALL.len()],
}

impl MemTransport {
    /// An empty transport.
    pub fn new() -> Self {
        Self::default()
    }

    /// Messages currently in flight.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no messages are in flight.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total bytes ever sent through this transport.
    pub fn bytes_sent(&self) -> usize {
        self.bytes_sent
    }

    /// Total messages ever sent through this transport.
    pub fn messages_sent(&self) -> usize {
        self.messages_sent
    }

    /// Messages ever sent carrying the given envelope kind. Lets tests
    /// assert traffic *shape* — e.g. that a ratcheted round moved zero
    /// [`EnvelopeKind::CodedMaskShare`]s.
    pub fn kind_count(&self, kind: EnvelopeKind) -> usize {
        self.counts[(kind.tag() - 1) as usize]
    }
}

impl<F: Field> Transport<F> for MemTransport {
    fn send(
        &mut self,
        from: Recipient,
        to: Recipient,
        envelope: &Envelope<F>,
    ) -> Result<(), ProtocolError> {
        let bytes = envelope.to_bytes();
        self.bytes_sent += bytes.len();
        self.messages_sent += 1;
        self.counts[(envelope.kind().tag() - 1) as usize] += 1;
        self.queue.push_back((from, to, bytes));
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Delivery<F>>, ProtocolError> {
        let Some((from, to, bytes)) = self.queue.pop_front() else {
            return Ok(None);
        };
        let envelope = Envelope::from_bytes(&bytes).map_err(ProtocolError::Wire)?;
        Ok(Some(Delivery {
            from,
            to,
            envelope,
            wire_bytes: bytes.len(),
        }))
    }

    fn bytes_sent(&self) -> usize {
        self.bytes_sent
    }

    fn messages_sent(&self) -> usize {
        self.messages_sent
    }
}

// ---------------------------------------------------------------------
// FaultTransport
// ---------------------------------------------------------------------

/// What a [`FaultTransport`] does to the one frame a fault is aimed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Queue the frame twice; `bytes_sent` still counts one send.
    Duplicate,
    /// XOR byte `byte` of the queued frame with `mask` (byte 0 is the
    /// envelope tag), so the receiver's decoder sees the damage. The
    /// send panics if the frame is shorter.
    Flip { byte: usize, mask: u8 },
}

/// The `(from, to, bytes)` frames a [`FaultTransport`] delivered, in
/// order, behind a handle that stays readable while a federation owns it.
pub type Transcript = Arc<Mutex<Vec<(Recipient, Recipient, Vec<u8>)>>>;

/// A [`MemTransport`] for tests of a misbehaving wire: the same FIFO,
/// byte counting and serialize → deserialize round trip, plus a
/// [`Transcript`] of every frame `recv` returned, the peak number of
/// frames in flight, and injected [`Fault`]s.
#[derive(Debug, Default)]
pub struct FaultTransport {
    inner: MemTransport,
    /// `(fault, kind, recipient, matching sends still to let through)`.
    armed: Vec<(Fault, EnvelopeKind, Option<Recipient>, usize)>,
    transcript: Transcript,
    peak: usize,
}

impl FaultTransport {
    /// A fault-free transport with an empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aim `fault` at the `nth` (0-based) send of a `kind` envelope from
    /// now on, counting only those addressed to `to` when given.
    pub fn inject(&mut self, fault: Fault, kind: EnvelopeKind, to: Option<Recipient>, nth: usize) {
        self.armed.push((fault, kind, to, nth));
    }

    /// A handle on the delivered frames.
    pub fn transcript(&self) -> Transcript {
        Arc::clone(&self.transcript)
    }

    /// The most frames ever in flight at once.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// The wrapped queue: frames in flight and per-kind send counts.
    pub fn inner(&self) -> &MemTransport {
        &self.inner
    }
}

impl<F: Field> Transport<F> for FaultTransport {
    fn send(
        &mut self,
        from: Recipient,
        to: Recipient,
        envelope: &Envelope<F>,
    ) -> Result<(), ProtocolError> {
        Transport::<F>::send(&mut self.inner, from, to, envelope)?;
        let mut fired = Vec::new();
        self.armed.retain_mut(|(fault, kind, at, skip)| {
            let aimed = *kind == envelope.kind() && at.is_none_or(|r| r == to);
            if aimed && *skip == 0 {
                fired.push(*fault);
                return false;
            }
            *skip -= usize::from(aimed);
            true
        });
        let queue = &mut self.inner.queue;
        for fault in fired {
            let last = queue.len() - 1;
            match fault {
                Fault::Duplicate => queue.push_back(queue[last].clone()),
                Fault::Flip { byte, mask } => queue[last].2[byte] ^= mask,
            }
        }
        self.peak = self.peak.max(queue.len());
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Delivery<F>>, ProtocolError> {
        let Some(frame) = self.inner.queue.front().cloned() else {
            return Ok(None);
        };
        let delivery = Transport::<F>::recv(&mut self.inner)?;
        let mut delivered = self.transcript.lock().expect("no holder panicked");
        delivered.push(frame);
        Ok(delivery)
    }

    fn bytes_sent(&self) -> usize {
        self.inner.bytes_sent
    }

    fn messages_sent(&self) -> usize {
        self.inner.messages_sent
    }
}

// ---------------------------------------------------------------------
// SimTransport
// ---------------------------------------------------------------------

/// A transport whose deliveries pay simulated bandwidth and latency
/// through the [`lsa_net`] discrete-event network.
///
/// Envelopes sent since the last [`Transport::flush`] are scheduled as
/// one network phase: each becomes a [`Transfer`] of its *actual
/// serialized size*, the network resolves queueing at every endpoint,
/// and deliveries become receivable ordered by simulated arrival time.
#[derive(Debug, Clone)]
pub struct SimTransport {
    net: Network,
    clock: f64,
    pending: Vec<(Recipient, Recipient, Vec<u8>)>,
    inbox: VecDeque<(Recipient, Recipient, Vec<u8>)>,
    timings: Vec<PhaseTiming>,
    bytes_sent: usize,
    messages_sent: usize,
}

impl SimTransport {
    /// Build over a network with the given parameters.
    pub fn new(cfg: NetworkConfig, duplex: Duplex) -> Self {
        Self {
            net: Network::new(cfg, duplex),
            clock: 0.0,
            pending: Vec::new(),
            inbox: VecDeque::new(),
            timings: Vec::new(),
            bytes_sent: 0,
            messages_sent: 0,
        }
    }

    /// Current simulated time (s).
    pub fn elapsed(&self) -> f64 {
        self.clock
    }

    /// Per-phase timings recorded so far.
    pub fn timings(&self) -> &[PhaseTiming] {
        &self.timings
    }

    fn node(r: Recipient) -> NodeId {
        match r {
            Recipient::Client(i) => NodeId::Client(i),
            Recipient::Server => NodeId::Server,
        }
    }
}

impl<F: Field> Transport<F> for SimTransport {
    fn send(
        &mut self,
        from: Recipient,
        to: Recipient,
        envelope: &Envelope<F>,
    ) -> Result<(), ProtocolError> {
        let bytes = envelope.to_bytes();
        self.bytes_sent += bytes.len();
        self.messages_sent += 1;
        self.pending.push((from, to, bytes));
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Delivery<F>>, ProtocolError> {
        let Some((from, to, bytes)) = self.inbox.pop_front() else {
            return Ok(None);
        };
        let envelope = Envelope::from_bytes(&bytes).map_err(ProtocolError::Wire)?;
        Ok(Some(Delivery {
            from,
            to,
            envelope,
            wire_bytes: bytes.len(),
        }))
    }

    fn flush(&mut self, label: &'static str) {
        let start = self.clock;
        let pending = std::mem::take(&mut self.pending);
        if pending.is_empty() {
            self.timings.push(PhaseTiming {
                label,
                start,
                end: start,
                messages: 0,
                bytes: 0,
                arrivals: Vec::new(),
            });
            return;
        }
        let transfers: Vec<Transfer> = pending
            .iter()
            .map(|(from, to, bytes)| Transfer::new(Self::node(*from), Self::node(*to), bytes.len()))
            .collect();
        let report = self.net.run_phase(start, &transfers);
        // deliver ordered by simulated arrival
        let mut order: Vec<usize> = (0..pending.len()).collect();
        order.sort_by(|&a, &b| report.finish_times[a].total_cmp(&report.finish_times[b]));
        let bytes_total: usize = pending.iter().map(|(_, _, b)| b.len()).sum();
        let messages = pending.len();
        let mut slots: Vec<Option<(Recipient, Recipient, Vec<u8>)>> =
            pending.into_iter().map(Some).collect();
        let mut arrivals = Vec::with_capacity(order.len());
        for i in order {
            arrivals.push(report.finish_times[i]);
            self.inbox
                .push_back(slots[i].take().expect("each delivery moved once"));
        }
        self.clock = report.phase_end;
        self.timings.push(PhaseTiming {
            label,
            start,
            end: report.phase_end,
            messages,
            bytes: bytes_total,
            arrivals,
        });
    }

    fn bytes_sent(&self) -> usize {
        self.bytes_sent
    }

    fn messages_sent(&self) -> usize {
        self.messages_sent
    }

    fn timings(&self) -> &[PhaseTiming] {
        &self.timings
    }

    fn elapsed(&self) -> f64 {
        self.clock
    }
}

// ---------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------

fn recipient_of(node: NodeId) -> Recipient {
    match node {
        NodeId::Client(i) => Recipient::Client(i),
        NodeId::Server => Recipient::Server,
    }
}

/// Real sockets speak the same [`Transport`] contract as the in-memory
/// and simulated backends: `send` serializes the envelope into one
/// length-prefixed frame, `recv` polls the shared inbox without
/// blocking (use [`TcpTransport::recv_bytes_timeout`] directly when a
/// driver wants to park), and `flush` cuts a wall-clock
/// [`PhaseTiming`].
impl<F: Field> Transport<F> for TcpTransport {
    fn send(
        &mut self,
        from: Recipient,
        to: Recipient,
        envelope: &Envelope<F>,
    ) -> Result<(), ProtocolError> {
        let bytes = envelope.to_bytes();
        self.send_bytes(SimTransport::node(from), SimTransport::node(to), &bytes)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Delivery<F>>, ProtocolError> {
        let Some(delivery) = self.recv_bytes()? else {
            return Ok(None);
        };
        let envelope = Envelope::from_bytes(&delivery.payload).map_err(ProtocolError::Wire)?;
        Ok(Some(Delivery {
            from: recipient_of(delivery.from),
            to: recipient_of(delivery.to),
            envelope,
            wire_bytes: delivery.payload.len(),
        }))
    }

    fn flush(&mut self, label: &'static str) {
        self.flush_phase(label);
    }

    fn bytes_sent(&self) -> usize {
        TcpTransport::bytes_sent(self)
    }

    fn messages_sent(&self) -> usize {
        TcpTransport::messages_sent(self)
    }

    fn framing_bytes(&self) -> usize {
        TcpTransport::framing_bytes(self)
    }

    fn timings(&self) -> &[PhaseTiming] {
        TcpTransport::timings(self)
    }

    fn elapsed(&self) -> f64 {
        TcpTransport::elapsed(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MaskedModel;
    use lsa_field::Fp61;

    fn env(from: usize, elems: usize) -> Envelope<Fp61> {
        Envelope::MaskedModel(MaskedModel {
            from,
            group: 0,
            round: 0,
            payload: vec![Fp61::from_u64(9); elems],
        })
    }

    #[test]
    fn mem_transport_is_fifo_and_roundtrips() {
        let mut t = MemTransport::new();
        for i in 0..3 {
            Transport::<Fp61>::send(&mut t, Recipient::Client(i), Recipient::Server, &env(i, 4))
                .unwrap();
        }
        for i in 0..3 {
            let d: Delivery<Fp61> = t.recv().unwrap().unwrap();
            assert_eq!(d.from, Recipient::Client(i));
            assert_eq!(d.envelope, env(i, 4));
            assert_eq!(d.wire_bytes, env(i, 4).wire_len());
        }
        assert!(Transport::<Fp61>::recv(&mut t).unwrap().is_none());
    }

    /// Uploads to the server and aggregated shares to the next client,
    /// from clients 0..4 in turn: `(from, to, envelope)`.
    fn traffic() -> Vec<(Recipient, Recipient, Envelope<Fp61>)> {
        (0..4)
            .flat_map(|i| {
                let share = Envelope::AggregatedShare(crate::wire::AggregatedShare {
                    from: i,
                    group: 0,
                    round: 0,
                    payload: vec![Fp61::from_u64(5); 3],
                });
                [
                    (Recipient::Client(i), Recipient::Server, env(i, 4)),
                    (Recipient::Client(i), Recipient::Client((i + 1) % 4), share),
                ]
            })
            .collect()
    }

    fn send_all<T: Transport<Fp61>>(t: &mut T) {
        for (from, to, envelope) in traffic() {
            t.send(from, to, &envelope).unwrap();
        }
    }

    /// Receive until the queue is empty, errors included.
    fn drain<T: Transport<Fp61>>(t: &mut T) -> Vec<Result<Delivery<Fp61>, ProtocolError>> {
        std::iter::from_fn(|| t.recv().transpose()).collect()
    }

    const UNKNOWN_TAG: Fault = Fault::Flip {
        byte: 0,
        mask: 0xFF,
    };

    #[test]
    fn fault_transport_without_faults_is_a_mem_transport() {
        let (mut mem, mut faulty) = (MemTransport::new(), FaultTransport::new());
        send_all(&mut mem);
        send_all(&mut faulty);
        assert_eq!(Transport::<Fp61>::bytes_sent(&faulty), mem.bytes_sent());
        assert_eq!(
            Transport::<Fp61>::messages_sent(&faulty),
            mem.messages_sent()
        );
        for kind in EnvelopeKind::ALL {
            assert_eq!(faulty.inner().kind_count(kind), mem.kind_count(kind));
        }
        assert_eq!(drain(&mut faulty), drain(&mut mem));
    }

    #[test]
    fn duplicate_and_flip_hit_only_their_addressed_frame() {
        let mut t = FaultTransport::new();
        // client 1's upload (the second to the server) and client 1's
        // share (the first to client 2)
        t.inject(
            Fault::Duplicate,
            EnvelopeKind::MaskedModel,
            Some(Recipient::Server),
            1,
        );
        t.inject(
            UNKNOWN_TAG,
            EnvelopeKind::AggregatedShare,
            Some(Recipient::Client(2)),
            0,
        );
        send_all(&mut t);
        let sent = traffic();
        let bytes: usize = sent.iter().map(|(_, _, e)| e.wire_len()).sum();
        assert_eq!(
            Transport::<Fp61>::bytes_sent(&t),
            bytes,
            "the copy is not billed"
        );
        assert_eq!(Transport::<Fp61>::messages_sent(&t), sent.len());
        assert_eq!(t.peak(), sent.len() + 1, "the copy is in flight");

        let mut want: Vec<Result<Delivery<Fp61>, ProtocolError>> = sent
            .into_iter()
            .map(|(from, to, envelope)| {
                let wire_bytes = envelope.wire_len();
                Ok(Delivery {
                    from,
                    to,
                    envelope,
                    wire_bytes,
                })
            })
            .collect();
        want[3] = Err(ProtocolError::Wire(crate::wire::WireError::UnknownTag(
            0x04 ^ 0xFF,
        )));
        want.insert(3, want[2].clone());
        assert_eq!(drain(&mut t), want);
    }

    #[test]
    fn the_transcript_is_what_recv_returned_in_delivery_order() {
        let mut t = FaultTransport::new();
        let transcript = t.transcript();
        t.inject(UNKNOWN_TAG, EnvelopeKind::AggregatedShare, None, 0);
        send_all(&mut t);
        let frame = |d: Delivery<Fp61>| (d.from, d.to, d.envelope.to_bytes());
        let take = || std::mem::take(&mut *transcript.lock().unwrap());
        let mut delivered = (0..3).map(|_| Transport::<Fp61>::recv(&mut t));
        let first = delivered.next().unwrap().unwrap().unwrap();
        assert!(delivered.next().unwrap().is_err(), "client 0's share");
        let third = delivered.next().unwrap().unwrap().unwrap();
        assert_eq!(take(), vec![frame(first), frame(third)]);
        let rest: Vec<_> = drain(&mut t)
            .into_iter()
            .map(|d| frame(d.unwrap()))
            .collect();
        assert_eq!(rest.len(), 5);
        assert_eq!(take(), rest);
        assert!(take().is_empty());
    }

    #[test]
    fn sim_transport_delivers_only_after_flush() {
        let mut t = SimTransport::new(NetworkConfig::mbps(2, 100.0, 1000.0, 0.001), Duplex::Full);
        Transport::<Fp61>::send(&mut t, Recipient::Client(0), Recipient::Server, &env(0, 4))
            .unwrap();
        assert!(Transport::<Fp61>::recv(&mut t).unwrap().is_none());
        Transport::<Fp61>::flush(&mut t, "upload");
        let d: Delivery<Fp61> = t.recv().unwrap().unwrap();
        assert_eq!(d.envelope, env(0, 4));
        assert!(t.elapsed() > 0.0);
    }

    #[test]
    fn sim_phase_time_scales_with_envelope_bytes() {
        let cfg = NetworkConfig::mbps(1, 8.0, 80.0, 0.0);
        let mut small = SimTransport::new(cfg, Duplex::Full);
        Transport::<Fp61>::send(
            &mut small,
            Recipient::Client(0),
            Recipient::Server,
            &env(0, 100),
        )
        .unwrap();
        Transport::<Fp61>::flush(&mut small, "upload");

        let mut big = SimTransport::new(cfg, Duplex::Full);
        Transport::<Fp61>::send(
            &mut big,
            Recipient::Client(0),
            Recipient::Server,
            &env(0, 10_000),
        )
        .unwrap();
        Transport::<Fp61>::flush(&mut big, "upload");

        let t_small = small.timings()[0].duration();
        let t_big = big.timings()[0].duration();
        // 1 MB/s link: durations are bytes/1e6 seconds — ratio tracks the
        // actual serialized sizes (envelope headers included)
        let expected = env(0, 10_000).wire_len() as f64 / env(0, 100).wire_len() as f64;
        assert!(
            (t_big / t_small - expected).abs() < 0.01,
            "ratio {} vs {expected}",
            t_big / t_small
        );
        assert_eq!(big.timings()[0].bytes, env(0, 10_000).wire_len());
    }

    #[test]
    fn tcp_transport_roundtrips_envelopes_over_loopback() {
        let mut server = TcpTransport::bind(NodeId::Server, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = TcpTransport::new(NodeId::Client(2));
        client
            .dial_retry(NodeId::Server, addr, std::time::Duration::from_secs(5))
            .unwrap();
        Transport::<Fp61>::send(
            &mut client,
            Recipient::Client(2),
            Recipient::Server,
            &env(2, 16),
        )
        .unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let d: Delivery<Fp61> = loop {
            if let Some(d) = Transport::<Fp61>::recv(&mut server).unwrap() {
                break d;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no delivery within 5s"
            );
            std::thread::yield_now();
        };
        assert_eq!(d.from, Recipient::Client(2));
        assert_eq!(d.to, Recipient::Server);
        assert_eq!(d.envelope, env(2, 16));
        assert_eq!(d.wire_bytes, env(2, 16).wire_len());
        assert_eq!(
            Transport::<Fp61>::bytes_sent(&client),
            env(2, 16).wire_len()
        );
    }

    #[test]
    fn deliveries_ordered_by_arrival_time() {
        // distinct receive channels: client 1's upload to the server is
        // 500× larger than client 0's message to client 1, so the latter
        // arrives first even though it was sent second
        let mut t = SimTransport::new(NetworkConfig::mbps(2, 8.0, 800.0, 0.0), Duplex::Full);
        Transport::<Fp61>::send(
            &mut t,
            Recipient::Client(1),
            Recipient::Server,
            &env(1, 5000),
        )
        .unwrap();
        Transport::<Fp61>::send(
            &mut t,
            Recipient::Client(0),
            Recipient::Client(1),
            &env(0, 10),
        )
        .unwrap();
        Transport::<Fp61>::flush(&mut t, "mixed");
        let first: Delivery<Fp61> = t.recv().unwrap().unwrap();
        assert_eq!(first.from, Recipient::Client(0));
        assert_eq!(first.to, Recipient::Client(1));
    }
}
