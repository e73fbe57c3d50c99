//! Sans-IO protocol sessions: pure event-driven state machines.
//!
//! A session owns one endpoint's protocol state and *never* touches a
//! socket, a clock or an RNG while handling messages: you feed it
//! envelopes with [`Session::handle`], it returns the envelopes that
//! must be sent in response, and [`Session::poll_output`] drains
//! envelopes produced by local actions (construction, model upload,
//! phase close). All entropy is injected at construction, so a session's
//! behaviour is a deterministic function of its inputs — the property
//! that makes the protocol testable, replayable and portable across
//! transports (in-memory queues, the discrete-event simulator, or a real
//! network stack).
//!
//! # Sessions
//!
//! * [`crate::FederationClient`] — the persistent user of
//!   both variants: it holds each live round's state and routes its
//!   traffic by round id; [`crate::FederationClient::timestamped`]
//!   builds the buffered-asynchronous user (§4.2, Appendix F);
//! * [`crate::federation::FederationServer`] — the persistent server
//!   of both variants (§4.1, Algorithm 1), serving one round at a time;
//!   [`crate::FederationServer::timestamped`] builds the
//!   buffered-asynchronous one, which buffers updates from every base
//!   round up to the open one.
//!
//! # Example: pumping a session by hand
//!
//! ```
//! use lsa_protocol::session::{Recipient, Session};
//! use lsa_protocol::{FederationClient, FederationServer, LsaConfig};
//! use lsa_field::{Field, Fp61};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let cfg = LsaConfig::new(2, 0, 2, 4).unwrap();
//! let mut a = FederationClient::<Fp61>::new(0, cfg, StdRng::seed_from_u64(1)).unwrap();
//! let mut b = FederationClient::<Fp61>::new(1, cfg, StdRng::seed_from_u64(2)).unwrap();
//! let mut server = FederationServer::<Fp61>::new(cfg).unwrap();
//! server.open_round(0).unwrap();
//!
//! // offline: each client joins round 0 and emits its coded shares as
//! // they are polled
//! a.prepare(0).unwrap();
//! b.prepare(0).unwrap();
//! while let Some((to, env)) = a.poll_output() {
//!     assert_eq!(to, Recipient::Client(1));
//!     b.handle(env).unwrap();
//! }
//! while let Some((to, env)) = b.poll_output() {
//!     a.handle(env).unwrap();
//! }
//!
//! // upload + recovery
//! a.upload(0, &[Fp61::from_u64(1); 4]).unwrap();
//! b.upload(0, &[Fp61::from_u64(2); 4]).unwrap();
//! for c in [&mut a, &mut b] {
//!     while let Some((_, env)) = c.poll_output() {
//!         server.handle(env).unwrap();
//!     }
//! }
//! server.close_upload().unwrap();
//! while let Some((to, env)) = server.poll_output() {
//!     let c = if to == Recipient::Client(0) { &mut a } else { &mut b };
//!     for (_, reply) in c.handle(env).unwrap() {
//!         server.handle(reply).unwrap();
//!     }
//! }
//! let out = server.close_round().unwrap();
//! assert_eq!(out.contributors, vec![0, 1]);
//! assert_eq!(out.aggregate[0], Fp61::from_u64(3));
//! ```

use crate::wire::Envelope;
use crate::ProtocolError;
use lsa_field::Field;

/// A protocol endpoint address: where an envelope should be delivered.
/// The network's endpoint type, so every transport routes on it as is.
pub use lsa_net::NodeId as Recipient;

/// An envelope together with its destination.
pub(crate) type Outgoing<F> = (Recipient, Envelope<F>);

/// The uniform sans-IO interface every session implements.
pub trait Session<F: Field> {
    /// This session's own address.
    fn local_addr(&self) -> Recipient;

    /// Process one incoming envelope, returning the envelopes to send in
    /// response (possibly none).
    ///
    /// # Errors
    ///
    /// Every malformed input surfaces as a typed [`ProtocolError`]:
    /// misrouted shares, duplicates, wrong-phase messages and envelope
    /// kinds the endpoint never accepts
    /// ([`ProtocolError::UnexpectedEnvelope`]). Errors leave the session
    /// in its previous state; the offending envelope is discarded.
    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError>;

    /// Drain the next envelope produced by a local action (construction,
    /// upload, phase close). Returns `None` when the outbox is empty.
    fn poll_output(&mut self) -> Option<Outgoing<F>>;
}

#[cfg(test)]
mod tests {
    //! The endpoints ([`FederationClient`], [`FederationServer`]) seen
    //! through the [`Session`] interface (and the local actions).
    use super::*;
    use crate::wire::{BufferAnnouncement, CodedMaskShare, MaskedModel, SurvivorAnnouncement};
    use crate::{FederationClient, FederationServer, LsaConfig};
    use lsa_field::Fp61;
    use lsa_quantize::{QuantizedStaleness, StalenessFn};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> LsaConfig {
        LsaConfig::new(4, 1, 3, 6).unwrap()
    }

    /// Client `id`, its entropy seeded by `seed`, joined to round 0.
    fn joined(id: usize, seed: u64) -> FederationClient<Fp61> {
        let mut c = FederationClient::new(id, cfg(), StdRng::seed_from_u64(seed)).unwrap();
        c.prepare(0).unwrap();
        c
    }

    #[test]
    fn construction_queues_shares() {
        let mut c = joined(0, 1);
        let mut count = 0;
        while let Some((to, env)) = c.poll_output() {
            assert!(matches!(env, Envelope::CodedMaskShare(_)));
            assert_ne!(to, Recipient::Client(0));
            count += 1;
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn double_upload_rejected() {
        let mut c = joined(0, 2);
        c.upload(0, &[Fp61::ZERO; 6]).unwrap();
        assert!(matches!(
            c.upload(0, &[Fp61::ZERO; 6]),
            Err(ProtocolError::DuplicateMessage(0))
        ));
        // …also once the first upload has left the outbox, and a
        // rejected upload queues nothing
        while c.poll_output().is_some() {}
        assert!(matches!(
            c.upload(0, &[Fp61::ZERO; 6]),
            Err(ProtocolError::DuplicateMessage(0))
        ));
        assert!(c.poll_output().is_none());
    }

    #[test]
    fn client_rejects_server_bound_envelopes() {
        // server-bound kinds, and the other protocol's share and
        // announcement — for a round ahead too, so none is buffered: the
        // wire tag is the protocol
        let masked = MaskedModel {
            from: 1,
            group: 0,
            round: 0,
            payload: vec![Fp61::ZERO; cfg().padded_len()],
        };
        let share = CodedMaskShare {
            from: 1,
            to: 0,
            group: 0,
            round: 1,
            payload: vec![Fp61::ZERO; cfg().segment_len()],
        };
        let buffer = BufferAnnouncement {
            group: 0,
            round: 0,
            entries: Vec::new(),
        };
        let survivors = SurvivorAnnouncement {
            group: 0,
            round: 0,
            survivors: vec![0],
        };
        let mut timestamped =
            FederationClient::timestamped(0, cfg(), StdRng::seed_from_u64(3)).unwrap();
        timestamped.prepare(0).unwrap();
        let cases = [
            (
                joined(0, 3),
                [
                    Envelope::MaskedModel(masked.clone()),
                    Envelope::TimestampedShare(share.clone()),
                    Envelope::BufferAnnouncement(buffer),
                ],
            ),
            (
                timestamped,
                [
                    Envelope::TimestampedUpdate(masked),
                    Envelope::CodedMaskShare(share),
                    Envelope::SurvivorAnnouncement(survivors),
                ],
            ),
        ];
        for (mut c, inputs) in cases {
            for envelope in inputs {
                let kind = envelope.kind();
                assert_eq!(
                    c.handle(envelope).unwrap_err(),
                    ProtocolError::UnexpectedEnvelope { kind }
                );
            }
        }
    }

    #[test]
    fn server_rejects_client_bound_envelopes() {
        // client-bound kinds, and the other protocol's upload: the wire
        // tag is the protocol
        let ann = Envelope::SurvivorAnnouncement(SurvivorAnnouncement {
            group: 0,
            round: 0,
            survivors: vec![0, 1, 2],
        });
        let buffer = Envelope::BufferAnnouncement(BufferAnnouncement {
            group: 0,
            round: 0,
            entries: Vec::new(),
        });
        let masked = MaskedModel {
            from: 1,
            group: 0,
            round: 0,
            payload: vec![Fp61::ZERO; cfg().padded_len()],
        };
        let staleness = QuantizedStaleness::new(StalenessFn::Constant, 1);
        let entropy = StdRng::seed_from_u64(5);
        let cases = [
            (
                FederationServer::<Fp61>::new(cfg()).unwrap(),
                Envelope::TimestampedUpdate(masked.clone()),
            ),
            (
                FederationServer::timestamped(cfg(), 4, staleness, entropy).unwrap(),
                Envelope::MaskedModel(masked),
            ),
        ];
        for (mut s, upload) in cases {
            s.open_round(0).unwrap();
            for envelope in [ann.clone(), buffer.clone(), upload] {
                let kind = envelope.kind();
                assert_eq!(
                    s.handle(envelope).unwrap_err(),
                    ProtocolError::UnexpectedEnvelope { kind }
                );
            }
        }
    }

    #[test]
    fn full_round_through_sessions() {
        let cfg = cfg();
        let mut clients: Vec<FederationClient<Fp61>> =
            (0..4).map(|id| joined(id, 4 + id as u64)).collect();
        let mut server = FederationServer::<Fp61>::new(cfg).unwrap();
        server.open_round(0).unwrap();

        // offline exchange
        let mut pending = Vec::new();
        for c in clients.iter_mut() {
            while let Some(out) = c.poll_output() {
                pending.push(out);
            }
        }
        for (to, env) in pending {
            let Recipient::Client(i) = to else { panic!() };
            clients[i].handle(env).unwrap();
        }

        // upload
        for (i, c) in clients.iter_mut().enumerate() {
            c.upload(0, &[Fp61::from_u64(i as u64); 6]).unwrap();
            while let Some((to, env)) = c.poll_output() {
                assert_eq!(to, Recipient::Server);
                server.handle(env).unwrap();
            }
        }

        // recovery
        server.close_upload().unwrap();
        let mut announcements = Vec::new();
        while let Some(out) = server.poll_output() {
            announcements.push(out);
        }
        let mut replies = Vec::new();
        for (to, env) in announcements {
            let Recipient::Client(i) = to else { panic!() };
            for (_, reply) in clients[i].handle(env).unwrap() {
                server.handle(reply.clone()).unwrap();
                replies.push(reply);
            }
        }
        // the decode is lazy: the U-th share is only stored
        assert_eq!(server.shares_received(), 4);
        let out = server.close_round().unwrap();
        assert_eq!(
            (out.contributors, out.aggregate),
            (vec![0, 1, 2, 3], vec![Fp61::from_u64(6); 6])
        );
        // the round is over: a late share is stale and a second close
        // has no round to close; neither touches the spent sum
        assert_eq!(
            server.handle(replies[0].clone()).unwrap_err(),
            ProtocolError::StaleRound { got: 0, current: 0 }
        );
        assert_eq!(server.close_round().unwrap_err(), ProtocolError::WrongPhase);
    }
}
