//! Buffered-asynchronous LightSecAgg (§4.2 and Appendix F of the paper).
//!
//! The server buffers `K` masked local updates that may originate from
//! *different* global rounds (staleness `τ_i = t − t_i ≤ τ_max`). Because
//! MDS coding commutes with addition, users can aggregate their stored
//! coded masks `[~z_i^{(t_i)}]_j` with the *round-matched* timestamps the
//! server announces, and the server still recovers the (staleness-
//! weighted) aggregate mask in one shot — the property SecAgg/SecAgg+
//! fundamentally lack (Remark 1).
//!
//! Staleness compensation happens inside the field via the quantized
//! weights `s_{c_g}(τ)` of Eq. (34).
//!
//! §4.2 has no endpoints of its own: its user is
//! [`crate::FederationClient::timestamped`] and its server
//! [`crate::FederationServer::timestamped`], the §4.1 pair with the
//! timestamped wire tags, a buffer of `K` uploads weighted on receipt,
//! and a [`crate::wire::BufferAnnouncement`] to every user in place of
//! the survivor list. This module holds the §4.2 wire vocabulary and
//! [`run_buffered_flush`], which pumps one flush of stale contributions;
//! [`crate::federation::BufferedFederation`] runs the same endpoints at
//! `τ = 0` as a leaf of the round driver.

use crate::client::FederationClient;
use crate::config::LsaConfig;
use crate::federation::{drain_to, pump, FederationServer, RoundOutcome};
use crate::transport::Transport;
use crate::wire::{CodedMaskShare, MaskedModel};
use crate::ProtocolError;
use lsa_field::Field;
use lsa_quantize::QuantizedStaleness;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A coded mask share tagged with the round its mask was generated in
/// (Appendix F.3.1): the §4.1 share under its own wire tag. The
/// buffered variant runs flat, so its group is always 0 and a share
/// stamped otherwise is rejected as cross-group.
pub type TimestampedShare<F> = CodedMaskShare<F>;

/// A masked, quantized local update tagged with its base round `t_i`
/// (Appendix F.3.2), `~Δ_i = Δ̄_i + z_i^{(t_i)}`: the §4.1 upload under
/// its own wire tag.
pub type TimestampedUpdate<F> = MaskedModel<F>;

/// One buffered entry the server announces for mask aggregation:
/// user `who` contributed an update based on round `round`, to be weighted
/// by the integer staleness weight `weight` (`= s_{c_g}(t − round)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferEntry {
    /// Contributing user.
    pub who: usize,
    /// Base round of the contribution.
    pub round: u64,
    /// Integer staleness weight `c_g·Q_{c_g}(s(τ))`.
    pub weight: u64,
}

/// One buffered contribution fed to [`run_buffered_flush`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushInput<F> {
    /// The contributing user (buffer slot owner).
    pub slot: usize,
    /// The base round the update was computed from.
    pub round: u64,
    /// The quantized update (length `cfg.d()`).
    pub update: Vec<F>,
}

/// Thin driver: run one buffered-asynchronous flush over an explicit
/// [`Transport`], pumping fresh timestamped [`FederationClient`]s and
/// a timestamped [`FederationServer`] whose buffer holds exactly the
/// inputs.
///
/// Phase boundaries are flushed under the labels `"mask-exchange"`,
/// `"buffered-upload"`, `"buffer-announce"` and `"async-recovery"`. The
/// global round is `max` of the input rounds; each endpoint's entropy
/// stream is derived from `rng` at construction (the clients', then
/// the server's), after which message handling is deterministic. The
/// outcome's `aggregate` is `Σ w_i·Δ̄_i` and its `total_weight` the
/// normalizer `Σ w_i` of Eq. (37).
///
/// # Errors
///
/// Propagates any protocol error from the endpoints.
pub fn run_buffered_flush<F: Field, R: Rng + ?Sized, T: Transport<F>>(
    cfg: LsaConfig,
    inputs: &[FlushInput<F>],
    staleness: QuantizedStaleness,
    rng: &mut R,
    transport: &mut T,
) -> Result<RoundOutcome<F>, ProtocolError> {
    if inputs.is_empty() {
        return Err(ProtocolError::InvalidConfig("empty flush".into()));
    }
    let n = cfg.n();
    if let Some(bad) = inputs.iter().find(|i| i.slot >= n) {
        return Err(ProtocolError::UnknownUser(bad.slot));
    }
    let now = inputs.iter().map(|i| i.round).max().expect("non-empty");

    let mut clients: Vec<FederationClient<F>> = (0..n)
        .map(|id| FederationClient::timestamped(id, cfg, StdRng::seed_from_u64(rng.gen())))
        .collect::<Result<_, _>>()?;
    let entropy = StdRng::seed_from_u64(rng.gen());
    let mut server = FederationServer::timestamped(cfg, inputs.len(), staleness, entropy)?;
    server.open_round(now)?;

    // Offline: every user joins every base round of the flush before
    // anyone sends (a share must find its recipient's round open), and
    // the coded shares travel to every peer. Nobody vanishes mid-flush.
    let everyone: BTreeSet<usize> = (0..n).collect();
    let rounds: BTreeSet<u64> = inputs.iter().map(|i| i.round).collect();
    for client in clients.iter_mut() {
        for &round in &rounds {
            client.prepare(round)?;
        }
    }
    for client in clients.iter_mut() {
        drain_to(client, transport, &everyone)?;
    }
    transport.flush("mask-exchange");
    pump(transport, &mut server, &mut clients, &everyone)?;

    // Upload: masked, round-stamped updates.
    for input in inputs {
        clients[input.slot].upload(input.round, &input.update)?;
        drain_to(&mut clients[input.slot], transport, &everyone)?;
    }
    transport.flush("buffered-upload");
    pump(transport, &mut server, &mut clients, &everyone)?;

    // Recovery: announce the buffer, collect weighted aggregated shares.
    server.close_upload()?;
    drain_to(&mut server, transport, &everyone)?;
    transport.flush("buffer-announce");
    pump(transport, &mut server, &mut clients, &everyone)?;
    transport.flush("async-recovery");
    pump(transport, &mut server, &mut clients, &everyone)?;

    server.close_round()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Recipient, Session};
    use crate::wire::{AggregatedShare, BufferAnnouncement, Envelope};
    use lsa_field::Fp61;
    use lsa_quantize::StalenessFn;

    fn cfg() -> LsaConfig {
        LsaConfig::new(4, 1, 3, 6).unwrap()
    }

    fn staleness() -> QuantizedStaleness {
        QuantizedStaleness::new(StalenessFn::Constant, 1)
    }

    /// A §4.2 server with buffer size `buffer_size` and `round` open.
    fn server(buffer_size: usize, seed: u64, round: u64) -> FederationServer<Fp61> {
        let entropy = StdRng::seed_from_u64(seed);
        let mut server =
            FederationServer::timestamped(cfg(), buffer_size, staleness(), entropy).unwrap();
        server.open_round(round).unwrap();
        server
    }

    /// `cfg.n()` clients after the full offline exchange of every round
    /// in `rounds`.
    fn exchanged<F: Field>(
        cfg: LsaConfig,
        rounds: std::ops::Range<u64>,
        seed: u64,
    ) -> Vec<FederationClient<F>> {
        let mut clients: Vec<FederationClient<F>> = (0..cfg.n())
            .map(|id| {
                let entropy = StdRng::seed_from_u64(seed + id as u64);
                FederationClient::timestamped(id, cfg, entropy).unwrap()
            })
            .collect();
        for round in rounds {
            let mut pending = Vec::new();
            for c in clients.iter_mut() {
                c.prepare(round).unwrap();
                pending.extend(std::iter::from_fn(|| c.poll_output()));
            }
            for (to, share) in pending {
                let Recipient::Client(j) = to else {
                    unreachable!()
                };
                clients[j].handle(share).unwrap();
            }
        }
        clients
    }

    /// Client `c`'s upload of `update` under base round `round`.
    fn upload(c: &mut FederationClient<Fp61>, round: u64, update: &[Fp61]) -> Envelope<Fp61> {
        c.upload(round, update).unwrap();
        c.poll_output().unwrap().1
    }

    /// Deliver the server's queued announcements to the `answering`
    /// clients and their aggregated shares back.
    fn serve(
        server: &mut FederationServer<Fp61>,
        clients: &mut [FederationClient<Fp61>],
        answering: &[usize],
    ) {
        while let Some((to, announcement)) = server.poll_output() {
            let Recipient::Client(j) = to else {
                unreachable!()
            };
            if answering.contains(&j) {
                for (_, reply) in clients[j].handle(announcement).unwrap() {
                    server.handle(reply).unwrap();
                }
            }
        }
    }

    /// The entries the server announces, read off a copy of it.
    fn announced(server: &FederationServer<Fp61>) -> Vec<BufferEntry> {
        match server.clone().poll_output() {
            Some((_, Envelope::BufferAnnouncement(ann))) => ann.entries,
            other => panic!("expected a buffer announcement, got {other:?}"),
        }
    }

    #[test]
    fn update_from_future_rejected() {
        let mut server = server(2, 1, 3);
        let upd = TimestampedUpdate {
            from: 0,
            group: 0,
            round: 5,
            payload: vec![Fp61::ZERO; cfg().padded_len()],
        };
        assert!(matches!(
            server.handle(Envelope::TimestampedUpdate(upd)),
            Err(ProtocolError::StaleUpdate { round: 5, now: 3 })
        ));
    }

    #[test]
    fn buffer_fills_and_announces() {
        let mut server = server(2, 2, 1);
        assert!(matches!(
            server.close_upload(),
            Err(ProtocolError::WrongPhase)
        ));
        let update = |from, round| {
            Envelope::TimestampedUpdate(TimestampedUpdate {
                from,
                group: 0,
                round,
                payload: vec![Fp61::ZERO; cfg().padded_len()],
            })
        };
        for (id, round) in [(0usize, 0u64), (1, 1)] {
            server.handle(update(id, round)).unwrap();
        }
        // a full buffer takes no third upload
        assert_eq!(
            server.handle(update(2, 1)).unwrap_err(),
            ProtocolError::WrongPhase
        );
        assert_eq!(server.close_upload().unwrap(), vec![0, 1]);
        let entries = announced(&server);
        assert_eq!(entries.len(), 2);
        // constant staleness with c_g = 1 gives weight 1
        assert!(entries.iter().all(|e| e.weight == 1));
        // every user hears the buffer, in arrival order
        let mut heard = Vec::new();
        while let Some((to, env)) = server.poll_output() {
            let Envelope::BufferAnnouncement(ann) = env else {
                unreachable!()
            };
            assert_eq!(ann.entries, entries);
            heard.push(to);
        }
        assert_eq!(heard, (0..4).map(Recipient::Client).collect::<Vec<_>>());
    }

    #[test]
    fn client_discard_before_prunes() {
        let mut c =
            FederationClient::<Fp61>::timestamped(0, cfg(), StdRng::seed_from_u64(3)).unwrap();
        for round in 0..3 {
            c.prepare(round).unwrap();
        }
        assert_eq!(c.active_rounds(), 3);
        c.retire_below(2);
        assert_eq!(c.active_rounds(), 1);
        // masking with a pruned round now fails
        assert!(c.upload(0, &[Fp61::ZERO; 6]).is_err());
        assert!(c.upload(2, &[Fp61::ZERO; 6]).is_ok());
    }

    #[test]
    fn partial_flush_aggregates_fewer_than_k() {
        // §4.2: the group size may vary per round — a deadline flush with
        // 1 < K entries still recovers exactly.
        let cfg = cfg();
        let mut clients = exchanged::<Fp61>(cfg, 0..1, 9);
        let mut server = server(3, 9, 0);
        let update = vec![Fp61::from_u64(7); cfg.d()];
        server.handle(upload(&mut clients[0], 0, &update)).unwrap();
        // only 1 of 3 buffered; flush early
        server.close_upload().unwrap();
        assert_eq!(announced(&server).len(), 1);
        serve(&mut server, &mut clients, &[0, 1, 2]);
        let agg = server.close_round().unwrap();
        assert_eq!(agg.aggregate, update);
    }

    #[test]
    fn empty_partial_flush_rejected() {
        let mut server = server(3, 0, 0);
        assert!(matches!(
            server.close_upload(),
            Err(ProtocolError::WrongPhase)
        ));
    }

    #[test]
    fn duplicate_round_mask_rejected() {
        // one mask per round, and it protects one upload: masking two
        // different updates with it would hand the server their
        // difference
        let mut c =
            FederationClient::<Fp61>::timestamped(0, cfg(), StdRng::seed_from_u64(4)).unwrap();
        c.prepare(0).unwrap();
        assert!(c.prepare(0).is_err());
        c.upload(0, &[Fp61::ONE; 6]).unwrap();
        assert_eq!(
            c.upload(0, &[Fp61::ZERO; 6]),
            Err(ProtocolError::DuplicateMessage(0))
        );
    }

    #[test]
    fn redelivered_upload_is_rejected_and_summed_once() {
        // the same (client, base round) twice is a duplicate that leaves
        // the buffer as it was; the same client on another base round is
        // a second §4.2 contribution
        let cfg = cfg();
        let mut clients = exchanged::<Fp61>(cfg, 0..2, 41);
        let mut server = server(4, 42, 1);
        let ones = vec![Fp61::from_u64(1); cfg.d()];
        let first = upload(&mut clients[0], 0, &ones);
        server.handle(first.clone()).unwrap();
        assert_eq!(
            server.handle(first).unwrap_err(),
            ProtocolError::DuplicateMessage(0)
        );
        let twos = vec![Fp61::from_u64(2); cfg.d()];
        server.handle(upload(&mut clients[1], 0, &twos)).unwrap();
        let fours = vec![Fp61::from_u64(4); cfg.d()];
        server.handle(upload(&mut clients[0], 1, &fours)).unwrap();
        server.close_upload().unwrap();
        let buffered: Vec<(usize, u64)> = announced(&server)
            .iter()
            .map(|e| (e.who, e.round))
            .collect();
        assert_eq!(buffered, vec![(0, 0), (1, 0), (0, 1)]);
        serve(&mut server, &mut clients, &[0, 1, 2]);
        let agg = server.close_round().unwrap();
        assert_eq!(agg.aggregate, vec![Fp61::from_u64(7); cfg.d()]);
        assert_eq!(agg.total_weight, 3);
        assert_eq!(agg.contributors, vec![0, 1]);
    }

    #[test]
    fn buffered_envelope_is_checked_group_then_round_then_sender() {
        // through `Session::handle`: an envelope wrong in every way
        // reports its group, then its round, and only then its sender —
        // before and after the announcement
        let mut s = server(2, 5, 3);
        let upload = |group, round| {
            Envelope::TimestampedUpdate(TimestampedUpdate {
                from: 0,
                group,
                round,
                payload: vec![Fp61::ZERO; cfg().padded_len()],
            })
        };
        s.handle(upload(0, 3)).unwrap();
        assert_eq!(
            s.handle(upload(6, 9)).unwrap_err(),
            ProtocolError::WrongGroup {
                got: 6,
                expected: 0
            }
        );
        assert_eq!(
            s.handle(upload(0, 9)).unwrap_err(),
            ProtocolError::StaleUpdate { round: 9, now: 3 }
        );
        assert_eq!(
            s.handle(upload(0, 3)).unwrap_err(),
            ProtocolError::DuplicateMessage(0)
        );
        s.close_upload().unwrap();
        assert_eq!(
            s.handle(upload(6, 3)).unwrap_err(),
            ProtocolError::WrongGroup {
                got: 6,
                expected: 0
            }
        );
        let share = |from, group, round| {
            Envelope::AggregatedShare(AggregatedShare {
                from,
                group,
                round,
                payload: vec![Fp61::ZERO; cfg().segment_len()],
            })
        };
        assert_eq!(
            s.handle(share(9, 6, 99)).unwrap_err(),
            ProtocolError::WrongGroup {
                got: 6,
                expected: 0
            }
        );
        assert_eq!(
            s.handle(share(9, 0, 99)).unwrap_err(),
            ProtocolError::StaleRound {
                got: 99,
                current: 3
            }
        );
        assert_eq!(
            s.handle(share(9, 0, 3)).unwrap_err(),
            ProtocolError::UnknownUser(9)
        );
        s.handle(share(0, 0, 3)).unwrap();
        assert_eq!(
            s.handle(share(0, 0, 3)).unwrap_err(),
            ProtocolError::DuplicateMessage(0)
        );
    }

    #[test]
    fn announced_entry_named_twice_is_rejected_not_summed_twice() {
        // through `Session::handle`: a repeated (sender, base round) is
        // reported before any share is looked up, even one never
        // received; the same sender on another base round is not a
        // repeat
        let mut clients = exchanged::<Fp61>(cfg(), 0..2, 43);
        let ann = |entries: &[(usize, u64)]| {
            Envelope::BufferAnnouncement(BufferAnnouncement {
                group: 0,
                round: 1,
                entries: entries
                    .iter()
                    .map(|&(who, round)| BufferEntry {
                        who,
                        round,
                        weight: 1,
                    })
                    .collect(),
            })
        };
        let c = &mut clients[1];
        assert_eq!(
            c.handle(ann(&[(0, 0), (2, 0), (0, 0)])).unwrap_err(),
            ProtocolError::DuplicateMessage(0)
        );
        assert_eq!(
            c.handle(ann(&[(2, 1), (9, 0), (2, 1)])).unwrap_err(),
            ProtocolError::DuplicateMessage(2)
        );
        // none of the rejections cost the client anything
        let replies = c.handle(ann(&[(0, 0), (2, 0), (0, 1)])).unwrap();
        assert_eq!(replies.len(), 1);
    }

    #[test]
    fn buffered_flush_driver_recovers_weighted_sum() {
        // mixed base rounds through the session driver over a wire:
        // Poly staleness at c_g = 4 gives exact weights 4 (τ=0), 2 (τ=1)
        let cfg = LsaConfig::new(4, 1, 3, 6).unwrap();
        let staleness = QuantizedStaleness::new(lsa_quantize::StalenessFn::Poly { alpha: 1.0 }, 4);
        let inputs = vec![
            FlushInput {
                slot: 0,
                round: 1,
                update: vec![Fp61::from_u64(10); 6],
            },
            FlushInput {
                slot: 2,
                round: 0,
                update: vec![Fp61::from_u64(3); 6],
            },
        ];
        let mut rng = StdRng::seed_from_u64(20);
        let mut transport = crate::transport::MemTransport::new();
        let agg = run_buffered_flush(cfg, &inputs, staleness, &mut rng, &mut transport).unwrap();
        assert_eq!(agg.total_weight, 6);
        // 4·10 + 2·3 = 46 in every coordinate
        assert_eq!(agg.aggregate, vec![Fp61::from_u64(46); 6]);
        // every phase actually crossed the wire
        assert!(transport.messages_sent() > 0);
    }

    #[test]
    fn out_of_range_slot_rejected_not_panicking() {
        let cfg = LsaConfig::new(4, 1, 3, 6).unwrap();
        let inputs = vec![FlushInput {
            slot: 7,
            round: 0,
            update: vec![Fp61::ZERO; 6],
        }];
        let mut rng = StdRng::seed_from_u64(22);
        let mut transport = crate::transport::MemTransport::new();
        assert!(matches!(
            run_buffered_flush(cfg, &inputs, staleness(), &mut rng, &mut transport),
            Err(ProtocolError::UnknownUser(7))
        ));
    }

    #[test]
    fn empty_flush_rejected() {
        let cfg = LsaConfig::new(4, 1, 3, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let mut transport = crate::transport::MemTransport::new();
        assert!(matches!(
            run_buffered_flush::<Fp61, _, _>(cfg, &[], staleness(), &mut rng, &mut transport),
            Err(ProtocolError::InvalidConfig(_))
        ));
    }
}
