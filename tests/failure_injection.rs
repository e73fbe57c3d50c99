//! Failure injection: malformed, duplicated, misrouted and corrupted
//! messages must yield clean errors — never a silently wrong aggregate.
//!
//! Every envelope reaches the server through the sans-IO
//! [`Session::handle`] interface, the deployed path; the second half
//! drives the client sessions the same way. Every misrouted, duplicate
//! or wrong-phase *envelope* must surface as a typed [`ProtocolError`],
//! never a panic or a silent drop. The ingress quota is checked on the
//! §4.1 and the §4.2 server alike.

use lightsecagg::field::{Field, Fp61};
use lightsecagg::protocol::session::Session;
use lightsecagg::protocol::wire::{Envelope, EnvelopeKind, SurvivorAnnouncement};
use lightsecagg::protocol::{
    AggregatedShare, CodedMaskShare, FederationClient, FederationServer, LsaConfig, MaskedModel,
    ProtocolError, Recipient,
};
use lightsecagg::quantize::{QuantizedStaleness, StalenessFn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg() -> LsaConfig {
    LsaConfig::new(5, 1, 3, 8).unwrap()
}

/// A client constructor: [`FederationClient::new`] (§4.1) or
/// [`FederationClient::timestamped`] (§4.2).
type NewClient = fn(usize, LsaConfig, StdRng) -> Result<FederationClient<Fp61>, ProtocolError>;

/// Five clients, their entropy drawn from `seed`, after round 0's full
/// offline exchange.
fn built_clients(seed: u64) -> Vec<FederationClient<Fp61>> {
    built_clients_of(seed, FederationClient::new)
}

/// As [`built_clients`], each built by `new`.
fn built_clients_of(seed: u64, new: NewClient) -> Vec<FederationClient<Fp61>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clients: Vec<FederationClient<Fp61>> = (0..5)
        .map(|id| {
            let mut c = new(id, cfg(), StdRng::seed_from_u64(rng.gen())).unwrap();
            c.prepare(0).unwrap();
            c
        })
        .collect();
    let mut pending = Vec::new();
    for c in clients.iter_mut() {
        while let Some(out) = c.poll_output() {
            pending.push(out);
        }
    }
    for (to, env) in pending {
        let Recipient::Client(j) = to else {
            panic!("offline shares go to clients")
        };
        clients[j].handle(env).unwrap();
    }
    clients
}

/// The §4.1 server with round `round` open.
fn server_at(round: u64) -> FederationServer<Fp61> {
    let mut server = FederationServer::new(cfg()).unwrap();
    server.open_round(round).unwrap();
    server
}

/// Client `c`'s masked `model` for round 0, as the envelope it sends.
fn masked(c: &mut FederationClient<Fp61>, model: &[Fp61]) -> Envelope<Fp61> {
    c.upload(0, model).unwrap();
    let (to, env) = c.poll_output().expect("the upload is queued");
    assert_eq!(to, Recipient::Server);
    env
}

/// Deliver client `c`'s masked `model` to the server.
fn upload(server: &mut FederationServer<Fp61>, c: &mut FederationClient<Fp61>, model: &[Fp61]) {
    server.handle(masked(c, model)).unwrap();
}

/// Client `c`'s aggregated share for `survivors`, as an envelope.
fn share_of(c: &mut FederationClient<Fp61>, survivors: &[usize]) -> Envelope<Fp61> {
    let ann = SurvivorAnnouncement {
        group: 0,
        round: 0,
        survivors: survivors.to_vec(),
    };
    let mut reply = c.handle(Envelope::SurvivorAnnouncement(ann)).unwrap();
    assert_eq!(reply.len(), 1, "one aggregated share");
    reply.remove(0).1
}

#[test]
fn truncated_masked_model_rejected() {
    let mut server = server_at(0);
    let msg = MaskedModel {
        from: 0,
        group: 0,
        round: 0,
        payload: vec![Fp61::ZERO; 3], // wrong length
    };
    assert!(matches!(
        server.handle(Envelope::MaskedModel(msg)),
        Err(ProtocolError::Coding(_))
    ));
}

#[test]
fn corrupted_share_changes_aggregate_but_protocol_detects_shape_errors() {
    // A share with the right length but corrupted content cannot be
    // *detected* information-theoretically (any vector is plausible) —
    // but every SHAPE violation must be caught. This test documents the
    // boundary: wrong length → error; extra shares → ignored.
    let mut clients = built_clients(1);
    let mut server = server_at(0);
    let models: Vec<Vec<Fp61>> = (0..5).map(|_| vec![Fp61::ONE; 8]).collect();
    for (id, c) in clients.iter_mut().enumerate() {
        upload(&mut server, c, &models[id]);
    }
    let survivors = server.close_upload().unwrap();

    // wrong-length aggregated share rejected
    let bad = AggregatedShare {
        from: 0,
        group: 0,
        round: 0,
        payload: vec![Fp61::ZERO; 1],
    };
    assert!(matches!(
        server.handle(Envelope::AggregatedShare(bad)),
        Err(ProtocolError::Coding(_))
    ));

    // correct shares still recover the exact aggregate afterwards
    for c in &mut clients {
        server.handle(share_of(c, &survivors)).unwrap();
        if server.shares_received() == cfg().u() {
            break;
        }
    }
    let agg = server.close_round().unwrap().aggregate;
    assert_eq!(agg, vec![Fp61::from_u64(5); 8]);
}

#[test]
fn extra_shares_beyond_u_are_harmless() {
    let mut clients = built_clients(2);
    let mut server = server_at(0);
    let models: Vec<Vec<Fp61>> = (0..5).map(|i| vec![Fp61::from_u64(i as u64); 8]).collect();
    for (id, c) in clients.iter_mut().enumerate() {
        upload(&mut server, c, &models[id]);
    }
    let survivors = server.close_upload().unwrap();
    // all five survivors send although U = 3 suffice
    for c in &mut clients {
        let _ = server.handle(share_of(c, &survivors));
    }
    let agg = server.close_round().unwrap().aggregate;
    let want: Fp61 = (0..5).map(Fp61::from_u64).sum();
    assert_eq!(agg, vec![want; 8]);
}

#[test]
fn double_close_of_upload_phase_rejected() {
    let mut clients = built_clients(3);
    let mut server = server_at(0);
    for c in clients.iter_mut().take(4) {
        upload(&mut server, c, &[Fp61::ZERO; 8]);
    }
    server.close_upload().unwrap();
    assert!(matches!(
        server.close_upload(),
        Err(ProtocolError::WrongPhase)
    ));
    // late masked model after close also rejected
    let late = masked(&mut clients[4], &[Fp61::ZERO; 8]);
    assert!(matches!(
        server.handle(late),
        Err(ProtocolError::WrongPhase)
    ));
}

#[test]
fn weighted_models_recover_weighted_sum() {
    // Remark 3 end-to-end through the public API: each user scales its
    // model by its weight before masking; the masks are shared unscaled.
    let mut clients = built_clients(4);
    let mut server = server_at(0);
    let weights = [5u64, 1, 3, 2, 4];
    let model = [Fp61::ONE; 8];
    for (c, &w) in clients.iter_mut().zip(&weights) {
        let weighted: Vec<Fp61> = model.iter().map(|&x| x * Fp61::from_u64(w)).collect();
        upload(&mut server, c, &weighted);
    }
    let survivors = server.close_upload().unwrap();
    for c in &mut clients {
        server.handle(share_of(c, &survivors)).unwrap();
        if server.shares_received() == cfg().u() {
            break;
        }
    }
    let agg = server.close_round().unwrap().aggregate;
    let total: u64 = weights.iter().sum();
    assert_eq!(agg, vec![Fp61::from_u64(total); 8]);
}

// ---------------------------------------------------------------------
// Session-level failure injection: every malformed envelope through
// `handle()` yields a typed error.
// ---------------------------------------------------------------------

fn built_sessions(seed: u64) -> (Vec<FederationClient<Fp61>>, FederationServer<Fp61>) {
    (built_clients(seed), server_at(0))
}

#[test]
fn misrouted_envelope_yields_typed_error() {
    let (mut clients, _server) = built_sessions(10);
    // a share addressed to user 2, delivered to user 1's session
    let share = Envelope::CodedMaskShare(CodedMaskShare {
        from: 0,
        to: 2,
        group: 0,
        round: 0,
        payload: vec![Fp61::ZERO; cfg().segment_len()],
    });
    assert!(matches!(
        clients[1].handle(share),
        Err(ProtocolError::MisroutedShare {
            expected: 1,
            got: 2
        })
    ));
}

#[test]
fn duplicate_envelope_yields_typed_error() {
    let (mut clients, mut server) = built_sessions(11);
    // duplicate coded share: user 1 already holds user 0's share
    let dup = Envelope::CodedMaskShare(CodedMaskShare {
        from: 0,
        to: 1,
        group: 0,
        round: 0,
        payload: vec![Fp61::ZERO; cfg().segment_len()],
    });
    assert!(matches!(
        clients[1].handle(dup),
        Err(ProtocolError::DuplicateMessage(0))
    ));
    // duplicate masked model at the server
    let upload = masked(&mut clients[0], &[Fp61::ZERO; 8]);
    server.handle(upload.clone()).unwrap();
    assert!(matches!(
        server.handle(upload),
        Err(ProtocolError::DuplicateMessage(0))
    ));
}

#[test]
fn wrong_phase_envelope_yields_typed_error() {
    let (clients, mut server) = built_sessions(12);
    // an aggregated share before the upload phase closed
    let early = Envelope::AggregatedShare(AggregatedShare {
        from: 0,
        group: 0,
        round: 0,
        payload: vec![Fp61::ZERO; cfg().segment_len()],
    });
    assert!(matches!(
        server.handle(early),
        Err(ProtocolError::WrongPhase)
    ));
    drop(clients);
}

#[test]
fn wrong_endpoint_envelope_yields_typed_error() {
    let (mut clients, mut server) = built_sessions(13);
    // a survivor announcement delivered to the *server* is nonsense
    let ann = Envelope::SurvivorAnnouncement(SurvivorAnnouncement {
        group: 0,
        round: 0,
        survivors: vec![0, 1, 2],
    });
    assert!(matches!(
        server.handle(ann),
        Err(ProtocolError::UnexpectedEnvelope {
            kind: EnvelopeKind::SurvivorAnnouncement
        })
    ));
    // a masked model delivered to a *client* likewise
    let model = Envelope::MaskedModel(MaskedModel {
        from: 2,
        group: 0,
        round: 0,
        payload: vec![Fp61::ZERO; cfg().padded_len()],
    });
    assert!(matches!(
        clients[0].handle(model),
        Err(ProtocolError::UnexpectedEnvelope {
            kind: EnvelopeKind::MaskedModel
        })
    ));
}

#[test]
fn corrupted_wire_bytes_yield_typed_error() {
    // a truncated envelope surfaces as ProtocolError::Wire through the
    // transport, never a panic
    use lightsecagg::protocol::wire::WireError;
    let env: Envelope<Fp61> = Envelope::MaskedModel(MaskedModel {
        from: 0,
        group: 0,
        round: 0,
        payload: vec![Fp61::ONE; cfg().padded_len()],
    });
    let bytes = env.to_bytes();
    let err = Envelope::<Fp61>::from_bytes(&bytes[..bytes.len() - 3]).unwrap_err();
    assert!(matches!(err, WireError::Truncated { .. }));
    let wrapped: ProtocolError = err.into();
    assert!(matches!(wrapped, ProtocolError::Wire(_)));
}

#[test]
fn unknown_user_envelope_yields_typed_error() {
    let (_, mut server) = built_sessions(14);
    let ghost = Envelope::MaskedModel(MaskedModel {
        from: 99,
        group: 0,
        round: 0,
        payload: vec![Fp61::ZERO; cfg().padded_len()],
    });
    assert!(matches!(
        server.handle(ghost),
        Err(ProtocolError::UnknownUser(99))
    ));
}

#[test]
fn failed_handle_leaves_session_usable() {
    // after rejecting garbage, the round still completes exactly
    let (mut clients, mut server) = built_sessions(15);
    let garbage = Envelope::AggregatedShare(AggregatedShare {
        from: 0,
        group: 0,
        round: 0,
        payload: vec![Fp61::ZERO; 1],
    });
    assert!(server.handle(garbage).is_err());

    for (i, c) in clients.iter_mut().enumerate() {
        upload(&mut server, c, &[Fp61::from_u64(i as u64); 8]);
    }
    server.close_upload().unwrap();
    let mut anns = Vec::new();
    while let Some(out) = server.poll_output() {
        anns.push(out);
    }
    for (to, env) in anns {
        let Recipient::Client(j) = to else { panic!() };
        for (_, reply) in clients[j].handle(env).unwrap() {
            server.handle(reply).unwrap();
        }
    }
    let want: Fp61 = (0..5).map(Fp61::from_u64).sum();
    assert_eq!(server.close_round().unwrap().aggregate, vec![want; 8]);
}

// ---------------------------------------------------------------------
// Multi-round failure injection: churn across rounds and cross-round
// replays through the Federation API.
// ---------------------------------------------------------------------

use lightsecagg::protocol::federation::{
    BufferedFederation, Federation, RoundPlan, SyncFederation,
};
use lightsecagg::protocol::transport::MemTransport;

fn federations() -> Vec<(&'static str, Federation<Fp61>)> {
    vec![
        (
            "sync",
            Federation::new(Box::new(
                SyncFederation::new(cfg(), MemTransport::new(), 20).unwrap(),
            )),
        ),
        (
            "buffered",
            Federation::new(Box::new(
                BufferedFederation::unit_weight(cfg(), MemTransport::new(), 21).unwrap(),
            )),
        ),
    ]
}

#[test]
fn client_drops_in_round_t_and_rejoins_in_round_t_plus_1() {
    // Round t: client 4 uploads, then vanishes (serves no recovery).
    // Round t+1: it rejoins the cohort with fresh masks and contributes
    // again. Both rounds recover exactly — churn never corrupts an
    // aggregate.
    for (name, mut fed) in federations() {
        let ones = vec![Fp61::ONE; 8];
        let round_t = RoundPlan::new(vec![0, 1, 2, 3, 4])
            .with_uniform_updates(ones.clone())
            .with_drop_after_upload(4);
        let out_t = fed.run_round(&round_t).unwrap();
        // the vanished client's upload is still in the aggregate (§7.1)
        assert_eq!(out_t.aggregate, vec![Fp61::from_u64(5); 8], "{name}");

        let round_t1 = RoundPlan::new(vec![0, 1, 2, 3, 4]).with_uniform_updates(ones);
        let out_t1 = fed.run_round(&round_t1).unwrap();
        assert_eq!(out_t1.round, out_t.round + 1, "{name}");
        assert!(out_t1.contributors.contains(&4), "{name}: rejoin failed");
        assert_eq!(out_t1.aggregate, vec![Fp61::from_u64(5); 8], "{name}");
    }
}

#[test]
fn client_absent_for_a_round_then_rejoins() {
    // Leave/rejoin churn: client 2 sits out round t+1 entirely (not in
    // the cohort), then returns in round t+2.
    for (name, mut fed) in federations() {
        let full: Vec<usize> = (0..5).collect();
        let reduced = vec![0usize, 1, 3, 4];
        let ones = vec![Fp61::ONE; 8];
        fed.run_round(&RoundPlan::new(full.clone()).with_uniform_updates(ones.clone()))
            .unwrap();
        let absent = fed
            .run_round(&RoundPlan::new(reduced.clone()).with_uniform_updates(ones.clone()))
            .unwrap();
        assert_eq!(absent.contributors, reduced, "{name}");
        let rejoined = fed
            .run_round(&RoundPlan::new(full.clone()).with_uniform_updates(ones))
            .unwrap();
        assert_eq!(rejoined.contributors, full, "{name}");
    }
}

#[test]
fn sync_envelope_replayed_into_next_round_rejected_as_stale() {
    // Capture a round-0 masked-model envelope off the wire, then replay
    // it into the round-1 server: it must surface as StaleRound — a
    // *typed* cross-round rejection, distinct from DuplicateMessage.
    let mut client_r0 = FederationClient::<Fp61>::new(0, cfg(), StdRng::seed_from_u64(30)).unwrap();
    client_r0.prepare(0).unwrap();
    while client_r0.poll_output().is_some() {} // discard offline shares
    let replayed = masked(&mut client_r0, &[Fp61::ONE; 8]);

    let mut server_r0 = server_at(0);
    server_r0.handle(replayed.clone()).unwrap();
    // same round, same envelope again → duplicate
    assert!(matches!(
        server_r0.handle(replayed.clone()),
        Err(ProtocolError::DuplicateMessage(0))
    ));
    // next round, replayed envelope → stale, NOT duplicate
    let mut server_r1 = server_at(1);
    assert!(matches!(
        server_r1.handle(replayed),
        Err(ProtocolError::StaleRound { got: 0, current: 1 })
    ));
}

#[test]
fn replayed_coded_share_and_announcement_also_stale() {
    let mut rng = StdRng::seed_from_u64(31);
    // a round-0 coded share delivered to a client on round 1
    let mut sender_r0 =
        FederationClient::<Fp61>::new(0, cfg(), StdRng::seed_from_u64(rng.gen())).unwrap();
    sender_r0.prepare(0).unwrap();
    let share = loop {
        let (to, env) = sender_r0.poll_output().unwrap();
        if to == Recipient::Client(1) {
            break env;
        }
    };
    let mut receiver_r1 =
        FederationClient::<Fp61>::new(1, cfg(), StdRng::seed_from_u64(rng.gen())).unwrap();
    receiver_r1.prepare(1).unwrap();
    assert!(matches!(
        receiver_r1.handle(share),
        Err(ProtocolError::StaleRound { got: 0, current: 1 })
    ));
    // a round-0 survivor announcement into a client on round 1
    let stale_ann = Envelope::SurvivorAnnouncement(SurvivorAnnouncement {
        group: 0,
        round: 0,
        survivors: vec![0, 1, 2],
    });
    assert!(matches!(
        receiver_r1.handle(stale_ann),
        Err(ProtocolError::StaleRound { got: 0, current: 1 })
    ));
}

#[test]
fn aggregate_differs_from_any_individual_model() {
    // sanity: the server output is the sum, not any single model leak
    let mut rng = StdRng::seed_from_u64(9);
    let models: Vec<Vec<Fp61>> = (0..5)
        .map(|_| lsa_field::ops::random_vector(8, &mut rng))
        .collect();
    let sync = SyncFederation::new(cfg(), MemTransport::new(), 9).unwrap();
    let out = Federation::new(Box::new(sync))
        .run_round(&RoundPlan::full(5).with_updates(models.clone()))
        .unwrap();
    for m in &models {
        assert_ne!(&out.aggregate, m);
    }
}

// ---------------------------------------------------------------------
// Per-client ingress quota: a flooding client is struck, typed-errored
// once at the quota crossing, then silently quarantined — and the round
// completes without it.
// ---------------------------------------------------------------------

use lightsecagg::protocol::federation::DEFAULT_INGRESS_QUOTA;

/// The tag a server takes uploads under.
type UploadTag = fn(MaskedModel<Fp61>) -> Envelope<Fp61>;

/// The §4.1 and the §4.2 server, each with round 0 open, with the tag
/// its uploads travel under and the constructor of its clients.
fn both_servers() -> [(&'static str, FederationServer<Fp61>, UploadTag, NewClient); 2] {
    let staleness = QuantizedStaleness::new(StalenessFn::Constant, 1);
    let mut buffered =
        FederationServer::timestamped(cfg(), 5, staleness, StdRng::seed_from_u64(50)).unwrap();
    buffered.open_round(0).unwrap();
    [
        (
            "sync",
            server_at(0),
            Envelope::MaskedModel,
            FederationClient::new,
        ),
        (
            "timestamped",
            buffered,
            Envelope::TimestampedUpdate,
            FederationClient::timestamped,
        ),
    ]
}

#[test]
fn flooding_client_is_quarantined_and_the_round_completes() {
    for (name, mut server, tag, new) in both_servers() {
        let quota = DEFAULT_INGRESS_QUOTA;
        assert!(quota >= 2);

        // The flood: endlessly repeated malformed uploads claiming to
        // come from client 3 (wrong payload length → typed Coding
        // rejection).
        let flood = || {
            tag(MaskedModel {
                from: 3,
                group: 0,
                round: 0,
                payload: vec![Fp61::ZERO; 3],
            })
        };
        // Below the quota every rejection surfaces with its own typed
        // error.
        for _ in 0..quota - 1 {
            assert!(
                matches!(server.handle(flood()), Err(ProtocolError::Coding(_))),
                "{name}"
            );
        }
        // The crossing envelope surfaces as the quota error, exactly
        // once.
        match server.handle(flood()) {
            Err(ProtocolError::QuotaExceeded {
                client,
                strikes,
                cap,
            }) => {
                assert_eq!(client, 3, "{name}");
                assert_eq!(strikes, quota, "{name}");
                assert_eq!(cap, quota, "{name}");
            }
            other => panic!("{name}: expected QuotaExceeded, got {other:?}"),
        }
        assert_eq!(server.rejections(), quota, "{name}");
        // Everything further from the flooder is silently discarded —
        // an erroring server would let the flood wedge the round
        // instead.
        for _ in 0..20 {
            assert!(server.handle(flood()).unwrap().is_empty(), "{name}");
        }
        assert_eq!(server.quarantined(), 20, "{name}");

        // The round completes without the flooder: its own (valid!)
        // upload is quarantined too, so it drops before upload; the
        // other four survivors recover their exact sum.
        let mut clients = built_clients_of(40, new);
        let models: Vec<Vec<Fp61>> = (0..5).map(|i| vec![Fp61::from_u64(i as u64); 8]).collect();
        for (id, c) in clients.iter_mut().enumerate() {
            let upload = masked(c, &models[id]);
            assert!(server.handle(upload).unwrap().is_empty(), "{name}");
        }
        assert_eq!(
            server.quarantined(),
            21,
            "{name}: the flooder's upload was binned"
        );
        let survivors = server.close_upload().unwrap();
        assert_eq!(survivors, vec![0, 1, 2, 4], "{name}");
        while let Some((to, announcement)) = server.poll_output() {
            let Recipient::Client(j) = to else {
                panic!("{name}: announcements go to clients")
            };
            if survivors.contains(&j) {
                for (_, share) in clients[j].handle(announcement).unwrap() {
                    server.handle(share).unwrap();
                }
            }
        }
        let aggregate = server.close_round().unwrap().aggregate;
        let want: Fp61 = [0u64, 1, 2, 4].iter().map(|&i| Fp61::from_u64(i)).sum();
        assert_eq!(aggregate, vec![want; 8], "{name}");
    }
}

#[test]
fn quota_is_per_round() {
    for (name, mut server, tag, _) in both_servers() {
        let flood = || {
            tag(MaskedModel {
                from: 1,
                group: 0,
                round: 0,
                payload: vec![Fp61::ZERO; 3],
            })
        };
        for _ in 0..DEFAULT_INGRESS_QUOTA - 1 {
            assert!(
                matches!(server.handle(flood()), Err(ProtocolError::Coding(_))),
                "{name}"
            );
        }
        assert!(
            matches!(
                server.handle(flood()),
                Err(ProtocolError::QuotaExceeded { client: 1, .. })
            ),
            "{name}"
        );
        assert!(server.handle(flood()).unwrap().is_empty(), "{name}");

        // A fresh round wipes the strikes: the same client is heard
        // again.
        server.abort_round();
        server.open_round(1).unwrap();
        // §4.1 refuses any round but the open one; §4.2 only a later one
        let (round, stale) = if name == "sync" {
            (0, ProtocolError::StaleRound { got: 0, current: 1 })
        } else {
            (2, ProtocolError::StaleUpdate { round: 2, now: 1 })
        };
        let upload = tag(MaskedModel {
            from: 1,
            group: 0,
            round,
            payload: vec![Fp61::ZERO; 8],
        });
        // heard (and typed-rejected as stale), not silently quarantined
        assert_eq!(server.handle(upload).unwrap_err(), stale, "{name}");
    }
}

#[test]
fn telemetry_round_report_reaches_the_federation_api() {
    // The unified telemetry layer's top-level surface: after a round,
    // `Federation::last_report` carries phases-or-traffic and the
    // round's event counters (here: one after-upload dropout, no
    // rejections, nothing quarantined).
    for (name, mut fed) in federations() {
        let plan = RoundPlan::new(vec![0, 1, 2, 3, 4])
            .with_uniform_updates(vec![Fp61::ONE; 8])
            .with_drop_after_upload(2);
        fed.run_round(&plan).unwrap();
        let report = fed.last_report().expect("round produced a report");
        assert_eq!(report.events.dropouts, 1, "{name}");
        assert_eq!(report.events.rejections, 0, "{name}");
        assert_eq!(report.events.quarantined, 0, "{name}");
        assert!(report.envelopes > 0, "{name}: envelope traffic recorded");
        assert!(report.payload_bytes > 0, "{name}: payload bytes recorded");
    }
}
