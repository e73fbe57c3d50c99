//! End-to-end tests of the buffered-asynchronous protocol, including the
//! full quantize → mask → buffer → one-shot recover → dequantize path of
//! Appendix F.

use lsa_field::{Field, Fp61};
use lsa_protocol::asynchronous::BufferEntry;
use lsa_protocol::federation::{Federation, RoundPlan, SecureAggregator};
use lsa_protocol::transport::{Fault, MemTransport};
use lsa_protocol::{
    BufferedFederation, Envelope, EnvelopeKind, FederationClient, FederationServer, LsaConfig,
    ProtocolError, Recipient, Session, SyncFederation,
};
use lsa_quantize::{QuantizedStaleness, StalenessFn, VectorQuantizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 6;
const D_MODEL: usize = 12;

fn setup(rounds: u64) -> (LsaConfig, Vec<FederationClient<Fp61>>, StdRng) {
    let cfg = LsaConfig::new(N, 2, 4, D_MODEL).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let mut clients: Vec<FederationClient<Fp61>> = (0..N)
        .map(|id| FederationClient::timestamped(id, cfg, StdRng::seed_from_u64(rng.gen())).unwrap())
        .collect();
    // every client prepares masks for all rounds and exchanges shares
    for round in 0..rounds {
        let mut all = Vec::new();
        for c in clients.iter_mut() {
            c.prepare(round).unwrap();
            all.extend(std::iter::from_fn(|| c.poll_output()));
        }
        for (to, share) in all {
            let Recipient::Client(j) = to else {
                unreachable!()
            };
            clients[j].handle(share).unwrap();
        }
    }
    (cfg, clients, rng)
}

/// A §4.2 server with buffer size `k` and round `now` open.
fn server(
    cfg: LsaConfig,
    k: usize,
    staleness: QuantizedStaleness,
    now: u64,
) -> FederationServer<Fp61> {
    let entropy = StdRng::seed_from_u64(7);
    let mut server = FederationServer::timestamped(cfg, k, staleness, entropy).unwrap();
    server.open_round(now).unwrap();
    server
}

/// Client `client` uploads `update` under base round `round`, straight
/// into `server`.
fn upload(
    client: &mut FederationClient<Fp61>,
    server: &mut FederationServer<Fp61>,
    round: u64,
    update: &[Fp61],
) {
    client.upload(round, update).unwrap();
    while let Some((_, envelope)) = client.poll_output() {
        server.handle(envelope).unwrap();
    }
}

/// Announce the buffer, let the `answering` clients serve their
/// aggregated shares, and return the announced entries.
fn announce(
    server: &mut FederationServer<Fp61>,
    clients: &mut [FederationClient<Fp61>],
    answering: &[usize],
) -> Vec<BufferEntry> {
    server.close_upload().unwrap();
    let mut entries = Vec::new();
    while let Some((to, announcement)) = server.poll_output() {
        let (Recipient::Client(j), Envelope::BufferAnnouncement(ann)) = (to, &announcement) else {
            unreachable!()
        };
        entries.clone_from(&ann.entries);
        if answering.contains(&j) {
            for (_, reply) in clients[j].handle(announcement).unwrap() {
                server.handle(reply).unwrap();
            }
        }
    }
    entries
}

#[test]
fn mixed_round_masks_cancel_exactly() {
    // Users base their updates on different rounds; the weighted mask
    // aggregate must still cancel (commutativity of MDS coding and
    // addition — the heart of Appendix F).
    let (cfg, mut clients, _) = setup(3);
    let staleness = QuantizedStaleness::new(StalenessFn::Constant, 1);
    let mut server = server(cfg, 4, staleness, 2);

    // four users contribute, based on rounds 0..=2, current round 2
    let contributions = [(0usize, 0u64), (1, 1), (2, 2), (3, 0)];
    let mut updates: Vec<Vec<Fp61>> = Vec::new();
    for (i, &(id, round)) in contributions.iter().enumerate() {
        let update: Vec<Fp61> = (0..D_MODEL)
            .map(|k| Fp61::from_u64((100 * i + k) as u64))
            .collect();
        updates.push(update.clone());
        upload(&mut clients[id], &mut server, round, &update);
    }

    // any U = 4 users serve shares (including ones that didn't contribute)
    announce(&mut server, &mut clients, &[5, 4, 1, 0]);
    let agg = server.close_round().unwrap();
    assert_eq!(agg.total_weight, 4);
    for k in 0..D_MODEL {
        let want: Fp61 = updates.iter().map(|u| u[k]).sum();
        assert_eq!(agg.aggregate[k], want, "coordinate {k}");
    }
}

#[test]
fn staleness_weights_applied_in_field() {
    // Poly staleness with c_g = 4: τ=0 → weight 4, τ=1 → weight 2
    // (0.5·4), τ=3 → weight 1 (0.25·4): all exactly representable.
    let (cfg, mut clients, _) = setup(4);
    let staleness = QuantizedStaleness::new(StalenessFn::Poly { alpha: 1.0 }, 4);
    let now = 3u64;
    let mut server = server(cfg, 3, staleness, now);

    let contributions = [(0usize, 3u64), (1, 2), (2, 0)]; // τ = 0, 1, 3
    let mut updates: Vec<Vec<Fp61>> = Vec::new();
    for &(id, round) in &contributions {
        let update: Vec<Fp61> = (0..D_MODEL)
            .map(|k| Fp61::from_u64((id * 10 + k) as u64))
            .collect();
        updates.push(update.clone());
        upload(&mut clients[id], &mut server, round, &update);
    }
    let entries = announce(&mut server, &mut clients, &[0, 1, 2, 3]);
    let expected_weights = [4u64, 2, 1];
    for (e, &w) in entries.iter().zip(&expected_weights) {
        assert_eq!(e.weight, w, "entry {e:?}");
    }

    let agg = server.close_round().unwrap();
    assert_eq!(agg.total_weight, 7);
    for k in 0..D_MODEL {
        let want: Fp61 = updates
            .iter()
            .zip(&expected_weights)
            .map(|(u, &w)| u[k] * Fp61::from_u64(w))
            .sum();
        assert_eq!(agg.aggregate[k], want);
    }
}

#[test]
fn quantized_roundtrip_recovers_weighted_average() {
    // Full Appendix F path with real-valued updates.
    let (cfg, mut clients, mut rng) = setup(2);
    let staleness = QuantizedStaleness::new(StalenessFn::Constant, 1);
    let mut server = server(cfg, 3, staleness, 1);
    let quantizer = VectorQuantizer::new(1 << 20);

    let reals: Vec<Vec<f64>> = (0..3)
        .map(|i| {
            (0..D_MODEL)
                .map(|k| ((i * D_MODEL + k) as f64).sin() * 2.0)
                .collect()
        })
        .collect();
    for (i, real) in reals.iter().enumerate() {
        let q: Vec<Fp61> = quantizer.quantize(real, &mut rng);
        upload(&mut clients[i], &mut server, 1, &q);
    }
    announce(&mut server, &mut clients, &[0, 2, 3, 5]);
    let agg = server.close_round().unwrap();
    let avg = quantizer.dequantize_sum(&agg.aggregate, agg.total_weight);
    for k in 0..D_MODEL {
        let want: f64 = reals.iter().map(|r| r[k]).sum::<f64>() / 3.0;
        assert!(
            (avg[k] - want).abs() < 1e-4,
            "coord {k}: {} vs {want}",
            avg[k]
        );
    }
}

#[test]
fn server_reusable_across_buffer_flushes() {
    // a fresh base round per flush: a round's mask protects one upload
    let (cfg, mut clients, _) = setup(3);
    let staleness = QuantizedStaleness::new(StalenessFn::Constant, 1);
    let mut server = server(cfg, 2, staleness, 0);

    for flush in 0..3u64 {
        let round = flush;
        if flush > 0 {
            server.open_round(round).unwrap();
        }
        for id in [0usize, 1] {
            let update: Vec<Fp61> = vec![Fp61::from_u64(flush + 1); D_MODEL];
            upload(&mut clients[id], &mut server, round, &update);
        }
        announce(&mut server, &mut clients, &[0, 1, 2, 3]);
        let agg = server.close_round().unwrap();
        assert_eq!(agg.aggregate[0], Fp61::from_u64(2 * (flush + 1)));
    }
}

#[test]
fn redelivered_upload_is_rejected_and_the_sum_stays_exact() {
    // the second copy of client 0's upload is refused typed instead of
    // being summed twice, and the federation goes on exactly
    let cfg = LsaConfig::new(4, 1, 3, 5).unwrap();
    let updates: Vec<Vec<Fp61>> = (1..=4u64).map(|v| vec![Fp61::from_u64(v); 5]).collect();
    let sum = vec![Fp61::from_u64(10); 5];
    let wire = |upload| {
        let mut wire = MemTransport::new();
        wire.inject(Fault::Duplicate, upload, None, 0);
        wire
    };
    let leaves: [(&str, Box<dyn SecureAggregator<Fp61>>); 2] = [
        (
            "buffered",
            Box::new(
                BufferedFederation::unit_weight(cfg, wire(EnvelopeKind::TimestampedUpdate), 3)
                    .unwrap(),
            ),
        ),
        (
            "sync",
            Box::new(SyncFederation::new(cfg, wire(EnvelopeKind::MaskedModel), 3).unwrap()),
        ),
    ];
    for (name, leaf) in leaves {
        let mut fed = Federation::new(leaf);
        let agg = fed.aggregator_mut();
        agg.open_round(&[0, 1, 2, 3]).unwrap();
        assert_eq!(
            agg.submit(0, &updates[0]),
            Err(ProtocolError::DuplicateMessage(0)),
            "{name}"
        );
        for (id, update) in updates.iter().enumerate().skip(1) {
            agg.submit(id, update).unwrap();
        }
        let out = agg.finish_round().unwrap();
        assert_eq!(
            out.aggregate, sum,
            "{name}: the first copy is in the sum once"
        );
        assert_eq!(out.total_weight, 4, "{name}");

        let next = fed
            .run_round(&RoundPlan::full(4).with_updates(updates.clone()))
            .unwrap();
        assert_eq!(next.aggregate, sum, "{name}");
        assert_eq!(next.total_weight, 4, "{name}");
    }
}
