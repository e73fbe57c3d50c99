//! Cross-check: the federation — sans-IO sessions over a serialized
//! wire — produces **identical** aggregates and contributor sets to a
//! hand-routed flow of the same endpoints under identical dropout
//! schedules, over `MemTransport` both untimed and timed.

use lsa_field::{Field, Fp32, Fp61};
use lsa_net::{Duplex, NetworkConfig};
use lsa_protocol::transport::{MemTransport, Transport};
use lsa_protocol::{
    DropoutSchedule, Envelope, Federation, FederationClient, FederationServer, LsaConfig,
    Recipient, RoundOutcome, RoundPlan, RoundReport, Session, SurvivorAnnouncement, SyncFederation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference driver: direct `Vec` indexing over the
/// [`FederationClient`]s, each envelope handed straight to its
/// recipient — one `FederationServer` round, no wire, no transport.
/// Kept here as the behavioural oracle for the federation driver;
/// returns the aggregate and the survivor set.
fn legacy_hand_routed<F: Field, R: Rng + ?Sized>(
    cfg: LsaConfig,
    models: &[Vec<F>],
    dropouts: &DropoutSchedule,
    rng: &mut R,
) -> (Vec<F>, Vec<usize>) {
    let mut clients: Vec<FederationClient<F>> = (0..cfg.n())
        .map(|id| FederationClient::new(id, cfg, StdRng::seed_from_u64(rng.gen())).unwrap())
        .collect();
    let mut all_shares = Vec::new();
    for client in clients.iter_mut() {
        client.prepare(0).unwrap();
        all_shares.extend(std::iter::from_fn(|| client.poll_output()));
    }
    for (to, share) in all_shares {
        let Recipient::Client(j) = to else {
            panic!("offline shares go to clients")
        };
        clients[j].handle(share).unwrap();
    }

    let mut server = FederationServer::new(cfg).unwrap();
    server.open_round(0).unwrap();
    for (id, client) in clients.iter_mut().enumerate() {
        if dropouts.before_upload.contains(&id) {
            continue;
        }
        client.upload(0, &models[id]).unwrap();
        let (_, upload) = client.poll_output().unwrap();
        server.handle(upload).unwrap();
    }
    let survivors = server.close_upload().unwrap();
    for &id in &survivors {
        if dropouts.after_upload.contains(&id) {
            continue;
        }
        let ann = SurvivorAnnouncement {
            group: 0,
            round: 0,
            survivors: survivors.clone(),
        };
        for (_, share) in clients[id]
            .handle(Envelope::SurvivorAnnouncement(ann))
            .unwrap()
        {
            server.handle(share).unwrap();
        }
        if server.shares_received() == cfg.u() {
            break;
        }
    }
    let out = server.close_round().unwrap();
    assert_eq!(out.contributors, survivors);
    (out.aggregate, survivors)
}

/// The same schedule through a fresh federation over `transport` —
/// the plan loop every caller goes through — with the round's report.
fn federated<F: Field, T: Transport<F> + 'static>(
    cfg: LsaConfig,
    models: &[Vec<F>],
    dropouts: &DropoutSchedule,
    transport: T,
    seed: u64,
) -> (RoundOutcome<F>, RoundReport) {
    let sync = SyncFederation::new(cfg, transport, seed).unwrap();
    let mut fed = Federation::new(Box::new(sync));
    let out = fed
        .run_round(&RoundPlan::from_schedule(models, dropouts))
        .unwrap();
    let report = fed.last_report().expect("the round finished").clone();
    (out, report)
}

fn models<F: Field>(n: usize, d: usize, seed: u64) -> Vec<Vec<F>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| lsa_field::ops::random_vector(d, &mut rng))
        .collect()
}

fn schedules() -> Vec<DropoutSchedule> {
    vec![
        DropoutSchedule::none(),
        DropoutSchedule::before_upload(vec![2]),
        DropoutSchedule::after_upload(vec![0, 5]),
        DropoutSchedule {
            before_upload: vec![1],
            after_upload: vec![4],
        },
    ]
}

fn check_field<F: Field>(seed: u64) {
    let n = 8;
    let d = 23; // not divisible by U−T: exercises the padding path
    let cfg = LsaConfig::new(n, 2, 6, d).unwrap();
    let ms = models::<F>(n, d, seed);
    for sched in schedules() {
        let (aggregate, survivors) =
            legacy_hand_routed(cfg, &ms, &sched, &mut StdRng::seed_from_u64(seed));

        let (over, mem) = federated(cfg, &ms, &sched, MemTransport::new(), seed);
        assert_eq!(over.aggregate, aggregate, "MemTransport {sched:?}");
        assert_eq!(over.contributors, survivors);
        assert!(mem.payload_bytes > 0, "every message crossed the wire");

        let sim = MemTransport::timed(NetworkConfig::paper_default(n), Duplex::Full);
        let (timed, sim) = federated(cfg, &ms, &sched, sim, seed);
        assert_eq!(timed.aggregate, aggregate, "timed MemTransport {sched:?}");
        assert_eq!(timed.contributors, survivors);
        assert!(sim.critical_path() > 0.0, "simulated time must advance");
        // same envelopes on both backends, byte for byte in total
        assert_eq!(
            (sim.envelopes, sim.payload_bytes),
            (mem.envelopes, mem.payload_bytes)
        );
    }
}

#[test]
fn session_driver_matches_legacy_fp61() {
    for seed in [1u64, 7, 99] {
        check_field::<Fp61>(seed);
    }
}

#[test]
fn session_driver_matches_legacy_fp32() {
    for seed in [2u64, 8, 100] {
        check_field::<Fp32>(seed);
    }
}

#[test]
fn sim_transport_timings_cover_all_phases() {
    let n = 6;
    let cfg = LsaConfig::new(n, 2, 4, 16).unwrap();
    let ms = models::<Fp61>(n, 16, 5);
    let sim = MemTransport::timed(NetworkConfig::paper_default(n), Duplex::Full);
    let (_, report) = federated(cfg, &ms, &DropoutSchedule::after_upload(vec![1]), sim, 5);
    let labels: Vec<&str> = report.phases.iter().map(|t| t.label).collect();
    assert_eq!(labels, vec!["offline", "upload", "announce", "recovery"]);
    // phases are contiguous and monotone
    for w in report.phases.windows(2) {
        assert!(w[1].start >= w[0].end - 1e-12);
    }
    // every phase that moved messages took positive simulated time
    for t in &report.phases {
        if t.messages > 0 {
            assert!(t.duration() > 0.0, "{} took no time", t.label);
        }
    }
}
