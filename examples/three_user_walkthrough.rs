//! The paper's worked example (Figures 2 and 3): N = 3 users, privacy
//! T = 1, dropout-resiliency D = 1; user 1 (index 0 here) drops.
//!
//! Runs BOTH protocols on the same models and contrasts the server's
//! recovery work: SecAgg reconstructs 4 masks (cost 4d), LightSecAgg
//! reconstructs the aggregate mask in one shot (cost d).
//!
//! The LightSecAgg half is driven **envelope by envelope** through the
//! sans-IO `Session` interface of three `FederationClient`s and the
//! `FederationServer`, all serving round 0, printing every message that
//! crosses the wire — the protocol engine with its transport stripped
//! away.
//!
//! Run with: `cargo run --example three_user_walkthrough`

use lightsecagg::baselines::{run_secagg_round, SecAggConfig};
use lightsecagg::field::{Field, Fp61};
use lightsecagg::protocol::session::{Recipient, Session};
use lightsecagg::protocol::wire::Envelope;
use lightsecagg::protocol::{DropoutSchedule, FederationClient, FederationServer, LsaConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn describe(env: &Envelope<Fp61>) -> String {
    format!("{} ({} bytes)", env.kind().name(), env.wire_len())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let d = 6;
    let mut rng = StdRng::seed_from_u64(3);
    let models: Vec<Vec<Fp61>> = (0..3)
        .map(|i| {
            (0..d)
                .map(|k| Fp61::from_u64((10 * (i + 1) + k) as u64))
                .collect()
        })
        .collect();

    println!("=== SecAgg (Figure 2) ===");
    // user 0 drops after upload → treated as dropped by the server
    let cfg = SecAggConfig::secagg(3, 1, d)?;
    let out = run_secagg_round(
        &cfg,
        &models,
        &DropoutSchedule::after_upload(vec![0]),
        &mut rng,
    )?;
    println!(
        "included users: {:?}, dropped: {:?}",
        out.included, out.dropped
    );
    println!(
        "server work: {} PRG expansions of length d (the paper's 4d), {} secrets reconstructed",
        out.stats.prg_expansions, out.stats.secrets_reconstructed
    );
    let expect: Vec<Fp61> = (0..d).map(|k| models[1][k] + models[2][k]).collect();
    assert_eq!(out.aggregate, expect);
    println!("aggregate x2 + x3 recovered correctly\n");

    println!("=== LightSecAgg (Figure 3), pumped by hand ===");
    let cfg = LsaConfig::new(3, 1, 2, d)?;

    // Offline: joining round 0 samples the mask z_i and encodes the
    // coded shares [~z_i]_j, emitted as the client is polled. Each
    // client draws from its own entropy stream.
    let mut clients = Vec::new();
    for id in 0..3 {
        let mut client = FederationClient::<Fp61>::new(id, cfg, StdRng::seed_from_u64(rng.gen()))?;
        client.prepare(0)?;
        clients.push(client);
    }
    let mut server = FederationServer::<Fp61>::new(cfg)?;
    server.open_round(0)?;

    println!("-- offline phase: coded mask exchange --");
    let mut in_flight = Vec::new();
    for c in clients.iter_mut() {
        let from = c.id();
        while let Some((to, env)) = c.poll_output() {
            println!("  user {from} -> {to:?}: {}", describe(&env));
            in_flight.push((to, env));
        }
    }
    for (to, env) in in_flight {
        let Recipient::Client(j) = to else {
            unreachable!()
        };
        clients[j].handle(env)?;
    }

    // Upload: user 0 drops BEFORE uploading — it simply never performs
    // the local action; nothing else changes.
    println!("-- upload phase (user 0 dropped) --");
    for c in clients.iter_mut().skip(1) {
        c.upload(0, &models[c.id()])?;
        while let Some((_, env)) = c.poll_output() {
            println!("  user {} -> Server: {}", c.id(), describe(&env));
            server.handle(env)?;
        }
    }

    // Recovery: the server fixes U1 = {1, 2}, announces it, and each
    // survivor answers with ONE aggregated coded mask.
    println!("-- recovery phase: one-shot aggregate-mask decode --");
    server.close_upload()?;
    let mut announcements = Vec::new();
    while let Some(out) = server.poll_output() {
        announcements.push(out);
    }
    for (to, env) in announcements {
        println!("  Server -> {to:?}: {}", describe(&env));
        let Recipient::Client(j) = to else {
            unreachable!()
        };
        for (_, reply) in clients[j].handle(env)? {
            println!("  user {j} -> Server: {}", describe(&reply));
            server.handle(reply)?;
        }
    }

    let aggregate = server.close_round().expect("U shares arrived").aggregate;
    assert_eq!(aggregate, expect);
    println!("server work: ONE MDS decode of the aggregate mask (the paper's d)");
    println!("aggregate x2 + x3 recovered correctly");

    println!("\nSecAgg reconstructed 4 masks; LightSecAgg reconstructed 1 — Figure 3's point.");
    Ok(())
}
