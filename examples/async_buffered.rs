//! Asynchronous (buffered) LightSecAgg: contributions from different
//! base rounds are staleness-weighted *inside the field* and recovered
//! in one shot — the setting SecAgg/SecAgg+ cannot support (Remark 1).
//!
//! Driven by hand through the persistent sans-IO endpoints (timestamped
//! `FederationClient`s and a timestamped `FederationServer`, the §4.1
//! pair with §4.2's wire tags and buffer) over a [`MemTransport`]: every
//! timestamped share, masked update, buffer announcement and aggregated
//! share crosses the wire as serialized bytes.
//!
//! Run with: `cargo run --example async_buffered`

use lightsecagg::field::Fp61;
use lightsecagg::protocol::session::{Recipient, Session};
use lightsecagg::protocol::transport::{MemTransport, Transport};
use lightsecagg::protocol::{Envelope, FederationClient, FederationServer, LsaConfig};
use lightsecagg::quantize::{QuantizedStaleness, StalenessFn, VectorQuantizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 6;
    let d = 8;
    let cfg = LsaConfig::new(n, 2, 4, d)?;
    let mut rng = StdRng::seed_from_u64(11);

    // each endpoint owns its entropy stream, injected at construction —
    // message handling is deterministic from here on
    let mut clients: Vec<FederationClient<Fp61>> = (0..n)
        .map(|id| FederationClient::timestamped(id, cfg, StdRng::seed_from_u64(rng.gen())))
        .collect::<Result<_, _>>()?;
    let staleness = QuantizedStaleness::new(StalenessFn::Poly { alpha: 1.0 }, 4);
    let entropy = StdRng::seed_from_u64(rng.gen());
    let mut server = FederationServer::<Fp61>::timestamped(cfg, 3, staleness, entropy)?;
    let mut wire = MemTransport::new();

    // clients prepare masks for rounds 0..3; coded shares travel the wire
    for round in 0..3u64 {
        for c in clients.iter_mut() {
            c.prepare(round)?;
        }
    }
    for c in clients.iter_mut() {
        let from = Recipient::Client(c.id());
        while let Some((to, env)) = c.poll_output() {
            wire.send(from, to, &env)?;
        }
    }
    while let Some(delivery) = wire.recv()? {
        let Recipient::Client(j) = delivery.to else {
            unreachable!()
        };
        clients[j].handle(delivery.envelope)?;
    }
    println!(
        "offline exchange: {} envelopes, {} bytes on the wire",
        wire.messages_sent(),
        wire.bytes_sent()
    );

    // three clients contribute updates based on different rounds
    let now = 2u64;
    server.open_round(now)?;
    let quantizer = VectorQuantizer::new(1 << 16);
    let contributions = [(0usize, 2u64, 1.0f64), (1, 1, -0.5), (4, 0, 0.25)];
    for &(id, round, value) in &contributions {
        let reals = vec![value; d];
        let quantized: Vec<Fp61> = quantizer.quantize(&reals, &mut rng);
        clients[id].upload(round, &quantized)?;
        let from = Recipient::Client(id);
        while let Some((to, env)) = clients[id].poll_output() {
            wire.send(from, to, &env)?;
        }
    }
    while let Some(delivery) = wire.recv()? {
        server.handle(delivery.envelope)?;
    }

    // one-shot recovery of the staleness-weighted aggregate: the buffer
    // announcement fans out, aggregated shares flow back
    server.close_upload()?;
    let mut entries = Vec::new();
    while let Some((to, env)) = server.poll_output() {
        if let Envelope::BufferAnnouncement(ann) = &env {
            entries.clone_from(&ann.entries);
        }
        wire.send(Recipient::Server, to, &env)?;
    }
    while let Some(delivery) = wire.recv()? {
        match delivery.to {
            Recipient::Client(j) => {
                for (to, reply) in clients[j].handle(delivery.envelope)? {
                    wire.send(Recipient::Client(j), to, &reply)?;
                }
            }
            Recipient::Server => {
                server.handle(delivery.envelope)?;
            }
        }
    }
    let agg = server.close_round()?;
    println!("buffer entries (who, base round, field weight):");
    for e in &entries {
        println!("  user {} round {} weight {}", e.who, e.round, e.weight);
    }
    let update = quantizer.dequantize_sum(&agg.aggregate, agg.total_weight);
    println!("weighted-average update (coordinate 0): {:.4}", update[0]);

    // verify against the plain-float weighted average
    let weights: Vec<f64> = contributions
        .iter()
        .map(|&(_, round, _)| 1.0 / (1.0 + (now - round) as f64))
        .collect();
    let expected: f64 = contributions
        .iter()
        .zip(&weights)
        .map(|(&(_, _, v), &w)| w * v)
        .sum::<f64>()
        / weights.iter().sum::<f64>();
    println!("float reference:                       {expected:.4}");
    assert!((update[0] - expected).abs() < 0.05);
    println!("OK: secure async aggregation matches the FedBuff weighting");
    Ok(())
}
