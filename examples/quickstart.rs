//! Quickstart: one synchronous LightSecAgg round with real-valued
//! updates — quantize, mask, aggregate with a dropout, dequantize.
//!
//! Run with: `cargo run --example quickstart`

use lightsecagg::field::Fp61;
use lightsecagg::protocol::transport::MemTransport;
use lightsecagg::protocol::{DropoutSchedule, Federation, LsaConfig, RoundPlan, SyncFederation};
use lightsecagg::quantize::VectorQuantizer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 8 users, privacy against any T = 3 colluders, target U = 5
    // survivors (so up to D = 3 dropouts), model dimension 16.
    let n = 8;
    let d = 16;
    let cfg = LsaConfig::new(n, 3, 5, d)?;
    let mut rng = StdRng::seed_from_u64(2024);

    // each user's real-valued local update
    let updates: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..d).map(|k| ((i * d + k) as f64 * 0.37).sin()).collect())
        .collect();

    // quantize into the field (the paper's Eq. 30 with c_l = 2^16)
    let quantizer = VectorQuantizer::new(1 << 16);
    let field_models: Vec<Vec<Fp61>> = updates
        .iter()
        .map(|u| quantizer.quantize(u, &mut rng))
        .collect();

    // users 2 and 6 drop *after* uploading (the paper's worst case §7.1):
    // their models still count, they just can't help recovery.
    //
    // The round is one plan on a federation over an explicit transport
    // — swap `MemTransport::new()` for `MemTransport::timed(..)` and the
    // same protocol bytes pay simulated network time (see
    // `lsa_sim::timed`); keep the
    // federation and run more plans for a multi-round training run.
    let dropouts = DropoutSchedule::after_upload(vec![2, 6]);
    let sync = SyncFederation::new(cfg, MemTransport::new(), rng.gen())?;
    let mut fed = Federation::new(Box::new(sync));
    let out = fed.run_round(&RoundPlan::from_schedule(&field_models, &dropouts))?;
    let report = fed.last_report().expect("the round finished");
    println!(
        "wire traffic: {} envelopes, {} serialized bytes",
        report.envelopes, report.payload_bytes
    );

    // dequantize the aggregate and compare to the true sum
    let aggregate = quantizer.dequantize(&out.aggregate);
    println!("contributors: {:?}", out.contributors);
    let mut max_err = 0.0f64;
    for k in 0..d {
        let truth: f64 = out.contributors.iter().map(|&i| updates[i][k]).sum();
        max_err = max_err.max((aggregate[k] - truth).abs());
    }
    println!("max |secure aggregate − true sum| = {max_err:.2e}");
    assert!(max_err < 1e-3, "aggregation drifted");
    println!("OK: server recovered the exact (quantized) sum without seeing any model");
    Ok(())
}
