//! Byte-accounting parity across transport backends: for the same
//! protocol round, the payload-byte column must be identical on
//! `MemTransport` (untimed and timed) and `TcpTransport`, with TCP's framing
//! overhead reported *separately* so distributed and in-memory records
//! stay comparable.
//!
//! The TCP leg replays the round's delivered frames, as a
//! a `MemTransport` transcript records them, over a real loopback socket: the live
//! federation driver polls non-blockingly, so replay (rather than
//! driving sessions over the socket) keeps the test deterministic while
//! still exercising the real framing path.

use lsa_field::Fp61;
use lsa_net::{NodeId, TcpTransport, FRAME_OVERHEAD};
use lsa_protocol::telemetry::RoundReport;
use lsa_protocol::transport::{MemTransport, Transport};
use lsa_protocol::{
    DropoutSchedule, LsaConfig, RoundOutcome, RoundPlan, SecureAggregator, SyncFederation,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn models(n: usize, d: usize, seed: u64) -> Vec<Vec<Fp61>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| lsa_field::ops::random_vector(d, &mut rng))
        .collect()
}

/// One round of `plan` on a fresh federation over `transport`, handed
/// back so the transport's record can be read.
fn run_over<T: Transport<Fp61>>(
    cfg: LsaConfig,
    plan: &RoundPlan<Fp61>,
    transport: T,
) -> (RoundOutcome<Fp61>, SyncFederation<Fp61, T>) {
    let mut fed = SyncFederation::new(cfg, transport, 5).unwrap();
    fed.open_round(&plan.cohort).unwrap();
    for (id, update) in &plan.updates {
        fed.submit(*id, update).unwrap();
    }
    for &id in &plan.drop_after_upload {
        fed.mark_dropped(id).unwrap();
    }
    let out = fed.finish_round().unwrap();
    (out, fed)
}

#[test]
fn payload_bytes_identical_across_mem_sim_and_tcp() {
    let n = 6;
    let cfg = LsaConfig::new(n, 2, 4, 24).unwrap();
    let ms = models(n, 24, 17);
    let plan = RoundPlan::from_schedule(&ms, &DropoutSchedule::after_upload(vec![3]));

    // Same round over the in-memory and the discrete-event backends.
    let mut mem = MemTransport::new();
    let transcript = mem.transcript();
    let (mem_out, mem_fed) = run_over(cfg, &plan, mem);
    let sim = MemTransport::timed(
        lsa_net::NetworkConfig::paper_default(n),
        lsa_net::Duplex::Full,
    );
    let (sim_out, sim_fed) = run_over(cfg, &plan, sim);
    assert_eq!(mem_out.aggregate, sim_out.aggregate);
    let (mem, sim) = (mem_fed.transport(), sim_fed.transport());
    let frames: Vec<Vec<u8>> = transcript.lock().unwrap().drain(..).map(|f| f.2).collect();

    let payload_total: usize = frames.iter().map(Vec::len).sum();
    assert_eq!(
        Transport::<Fp61>::bytes_sent(mem),
        payload_total,
        "MemTransport byte accounting equals the serialized frame sizes"
    );
    assert_eq!(
        Transport::<Fp61>::bytes_sent(sim),
        payload_total,
        "a timed MemTransport moves the identical payload bytes for the same round"
    );
    assert_eq!(
        Transport::<Fp61>::messages_sent(sim),
        frames.len(),
        "same envelope count on both backends"
    );
    assert_eq!(Transport::<Fp61>::framing_bytes(sim), 0);

    // Replay the recorded frames over a real TCP loopback: one listener
    // that dials itself, so every frame crosses an actual socket.
    let mut tcp = TcpTransport::bind(NodeId::Server, "127.0.0.1:0").unwrap();
    let addr = tcp.local_addr().unwrap();
    tcp.dial(NodeId::Client(0), addr).unwrap();
    for frame in &frames {
        tcp.send_bytes(NodeId::Server, NodeId::Client(0), frame)
            .unwrap();
    }
    let mut received = 0usize;
    let mut received_bytes = 0usize;
    while received < frames.len() {
        let delivery = tcp
            .recv_bytes_timeout(Duration::from_secs(10))
            .unwrap()
            .expect("frame arrives within the timeout");
        assert_eq!(delivery.payload, frames[received], "payload round-trips");
        received_bytes += delivery.payload.len();
        received += 1;
    }
    assert_eq!(received_bytes, payload_total);
    assert_eq!(
        tcp.bytes_sent(),
        payload_total,
        "TcpTransport's payload column matches the in-memory backends"
    );
    assert_eq!(tcp.messages_sent(), frames.len());
    assert_eq!(
        tcp.framing_bytes(),
        frames.len() * FRAME_OVERHEAD,
        "framing overhead is exactly one header per frame, reported separately"
    );

    // The telemetry layer carries the split: same payload column, TCP's
    // framing on top.
    let report = RoundReport::of_transport::<Fp61, TcpTransport>(&tcp, 0);
    assert_eq!(report.payload_bytes, payload_total);
    assert_eq!(report.framing_bytes, frames.len() * FRAME_OVERHEAD);
    assert_eq!(
        report.total_bytes(),
        payload_total + frames.len() * FRAME_OVERHEAD
    );
}
