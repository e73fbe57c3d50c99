//! Figure 5: timing diagram of one FL round — LightSecAgg vs SecAgg+,
//! non-overlapped vs overlapped (MobileNetV3-sized model), plus the
//! full-duplex vs half-duplex ablation of §6.

use lsa_bench::{n_users, results_dir};
use lsa_net::Duplex;
use lsa_sim::report;
use lsa_sim::round::{timeline, ProtocolKind, RoundParams};

fn main() {
    let n = n_users();
    let d = lsa_fl::model_sizes::MOBILENETV3_CIFAR10;
    let header = [
        "protocol",
        "mode",
        "duplex",
        "phase",
        "start (s)",
        "end (s)",
    ];
    let mut rows = Vec::new();
    for protocol in [ProtocolKind::LightSecAgg, ProtocolKind::SecAggPlus] {
        for overlap in [false, true] {
            for duplex in [Duplex::Full, Duplex::Half] {
                let mut p = RoundParams::paper_default(protocol, n, d, 0.1);
                p.overlap = overlap;
                p.duplex = duplex;
                p.train_time_s = 60.0; // MobileNetV3 training input
                for seg in timeline(&p) {
                    rows.push(vec![
                        protocol.name().to_string(),
                        if overlap {
                            "overlapped"
                        } else {
                            "non-overlapped"
                        }
                        .to_string(),
                        format!("{duplex:?}"),
                        seg.phase.to_string(),
                        format!("{:.2}", seg.start),
                        format!("{:.2}", seg.end),
                    ]);
                }
            }
        }
    }
    print!(
        "{}",
        report::render_table(
            &format!("Figure 5 timing diagram (MobileNetV3, N={n})"),
            &header,
            &rows
        )
    );
    report::write_tsv(results_dir().join("fig5.tsv"), &header, &rows)
        .expect("write results/fig5.tsv");
    println!("wrote results/fig5.tsv");
}
