//! Table 4: per-phase breakdown of the running time (offline /
//! training / uploading / recovery / total) for all three protocols at
//! dropout rates 10/30/50%, non-overlapped and overlapped.

use lsa_bench::{n_users, results_dir};
use lsa_sim::experiments::table4;
use lsa_sim::report::{self, secs};
use lsa_sim::KernelCosts;

fn main() {
    let n = n_users();
    let rows = table4(n, KernelCosts::nominal());
    let header = [
        "protocol",
        "mode",
        "p",
        "offline",
        "training",
        "uploading",
        "recovery",
        "total",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.protocol.name().to_string(),
                if r.overlapped {
                    "overlapped"
                } else {
                    "non-overlapped"
                }
                .to_string(),
                format!("{:.0}%", r.dropout_rate * 100.0),
                secs(r.breakdown.offline),
                secs(r.breakdown.training),
                secs(r.breakdown.uploading),
                secs(r.breakdown.recovery),
                secs(r.breakdown.total),
            ]
        })
        .collect();
    print!(
        "{}",
        report::render_table(
            &format!("Table 4 (CNN/FEMNIST, N={n}, seconds)"),
            &header,
            &table
        )
    );
    report::write_tsv(results_dir().join("table4.tsv"), &header, &table)
        .expect("write results/table4.tsv");
    println!("wrote results/table4.tsv");
}
