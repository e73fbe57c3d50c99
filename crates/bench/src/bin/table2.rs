//! Table 2: the four learning tasks and LightSecAgg's gain over SecAgg
//! and SecAgg+ in the non-overlapped, overlapped and aggregation-only
//! settings (maximised over dropout rates, as the paper reports "up
//! to").

use lsa_bench::{n_users, results_dir};
use lsa_sim::experiments::table2;
use lsa_sim::report::{self, gain};
use lsa_sim::KernelCosts;

fn main() {
    let n = n_users();
    let rows = table2(n, KernelCosts::nominal());
    let header = [
        "task",
        "model size d",
        "non-overlapped (vs SecAgg, vs SecAgg+)",
        "overlapped (vs SecAgg, vs SecAgg+)",
        "aggregation-only (vs SecAgg, vs SecAgg+)",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.task.to_string(),
                r.d.to_string(),
                format!(
                    "{}, {}",
                    gain(r.non_overlapped.vs_secagg),
                    gain(r.non_overlapped.vs_secagg_plus)
                ),
                format!(
                    "{}, {}",
                    gain(r.overlapped.vs_secagg),
                    gain(r.overlapped.vs_secagg_plus)
                ),
                format!(
                    "{}, {}",
                    gain(r.aggregation_only.vs_secagg),
                    gain(r.aggregation_only.vs_secagg_plus)
                ),
            ]
        })
        .collect();
    print!(
        "{}",
        report::render_table(&format!("Table 2 (N={n})"), &header, &table)
    );
    report::write_tsv(results_dir().join("table2.tsv"), &header, &table)
        .expect("write results/table2.tsv");
    println!("wrote results/table2.tsv");
}
