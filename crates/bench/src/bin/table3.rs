//! Table 3: LightSecAgg's overlapped gain for CNN/FEMNIST under 4G,
//! measured-320 Mb/s and 5G bandwidth settings.

use lsa_bench::{n_users, results_dir};
use lsa_sim::experiments::table3;
use lsa_sim::report::{self, gain};
use lsa_sim::KernelCosts;

fn main() {
    let n = n_users();
    let rows = table3(n, KernelCosts::nominal());
    let header = ["setting", "client Mb/s", "vs SecAgg", "vs SecAgg+"];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.setting.to_string(),
                format!("{:.0}", r.mbps),
                gain(r.gain.vs_secagg),
                gain(r.gain.vs_secagg_plus),
            ]
        })
        .collect();
    print!(
        "{}",
        report::render_table(&format!("Table 3 (CNN/FEMNIST, N={n})"), &header, &table)
    );
    report::write_tsv(results_dir().join("table3.tsv"), &header, &table)
        .expect("write results/table3.tsv");
    println!("wrote results/table3.tsv");
}
