//! A committed record of the scenario matrix's deterministic columns.
//!
//! `matrix_equivalence` compares each cell with a hand-built federation
//! of the *same* commit, so it cannot see a change that moves both
//! sides together. This test compares every cell, round by round, with
//! `tests/fixtures/matrix_quick.txt`: payload bytes, framing bytes,
//! envelope count, every [`EventCounters`] field and a digest of the
//! round's aggregate, at the `matrix_equivalence` size (`n = 16`,
//! `d = 16`, 2 rounds) under each cell's `Mode::policy` (clique at
//! `W = 1` for the 48 cross-product cells, hypercube at `W = 8` for
//! the log cell). Timings are not recorded — everything in
//! the fixture is a pure function of the code.
//!
//! A refactor that claims "49 cells bit-identical" passes this test
//! without touching the fixture. A change that means to move a column
//! re-blesses with `LSA_BLESS_MATRIX=1` and justifies the diff in
//! review (the `LSA_BLESS_WIRE` convention of `wire_compat.rs`).

use lsa_bench::scenario::{run_cell_typed, FieldKind, MatrixParams, Mode};
use lsa_crypto::sha256;
use lsa_field::{Field, Fp32, Fp61};
use lsa_protocol::telemetry::EventCounters;
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("matrix_quick.txt")
}

fn render_cell<F: Field>(out: &mut String, mode: &Mode, p: &MatrixParams) {
    let name = mode.name();
    let run = run_cell_typed::<F>(mode, p, mode.seed(0))
        .unwrap_or_else(|e| panic!("{name}: cell failed: {e}"));
    for (report, aggregate) in run.reports.iter().zip(&run.aggregates) {
        let bytes: Vec<u8> = aggregate
            .iter()
            .flat_map(|x| x.residue().to_le_bytes())
            .collect();
        let digest = sha256::digest(&bytes);
        let EventCounters {
            dropouts,
            requeues,
            ratchets,
            windowed_ratchets,
            fallbacks,
            rejections,
            quarantined,
        } = report.events;
        write!(
            out,
            "{name} round={} payload={} framing={} envelopes={} dropouts={dropouts} \
             requeues={requeues} ratchets={ratchets} windowed_ratchets={windowed_ratchets} \
             fallbacks={fallbacks} rejections={rejections} quarantined={quarantined} aggregate=",
            report.round, report.payload_bytes, report.framing_bytes, report.envelopes,
        )
        .unwrap();
        for b in &digest[..16] {
            write!(out, "{b:02x}").unwrap();
        }
        out.push('\n');
    }
}

fn render() -> String {
    let p = MatrixParams {
        n: 16,
        d: 16,
        rounds: 2,
        reps: 1,
    };
    let mut out = String::from(
        "# Deterministic columns of the 49-cell scenario matrix at n=16 d=16,\n\
         # one line per cell and round. Any diff here is a behaviour change —\n\
         # see tests/matrix_golden.rs.\n",
    );
    for mode in Mode::all() {
        match mode.field {
            FieldKind::Fp32 => render_cell::<Fp32>(&mut out, &mode, &p),
            FieldKind::Fp61 => render_cell::<Fp61>(&mut out, &mode, &p),
        }
    }
    out
}

#[test]
fn matrix_columns_have_not_drifted() {
    let path = fixture_path();
    let rendered = render();
    if std::env::var_os("LSA_BLESS_MATRIX").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        panic!("fixture re-blessed at {path:?} — remove LSA_BLESS_MATRIX and justify the diff");
    }
    let frozen = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing matrix fixture {path:?}: {e}"));
    for (want, got) in frozen.lines().zip(rendered.lines()) {
        assert_eq!(want, got, "a matrix cell drifted from the committed record");
    }
    assert_eq!(
        frozen.lines().count(),
        rendered.lines().count(),
        "the matrix gained or lost rows"
    );
}
