//! Unified round telemetry: one structured [`RoundReport`] per federated
//! round, with a single merge/average discipline shared by every
//! aggregator variant, every transport backend, the benches and the
//! distributed runner.
//!
//! Before this module each layer grew its own measurement vocabulary:
//! [`PhaseTiming`] lists on the transports, byte counters per backend,
//! `merge_phase_timings` on the aggregator trait, and ad-hoc `Timings`
//! structs in `crates/sim::timed` and each bench. A [`RoundReport`] is
//! the one currency they all speak now:
//!
//! * **phases** — the per-phase wall/simulated-time records the
//!   transport cut at its `flush` boundaries;
//! * **traffic** — payload bytes, transport framing overhead (zero for
//!   in-memory and simulated backends, [`lsa_net::FRAME_OVERHEAD`] per
//!   frame for TCP) and envelope counts, so distributed and in-memory
//!   byte columns are directly comparable;
//! * **events** — dropout / requeue / ratchet / fallback / rejection /
//!   quarantine counters ([`EventCounters`]), and the wire ids of the
//!   leaves a partial-recovery tree skipped ([`RoundReport::stalled`]).
//!
//! Three operations define the discipline:
//!
//! * `TrafficMark` snapshots a transport at round open; its
//!   `cut` at round close yields the round's report.
//! * `RoundReport::merge` folds per-subtree reports into the root's
//!   critical path (starts min'd, ends max'd, traffic and events
//!   summed) — the composed-tree view.
//! * [`RoundReport::average`] means per-label durations and traffic
//!   over repetitions (events summed) — the bench view.
//!
//! [`RoundReport::to_json`] emits the one-line JSON schema shared by
//! the `scenario_matrix` bench harness and `lsa-runner`'s root mode.

use crate::ratchet::RatchetPolicy;
use crate::transport::{PhaseTiming, Transport};
use lsa_field::Field;
use std::collections::BTreeMap;

/// Per-round protocol event counters. All counters are additive under
/// `RoundReport::merge` and [`RoundReport::average`] (an averaged
/// report sums events: "how many happened across the run" is the
/// useful bench column, a fractional mean dropout is not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounters {
    /// Cohort members marked vanished after upload this round.
    pub dropouts: usize,
    /// Updates re-queued into a later round after a leaf stalled
    /// (partial recovery; [`RoundReport::stalled`] names the leaves).
    pub requeues: usize,
    /// Rounds whose masks came from the stable-cohort ratchet instead
    /// of a full offline exchange, paying a commit/ack handshake (0 or
    /// 1 per flat round; a tree sums its children).
    pub ratchets: usize,
    /// Ratcheted rounds joined from a pre-committed nonce window with
    /// zero handshake traffic (disjoint from `ratchets`).
    pub windowed_ratchets: usize,
    /// Ratchet fast-path failures that fell back to a full exchange
    /// (the driver's replayed-plan path).
    pub fallbacks: usize,
    /// Envelopes rejected with a typed protocol error at the server.
    pub rejections: usize,
    /// Envelopes silently discarded after their sender exceeded its
    /// per-round ingress quota.
    pub quarantined: usize,
}

impl EventCounters {
    /// Add every counter of `other` into `self`.
    pub(crate) fn absorb(&mut self, other: &EventCounters) {
        self.dropouts += other.dropouts;
        self.requeues += other.requeues;
        self.ratchets += other.ratchets;
        self.windowed_ratchets += other.windowed_ratchets;
        self.fallbacks += other.fallbacks;
        self.rejections += other.rejections;
        self.quarantined += other.quarantined;
    }
}

/// The structured telemetry record of one federated round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundReport {
    /// The round this report describes (under [`RoundReport::average`],
    /// the round of the first averaged report).
    pub round: u64,
    /// Per-phase timing records, in phase order. Labels repeat when a
    /// phase ran more than once (e.g. a retried handshake).
    pub phases: Vec<PhaseTiming>,
    /// Serialized envelope payload bytes moved this round — the column
    /// every backend agrees on.
    pub payload_bytes: usize,
    /// Transport framing overhead on top of the payload bytes: 0 for
    /// the in-memory and simulated backends, `FRAME_OVERHEAD` per
    /// frame for TCP. Kept separate so distributed and in-memory byte
    /// columns stay comparable.
    pub framing_bytes: usize,
    /// Envelopes sent this round.
    pub envelopes: usize,
    /// Protocol event counters.
    pub events: EventCounters,
    /// Wire ids of the leaf groups a partial-recovery aggregator tree
    /// skipped this round, ascending; empty after a full round and for
    /// a flat aggregator.
    pub stalled: Vec<usize>,
    /// The policy the round ran under (`RoundReport::merge` and
    /// [`RoundReport::average`] keep the first report's).
    pub ratchet: RatchetPolicy,
}

impl RoundReport {
    /// An empty report for `round`.
    pub fn new(round: u64) -> Self {
        Self {
            round,
            ..Self::default()
        }
    }

    /// The first phase with the given label, if any.
    pub fn phase(&self, label: &str) -> Option<&PhaseTiming> {
        self.phases.iter().find(|p| p.label == label)
    }

    /// Total duration of every phase carrying `label` (labels repeat
    /// when a phase ran more than once).
    pub(crate) fn phase_seconds(&self, label: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.label == label)
            .map(PhaseTiming::duration)
            .sum()
    }

    /// Payload plus framing bytes.
    pub fn total_bytes(&self) -> usize {
        self.payload_bytes + self.framing_bytes
    }

    /// Earliest phase start to latest phase end — the round's critical
    /// path on a timed transport (0 when no phase was recorded).
    pub fn critical_path(&self) -> f64 {
        let start = self
            .phases
            .iter()
            .map(|p| p.start)
            .fold(f64::INFINITY, f64::min);
        let end = self
            .phases
            .iter()
            .map(|p| p.end)
            .fold(f64::NEG_INFINITY, f64::max);
        if end > start {
            end - start
        } else {
            0.0
        }
    }

    /// Merge per-subtree reports into the root's view of `round`.
    ///
    /// Phases merge label-by-label: the `k`-th occurrence of each label
    /// across children (children flush identical phase sequences per
    /// round) becomes one phase whose start is the earliest child
    /// start, whose end is the latest child end, and whose
    /// message/byte counts and arrival times are pooled. Children model
    /// independent per-subtree links, so the merged end is the moment
    /// the *slowest* subtree finished that phase — the root's critical
    /// path. Traffic and event counters are summed; `stalled` is left
    /// empty for the tree to fill.
    pub(crate) fn merge(round: u64, children: &[RoundReport]) -> RoundReport {
        // key = (label, occurrence index of that label within one child)
        let mut merged: Vec<((&'static str, usize), PhaseTiming)> = Vec::new();
        let mut out = RoundReport::new(round);
        out.ratchet = children.first().map(|c| c.ratchet).unwrap_or_default();
        for child in children {
            let mut seen: BTreeMap<&'static str, usize> = BTreeMap::new();
            for phase in &child.phases {
                let occ = seen.entry(phase.label).or_insert(0);
                let key = (phase.label, *occ);
                *occ += 1;
                match merged.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, agg)) => {
                        agg.start = agg.start.min(phase.start);
                        agg.end = agg.end.max(phase.end);
                        agg.messages += phase.messages;
                        agg.bytes += phase.bytes;
                        agg.arrivals.extend_from_slice(&phase.arrivals);
                    }
                    None => merged.push((key, phase.clone())),
                }
            }
            out.payload_bytes += child.payload_bytes;
            out.framing_bytes += child.framing_bytes;
            out.envelopes += child.envelopes;
            out.events.absorb(&child.events);
        }
        let mut phases: Vec<PhaseTiming> = merged.into_iter().map(|(_, p)| p).collect();
        for phase in &mut phases {
            phase.arrivals.sort_by(f64::total_cmp);
        }
        phases.sort_by(|a, b| a.start.total_cmp(&b.start));
        out.phases = phases;
        out
    }

    /// Average a set of per-round reports into one bench row: phases
    /// collapse to one entry per label whose duration/bytes/messages
    /// are the per-report means of that label's totals (synthesized as
    /// `start = 0`, arrivals dropped), traffic fields are means, and
    /// event counters are **summed** across the reports. Returns an
    /// empty report when `reports` is empty.
    pub fn average(reports: &[RoundReport]) -> RoundReport {
        let Some(first) = reports.first() else {
            return RoundReport::default();
        };
        let n = reports.len();
        let mut out = RoundReport::new(first.round);
        out.ratchet = first.ratchet;
        // label order = first appearance across the reports
        let mut labels: Vec<&'static str> = Vec::new();
        for report in reports {
            for phase in &report.phases {
                if !labels.contains(&phase.label) {
                    labels.push(phase.label);
                }
            }
        }
        for label in labels {
            let mut seconds = 0.0;
            let mut bytes = 0usize;
            let mut messages = 0usize;
            for report in reports {
                for phase in report.phases.iter().filter(|p| p.label == label) {
                    seconds += phase.duration();
                    bytes += phase.bytes;
                    messages += phase.messages;
                }
            }
            let mean = seconds / n as f64;
            out.phases.push(PhaseTiming {
                label,
                start: 0.0,
                end: mean,
                messages: messages / n,
                bytes: bytes / n,
                arrivals: Vec::new(),
            });
        }
        for report in reports {
            out.payload_bytes += report.payload_bytes;
            out.framing_bytes += report.framing_bytes;
            out.envelopes += report.envelopes;
            out.events.absorb(&report.events);
        }
        out.payload_bytes /= n;
        out.framing_bytes /= n;
        out.envelopes /= n;
        out
    }

    /// Serialize as the one-line JSON record shared by the
    /// `scenario_matrix` harness and `lsa-runner` root mode: cell name,
    /// averaged rounds, per-phase seconds/bytes/messages, traffic
    /// totals, event counters and the host's core count (mirroring the
    /// criterion shim's execution-environment fields).
    pub fn to_json(&self, name: &str, rounds: usize) -> String {
        let mut phases = String::from("{");
        // one key per label: repeated occurrences are summed, so the
        // object stays a valid (duplicate-free) JSON map
        let mut labels: Vec<&'static str> = Vec::new();
        for phase in &self.phases {
            if !labels.contains(&phase.label) {
                labels.push(phase.label);
            }
        }
        for (i, label) in labels.iter().enumerate() {
            let seconds: f64 = self.phase_seconds(label);
            let bytes: usize = self
                .phases
                .iter()
                .filter(|p| p.label == *label)
                .map(|p| p.bytes)
                .sum();
            let messages: usize = self
                .phases
                .iter()
                .filter(|p| p.label == *label)
                .map(|p| p.messages)
                .sum();
            if i > 0 {
                phases.push(',');
            }
            phases.push_str(&format!(
                "{}:{{\"seconds\":{},\"bytes\":{bytes},\"messages\":{messages}}}",
                json_string(label),
                json_f64(seconds),
            ));
        }
        phases.push('}');
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let simd_backend = lsa_field::simd::backend().name();
        let pad_topology = self.ratchet.topology().name();
        let commit_window = self.ratchet.window();
        let e = &self.events;
        format!(
            "{{\"name\":{},\"round\":{},\"rounds\":{rounds},\"phases\":{phases},\
             \"payload_bytes\":{},\"framing_bytes\":{},\"envelopes\":{},\
             \"events\":{{\"dropouts\":{},\"requeues\":{},\"ratchets\":{},\
             \"windowed_ratchets\":{},\"fallbacks\":{},\"rejections\":{},\
             \"quarantined\":{}}},\
             \"available_parallelism\":{cores},\
             \"simd_backend\":\"{simd_backend}\",\
             \"pad_topology\":\"{pad_topology}\",\"commit_window\":{commit_window}}}",
            json_string(name),
            self.round,
            self.payload_bytes,
            self.framing_bytes,
            self.envelopes,
            e.dropouts,
            e.requeues,
            e.ratchets,
            e.windowed_ratchets,
            e.fallbacks,
            e.rejections,
            e.quarantined,
        )
    }

    /// The report of everything a transport has recorded since its
    /// construction, attributed to `round` — the whole-transport view
    /// used when one transport serves exactly one round.
    pub fn of_transport<F: Field, T: Transport<F>>(transport: &T, round: u64) -> RoundReport {
        TrafficMark::default().cut::<F, T>(transport, round)
    }
}

/// A snapshot of a transport's cumulative counters, taken at round
/// open; [`TrafficMark::cut`] at round close yields the delta as that
/// round's [`RoundReport`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TrafficMark {
    /// Payload bytes sent at snapshot time.
    pub(crate) payload: usize,
    /// Framing bytes sent at snapshot time.
    pub(crate) framing: usize,
    /// Envelopes sent at snapshot time.
    pub(crate) envelopes: usize,
    /// Phase records cut at snapshot time.
    pub(crate) phases: usize,
}

impl TrafficMark {
    /// Snapshot `transport`'s cumulative counters.
    pub(crate) fn of<F: Field, T: Transport<F>>(transport: &T) -> TrafficMark {
        TrafficMark {
            payload: transport.bytes_sent(),
            framing: transport.framing_bytes(),
            envelopes: transport.messages_sent(),
            phases: transport.timings().len(),
        }
    }

    /// The delta between this mark and `transport`'s counters now, as
    /// `round`'s report (events start at zero — the aggregator fills
    /// them in). Saturates if the transport was swapped or reset.
    pub(crate) fn cut<F: Field, T: Transport<F>>(&self, transport: &T, round: u64) -> RoundReport {
        let timings = transport.timings();
        RoundReport {
            round,
            phases: timings
                .get(self.phases.min(timings.len())..)
                .map_or_else(Vec::new, <[PhaseTiming]>::to_vec),
            payload_bytes: transport.bytes_sent().saturating_sub(self.payload),
            framing_bytes: transport.framing_bytes().saturating_sub(self.framing),
            envelopes: transport.messages_sent().saturating_sub(self.envelopes),
            ..RoundReport::default()
        }
    }
}

/// Escape a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a float as a JSON number (JSON has no NaN/∞ — both map to 0).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        // Rust's shortest-roundtrip Display for finite f64 is valid JSON
        let s = format!("{x}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Recipient;
    use crate::transport::MemTransport;
    use crate::wire::{Envelope, MaskedModel};
    use crate::LsaConfig;
    use lsa_field::{Field, Fp61};

    fn phase(
        label: &'static str,
        start: f64,
        end: f64,
        messages: usize,
        bytes: usize,
    ) -> PhaseTiming {
        PhaseTiming {
            label,
            start,
            end,
            messages,
            bytes,
            arrivals: Vec::new(),
        }
    }

    #[test]
    fn merge_is_the_critical_path() {
        let fast = RoundReport {
            round: 3,
            phases: vec![
                phase("offline", 0.0, 1.0, 2, 100),
                phase("upload", 1.0, 1.5, 1, 50),
            ],
            payload_bytes: 150,
            framing_bytes: 0,
            envelopes: 3,
            events: EventCounters {
                dropouts: 1,
                ..EventCounters::default()
            },
            ..RoundReport::default()
        };
        let slow = RoundReport {
            round: 3,
            phases: vec![
                phase("offline", 0.2, 2.0, 2, 100),
                phase("upload", 2.0, 2.2, 1, 50),
            ],
            payload_bytes: 150,
            framing_bytes: 14,
            envelopes: 3,
            ..RoundReport::default()
        };
        let merged = RoundReport::merge(3, &[fast, slow]);
        assert_eq!(merged.round, 3);
        assert_eq!(merged.phases.len(), 2);
        let offline = merged.phase("offline").unwrap();
        assert_eq!(offline.start, 0.0);
        assert_eq!(offline.end, 2.0);
        assert_eq!(offline.messages, 4);
        assert_eq!(offline.bytes, 200);
        assert_eq!(merged.payload_bytes, 300);
        assert_eq!(merged.framing_bytes, 14);
        assert_eq!(merged.envelopes, 6);
        assert_eq!(merged.events.dropouts, 1);
        assert!((merged.critical_path() - 2.2).abs() < 1e-12);
    }

    #[test]
    fn average_means_durations_and_sums_events() {
        let a = RoundReport {
            round: 0,
            phases: vec![phase("upload", 0.0, 1.0, 4, 400)],
            payload_bytes: 400,
            framing_bytes: 0,
            envelopes: 4,
            events: EventCounters {
                ratchets: 1,
                ..EventCounters::default()
            },
            ..RoundReport::default()
        };
        let b = RoundReport {
            round: 1,
            phases: vec![phase("upload", 5.0, 8.0, 2, 200)],
            payload_bytes: 200,
            framing_bytes: 0,
            envelopes: 2,
            events: EventCounters {
                ratchets: 1,
                windowed_ratchets: 3,
                dropouts: 2,
                ..EventCounters::default()
            },
            ..RoundReport::default()
        };
        let avg = RoundReport::average(&[a, b]);
        let upload = avg.phase("upload").unwrap();
        assert!((upload.duration() - 2.0).abs() < 1e-12);
        assert_eq!(upload.bytes, 300);
        assert_eq!(avg.payload_bytes, 300);
        assert_eq!(avg.envelopes, 3);
        assert_eq!(avg.events.ratchets, 2);
        assert_eq!(avg.events.windowed_ratchets, 3);
        assert_eq!(avg.events.dropouts, 2);
    }

    #[test]
    fn traffic_mark_cuts_the_delta() {
        let cfg = LsaConfig::new(4, 1, 3, 2).unwrap();
        let _ = cfg;
        let mut t = MemTransport::new();
        let env = Envelope::MaskedModel(MaskedModel {
            from: 0,
            group: 0,
            round: 0,
            payload: vec![Fp61::ONE; 4],
        });
        Transport::<Fp61>::send(&mut t, Recipient::Client(0), Recipient::Server, &env).unwrap();
        let mark = TrafficMark::of::<Fp61, _>(&t);
        Transport::<Fp61>::send(&mut t, Recipient::Client(1), Recipient::Server, &env).unwrap();
        Transport::<Fp61>::send(&mut t, Recipient::Client(2), Recipient::Server, &env).unwrap();
        let report = mark.cut::<Fp61, _>(&t, 7);
        assert_eq!(report.round, 7);
        assert_eq!(report.envelopes, 2);
        assert_eq!(report.payload_bytes, 2 * env.wire_len());
        assert_eq!(report.framing_bytes, 0);
    }

    #[test]
    fn json_line_is_wellformed_and_complete() {
        let report = RoundReport {
            round: 2,
            phases: vec![
                phase("offline", 0.0, 0.5, 12, 1200),
                phase("offline", 0.5, 0.75, 6, 600),
            ],
            payload_bytes: 1800,
            framing_bytes: 0,
            envelopes: 18,
            ..RoundReport::default()
        };
        let line = report.to_json("sync/flat/fp61/ratchet=on/partial=off", 5);
        for key in [
            "\"name\":",
            "\"round\":2",
            "\"rounds\":5",
            "\"phases\":",
            "\"offline\":",
            "\"payload_bytes\":1800",
            "\"framing_bytes\":0",
            "\"envelopes\":18",
            "\"events\":",
            "\"windowed_ratchets\":",
            "\"available_parallelism\":",
            "\"simd_backend\":\"",
            "\"pad_topology\":\"",
            "\"commit_window\":",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        // repeated labels collapse to one JSON key
        assert_eq!(line.matches("\"offline\"").count(), 1);
        assert!((report.phase_seconds("offline") - 0.75).abs() < 1e-12);
    }

    #[test]
    fn json_f64_never_emits_nan() {
        assert_eq!(json_f64(f64::NAN), "0.0");
        assert_eq!(json_f64(f64::INFINITY), "0.0");
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.25), "0.25");
    }
}
