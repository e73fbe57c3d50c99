//! The LightSecAgg server state machine for synchronous FL.

use crate::config::LsaConfig;
use crate::session::{Outgoing, Recipient, Session};
use crate::wire::{AggregatedShare, Envelope, MaskedModel, SurvivorAnnouncement};
use crate::ProtocolError;
use lsa_coding::{vandermonde, VandermondeCode};
use lsa_field::Field;
use std::collections::BTreeSet;

/// Phase of the server round state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerPhase {
    /// Accepting masked models.
    CollectingMaskedModels,
    /// Survivor set fixed; accepting aggregated coded masks.
    CollectingAggregatedShares,
    /// `U` shares arrived; aggregate can be recovered.
    ReadyToRecover,
    /// [`ServerRound::recover_aggregate`] ran; the round is finished and
    /// its running sum has been consumed.
    Recovered,
}

/// One aggregation round at the server (Algorithm 1, server side).
///
/// The server never learns any individual model: it only sees masked
/// models and aggregated coded masks, and reconstructs the *aggregate*
/// mask in one shot (the paper's key idea).
///
/// Masked models are folded into a **running sum** the moment they
/// arrive — the server only ever needs `Σ ~x_i`, so memory is `O(d)`
/// regardless of how many of the `N` users upload (it used to buffer
/// every masked model, `O(N·d)`).
///
/// The running sum lives in the field's widened accumulator domain
/// ([`lsa_field::Field::Wide`]): each upload is folded in with plain
/// integer adds (no per-element reduction at all), and the whole vector
/// is reduced exactly once, inside [`ServerRound::recover_aggregate`] —
/// which also *consumes* the sum rather than cloning `O(d)` state.
///
/// As a sans-IO [`Session`] it accepts both message kinds as envelopes
/// and, once [`ServerRound::close_upload_phase`] fixed the survivors,
/// [`Session::poll_output`] emits one [`SurvivorAnnouncement`] per
/// survivor, each built when it is asked for.
/// Recovery is **deliberately lazy**: receiving the `U`-th share only
/// marks the round [`ServerPhase::ReadyToRecover`]; the `O(U²) + O(U·d)`
/// decode runs when the owner calls [`ServerRound::recover_aggregate`],
/// not inside the message pump.
///
/// # Example
///
/// See [`crate::session`] for a round pumped by hand and
/// [`crate::federation`] for the full driver.
#[derive(Debug, Clone)]
pub struct ServerRound<F: Field> {
    cfg: LsaConfig,
    group: usize,
    round: u64,
    code: VandermondeCode<F>,
    phase: ServerPhase,
    /// Running `Σ ~x_i` over everything uploaded so far (padded length),
    /// unreduced in the widened domain.
    sum_masked: Vec<F::Wide>,
    /// Terms absorbed per `sum_masked` accumulator since the last
    /// normalisation, checked against [`Field::WIDE_CAPACITY`].
    sum_terms: u64,
    /// Who has uploaded (the survivor set once the phase closes).
    uploaders: BTreeSet<usize>,
    survivors: Vec<usize>,
    shares: Vec<(usize, Vec<F>)>,
    /// How many of `survivors` [`Session::poll_output`] has announced to.
    announced: usize,
}

impl<F: Field> ServerRound<F> {
    /// Start round 0 (single-round use).
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration as [`ProtocolError::Coding`].
    pub fn new(cfg: LsaConfig) -> Result<Self, ProtocolError> {
        Self::for_round(cfg, 0)
    }

    /// Start the server side of federation round `round`. Uploads and
    /// aggregated shares stamped with any other round are rejected with
    /// [`ProtocolError::StaleRound`].
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration as [`ProtocolError::Coding`].
    pub fn for_round(cfg: LsaConfig, round: u64) -> Result<Self, ProtocolError> {
        Self::for_round_in_group(cfg, round, 0)
    }

    /// As [`Self::for_round`], but serving aggregation group `group` of a
    /// grouped topology ([`crate::topology`]): uploads and shares from
    /// any other group are rejected with [`ProtocolError::WrongGroup`].
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration as [`ProtocolError::Coding`].
    pub fn for_round_in_group(
        cfg: LsaConfig,
        round: u64,
        group: usize,
    ) -> Result<Self, ProtocolError> {
        let code = VandermondeCode::new(cfg.n(), cfg.u())?;
        Ok(Self {
            cfg,
            group,
            round,
            code,
            phase: ServerPhase::CollectingMaskedModels,
            sum_masked: lsa_field::ops::wide_zeros::<F>(cfg.padded_len()),
            sum_terms: 0,
            uploaders: BTreeSet::new(),
            survivors: Vec::new(),
            shares: Vec::new(),
            announced: 0,
        })
    }

    /// Current phase.
    pub fn phase(&self) -> ServerPhase {
        self.phase
    }

    /// The federation round this server round is serving.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The aggregation group this server round serves (0 when flat).
    pub fn group(&self) -> usize {
        self.group
    }

    /// Accept a masked model upload, folding it into the running sum.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::WrongPhase`] outside the upload phase;
    /// * [`ProtocolError::StaleRound`] for an upload stamped with another
    ///   round (checked before the duplicate check — a replay from round
    ///   `t−1` is *stale*, not a duplicate);
    /// * [`ProtocolError::UnknownUser`] / [`ProtocolError::DuplicateMessage`];
    /// * [`ProtocolError::Coding`] on payload length mismatch.
    pub fn receive_masked_model(&mut self, msg: MaskedModel<F>) -> Result<(), ProtocolError> {
        if self.phase != ServerPhase::CollectingMaskedModels {
            return Err(ProtocolError::WrongPhase);
        }
        if msg.group != self.group {
            return Err(ProtocolError::WrongGroup {
                got: msg.group,
                expected: self.group,
            });
        }
        if msg.round != self.round {
            return Err(ProtocolError::StaleRound {
                got: msg.round,
                current: self.round,
            });
        }
        if msg.from >= self.cfg.n() {
            return Err(ProtocolError::UnknownUser(msg.from));
        }
        if msg.payload.len() != self.cfg.padded_len() {
            return Err(ProtocolError::Coding(
                lsa_coding::CodingError::LengthMismatch {
                    expected: self.cfg.padded_len(),
                    got: msg.payload.len(),
                },
            ));
        }
        if !self.uploaders.insert(msg.from) {
            return Err(ProtocolError::DuplicateMessage(msg.from));
        }
        // Fold into the widened running sum: plain integer adds, no
        // per-element reduction. Normalise if a (pathologically long)
        // run of uploads approaches the accumulator capacity.
        if self.sum_terms >= F::WIDE_CAPACITY {
            lsa_field::ops::wide_normalize::<F>(&mut self.sum_masked);
            self.sum_terms = 1;
        }
        lsa_field::ops::wide_accumulate::<F>(&mut self.sum_masked, &msg.payload);
        self.sum_terms += 1;
        Ok(())
    }

    /// Close the upload phase, fixing the survivor set `U₁` (Algorithm 1
    /// line 17). Returns the survivors, which the server announces
    /// ([`Session::poll_output`]) so each one can compute its aggregated
    /// coded mask.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NotEnoughSurvivors`] if fewer than `U`
    /// users uploaded — recovery would be impossible — and
    /// [`ProtocolError::WrongPhase`] on a second close.
    pub fn close_upload_phase(&mut self) -> Result<&[usize], ProtocolError> {
        if self.phase != ServerPhase::CollectingMaskedModels {
            return Err(ProtocolError::WrongPhase);
        }
        if self.uploaders.len() < self.cfg.u() {
            return Err(ProtocolError::NotEnoughSurvivors {
                got: self.uploaders.len(),
                need: self.cfg.u(),
            });
        }
        self.survivors = self.uploaders.iter().copied().collect();
        self.phase = ServerPhase::CollectingAggregatedShares;
        Ok(&self.survivors)
    }

    /// The survivor set `U₁` (valid after [`Self::close_upload_phase`]).
    pub fn survivors(&self) -> &[usize] {
        &self.survivors
    }

    /// Accept an aggregated coded mask from a surviving user. Returns
    /// `true` once `U` shares have arrived (recovery possible).
    ///
    /// Shares from non-survivors are rejected; extra shares beyond `U`
    /// are accepted and ignored by the decoder (it uses the first `U`).
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::WrongPhase`] before the upload phase closes;
    /// * [`ProtocolError::StaleRound`] for a share from another round;
    /// * [`ProtocolError::UnknownUser`] if the sender is not a survivor;
    /// * [`ProtocolError::DuplicateMessage`] / [`ProtocolError::Coding`].
    pub fn receive_aggregated_share(
        &mut self,
        msg: AggregatedShare<F>,
    ) -> Result<bool, ProtocolError> {
        if self.phase == ServerPhase::CollectingMaskedModels {
            return Err(ProtocolError::WrongPhase);
        }
        if msg.group != self.group {
            return Err(ProtocolError::WrongGroup {
                got: msg.group,
                expected: self.group,
            });
        }
        if msg.round != self.round {
            return Err(ProtocolError::StaleRound {
                got: msg.round,
                current: self.round,
            });
        }
        if !self.survivors.contains(&msg.from) {
            return Err(ProtocolError::UnknownUser(msg.from));
        }
        if msg.payload.len() != self.cfg.segment_len() {
            return Err(ProtocolError::Coding(
                lsa_coding::CodingError::LengthMismatch {
                    expected: self.cfg.segment_len(),
                    got: msg.payload.len(),
                },
            ));
        }
        if self.shares.iter().any(|(from, _)| *from == msg.from) {
            return Err(ProtocolError::DuplicateMessage(msg.from));
        }
        self.shares.push((msg.from, msg.payload));
        if self.shares.len() >= self.cfg.u() {
            self.phase = ServerPhase::ReadyToRecover;
        }
        Ok(self.phase == ServerPhase::ReadyToRecover)
    }

    /// One-shot aggregate recovery (Algorithm 1 lines 24–28): MDS-decode
    /// `Σ_{i∈U₁} z_i` from the aggregated coded masks, subtract it from
    /// `Σ_{i∈U₁} ~x_i`, and return the aggregate model truncated to `d`.
    ///
    /// Consumes the running sum (collapsing the widened accumulators in
    /// one reduction pass) instead of cloning `O(d)` state; the round
    /// transitions to [`ServerPhase::Recovered`] and a second call is a
    /// phase error.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::WrongPhase`] until `U` shares arrived
    /// (or after recovery already ran), or a [`ProtocolError::Coding`]
    /// decode failure.
    pub fn recover_aggregate(&mut self) -> Result<Vec<F>, ProtocolError> {
        if self.phase != ServerPhase::ReadyToRecover {
            return Err(ProtocolError::WrongPhase);
        }
        // Decode Σ z_i first: the aggregated shares are evaluations of
        // the aggregated mask polynomial at the senders' points (Eq. 6).
        // A decode failure must leave the round intact, so the running
        // sum is consumed only after it succeeds.
        let agg_segments = self
            .code
            .decode_prefix(&self.shares, self.cfg.data_segments())?;
        let agg_mask = vandermonde::concatenate(&agg_segments);

        // Σ ~x_i over survivors: collapse the widened running sum —
        // every uploader is a survivor once the phase closes, so no
        // per-user buffering, and no O(d) clone here.
        let wide = std::mem::take(&mut self.sum_masked);
        let mut sum_masked = lsa_field::ops::wide_collapse::<F>(&wide);
        self.phase = ServerPhase::Recovered;

        lsa_field::ops::sub_assign(&mut sum_masked, &agg_mask);
        sum_masked.truncate(self.cfg.d());
        Ok(sum_masked)
    }

    /// How many aggregated shares have been received.
    pub fn shares_received(&self) -> usize {
        self.shares.len()
    }
}

impl<F: Field> Session<F> for ServerRound<F> {
    fn local_addr(&self) -> Recipient {
        Recipient::Server
    }

    fn handle(&mut self, envelope: Envelope<F>) -> Result<Vec<Outgoing<F>>, ProtocolError> {
        match envelope {
            Envelope::MaskedModel(m) => self.receive_masked_model(m)?,
            Envelope::AggregatedShare(s) => {
                self.receive_aggregated_share(s)?;
            }
            other => return Err(ProtocolError::UnexpectedEnvelope { kind: other.kind() }),
        }
        Ok(Vec::new())
    }

    fn poll_output(&mut self) -> Option<Outgoing<F>> {
        // `survivors` is empty until the upload phase closes
        let to = *self.survivors.get(self.announced)?;
        self.announced += 1;
        let announcement = SurvivorAnnouncement {
            group: self.group,
            round: self.round,
            survivors: self.survivors.clone(),
        };
        Some((
            Recipient::Client(to),
            Envelope::SurvivorAnnouncement(announcement),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_field::Fp61;

    fn cfg() -> LsaConfig {
        LsaConfig::new(4, 1, 3, 6).unwrap()
    }

    #[test]
    fn phase_transitions_enforced() {
        let mut s = ServerRound::<Fp61>::new(cfg()).unwrap();
        assert_eq!(s.phase(), ServerPhase::CollectingMaskedModels);
        // cannot accept aggregated shares yet
        let share = AggregatedShare {
            from: 0,
            group: 0,
            round: 0,
            payload: vec![Fp61::ZERO; cfg().segment_len()],
        };
        assert!(matches!(
            s.receive_aggregated_share(share),
            Err(ProtocolError::WrongPhase)
        ));
        // cannot recover yet
        assert!(matches!(
            s.recover_aggregate(),
            Err(ProtocolError::WrongPhase)
        ));
    }

    #[test]
    fn close_requires_u_models() {
        let mut s = ServerRound::<Fp61>::new(cfg()).unwrap();
        for id in 0..2 {
            s.receive_masked_model(MaskedModel {
                from: id,
                group: 0,
                round: 0,
                payload: vec![Fp61::ZERO; cfg().padded_len()],
            })
            .unwrap();
        }
        assert!(matches!(
            s.close_upload_phase(),
            Err(ProtocolError::NotEnoughSurvivors { got: 2, need: 3 })
        ));
    }

    #[test]
    fn non_survivor_share_rejected() {
        let mut s = ServerRound::<Fp61>::new(cfg()).unwrap();
        for id in 0..3 {
            s.receive_masked_model(MaskedModel {
                from: id,
                group: 0,
                round: 0,
                payload: vec![Fp61::ZERO; cfg().padded_len()],
            })
            .unwrap();
        }
        s.close_upload_phase().unwrap();
        let share = AggregatedShare {
            from: 3,
            group: 0, // user 3 dropped before upload
            round: 0,
            payload: vec![Fp61::ZERO; cfg().segment_len()],
        };
        assert!(matches!(
            s.receive_aggregated_share(share),
            Err(ProtocolError::UnknownUser(3))
        ));
    }

    #[test]
    fn duplicate_model_rejected() {
        let mut s = ServerRound::<Fp61>::new(cfg()).unwrap();
        let m = MaskedModel {
            from: 0,
            group: 0,
            round: 0,
            payload: vec![Fp61::ZERO; cfg().padded_len()],
        };
        s.receive_masked_model(m.clone()).unwrap();
        assert!(matches!(
            s.receive_masked_model(m),
            Err(ProtocolError::DuplicateMessage(0))
        ));
    }

    #[test]
    fn envelope_is_checked_group_then_round_then_sender() {
        // through `Session::handle`: an upload wrong in every way reports
        // its group, then its round, and only then counts as a duplicate
        let mut s = ServerRound::<Fp61>::for_round_in_group(cfg(), 3, 7).unwrap();
        let upload = |group, round| {
            Envelope::MaskedModel(MaskedModel {
                from: 0,
                group,
                round,
                payload: vec![Fp61::ZERO; cfg().padded_len()],
            })
        };
        s.handle(upload(7, 3)).unwrap();
        assert_eq!(
            s.handle(upload(6, 2)).unwrap_err(),
            ProtocolError::WrongGroup {
                got: 6,
                expected: 7
            }
        );
        assert_eq!(
            s.handle(upload(7, 2)).unwrap_err(),
            ProtocolError::StaleRound { got: 2, current: 3 }
        );
        assert_eq!(
            s.handle(upload(7, 3)).unwrap_err(),
            ProtocolError::DuplicateMessage(0)
        );
        // nothing is announced before the phase closes
        assert!(s.poll_output().is_none());
    }

    #[test]
    fn cross_round_upload_is_stale_not_duplicate() {
        // a round-3 server must reject a round-2 upload as StaleRound —
        // and a same-round repeat as DuplicateMessage. The two failure
        // modes are distinct typed errors.
        let mut s = ServerRound::<Fp61>::for_round(cfg(), 3).unwrap();
        assert_eq!(s.round(), 3);
        let stale = MaskedModel {
            from: 0,
            group: 0,
            round: 2,
            payload: vec![Fp61::ZERO; cfg().padded_len()],
        };
        assert!(matches!(
            s.receive_masked_model(stale),
            Err(ProtocolError::StaleRound { got: 2, current: 3 })
        ));
        let current = MaskedModel {
            from: 0,
            group: 0,
            round: 3,
            payload: vec![Fp61::ZERO; cfg().padded_len()],
        };
        s.receive_masked_model(current.clone()).unwrap();
        assert!(matches!(
            s.receive_masked_model(current),
            Err(ProtocolError::DuplicateMessage(0))
        ));
    }
}
