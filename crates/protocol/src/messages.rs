//! The three wire messages of LightSecAgg (Figure 1 of the paper).
//!
//! Message payloads are field-element vectors; the byte size of each
//! message (used by the network simulator) is `payload.len() × bytes per
//! element` plus a fixed header. Every message carries the **round id**
//! it belongs to: a multi-round federation interleaves traffic from
//! adjacent rounds (offline mask sharing for round `t+1` overlaps round
//! `t`, §4.1), so sessions must be able to route — and *reject* — by
//! round. A replayed envelope from an earlier round surfaces as
//! [`crate::ProtocolError::StaleRound`], never as a silent duplicate.
//!
//! Every message also carries the **group id** of the aggregation group
//! it belongs to ([`crate::topology`]): a grouped topology runs one
//! independent LightSecAgg instance per group over a shared transport,
//! with user indices local to each group, so endpoints must reject a
//! cross-group share with [`crate::ProtocolError::WrongGroup`] before it
//! could ever be mistaken for a same-group message from the same local
//! index. The flat topology is simply group 0 everywhere.

/// Offline phase: user `from` sends the coded mask segment `[~z_from]_to`
/// to user `to` over a private channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodedMaskShare<F> {
    /// Sender (mask owner) index, local to the group.
    pub from: usize,
    /// Recipient index, local to the group.
    pub to: usize,
    /// Aggregation group (0 in the flat topology).
    pub group: usize,
    /// Round the mask was generated for.
    pub round: u64,
    /// The coded segment, length `⌈d/(U−T)⌉`.
    pub payload: Vec<F>,
}

/// Upload phase: user `from` uploads its masked (padded, quantized) model
/// `~x_from = x_from + z_from`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedModel<F> {
    /// Uploading user index, local to the group.
    pub from: usize,
    /// Aggregation group (0 in the flat topology).
    pub group: usize,
    /// Round the upload belongs to.
    pub round: u64,
    /// Masked model of padded length.
    pub payload: Vec<F>,
}

/// Recovery phase: surviving user `from` uploads its aggregated coded
/// mask `Σ_{i∈U₁} [~z_i]_from`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregatedShare<F> {
    /// Uploading user index, local to the group.
    pub from: usize,
    /// Aggregation group (0 in the flat topology).
    pub group: usize,
    /// Round (sync) or buffer-flush round (async) being recovered.
    pub round: u64,
    /// Aggregated coded segment, length `⌈d/(U−T)⌉`.
    pub payload: Vec<F>,
}
