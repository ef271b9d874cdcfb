//! The latency/bandwidth communication cost model (paper Eq. 4 and Alg. 2):
//! one pricing function, [`CommModel::transfer_time`], which the round
//! engine, the BCRS scheduler and the figures all read, and one analytic
//! byte model, [`CommModel::analytic_bytes`], with its inverse
//! [`CommModel::ratio_for_budget`].

use crate::link::Link;

/// What the simulator charges for a compressed transfer.
///
/// The paper's communication model is *analytic*: a sparsified update costs
/// `2 × V × CR` bytes regardless of what any encoder actually produces.
/// Since the codec pipeline emits real byte buffers, the simulator can
/// alternatively charge the bytes that were actually encoded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CostBasis {
    /// The paper's closed-form `2·V·CR` accounting (default; keeps results
    /// bit-identical to the analytic reproduction).
    #[default]
    Analytic,
    /// Charge the encoded `WireUpdate` length exactly — varint-compressed
    /// indices, bit-packed quantization levels and all.
    Encoded,
}

/// Communication-time model: every transfer costs `T = L + bytes·8 / B`
/// ([`CommModel::transfer_time`]).
///
/// The paper charges a sparsified update `2 × V × CR` bytes — each retained
/// coordinate ships an index alongside its value — which is
/// [`CommModel::analytic_bytes`]; `V` is the dense model size in bytes and a
/// dense transfer costs `V`. Under [`CostBasis::Encoded`] the round engine
/// prices each upload and broadcast on the encoded buffer's length instead.
/// Links are symmetric: the same latency and bandwidth govern both
/// directions.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommModel {
    /// Whether transfers are priced by the analytic formula or by the bytes
    /// a codec actually produced.
    pub cost_basis: CostBasis,
}

/// Transfer time charged for a link with no usable bandwidth
/// (`bandwidth_bps <= 0`, or NaN): roughly 31.7 years, i.e. "this round never
/// finishes through that link". A finite saturation value keeps the running
/// totals and straggler bounds free of `inf`/NaN while still dominating any
/// realistic transfer, so a dead link loses every straggler comparison.
pub const SATURATED_TRANSFER_S: f64 = 1e9;

impl CommModel {
    /// The paper's model: analytic `2·V·CR` accounting.
    pub fn paper_default() -> Self {
        Self {
            cost_basis: CostBasis::Analytic,
        }
    }

    /// The same model pricing transfers by encoded bytes.
    pub fn with_cost_basis(mut self, basis: CostBasis) -> Self {
        self.cost_basis = basis;
        self
    }

    /// Time in seconds to transmit `payload_bytes` over `link`, in either
    /// direction.
    ///
    /// A link with zero, negative or NaN bandwidth (possible when links come
    /// from a scenario trace rather than [`Link::new`]) charges the
    /// saturating [`SATURATED_TRANSFER_S`] instead of dividing to `inf`/NaN.
    pub fn transfer_time(&self, link: &Link, payload_bytes: f64) -> f64 {
        assert!(payload_bytes >= 0.0, "payload must be non-negative");
        if link.bandwidth_bps.is_nan() || link.bandwidth_bps <= 0.0 {
            return SATURATED_TRANSFER_S;
        }
        link.latency_s + payload_bytes * 8.0 / link.bandwidth_bps
    }

    /// The paper's analytic size of an update of a `model_bytes`-byte model
    /// sparsified at ratio `cr`: `2·V·CR` bytes (Alg. 2 line 7).
    pub fn analytic_bytes(model_bytes: f64, cr: f64) -> f64 {
        2.0 * model_bytes * cr
    }

    /// The inverse of [`analytic_bytes`](Self::analytic_bytes) through
    /// [`transfer_time`](Self::transfer_time): the compression ratio whose
    /// transfer finishes in exactly `budget_s` seconds (clamped to `>= 0`).
    /// This is the core of BCRS (Alg. 2 line 13). A link with no usable
    /// bandwidth can ship nothing in any budget, so the ratio is 0.
    pub fn ratio_for_budget(&self, link: &Link, model_bytes: f64, budget_s: f64) -> f64 {
        if link.bandwidth_bps.is_nan() || link.bandwidth_bps <= 0.0 {
            return 0.0;
        }
        let usable = (budget_s - link.latency_s).max(0.0);
        usable * link.bandwidth_bps / (Self::analytic_bytes(model_bytes, 1.0) * 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link_1mbps_100ms() -> Link {
        Link::from_mbps_ms(1.0, 100.0)
    }

    fn sparse_time(link: &Link, model_bytes: f64, cr: f64) -> f64 {
        let m = CommModel::paper_default();
        m.transfer_time(link, CommModel::analytic_bytes(model_bytes, cr))
    }

    #[test]
    fn dense_transfer_time() {
        let m = CommModel::paper_default();
        // 1 Mbit/s, 125_000 bytes = 1 Mbit => 1 s + 0.1 s latency
        let t = m.transfer_time(&link_1mbps_100ms(), 125_000.0);
        assert!((t - 1.1).abs() < 1e-9);
    }

    #[test]
    fn sparse_pays_double() {
        let m = CommModel::paper_default();
        let link = link_1mbps_100ms();
        let dense = m.transfer_time(&link, 125_000.0);
        // CR = 1 with the 2x index overhead is slower than a dense transfer.
        assert!(sparse_time(&link, 125_000.0, 1.0) > dense);
        assert!(sparse_time(&link, 125_000.0, 0.1) < dense);
        assert_eq!(CommModel::analytic_bytes(125_000.0, 0.5), 125_000.0);
    }

    #[test]
    fn ratio_for_budget_inverts_time() {
        let m = CommModel::paper_default();
        let link = link_1mbps_100ms();
        let v = 500_000.0;
        for &budget in &[0.2, 0.5, 2.0, 10.0] {
            let cr = m.ratio_for_budget(&link, v, budget);
            let t = sparse_time(&link, v, cr);
            assert!((t - budget).abs() < 1e-9, "budget {budget} gave time {t}");
        }
    }

    #[test]
    fn ratio_for_budget_below_latency_is_zero() {
        let m = CommModel::paper_default();
        let link = link_1mbps_100ms();
        assert_eq!(m.ratio_for_budget(&link, 1e6, 0.05), 0.0);
    }

    #[test]
    fn cost_basis_defaults_to_analytic() {
        assert_eq!(CostBasis::default(), CostBasis::Analytic);
        assert_eq!(CommModel::paper_default().cost_basis, CostBasis::Analytic);
        assert_eq!(CommModel::default().cost_basis, CostBasis::Analytic);
        let m = CommModel::paper_default().with_cost_basis(CostBasis::Encoded);
        assert_eq!(m.cost_basis, CostBasis::Encoded);
    }

    #[test]
    fn dead_links_saturate_instead_of_dividing() {
        let m = CommModel::paper_default();
        // Struct literals bypass `Link::new`'s positivity assert, exactly how
        // a hand-written trace or a buggy generator would produce dead links.
        for bw in [0.0, -1.0, f64::NAN] {
            let dead = Link {
                bandwidth_bps: bw,
                latency_s: 0.05,
            };
            let t = m.transfer_time(&dead, 125_000.0);
            assert_eq!(t, SATURATED_TRANSFER_S, "bw={bw}");
            assert!(t.is_finite());
            assert_eq!(sparse_time(&dead, 125_000.0, 0.1), t);
            assert_eq!(m.ratio_for_budget(&dead, 1e6, 10.0), 0.0, "bw={bw}");
        }
    }

    #[test]
    fn zero_payload_on_dead_link_still_saturates() {
        let m = CommModel::paper_default();
        let dead = Link {
            bandwidth_bps: 0.0,
            latency_s: 0.0,
        };
        // 0 * 8.0 / 0.0 would be NaN without the guard.
        let t = m.transfer_time(&dead, 0.0);
        assert_eq!(t, SATURATED_TRANSFER_S);
    }

    #[test]
    fn higher_bandwidth_is_faster() {
        let fast = Link::from_mbps_ms(2.0, 100.0);
        let slow = Link::from_mbps_ms(0.5, 100.0);
        assert!(sparse_time(&fast, 1e6, 0.1) < sparse_time(&slow, 1e6, 0.1));
    }
}
