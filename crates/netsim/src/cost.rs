//! The latency/bandwidth communication cost model (paper Eq. 4 and Alg. 2).

use crate::link::Link;

/// What the simulator charges for a compressed uplink.
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

/// Communication-time model: `T = L + bits / B`.
///
/// For sparsified uplinks the paper charges `2 × V × CR` bytes — each retained
/// coordinate ships an index alongside its value — which is what
/// [`CommModel::sparse_uplink_time`] implements. `V` is the dense model size
/// in bytes. Under [`CostBasis::Encoded`] the round engine bypasses the
/// analytic formula and prices each upload via [`CommModel::transfer_time`]
/// on the encoded buffer's length.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommModel {
    /// If true (default, matches the paper) sparse transfers pay the 2× index
    /// overhead. Exposed so the ablation bench can quantify its impact.
    pub index_overhead: bool,
    /// Whether uplinks are priced by the analytic formula or by the bytes a
    /// codec actually produced.
    pub cost_basis: CostBasis,
}

/// Transfer time charged for a link with no usable bandwidth
/// (`bandwidth_bps <= 0`, or NaN): roughly 31.7 years, i.e. "this round never
/// finishes through that link". A finite saturation value keeps downstream
/// accumulators (`TimeAccumulator`, straggler bounds) free of `inf`/NaN while
/// still dominating any realistic transfer, so a dead link loses every
/// straggler comparison.
pub const SATURATED_TRANSFER_S: f64 = 1e9;

impl CommModel {
    /// Model with the paper's 2× index+value accounting.
    pub fn paper_default() -> Self {
        Self {
            index_overhead: true,
            cost_basis: CostBasis::Analytic,
        }
    }

    /// The same model pricing uplinks by encoded bytes.
    pub fn with_cost_basis(mut self, basis: CostBasis) -> Self {
        self.cost_basis = basis;
        self
    }

    /// Time in seconds to transmit `payload_bytes` over `link`.
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

    /// Uncompressed uplink time for a dense model of `model_bytes` bytes.
    pub fn dense_uplink_time(&self, link: &Link, model_bytes: f64) -> f64 {
        self.transfer_time(link, model_bytes)
    }

    /// Uplink time for a sparsified update at compression ratio `cr` of a
    /// dense model of `model_bytes` bytes: `L + 2·V·CR·8 / B` (Alg. 2 line 7).
    pub fn sparse_uplink_time(&self, link: &Link, model_bytes: f64, cr: f64) -> f64 {
        assert!(cr >= 0.0, "compression ratio must be non-negative");
        let factor = if self.index_overhead { 2.0 } else { 1.0 };
        self.transfer_time(link, factor * model_bytes * cr)
    }

    /// Uncompressed downlink (broadcast) time for a dense model of
    /// `model_bytes` bytes. Links are symmetric in this simulator — the same
    /// latency and bandwidth govern both directions — so this mirrors
    /// [`dense_uplink_time`](Self::dense_uplink_time); it exists so the
    /// round engine's download leg reads as what it is.
    pub fn dense_downlink_time(&self, link: &Link, model_bytes: f64) -> f64 {
        self.transfer_time(link, model_bytes)
    }

    /// Analytic downlink time for a compressed broadcast at ratio `cr`: the
    /// paper's bidirectional cost model charges the server→client leg with
    /// the same `L + 2·V·CR·8 / B` formula as the client upload (each
    /// retained coordinate ships an index alongside its value in either
    /// direction). Under `CostBasis::Encoded` the round engine bypasses this
    /// and prices the broadcast via [`transfer_time`](Self::transfer_time) on
    /// the encoded buffer's length.
    pub fn sparse_downlink_time(&self, link: &Link, model_bytes: f64, cr: f64) -> f64 {
        self.sparse_uplink_time(link, model_bytes, cr)
    }

    /// Invert the sparse uplink model: the compression ratio that makes the
    /// transfer finish in exactly `budget_s` seconds (clamped to `>= 0`).
    /// This is the core of BCRS (Alg. 2 line 13). A link with no usable
    /// bandwidth (zero/negative/NaN, mirroring
    /// [`transfer_time`](Self::transfer_time)) can ship nothing in any
    /// budget, so the ratio is 0.
    pub fn ratio_for_budget(&self, link: &Link, model_bytes: f64, budget_s: f64) -> f64 {
        if link.bandwidth_bps.is_nan() || link.bandwidth_bps <= 0.0 {
            return 0.0;
        }
        let factor = if self.index_overhead { 2.0 } else { 1.0 };
        let usable = (budget_s - link.latency_s).max(0.0);
        usable * link.bandwidth_bps / (factor * model_bytes * 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link_1mbps_100ms() -> Link {
        Link::from_mbps_ms(1.0, 100.0)
    }

    #[test]
    fn dense_transfer_time() {
        let m = CommModel::paper_default();
        // 1 Mbit/s, 125_000 bytes = 1 Mbit => 1 s + 0.1 s latency
        let t = m.dense_uplink_time(&link_1mbps_100ms(), 125_000.0);
        assert!((t - 1.1).abs() < 1e-9);
    }

    #[test]
    fn sparse_pays_double() {
        let m = CommModel::paper_default();
        let link = link_1mbps_100ms();
        let dense = m.dense_uplink_time(&link, 125_000.0);
        let sparse_full = m.sparse_uplink_time(&link, 125_000.0, 1.0);
        // CR = 1 with the 2x index overhead is slower than a dense transfer.
        assert!(sparse_full > dense);
        let sparse_tenth = m.sparse_uplink_time(&link, 125_000.0, 0.1);
        assert!(sparse_tenth < dense);
    }

    #[test]
    fn no_overhead_variant() {
        let m = CommModel {
            index_overhead: false,
            ..CommModel::paper_default()
        };
        let link = link_1mbps_100ms();
        let t1 = m.sparse_uplink_time(&link, 125_000.0, 1.0);
        let t2 = m.dense_uplink_time(&link, 125_000.0);
        assert!((t1 - t2).abs() < 1e-12);
    }

    #[test]
    fn ratio_for_budget_inverts_time() {
        let m = CommModel::paper_default();
        let link = link_1mbps_100ms();
        let v = 500_000.0;
        for &budget in &[0.2, 0.5, 2.0, 10.0] {
            let cr = m.ratio_for_budget(&link, v, budget);
            let t = m.sparse_uplink_time(&link, v, cr);
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
        let m = CommModel::paper_default().with_cost_basis(CostBasis::Encoded);
        assert_eq!(m.cost_basis, CostBasis::Encoded);
        assert!(m.index_overhead, "basis switch leaves the formula intact");
    }

    #[test]
    fn downlink_legs_mirror_the_symmetric_uplink() {
        let m = CommModel::paper_default();
        let link = link_1mbps_100ms();
        assert_eq!(
            m.dense_downlink_time(&link, 125_000.0),
            m.dense_uplink_time(&link, 125_000.0)
        );
        assert_eq!(
            m.sparse_downlink_time(&link, 125_000.0, 0.1),
            m.sparse_uplink_time(&link, 125_000.0, 0.1)
        );
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
            assert_eq!(m.sparse_uplink_time(&dead, 125_000.0, 0.1), t);
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
        let m = CommModel::paper_default();
        let fast = Link::from_mbps_ms(2.0, 100.0);
        let slow = Link::from_mbps_ms(0.5, 100.0);
        assert!(m.sparse_uplink_time(&fast, 1e6, 0.1) < m.sparse_uplink_time(&slow, 1e6, 0.1));
    }
}
