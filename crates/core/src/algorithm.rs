//! The algorithms compared in the paper's evaluation, as presets: each one
//! is a name, a default uplink codec, a ratio rule and an OPWA flag, and the
//! round engine reads only those properties.

use fl_compress::CompressorSpec;

/// The five algorithms of Table 2 (plus Rand-K, included for ablations).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Uncompressed FedAvg (McMahan et al. 2017) — the accuracy reference.
    FedAvg,
    /// FedAvg with uniform Top-K sparsification.
    TopK,
    /// FedAvg with error-feedback Top-K (EF-Top-K).
    EfTopK,
    /// FedAvg with uniform Rand-K sparsification (ablation baseline).
    RandK,
    /// Bandwidth-aware Compression Ratio Scheduling (this paper, Alg. 2).
    Bcrs,
    /// BCRS combined with Overlap-aware Parameter Weighted Averaging
    /// (this paper, Alg. 2 + Alg. 3).
    BcrsOpwa,
    /// Uniform Top-K with the OPWA mask but *without* BCRS — demonstrates the
    /// paper's claim that OPWA is independent of the compression scheduler
    /// and composes with any sparsifier.
    TopKOpwa,
}

/// How an algorithm gives each selected client its compression ratio, and
/// so how the analytic cost model sizes its upload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RatioRule {
    /// Ratio 1 for everyone, uploaded as the dense model (`V` bytes).
    Dense,
    /// The base ratio `CR*` for everyone (`2·V·CR*` bytes).
    Uniform,
    /// The BCRS schedule (Alg. 2): the largest ratio that still finishes
    /// within the slowest client's uniform upload time.
    Bcrs,
}

impl Algorithm {
    /// Name used in experiment reports (matches the paper's tables).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::FedAvg => "fedavg",
            Algorithm::TopK => "topk",
            Algorithm::EfTopK => "eftopk",
            Algorithm::RandK => "randk",
            Algorithm::Bcrs => "bcrs",
            Algorithm::BcrsOpwa => "bcrs+opwa",
            Algorithm::TopKOpwa => "topk+opwa",
        }
    }

    /// The uplink codec spec this algorithm implies when the configuration
    /// does not override it (FedAvg transmits at ratio 1, which Top-K passes
    /// through).
    pub fn codec_spec(&self) -> CompressorSpec {
        match self {
            Algorithm::EfTopK => CompressorSpec::topk().with_error_feedback(),
            Algorithm::RandK => CompressorSpec::randk(),
            _ => CompressorSpec::topk(),
        }
    }

    /// How this algorithm assigns per-client compression ratios.
    pub fn ratio_rule(&self) -> RatioRule {
        match self {
            Algorithm::FedAvg => RatioRule::Dense,
            Algorithm::Bcrs | Algorithm::BcrsOpwa => RatioRule::Bcrs,
            _ => RatioRule::Uniform,
        }
    }

    /// True if this algorithm schedules per-client compression ratios
    /// (as opposed to a uniform ratio).
    pub fn uses_bcrs(&self) -> bool {
        self.ratio_rule() == RatioRule::Bcrs
    }

    /// True if this algorithm applies the OPWA parameter mask.
    pub fn uses_opwa(&self) -> bool {
        matches!(self, Algorithm::BcrsOpwa | Algorithm::TopKOpwa)
    }

    /// All algorithms evaluated in the paper's main table, in table order.
    pub fn paper_lineup() -> [Algorithm; 5] {
        [
            Algorithm::FedAvg,
            Algorithm::TopK,
            Algorithm::EfTopK,
            Algorithm::Bcrs,
            Algorithm::BcrsOpwa,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_flags() {
        assert!(Algorithm::Bcrs.uses_bcrs());
        assert!(!Algorithm::TopK.uses_bcrs());
        assert!(Algorithm::BcrsOpwa.uses_opwa());
        assert!(Algorithm::TopKOpwa.uses_opwa());
        assert!(!Algorithm::TopKOpwa.uses_bcrs());
        assert!(!Algorithm::Bcrs.uses_opwa());
        assert_eq!(Algorithm::FedAvg.ratio_rule(), RatioRule::Dense);
        assert_eq!(Algorithm::RandK.ratio_rule(), RatioRule::Uniform);
        assert_eq!(Algorithm::BcrsOpwa.ratio_rule(), RatioRule::Bcrs);
    }

    #[test]
    fn paper_lineup_matches_table_two() {
        let lineup = Algorithm::paper_lineup();
        assert_eq!(lineup.len(), 5);
        assert_eq!(lineup[0], Algorithm::FedAvg);
        assert_eq!(lineup[4], Algorithm::BcrsOpwa);
    }
}
