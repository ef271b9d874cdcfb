//! The algorithms compared in the paper's evaluation.

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

    /// True if this algorithm schedules per-client compression ratios
    /// (as opposed to a uniform ratio).
    pub fn uses_bcrs(&self) -> bool {
        matches!(self, Algorithm::Bcrs | Algorithm::BcrsOpwa)
    }

    /// True if this algorithm applies the OPWA parameter mask.
    pub fn uses_opwa(&self) -> bool {
        matches!(self, Algorithm::BcrsOpwa | Algorithm::TopKOpwa)
    }

    /// True if this algorithm keeps per-client error-feedback residuals.
    pub fn uses_error_feedback(&self) -> bool {
        matches!(self, Algorithm::EfTopK)
    }

    /// True if this algorithm sparsifies with Rand-K instead of Top-K.
    pub fn uses_randk(&self) -> bool {
        matches!(self, Algorithm::RandK)
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
        assert!(Algorithm::EfTopK.uses_error_feedback());
        assert!(!Algorithm::BcrsOpwa.uses_error_feedback());
        assert!(Algorithm::RandK.uses_randk());
        assert!(!Algorithm::TopK.uses_randk());
    }

    #[test]
    fn paper_lineup_matches_table_two() {
        let lineup = Algorithm::paper_lineup();
        assert_eq!(lineup.len(), 5);
        assert_eq!(lineup[0], Algorithm::FedAvg);
        assert_eq!(lineup[4], Algorithm::BcrsOpwa);
    }
}
