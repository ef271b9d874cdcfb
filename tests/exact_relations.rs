//! Exact metamorphic relations of the round engine: changes to a config
//! that must leave training bit-identical, with no oracle needed.
//!
//! - Evaluating every 4th round instead of every round changes only the
//!   evaluation fields: every loss, byte count, cohort, ratio and the final
//!   parameters stay bit-identical.
//! - A 6-round run is the bit-identical prefix of the 12-round run.
//! - At (almost) zero latency, doubling every link's bandwidth halves every
//!   simulated communication time exactly and leaves training, ratios and
//!   plans bit-identical. Doubling a binary float is exact, BCRS's schedule
//!   depends only on bandwidth ratios, and a latency of about 1e-300 ms is
//!   below half an ulp of any upload time.
//! - At compression ratio 1, `ef-topk` trains, pays and ships exactly what
//!   `topk` does: every coordinate is sent, so the error-feedback residual
//!   stays zero and adds nothing.
//! - A churn scenario in which nobody leaves or joins selects and trains
//!   exactly as no scenario: the cohort drawn from a pool of every client
//!   equals the one drawn over all `N`.

use bwfl::prelude::*;

const ALGORITHMS: [Algorithm; 7] = [
    Algorithm::FedAvg,
    Algorithm::TopK,
    Algorithm::EfTopK,
    Algorithm::RandK,
    Algorithm::Bcrs,
    Algorithm::BcrsOpwa,
    Algorithm::TopKOpwa,
];

/// A small quick config (4 of 16 clients, MLP 16/8) with links of almost
/// zero latency.
fn base(algorithm: Algorithm, rounds: usize) -> ExperimentConfig {
    let mut c = ExperimentConfig::quick(algorithm);
    c.num_clients = 16;
    c.participation = 0.25;
    c.dataset_scale = 0.02;
    c.rounds = rounds;
    c.max_threads = 1;
    c.model = ModelPreset::Mlp {
        hidden1: 16,
        hidden2: 8,
    };
    c.links.latency_lo_ms = 0.0;
    c.links.latency_hi_ms = 1e-300;
    c
}

/// Every round's record and the final global parameters.
fn run(config: &ExperimentConfig) -> (Vec<RoundRecord>, Vec<f32>) {
    let mut session = FederatedSession::from_config(config);
    while !session.is_finished() {
        session.run_round();
    }
    (session.records().to_vec(), session.global_params().to_vec())
}

/// `b` trained exactly as `a` did, whatever it evaluated or paid.
fn assert_same_training(
    what: &str,
    (a, a_params): &(Vec<RoundRecord>, Vec<f32>),
    (b, b_params): &(Vec<RoundRecord>, Vec<f32>),
) {
    assert_eq!(a.len(), b.len(), "{what}: round count");
    for (x, y) in a.iter().zip(b) {
        let r = x.round;
        assert_eq!(
            x.train_loss.to_bits(),
            y.train_loss.to_bits(),
            "{what}: loss, round {r}"
        );
        let (xr, yr) = (x.mean_compression_ratio, y.mean_compression_ratio);
        assert_eq!(xr.to_bits(), yr.to_bits(), "{what}: ratio, round {r}");
        assert_eq!(x.uplink_bytes, y.uplink_bytes, "{what}: uplink, round {r}");
        assert_eq!(
            x.downlink_bytes, y.downlink_bytes,
            "{what}: downlink, round {r}"
        );
        assert_eq!(
            x.selected_clients, y.selected_clients,
            "{what}: cohort, round {r}"
        );
        assert_eq!(
            x.layer_bytes, y.layer_bytes,
            "{what}: layer bytes, round {r}"
        );
        assert_eq!(x.plan, y.plan, "{what}: plan, round {r}");
    }
    let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(a_params), bits(b_params), "{what}: final parameters");
}

/// Doubling every bandwidth of `config` halves every simulated time.
fn assert_double_bandwidth_halves_time(what: &str, config: &ExperimentConfig) {
    let slow = run(config);
    let mut fast_config = config.clone();
    fast_config.links.bandwidth_mean_mbps *= 2.0;
    fast_config.links.bandwidth_std_mbps *= 2.0;
    let fast = run(&fast_config);
    assert_same_training(what, &slow, &fast);
    for (s, f) in slow.0.iter().zip(&fast.0) {
        let r = s.round;
        for (name, s, f) in [
            ("comm_actual_s", s.comm_actual_s, f.comm_actual_s),
            ("comm_max_s", s.comm_max_s, f.comm_max_s),
            ("comm_min_s", s.comm_min_s, f.comm_min_s),
            (
                "cumulative_actual_s",
                s.cumulative_actual_s,
                f.cumulative_actual_s,
            ),
        ] {
            assert!(s > 0.0, "{what}: {name} is positive, round {r}");
            assert_eq!(
                s.to_bits(),
                (2.0 * f).to_bits(),
                "{what}: {name}, round {r}"
            );
        }
    }
}

#[test]
fn sparse_evaluation_leaves_training_bit_identical() {
    for algorithm in ALGORITHMS {
        let every = run(&base(algorithm, 6));
        let mut sparse = base(algorithm, 6);
        sparse.eval_every = 4;
        let what = format!("{}, eval_every 4", algorithm.name());
        assert_same_training(&what, &every, &run(&sparse));
    }
}

#[test]
fn a_shorter_run_is_a_prefix_of_a_longer_one() {
    for algorithm in ALGORITHMS {
        let (short, _) = run(&base(algorithm, 6));
        // The first 6 rounds of the 12-round session are all the relation
        // reads.
        let mut long = FederatedSession::from_config(&base(algorithm, 12));
        for _ in 0..6 {
            long.run_round();
        }
        assert_eq!(short, long.records(), "{}", algorithm.name());
    }
}

#[test]
fn doubling_every_bandwidth_halves_communication_time() {
    for algorithm in ALGORITHMS {
        assert_double_bandwidth_halves_time(algorithm.name(), &base(algorithm, 3));
    }
    // BCRS+OPWA under both cost bases, the adaptive plan, three scenarios
    // and an error-feedback downlink.
    let variant = |set: fn(&mut ExperimentConfig)| {
        let mut c = base(Algorithm::BcrsOpwa, 3);
        set(&mut c);
        c
    };
    for (name, config) in [
        (
            "encoded bytes",
            variant(|c| c.cost_basis = CostBasis::Encoded),
        ),
        (
            "layer-bcrs",
            variant(|c| {
                c.cost_basis = CostBasis::Encoded;
                c.adaptive_plan = Some("layer-bcrs".parse().unwrap());
            }),
        ),
        (
            "churn",
            variant(|c| c.scenario = Some("churn".parse().unwrap())),
        ),
        (
            "diurnal",
            variant(|c| c.scenario = Some("diurnal".parse().unwrap())),
        ),
        (
            "towers",
            variant(|c| c.scenario = Some("towers".parse().unwrap())),
        ),
        (
            "ef-topk downlink",
            variant(|c| c.downlink_compressor = Some("ef-topk".parse().unwrap())),
        ),
    ] {
        assert_double_bandwidth_halves_time(name, &config);
    }
}

/// Every round of `b` took the simulated time `a` did.
fn assert_same_comm_time(what: &str, a: &[RoundRecord], b: &[RoundRecord]) {
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.comm_actual_s.to_bits(),
            y.comm_actual_s.to_bits(),
            "{what}: comm_actual_s, round {}",
            x.round
        );
    }
}

#[test]
fn error_feedback_at_ratio_one_is_plain_topk() {
    for algorithm in ALGORITHMS {
        for cost_basis in [CostBasis::Analytic, CostBasis::Encoded] {
            let with = |spec: &str| {
                let mut c = base(algorithm, 6);
                c.compression_ratio = 1.0;
                c.cost_basis = cost_basis;
                c.compressor = Some(spec.parse().unwrap());
                run(&c)
            };
            let (plain, ef) = (with("topk"), with("ef-topk"));
            let what = format!("{}, {cost_basis:?}, ef-topk at ratio 1", algorithm.name());
            assert_same_training(&what, &plain, &ef);
            assert_same_comm_time(&what, &plain.0, &ef.0);
        }
    }
}

#[test]
fn a_churn_scenario_without_churn_selects_like_no_scenario() {
    for algorithm in ALGORITHMS {
        let static_fleet = run(&base(algorithm, 6));
        let mut still = base(algorithm, 6);
        still.scenario = Some("churn:leave=0,join=0".parse().unwrap());
        let what = format!("{}, churn:leave=0,join=0", algorithm.name());
        assert_same_training(&what, &static_fleet, &run(&still));
    }
}
