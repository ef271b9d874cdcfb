//! What the benchmark declares: every metric it emits, with unit, direction
//! and (end to end) regression bound; the workloads are declared where they
//! are defined, in `workloads.rs`. `BENCHMARK.json` at the
//! repository root is [`benchmark_json`] written out; a unit test pins the two
//! together, so the names emitted are the names declared.

/// The command the driver runs from the repository root; it appends
/// `--workload NAME --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Seconds one run measures: five repeat pairs (1 thread, then `T` threads)
/// sized at about four seconds a pair on the 2-core reference box.
pub const RUN_SECONDS: u64 = 20;

/// Reference cost of one repeat pair, which converts `--seconds` to repeats.
pub const PAIR_SECONDS: u64 = 4;

/// The fewest repeats a run makes, whatever `--seconds` says.
pub const MIN_REPEATS: usize = 5;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// True when the value is a pure function of `--seed` (no clock in it).
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "rounds_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "rounds_per_s_mt",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "host_time_to_acc_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "sim_time_to_acc_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "final_accuracy",
        unit: "fraction",
        better: "higher",
        bound: 0.2,
        exact: true,
    },
    EndToEnd {
        name: "wire_bytes_per_round",
        unit: "B",
        better: "lower",
        bound: 0.15,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
        exact: false,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 58] = [
    layer("tensor.matmul_gflops", "gflop/s", "higher"),
    layer("tensor.matmul_at_b_gflops", "gflop/s", "higher"),
    layer("tensor.matmul_a_bt_gflops", "gflop/s", "higher"),
    layer("tensor.axpy_gbps", "GB/s", "higher"),
    layer("nn.step_ms", "ms", "lower"),
    layer("nn.forward_ms", "ms", "lower"),
    layer("nn.backward_ms", "ms", "lower"),
    layer("nn.optim_ms", "ms", "lower"),
    layer("data.generate_s", "s", "lower"),
    layer("data.partition_s", "s", "lower"),
    layer("data.subset_us", "us", "lower"),
    layer("data.gather_us", "us", "lower"),
    layer("compress.encode_mcoord_per_s", "Mcoord/s", "higher"),
    layer("compress.decode_mcoord_per_s", "Mcoord/s", "higher"),
    layer("compress.bits_per_kept_coord", "bit", "lower"),
    layer("compress.wire_ratio", "fraction", "lower"),
    layer("compress.rc_fallback_rate", "fraction", "lower"),
    layer("compress.downlink.broadcast_ms", "ms", "lower"),
    layer("core.roster.checkout_ms", "ms", "lower"),
    layer("core.roster.checkin_ms", "ms", "lower"),
    layer("core.roster.checkouts", "count", "lower"),
    layer("core.roster.peak_resident", "count", "lower"),
    layer("core.roster.residual_clients", "count", "lower"),
    layer("core.client.train_ms", "ms", "lower"),
    layer("core.client.encode_ms", "ms", "lower"),
    layer("core.client.decode_ms", "ms", "lower"),
    layer("core.client.batches", "count", "lower"),
    layer("core.client.samples_per_s", "1/s", "higher"),
    layer("core.bcrs.schedule_us", "us", "lower"),
    layer("core.bcrs.mean_ratio", "fraction", "lower"),
    layer("core.overlap.count_ms", "ms", "lower"),
    layer("core.overlap.singleton_frac", "fraction", "lower"),
    layer("core.opwa.mask_ms", "ms", "lower"),
    layer("core.opwa.enlarged_frac", "fraction", "lower"),
    layer("core.aggregate.fold_ms", "ms", "lower"),
    layer("core.aggregate.shards", "count", "lower"),
    layer("core.eval.eval_ms", "ms", "lower"),
    layer("core.eval.samples_per_s", "1/s", "higher"),
    layer("core.policy.plan_epochs", "count", "lower"),
    layer("core.scenario.available_mean", "count", "higher"),
    layer("netsim.sim_round_s", "s", "lower"),
    layer("core.round.p50_ms", "ms", "lower"),
    layer("core.round.p95_ms", "ms", "lower"),
    layer("core.round.mt_speedup", "ratio", "higher"),
    layer("core.round.straggler_frac", "fraction", "lower"),
    layer("core.sweep.configs_per_s", "1/s", "higher"),
    layer("core.sweep.mt_speedup", "ratio", "higher"),
    layer("alloc.count_per_round", "count", "lower"),
    layer("alloc.mb_per_round", "MB", "lower"),
    layer("trace.round_ms", "ms", "lower"),
    layer("trace.stage_sum_ms", "ms", "lower"),
    layer("trace.coverage", "ratio", "higher"),
    layer("trace.overhead", "ratio", "lower"),
    layer("share.train", "fraction", "lower"),
    layer("share.codec", "fraction", "lower"),
    layer("share.roster", "fraction", "lower"),
    layer("share.eval", "fraction", "lower"),
    layer("share.aggregate", "fraction", "lower"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = crate::workloads::WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        quoted(&COMMAND),
        RUN_SECONDS,
        rows(workloads),
        rows(end_to_end),
        rows(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn end_to_end(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("declared")
    }

    fn well_formed(name: &str) -> bool {
        // The contract's `[A-Za-z0-9_.-]+`, starting with a letter or digit,
        // at most 64 characters.
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn every_declared_name_is_well_formed_and_used_once() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is declared twice");
    }

    #[test]
    fn declarations_stay_inside_the_contract_limits() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(!w.why.contains('"') && !w.why.contains('\\'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        for m in &PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        let setup = end_to_end("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_is_the_generated_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- --print-benchmark-json > BENCHMARK.json`"
        );
    }
}
