//! The repository's benchmark. One command measures everything:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed 42] [--repeats 5] [--out FILE] [--check-repeat]
//! ```
//!
//! Without `--workload` it runs the whole suite, each workload untraced and
//! then traced, each run in a process of its own so that `peak_rss_mb` belongs
//! to that workload alone. With `--workload NAME --trace 0|1` it is one such
//! run, which is also how the driver calls it (`--seconds` then sizes the
//! repeats). See `benchmark/README.md`.

mod alloc;
mod machine;
mod report;
mod spec;
mod stats;
mod trace;
mod traced;
mod untraced;
mod workloads;

use report::Parsed;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str =
    "usage: bwfl-benchmark [--workload NAME] [--seed N] [--repeats N] [--seconds N] \
[--trace 0|1] [--out FILE] [--check-repeat] [--print-benchmark-json]";

struct Args {
    workload: Option<String>,
    seed: u64,
    repeats: Option<usize>,
    seconds: Option<u64>,
    trace: bool,
    out: Option<String>,
    check_repeat: bool,
    print_benchmark_json: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: None,
            seed: 42,
            repeats: None,
            seconds: None,
            trace: false,
            out: None,
            check_repeat: false,
            print_benchmark_json: false,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            let number = |v: String| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: {v} is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => args.workload = Some(value()?),
                "--seed" => args.seed = number(value()?)?,
                "--repeats" => args.repeats = Some(number(value()?)?.max(1) as usize),
                "--seconds" => args.seconds = Some(number(value()?)?),
                "--trace" => args.trace = number(value()?)? != 0,
                "--out" => args.out = Some(value()?),
                "--check-repeat" => args.check_repeat = true,
                "--print-benchmark-json" => args.print_benchmark_json = true,
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(args)
    }

    /// `--repeats` wins; `--seconds` converts at the reference cost of one
    /// repeat pair; never fewer than the floor.
    fn repeats(&self) -> usize {
        self.repeats.unwrap_or_else(|| {
            let from_seconds = self.seconds.map_or(0, |s| s / spec::PAIR_SECONDS) as usize;
            from_seconds.max(spec::MIN_REPEATS)
        })
    }
}

fn print_machine() {
    for (key, value) in machine::descriptor() {
        println!("machine {key} {value}");
    }
}

/// One run of one workload in this process.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(workload) = workloads::find(name) else {
        eprintln!(
            "unknown workload {name}; known: {}",
            workload_names().join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "# workload {name} seed {} {}",
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    print_machine();
    let outcome = if args.trace {
        traced::run(workload, args.seed)
    } else {
        untraced::run(workload, args.seed, args.repeats())
    };
    if outcome.print(args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn workload_names() -> Vec<&'static str> {
    workloads::WORKLOADS.iter().map(|w| w.name).collect()
}

/// Run one workload in a child process, echo its printout, and read it back.
fn spawn(name: &str, args: &Args, trace: bool) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--repeats", &args.repeats().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let parsed = report::parse(&stdout);
    if output.status.success() && parsed.failed == 0 {
        Ok(parsed)
    } else {
        Err(format!(
            "{name} ({}): {} of {} operations failed, {}",
            if trace { "traced" } else { "untraced" },
            parsed.failed,
            parsed.attempted,
            output.status
        ))
    }
}

struct SuiteRun {
    workload: &'static str,
    untraced: Parsed,
    traced: Option<Parsed>,
}

/// The suite over `order`; traced runs only when `with_traces`.
fn run_suite(
    order: &[&'static str],
    args: &Args,
    with_traces: bool,
) -> Result<Vec<SuiteRun>, Vec<String>> {
    let mut runs = Vec::new();
    let mut errors = Vec::new();
    for &workload in order {
        let untraced = spawn(workload, args, false).unwrap_or_else(|e| {
            errors.push(e);
            Parsed::default()
        });
        let traced = with_traces.then(|| {
            spawn(workload, args, true).unwrap_or_else(|e| {
                errors.push(e);
                Parsed::default()
            })
        });
        runs.push(SuiteRun {
            workload,
            untraced,
            traced,
        });
    }
    if errors.is_empty() {
        Ok(runs)
    } else {
        Err(errors)
    }
}

/// `--out FILE`: the machine descriptor and every workload's metrics as JSON.
fn write_out(path: &str, seed: u64, runs: &[SuiteRun]) -> std::io::Result<()> {
    let object = |pairs: Vec<String>| format!("{{{}}}", pairs.join(", "));
    let metrics = |p: &Parsed| {
        object(
            p.metrics
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect(),
        )
    };
    let machine = object(
        machine::descriptor()
            .into_iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect(),
    );
    let workloads: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{\"fingerprint\": \"{}\", \"ops_attempted\": {}, \"ops_failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
                r.workload,
                r.untraced.fingerprint.as_deref().unwrap_or(""),
                r.untraced.attempted + r.traced.as_ref().map_or(0, |t| t.attempted),
                r.untraced.failed + r.traced.as_ref().map_or(0, |t| t.failed),
                metrics(&r.untraced),
                r.traced.as_ref().map_or("{}".to_string(), metrics)
            )
        })
        .collect();
    std::fs::write(
        path,
        format!(
            "{{\n  \"seed\": {seed},\n  \"machine\": {machine},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            workloads.join(",\n")
        ),
    )
}

fn report_errors(errors: &[String]) -> ExitCode {
    for e in errors {
        eprintln!("FAILED {e}");
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some(name) = &args.workload {
        return run_one(name, &args);
    }

    let order = workload_names();
    if args.check_repeat {
        // Two untraced suites in one invocation, the second in reverse order,
        // so a workload's neighbours in time differ between its two runs.
        let reversed: Vec<&str> = order.iter().rev().copied().collect();
        let (first, second) = match (
            run_suite(&order, &args, false),
            run_suite(&reversed, &args, false),
        ) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                let errors: Vec<String> =
                    [a.err(), b.err()].into_iter().flatten().flatten().collect();
                return report_errors(&errors);
            }
        };
        let disagreements: Vec<String> = first
            .iter()
            .flat_map(|a| {
                let b = second
                    .iter()
                    .find(|b| b.workload == a.workload)
                    .expect("same workloads");
                report::disagreements(a.workload, &a.untraced, &b.untraced)
            })
            .collect();
        if !disagreements.is_empty() {
            return report_errors(&disagreements);
        }
        println!("# check-repeat: two runs of every workload agree");
        return ExitCode::SUCCESS;
    }

    match run_suite(&order, &args, true) {
        Ok(runs) => {
            if let Some(path) = &args.out {
                if let Err(e) = write_out(path, args.seed, &runs) {
                    return report_errors(&[format!("cannot write {path}: {e}")]);
                }
            }
            ExitCode::SUCCESS
        }
        Err(errors) => report_errors(&errors),
    }
}
