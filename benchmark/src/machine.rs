//! The machine descriptor printed with every result, and the process's peak
//! resident set.

use std::path::Path;
use std::process::Command;

/// Worker threads of the multi-threaded passes: `min(nproc, 4)`, so no more
/// threads than cores are ever created.
pub fn mt_threads() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of this process in MB, or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn first_line_of(command: &mut Command) -> Option<String> {
    let out = command.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// `key, value` pairs: cores, threads used, the rustflags in force, compiler
/// and commit. Anything that cannot be read says `unknown`; the driver's
/// checkout, for one, is not a git repository.
pub fn descriptor() -> Vec<(&'static str, String)> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let config_flags = std::fs::read_to_string(repo.join(".cargo/config.toml"))
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.trim_start().starts_with("rustflags"))
                .and_then(|l| l.split_once('='))
                .map(|(_, flags)| flags.trim().to_string())
        });
    let rustflags = match (config_flags, std::env::var("RUSTFLAGS").ok()) {
        (_, Some(env)) => format!("RUSTFLAGS={env}"),
        (Some(line), None) => line,
        (None, None) => "none".to_string(),
    };
    // The ceiling keeps git from adopting a repository above the checkout.
    let commit = repo.canonicalize().ok().and_then(|root| {
        first_line_of(
            Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "HEAD"])
                .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(&root)),
        )
    });
    let unknown = || "unknown".to_string();
    vec![
        ("nproc", nproc().to_string()),
        ("threads", format!("1 and {}", mt_threads())),
        ("rustflags", rustflags.replace('"', "'")),
        (
            "target_features",
            format!(
                "avx2={} fma={}",
                cfg!(target_feature = "avx2"),
                cfg!(target_feature = "fma")
            ),
        ),
        (
            "rustc",
            first_line_of(Command::new("rustc").arg("-V")).unwrap_or_else(unknown),
        ),
        ("commit", commit.unwrap_or_else(unknown)),
    ]
}
