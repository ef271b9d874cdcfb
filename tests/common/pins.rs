//! The pin manifest, `tests/fixtures/pins.txt`: every hash pin of the test
//! suites, one row per pinned name, and the one FNV-1a they all hash with.
//!
//! A row is `name key=value …`; blank lines and lines starting with `#` are
//! not rows. Each test computes its rows and passes them to [`check`] with the
//! names it owns. Every hash must match its pin exactly, an `accuracy` to
//! within [`ACCURACY_TOLERANCE`]; a missing, extra, duplicated or mismatched
//! row fails the test, by name.
//!
//! To re-pin after an *intended* change, run the owning tests with
//! `PIN_BLESS=1` (`tests/fingerprints.rs` gives the command for all of
//! them). That rewrites their rows in place — keeping every pinned value
//! that still matches, and every other line — so
//! `git diff tests/fixtures/pins.txt` is the re-pin.
//! Each test binary includes this file by `#[path]`, so each uses only part
//! of it.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The committed manifest, as the test binary was built with it.
pub const MANIFEST: &str = include_str!("../fixtures/pins.txt");

/// How far a pinned final accuracy may move when the training arithmetic
/// (not the algorithm) changes: two of the quick test set's 100 samples. The
/// `1e-9` keeps `0.13 − 0.11` (not exactly `0.02` in binary) inside.
pub const ACCURACY_TOLERANCE: f64 = 0.02 + 1e-9;

/// FNV-1a, folded over a canonical little-endian byte stream. Float fields
/// enter via `to_bits`, so a hash pins bit patterns, not approximations.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// The length, then every value's `to_bits`.
    pub fn f32s(&mut self, values: &[f32]) {
        self.usize(values.len());
        values
            .iter()
            .for_each(|v| self.bytes(&v.to_bits().to_le_bytes()));
    }
}

/// One pinned name and its values, as the manifest spells them.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub name: String,
    pub values: Vec<(String, String)>,
}

impl Row {
    pub fn new(name: impl Into<String>) -> Self {
        Row {
            name: name.into(),
            values: Vec::new(),
        }
    }

    pub fn hash(mut self, key: &str, value: u64) -> Self {
        self.values.push((key.into(), format!("{value:#018x}")));
        self
    }

    pub fn accuracy(mut self, value: f64) -> Self {
        self.values.push(("accuracy".into(), format!("{value:?}")));
        self
    }

    /// The row a manifest line holds, if it holds one. A token without `=`
    /// is a key with an empty value, which no computed value matches.
    pub fn parse(line: &str) -> Option<Row> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let mut tokens = line.split_whitespace();
        let name = tokens.next()?.to_string();
        let values = tokens
            .map(|t| {
                let (key, value) = t.split_once('=').unwrap_or((t, ""));
                (key.to_string(), value.to_string())
            })
            .collect();
        Some(Row { name, values })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn line(&self) -> String {
        let mut line = self.name.clone();
        for (key, value) in &self.values {
            line.push_str(&format!(" {key}={value}"));
        }
        line
    }

    /// Every way this computed row differs from its `pinned` row.
    fn mismatches(&self, pinned: &Row) -> Vec<String> {
        let mut out = Vec::new();
        for (key, value) in &self.values {
            match pinned.get(key) {
                Some(pin) if matches(key, pin, value) => {}
                Some(pin) => out.push(format!("{}: {key} is {value}, pinned {pin}", self.name)),
                None => out.push(format!("{}: {key} is {value}, not pinned", self.name)),
            }
        }
        for (key, pin) in &pinned.values {
            if self.get(key).is_none() {
                out.push(format!("{}: {key} pinned {pin}, not computed", self.name));
            }
        }
        out
    }

    /// This row, keeping each `pinned` value that still matches.
    fn blessed(&self, pinned: &Row) -> Row {
        let values = self
            .values
            .iter()
            .map(|(key, value)| match pinned.get(key) {
                Some(pin) if matches(key, pin, value) => (key.clone(), pin.to_string()),
                _ => (key.clone(), value.clone()),
            })
            .collect();
        Row {
            name: self.name.clone(),
            values,
        }
    }
}

fn matches(key: &str, pinned: &str, got: &str) -> bool {
    if key == "accuracy" {
        match (pinned.parse::<f64>(), got.parse::<f64>()) {
            (Ok(p), Ok(g)) => (p - g).abs() <= ACCURACY_TOLERANCE,
            _ => false,
        }
    } else {
        pinned == got
    }
}

/// Compare the computed rows `got` with the rows of `manifest` whose names
/// `owns` accepts: every name computed but not pinned, pinned but not
/// computed, pinned twice, or pinned with other values, one line each.
pub fn compare(manifest: &str, owns: impl Fn(&str) -> bool, got: &[Row]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut pinned: Vec<Row> = Vec::new();
    for row in manifest.lines().filter_map(Row::parse) {
        if !owns(&row.name) {
            continue;
        }
        if pinned.iter().any(|p| p.name == row.name) {
            problems.push(format!("{}: pinned twice", row.name));
        } else {
            pinned.push(row);
        }
    }
    for row in got {
        match pinned.iter().find(|p| p.name == row.name) {
            Some(pin) => problems.extend(row.mismatches(pin)),
            None => problems.push(format!("{}: computed, not pinned", row.name)),
        }
    }
    for pin in &pinned {
        if !got.iter().any(|row| row.name == pin.name) {
            problems.push(format!("{}: pinned, not computed", pin.name));
        }
    }
    problems
}

/// `manifest` with the rows `owns` accepts replaced by `got`: a row that
/// still matches keeps its line, a moved row keeps each value that still
/// matches, a row no longer computed (or pinned twice) is dropped, and a new
/// row goes after the last owned line. Every other line is kept.
pub fn bless(manifest: &str, owns: impl Fn(&str) -> bool, got: &[Row]) -> String {
    let mut lines: Vec<String> = Vec::new();
    let mut written: Vec<&str> = Vec::new();
    let mut insert_at = None;
    for line in manifest.lines() {
        let pinned = match Row::parse(line) {
            Some(row) if owns(&row.name) => row,
            _ => {
                lines.push(line.to_string());
                continue;
            }
        };
        if let Some(row) = got.iter().find(|row| row.name == pinned.name) {
            if !written.contains(&row.name.as_str()) {
                written.push(&row.name);
                lines.push(if row.mismatches(&pinned).is_empty() {
                    line.to_string()
                } else {
                    row.blessed(&pinned).line()
                });
            }
        }
        insert_at = Some(lines.len());
    }
    let new = got
        .iter()
        .filter(|row| !written.contains(&row.name.as_str()))
        .map(Row::line);
    let at = insert_at.unwrap_or(lines.len());
    lines.splice(at..at, new);
    lines.into_iter().map(|line| line + "\n").collect()
}

/// Fail with every difference between `got` and the owned rows of the
/// manifest — or, under `PIN_BLESS`, rewrite those rows on disk.
pub fn check(owns: impl Fn(&str) -> bool, got: &[Row]) {
    if std::env::var_os("PIN_BLESS").is_some() {
        // The tests of one binary run on parallel threads, each blessing its
        // own rows: one read-modify-write at a time keeps them all.
        static FILE: Mutex<()> = Mutex::new(());
        let _guard = FILE.lock().expect("a bless panicked mid-write");
        let path = manifest_path();
        let text = std::fs::read_to_string(&path).expect("pins.txt reads");
        let blessed = bless(&text, owns, got);
        if blessed != text {
            std::fs::write(&path, blessed).expect("pins.txt writes");
        }
        return;
    }
    let problems = compare(MANIFEST, owns, got);
    assert!(
        problems.is_empty(),
        "pins moved (re-pin an intended change with PIN_BLESS=1):\n{}",
        problems.join("\n")
    );
}

/// `tests/fixtures/pins.txt` in the workspace root, found from whichever
/// package's tests include this file.
fn manifest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .map(|dir| dir.join("tests/fixtures/pins.txt"))
        .find(|path| path.is_file())
        .expect("tests/fixtures/pins.txt in a directory above the package")
}
