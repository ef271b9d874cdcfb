//! [`CompressorSpec`] — the parseable description of a codec pipeline.
//!
//! Specs are small strings with the grammar
//!
//! ```text
//! spec  := [ "ef-" ] stage ( "+" stage )*
//! stage := name [ ":" arg ]
//! ```
//!
//! so `"topk"`, `"randk"`, `"qsgd:8"`, `"threshold:0.01"`, `"ef-topk"` and
//! the composed `"topk+qsgd:4"` all parse. A spec is *resolved* into a boxed
//! [`crate::codec::UpdateCodec`] by a [`crate::registry::CodecRegistry`]:
//! the built-in stages become one `Pipeline`, and any other
//! stage name a registered factory. Parsing itself never consults the
//! registry, so specs for custom codecs round-trip through configuration
//! freely.

use crate::codec::{Quant, Select};

/// The stage names [`CompressorSpec::pipeline`] reads itself; any other name
/// is a custom codec a registry resolves.
pub(crate) const BUILTIN_STAGES: [&str; 5] = ["dense", "qsgd", "randk", "threshold", "topk"];

/// One stage of a codec pipeline: a registered codec name plus its optional
/// `:arg` parameter (kept as a string; the factory parses it).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CodecStage {
    /// Registered codec name (`"topk"`, `"qsgd"`, …).
    pub name: String,
    /// Optional argument after the colon (`"8"` in `"qsgd:8"`).
    pub arg: Option<String>,
}

impl CodecStage {
    /// A stage with no argument.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            arg: None,
        }
    }

    /// A stage with an argument.
    pub fn with_arg(name: impl Into<String>, arg: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            arg: Some(arg.into()),
        }
    }
}

impl std::fmt::Display for CodecStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.arg {
            Some(a) => write!(f, "{}:{}", self.name, a),
            None => write!(f, "{}", self.name),
        }
    }
}

/// A parsed compressor specification: an optional error-feedback wrapper
/// around one or more pipeline stages.
///
/// ```
/// use fl_compress::CompressorSpec;
///
/// let spec: CompressorSpec = "ef-topk+qsgd:4".parse().unwrap();
/// assert!(spec.error_feedback);
/// assert_eq!(spec.stages.len(), 2);
/// assert_eq!(spec.to_string(), "ef-topk+qsgd:4");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CompressorSpec {
    /// Wrap the pipeline in error feedback (`"ef-"` prefix).
    pub error_feedback: bool,
    /// The pipeline stages, applied left to right.
    pub stages: Vec<CodecStage>,
}

/// A spec that failed to parse or resolve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The string does not match the spec grammar.
    Parse(String),
    /// A stage names a codec the registry does not know.
    UnknownCodec(String),
    /// A stage argument is missing, malformed or out of range.
    BadArg {
        /// The codec whose argument was rejected.
        codec: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The stage combination is not supported (only a selection stage
    /// followed by `qsgd` composes).
    UnsupportedComposition(String),
    /// A layer plan left a model segment without a matching rule
    /// (see [`crate::plan::LayerPlan`]).
    UnmatchedSegment(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse(s) => write!(f, "cannot parse compressor spec {s:?}"),
            SpecError::UnknownCodec(n) => write!(f, "unknown codec {n:?} (not registered)"),
            SpecError::BadArg { codec, reason } => {
                write!(f, "bad argument for codec {codec:?}: {reason}")
            }
            SpecError::UnsupportedComposition(s) => {
                write!(f, "unsupported codec composition {s:?}: only a sparsifier followed by \"qsgd:<bits>\" composes")
            }
            SpecError::UnmatchedSegment(name) => {
                write!(
                    f,
                    "no plan rule matches segment {name:?} (add a catch-all \"*=<spec>\" rule)"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl CompressorSpec {
    /// Parse a spec string (`"topk"`, `"qsgd:8"`, `"ef-topk+qsgd:4"`, …).
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let trimmed = s.trim();
        let (error_feedback, rest) = match trimmed.strip_prefix("ef-") {
            Some(rest) => (true, rest),
            None => (false, trimmed),
        };
        if rest.is_empty() {
            return Err(SpecError::Parse(s.to_string()));
        }
        let mut stages = Vec::new();
        for part in rest.split('+') {
            let part = part.trim();
            let (name, arg) = match part.split_once(':') {
                Some((n, a)) => (n.trim(), Some(a.trim())),
                None => (part, None),
            };
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
            {
                return Err(SpecError::Parse(s.to_string()));
            }
            if arg.is_some_and(str::is_empty) {
                return Err(SpecError::Parse(s.to_string()));
            }
            stages.push(CodecStage {
                name: name.to_string(),
                arg: arg.map(str::to_string),
            });
        }
        Ok(Self {
            error_feedback,
            stages,
        })
    }

    /// Plain Top-K.
    pub fn topk() -> Self {
        Self::single(CodecStage::new("topk"))
    }

    /// Plain Rand-K.
    pub fn randk() -> Self {
        Self::single(CodecStage::new("randk"))
    }

    /// Ratio-quantile threshold sparsification.
    pub fn threshold() -> Self {
        Self::single(CodecStage::new("threshold"))
    }

    /// QSGD quantization at `bits` bits per coordinate.
    pub fn qsgd(bits: u8) -> Self {
        Self::single(CodecStage::with_arg("qsgd", bits.to_string()))
    }

    /// Wrap this spec in error feedback.
    pub fn with_error_feedback(mut self) -> Self {
        self.error_feedback = true;
        self
    }

    /// Append a pipeline stage (`topk().then(qsgd-stage)` ⇒ `"topk+qsgd:4"`).
    pub fn then(mut self, stage: CodecStage) -> Self {
        self.stages.push(stage);
        self
    }

    /// True when this spec decodes to a *dense* update (every coordinate
    /// retained): the pure `qsgd` quantizer, with or without `ef-`. Dense
    /// updates carry no overlap structure, so OPWA and overlap recording do
    /// not apply to them — configuration validation rejects the combination.
    /// Custom codecs, and specs that do not resolve, are assumed sparse.
    pub fn produces_dense(&self) -> bool {
        matches!(self.pipeline(|_| Ok(())), Ok((Select::None, _)))
    }

    /// True when this spec encodes the same bytes at every target ratio:
    /// `dense`, an absolute `threshold:<tau>` and the pure quantizer, each
    /// with or without `ef-` and `+qsgd`. Custom codecs, and specs that do
    /// not resolve, are assumed to use the ratio.
    pub fn ignores_ratio(&self) -> bool {
        matches!(
            self.pipeline(|_| Ok(())),
            Ok((Select::Dense | Select::Threshold(Some(_)) | Select::None, _))
        )
    }

    /// Read the stages as a [`crate::codec::Pipeline`]: one selection stage,
    /// then at most one `qsgd:<bits>[:rc]` quantizer. A first stage that is
    /// not built in becomes what `custom` makes of it. This one reading is
    /// what [`crate::registry::CodecRegistry::build`] builds and what
    /// [`produces_dense`](Self::produces_dense) and
    /// [`ignores_ratio`](Self::ignores_ratio) answer from.
    pub(crate) fn pipeline<C>(
        &self,
        custom: impl FnOnce(&CodecStage) -> Result<C, SpecError>,
    ) -> Result<(Select<C>, Option<Quant>), SpecError> {
        let unsupported = || SpecError::UnsupportedComposition(self.to_string());
        let (first, rest) = self
            .stages
            .split_first()
            .ok_or_else(|| SpecError::Parse(self.to_string()))?;
        let arg = first.arg.as_deref();
        let no_arg = |select| match arg {
            None => Ok(select),
            Some(a) => Err(bad_arg(
                &first.name,
                format!("takes no argument, got {a:?}"),
            )),
        };
        let (select, quant) = match first.name.as_str() {
            "topk" => (no_arg(Select::TopK)?, None),
            "randk" => (no_arg(Select::RandK)?, None),
            "dense" => (no_arg(Select::Dense)?, None),
            "threshold" => (Select::Threshold(arg.map(parse_tau).transpose()?), None),
            "qsgd" if rest.is_empty() => (Select::None, Some(parse_qsgd(arg)?)),
            "qsgd" => return Err(unsupported()),
            _ => (Select::Custom(custom(first)?), None),
        };
        match rest {
            [] => Ok((select, quant)),
            [q] if q.name == "qsgd" => Ok((select, Some(parse_qsgd(q.arg.as_deref())?))),
            _ => Err(unsupported()),
        }
    }

    fn single(stage: CodecStage) -> Self {
        Self {
            error_feedback: false,
            stages: vec![stage],
        }
    }
}

fn bad_arg(codec: &str, reason: String) -> SpecError {
    SpecError::BadArg {
        codec: codec.into(),
        reason,
    }
}

/// An absolute `threshold:<tau>`: a non-negative number.
fn parse_tau(arg: &str) -> Result<f32, SpecError> {
    match arg.parse::<f32>() {
        Ok(tau) if tau >= 0.0 => Ok(tau),
        Ok(_) => Err(bad_arg("threshold", "tau must be non-negative".into())),
        Err(_) => Err(bad_arg("threshold", format!("{arg:?} is not a number"))),
    }
}

/// `"4"` bit-packs; `"4:rc"` entropy-codes the levels with adaptive-CDF rANS
/// (same quantization, never-expanding byte layout).
fn parse_qsgd(arg: Option<&str>) -> Result<Quant, SpecError> {
    let arg = arg.ok_or_else(|| bad_arg("qsgd", "needs a bit width, e.g. \"qsgd:8\"".into()))?;
    let (width, rc) = match arg.split_once(':') {
        None => (arg, false),
        Some((width, "rc")) => (width, true),
        Some((_, other)) => {
            let reason = format!("unknown coding mode {other:?}, expected \"rc\"");
            return Err(bad_arg("qsgd", reason));
        }
    };
    let bits: u8 = width
        .parse()
        .map_err(|_| bad_arg("qsgd", "bit width must be an integer".into()))?;
    if !(2..=16).contains(&bits) {
        return Err(bad_arg(
            "qsgd",
            format!("bit width {bits} out of range 2..=16"),
        ));
    }
    Ok(Quant::new(bits, rc))
}

impl std::fmt::Display for CompressorSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.error_feedback {
            write!(f, "ef-")?;
        }
        for (i, stage) in self.stages.iter().enumerate() {
            if i > 0 {
                write!(f, "+")?;
            }
            write!(f, "{stage}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for CompressorSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_and_parameterised_stages() {
        let s = CompressorSpec::parse("topk").unwrap();
        assert!(!s.error_feedback);
        assert_eq!(s.stages, vec![CodecStage::new("topk")]);

        let s = CompressorSpec::parse("qsgd:8").unwrap();
        assert_eq!(s.stages, vec![CodecStage::with_arg("qsgd", "8")]);

        let s = CompressorSpec::parse("threshold:0.01").unwrap();
        assert_eq!(s.stages, vec![CodecStage::with_arg("threshold", "0.01")]);
    }

    #[test]
    fn parses_ef_prefix_and_composition() {
        let s = CompressorSpec::parse("ef-topk").unwrap();
        assert!(s.error_feedback);
        assert_eq!(s.stages.len(), 1);

        let s = CompressorSpec::parse("topk+qsgd:4").unwrap();
        assert_eq!(s.stages.len(), 2);
        assert_eq!(s.stages[1], CodecStage::with_arg("qsgd", "4"));

        let s = CompressorSpec::parse("ef-topk+qsgd:4").unwrap();
        assert!(s.error_feedback);
        assert_eq!(s.stages.len(), 2);
    }

    #[test]
    fn display_roundtrips() {
        for raw in [
            "topk",
            "randk",
            "threshold",
            "threshold:0.01",
            "qsgd:8",
            "ef-topk",
            "topk+qsgd:4",
            "ef-randk+qsgd:6",
            "segmented-topk:5000",
        ] {
            let spec = CompressorSpec::parse(raw).unwrap();
            assert_eq!(spec.to_string(), raw);
            assert_eq!(CompressorSpec::parse(&spec.to_string()).unwrap(), spec);
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        for raw in [
            "",
            "ef-",
            "+topk",
            "topk+",
            "qsgd:",
            ":8",
            "to pk",
            "topk++qsgd:4",
        ] {
            assert!(
                CompressorSpec::parse(raw).is_err(),
                "{raw:?} should not parse"
            );
        }
    }

    #[test]
    fn convenience_constructors_match_parsing() {
        assert_eq!(CompressorSpec::topk(), "topk".parse().unwrap());
        assert_eq!(CompressorSpec::randk(), "randk".parse().unwrap());
        assert_eq!(CompressorSpec::qsgd(8), "qsgd:8".parse().unwrap());
        assert_eq!(
            CompressorSpec::topk().with_error_feedback(),
            "ef-topk".parse().unwrap()
        );
        assert_eq!(
            CompressorSpec::topk().then(CodecStage::with_arg("qsgd", "4")),
            "topk+qsgd:4".parse().unwrap()
        );
    }
}
