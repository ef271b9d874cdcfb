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
//! [`crate::codec::UpdateCodec`] by a [`crate::registry::CodecRegistry`],
//! which maps stage names to factories; parsing itself never consults the
//! registry, so specs for custom codecs round-trip through configuration
//! freely.

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
    /// The stage combination is not supported (only `sparsifier + qsgd`
    /// pipelines compose).
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

    /// True when this spec is known to decode to a *dense* update (every
    /// coordinate retained): currently the pure `qsgd` quantizer. Dense
    /// updates carry no overlap structure, so OPWA and overlap recording do
    /// not apply to them — configuration validation rejects the combination.
    /// Custom codecs are assumed sparse (the registry cannot know).
    pub fn produces_dense(&self) -> bool {
        self.stages.len() == 1 && self.stages[0].name == "qsgd"
    }

    fn single(stage: CodecStage) -> Self {
        Self {
            error_feedback: false,
            stages: vec![stage],
        }
    }
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
