//! The [`CodecRegistry`] — resolves a parsed [`CompressorSpec`] into a boxed
//! [`UpdateCodec`].
//!
//! Every stage name maps to a [`CodecFactory`]; the registry ships with the
//! built-in codecs registered (`topk`, `randk`, `threshold`, `qsgd`) and
//! custom codecs plug in through [`CodecRegistry::register`]:
//!
//! ```
//! use fl_compress::{CodecCtx, CodecRegistry, CompressorSpec};
//!
//! let registry = CodecRegistry::with_builtins();
//! let spec: CompressorSpec = "topk+qsgd:4".parse().unwrap();
//! let codec = registry.build(&spec, &CodecCtx::new(1000, 42)).unwrap();
//! assert_eq!(codec.name(), "topk+qsgd:4");
//! ```
//!
//! Composition rules: any registered codec can stand alone; a two-stage
//! pipeline must be `sparsifier + qsgd:<bits>` (the quantizer bit-packs the
//! sparsifier's retained values); the `ef-` prefix wraps the whole pipeline
//! in an [`EfCodec`] error-feedback shell.

use crate::codec::{
    CodecCtx, ComposedCodec, DenseCodec, EfCodec, QsgdCodec, RandKCodec, ThresholdCodec, TopKCodec,
    UpdateCodec,
};
use crate::spec::{CompressorSpec, SpecError};
use std::collections::BTreeMap;

/// Builds one codec stage from its optional `:arg` string and the context.
/// Plain function pointers keep the registry `Clone + Send + Sync` for free.
pub type CodecFactory =
    fn(arg: Option<&str>, ctx: &CodecCtx) -> Result<Box<dyn UpdateCodec>, SpecError>;

/// Name → factory table resolving [`CompressorSpec`]s into codecs.
#[derive(Clone)]
pub struct CodecRegistry {
    entries: BTreeMap<String, CodecFactory>,
}

impl CodecRegistry {
    /// An empty registry (no names resolve).
    pub fn empty() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// A registry with the built-in codecs registered.
    pub fn with_builtins() -> Self {
        let mut r = Self::empty();
        r.register("topk", |arg, _ctx| {
            no_arg("topk", arg)?;
            Ok(Box::new(TopKCodec))
        });
        r.register("randk", |arg, _ctx| {
            no_arg("randk", arg)?;
            Ok(Box::new(RandKCodec))
        });
        r.register("threshold", |arg, _ctx| {
            let tau = match arg {
                None => None,
                Some(a) => Some(a.parse::<f32>().map_err(|_| SpecError::BadArg {
                    codec: "threshold".into(),
                    reason: format!("{a:?} is not a number"),
                })?),
            };
            if tau.is_some_and(|t| t.is_nan() || t < 0.0) {
                return Err(SpecError::BadArg {
                    codec: "threshold".into(),
                    reason: "tau must be non-negative".into(),
                });
            }
            Ok(Box::new(ThresholdCodec { tau }))
        });
        r.register("qsgd", |arg, _ctx| Ok(Box::new(parse_qsgd(arg)?)));
        r.register("dense", |arg, _ctx| {
            no_arg("dense", arg)?;
            Ok(Box::new(DenseCodec))
        });
        r
    }

    /// Register (or replace) a codec factory under `name`.
    pub fn register(&mut self, name: impl Into<String>, factory: CodecFactory) {
        self.entries.insert(name.into(), factory);
    }

    /// The registered names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// True if `name` resolves.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Resolve a spec into a ready-to-use codec.
    pub fn build(
        &self,
        spec: &CompressorSpec,
        ctx: &CodecCtx,
    ) -> Result<Box<dyn UpdateCodec>, SpecError> {
        if spec.stages.len() > 2 {
            return Err(SpecError::UnsupportedComposition(spec.to_string()));
        }
        let mut stages = spec.stages.iter();
        let first = stages
            .next()
            .ok_or_else(|| SpecError::Parse(spec.to_string()))?;
        let factory = self
            .entries
            .get(&first.name)
            .ok_or_else(|| SpecError::UnknownCodec(first.name.clone()))?;
        let mut codec = factory(first.arg.as_deref(), ctx)?;
        for stage in stages {
            // Only the `sparsifier + qsgd` composition has a wire format;
            // anything else (including three or more stages) is rejected.
            if stage.name != "qsgd" {
                return Err(SpecError::UnsupportedComposition(spec.to_string()));
            }
            if !self.contains("qsgd") {
                return Err(SpecError::UnknownCodec("qsgd".into()));
            }
            codec = Box::new(ComposedCodec::new(codec, parse_qsgd(stage.arg.as_deref())?));
        }
        if spec.error_feedback {
            codec = Box::new(EfCodec::new(codec, ctx.dense_len));
        }
        Ok(codec)
    }

    /// Check that a spec resolves without instantiating per-model state.
    pub fn validate(&self, spec: &CompressorSpec) -> Result<(), SpecError> {
        self.build(spec, &CodecCtx::new(1, 0)).map(|_| ())
    }
}

impl std::fmt::Debug for CodecRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodecRegistry")
            .field("names", &self.entries.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for CodecRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

fn no_arg(codec: &str, arg: Option<&str>) -> Result<(), SpecError> {
    match arg {
        None => Ok(()),
        Some(a) => Err(SpecError::BadArg {
            codec: codec.into(),
            reason: format!("takes no argument, got {a:?}"),
        }),
    }
}

fn parse_qsgd(arg: Option<&str>) -> Result<QsgdCodec, SpecError> {
    let arg = arg.ok_or_else(|| SpecError::BadArg {
        codec: "qsgd".into(),
        reason: "needs a bit width, e.g. \"qsgd:8\"".into(),
    })?;
    // `"4"` bit-packs; `"4:rc"` entropy-codes the levels with adaptive-CDF
    // rANS (same quantization, never-expanding byte layout).
    let (width, entropy) = match arg.split_once(':') {
        None => (arg, false),
        Some((width, "rc")) => (width, true),
        Some((_, other)) => {
            return Err(SpecError::BadArg {
                codec: "qsgd".into(),
                reason: format!("unknown coding mode {other:?}, expected \"rc\""),
            })
        }
    };
    let bits: u8 = width.parse().map_err(|_| SpecError::BadArg {
        codec: "qsgd".into(),
        reason: "bit width must be an integer".into(),
    })?;
    if !(2..=16).contains(&bits) {
        return Err(SpecError::BadArg {
            codec: "qsgd".into(),
            reason: format!("bit width {bits} out of range 2..=16"),
        });
    }
    Ok(if entropy {
        QsgdCodec::new_entropy(bits)
    } else {
        QsgdCodec::new(bits)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_tensor::rng::Xoshiro256;

    fn ctx() -> CodecCtx {
        CodecCtx::new(100, 1)
    }

    #[test]
    fn builtins_resolve_and_report_spec_names() {
        let r = CodecRegistry::with_builtins();
        for raw in [
            "topk",
            "randk",
            "threshold",
            "threshold:0.5",
            "qsgd:8",
            "qsgd:4:rc",
            "dense",
            "ef-topk",
            "topk+qsgd:4",
            "topk+qsgd:4:rc",
            "ef-randk+qsgd:6",
            "ef-topk+qsgd:6:rc",
        ] {
            let spec: CompressorSpec = raw.parse().unwrap();
            let codec = r.build(&spec, &ctx()).unwrap();
            assert_eq!(codec.name(), raw, "{raw}");
        }
        assert_eq!(
            r.names().collect::<Vec<_>>(),
            ["dense", "qsgd", "randk", "threshold", "topk"]
        );
    }

    #[test]
    fn unknown_codec_is_reported() {
        let r = CodecRegistry::with_builtins();
        let err = r.validate(&"nope".parse().unwrap()).unwrap_err();
        assert_eq!(err, SpecError::UnknownCodec("nope".into()));
    }

    #[test]
    fn bad_arguments_are_reported() {
        let r = CodecRegistry::with_builtins();
        for raw in [
            "qsgd:99",
            "qsgd:x",
            "qsgd:4:huffman",
            "qsgd:rc",
            "topk:3",
            "threshold:-1",
            "threshold:abc",
        ] {
            assert!(
                matches!(
                    r.validate(&raw.parse().unwrap()),
                    Err(SpecError::BadArg { .. })
                ),
                "{raw} should be a bad argument"
            );
        }
        // qsgd with no argument only fails at build time (parse allows it).
        assert!(matches!(
            r.validate(&"qsgd".parse().unwrap()),
            Err(SpecError::BadArg { .. })
        ));
    }

    #[test]
    fn unsupported_compositions_are_rejected() {
        let r = CodecRegistry::with_builtins();
        for raw in ["qsgd:4+topk", "topk+randk", "topk+qsgd:4+qsgd:4"] {
            assert!(
                matches!(
                    r.validate(&raw.parse().unwrap()),
                    Err(SpecError::UnsupportedComposition(_))
                ),
                "{raw} should be unsupported"
            );
        }
    }

    #[test]
    fn custom_codecs_register_and_compose() {
        fn always_empty(
            _arg: Option<&str>,
            _ctx: &CodecCtx,
        ) -> Result<Box<dyn UpdateCodec>, SpecError> {
            struct Empty;
            impl UpdateCodec for Empty {
                fn name(&self) -> String {
                    "empty".into()
                }
                fn encode_sent(
                    &mut self,
                    dense: &[f32],
                    _ratio: f64,
                    _rng: &mut Xoshiro256,
                ) -> (crate::wire::WireUpdate, crate::CompressedUpdate) {
                    let empty = crate::sparse::SparseUpdate::empty(dense.len());
                    (
                        crate::wire::encode_sparse(&empty),
                        crate::CompressedUpdate::Sparse(empty),
                    )
                }
            }
            Ok(Box::new(Empty))
        }
        let mut r = CodecRegistry::with_builtins();
        r.register("empty", always_empty);
        assert!(r.contains("empty"));
        let mut codec = r.build(&"empty+qsgd:4".parse().unwrap(), &ctx()).unwrap();
        let mut rng = Xoshiro256::new(0);
        let wire = codec.encode(&[1.0, 2.0], 0.5, &mut rng);
        let s = wire.decode().unwrap().into_sparse().unwrap();
        assert_eq!(s.nnz(), 0);
    }
}
