//! The [`CodecRegistry`] — resolves a parsed [`CompressorSpec`] into a boxed
//! [`UpdateCodec`].
//!
//! Every built-in spec — `topk`, `randk`, `threshold[:tau]`, `dense`,
//! `qsgd:<bits>[:rc]`, a selection stage followed by `+qsgd:<bits>[:rc]`, and
//! the `ef-` prefix on any of them — builds one `Pipeline` straight from
//! the spec. Custom codecs plug in by name through
//! [`CodecRegistry::register`] and take the selection stage's place, so they
//! compose with `ef-` and `+qsgd:<bits>` like any built-in:
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
//! Composition rules: one selection stage, optionally followed by one
//! `qsgd:<bits>` quantizer of its retained values; `ef-` adds error feedback
//! around both. A quantizer is never a first stage of a composition.

use crate::codec::{CodecCtx, Pipeline, UpdateCodec};
use crate::spec::{CompressorSpec, SpecError, BUILTIN_STAGES};
use std::collections::BTreeMap;

/// Builds one custom codec stage from its optional `:arg` string and the
/// context. Plain function pointers keep the registry `Clone + Send + Sync`
/// for free.
pub type CodecFactory =
    fn(arg: Option<&str>, ctx: &CodecCtx) -> Result<Box<dyn UpdateCodec>, SpecError>;

/// Resolves [`CompressorSpec`]s into codecs: the built-ins directly, custom
/// stage names through their registered factories.
#[derive(Clone, Default)]
pub struct CodecRegistry {
    custom: BTreeMap<String, CodecFactory>,
}

impl CodecRegistry {
    /// A registry that resolves the built-in specs, and no custom codec yet.
    pub fn with_builtins() -> Self {
        Self::default()
    }

    /// Register (or replace) a custom codec factory under `name`. Panics on a
    /// built-in name: the built-ins are read straight from the spec.
    pub fn register(&mut self, name: impl Into<String>, factory: CodecFactory) {
        let name = name.into();
        assert!(
            !BUILTIN_STAGES.contains(&name.as_str()),
            "{name:?} is a built-in codec and cannot be registered"
        );
        self.custom.insert(name, factory);
    }

    /// The stage names that resolve, built-ins included, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        let custom = self.custom.keys().map(String::as_str);
        let mut names: Vec<&str> = BUILTIN_STAGES.into_iter().chain(custom).collect();
        names.sort_unstable();
        names.into_iter()
    }

    /// Resolve a spec into a ready-to-use codec: one `Pipeline`, whose
    /// custom first stage, if any, its registered factory builds.
    pub fn build(
        &self,
        spec: &CompressorSpec,
        ctx: &CodecCtx,
    ) -> Result<Box<dyn UpdateCodec>, SpecError> {
        let (select, quant) = spec.pipeline(|stage| {
            let factory = self
                .custom
                .get(&stage.name)
                .ok_or_else(|| SpecError::UnknownCodec(stage.name.clone()))?;
            factory(stage.arg.as_deref(), ctx)
        })?;
        Ok(Box::new(Pipeline::new(spec, select, quant, ctx.dense_len)))
    }

    /// Check that a spec resolves without instantiating per-model state.
    pub fn validate(&self, spec: &CompressorSpec) -> Result<(), SpecError> {
        self.build(spec, &CodecCtx::new(1, 0)).map(|_| ())
    }
}

impl std::fmt::Debug for CodecRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodecRegistry")
            .field("names", &self.names().collect::<Vec<_>>())
            .finish()
    }
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
            "dense+qsgd:4",
            "ef-threshold",
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
        for raw in [
            "qsgd:4+topk",
            "topk+randk",
            "topk+qsgd:4+qsgd:4",
            // A quantizer first sends no selection to quantize.
            "qsgd:4+qsgd:4",
            "qsgd:4:rc+qsgd:8",
            "ef-qsgd:4+qsgd:4",
        ] {
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
    #[should_panic(expected = "\"topk\" is a built-in codec")]
    fn builtin_names_cannot_be_registered() {
        CodecRegistry::with_builtins().register("topk", |_, _| unreachable!());
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
        assert!(r.names().any(|name| name == "empty"));
        let mut codec = r.build(&"empty+qsgd:4".parse().unwrap(), &ctx()).unwrap();
        let mut rng = Xoshiro256::new(0);
        let wire = codec.encode(&[1.0, 2.0], 0.5, &mut rng);
        let s = wire.decode().unwrap().into_sparse().unwrap();
        assert_eq!(s.nnz(), 0);
    }
}
