//! `pdfws-spec` — the shared machinery behind every string-addressable spec
//! axis in the workspace.
//!
//! Four experiment axes are open registries addressed by strings of the same
//! shape, `name:key=value,key=value`: scheduler policies
//! (`ws:steal=half,victim=random`), workloads (`mergesort:grain=64,n=262144`),
//! memory-system models (`bus:dram:banks=16`) and arrival processes
//! (`pareto:alpha=1.5,rate=80`).  Everything name- and
//! parameter-shaped is written once, here:
//!
//! * the **grammar** — [`parse_spec`] splits, trims, and rejects malformed or
//!   duplicated `key=value` fragments; [`format_spec`] prints the canonical
//!   (sorted-by-key) form, so `Display` → `FromStr` is the identity for every
//!   domain spec type;
//! * **typed parameters** — [`ParamSpec`] declares one parameter's key, value
//!   type ([`ParamKind`]) and help line, so registries can type-check values
//!   (and normalise them: `threshold=007` → `threshold=7`) before anything is built;
//! * the **spec value** — [`Spec`]: a validated name plus canonical
//!   parameters, with typed accessors and the canonical `Display`;
//! * the **registry** — [`Registry<D>`] maps names to factories for one
//!   [`Domain`]: parse → declared-parameter check → factory cross-check
//!   ([`SpecFamily::validate_spec`]), registration, lookup, and the `--list`
//!   help text;
//! * **errors** — [`SpecError`] carries a [`Vocab`] word pack so the same
//!   machinery reports "unknown scheduler policy 'x'; known policies: …" in
//!   one domain and "unknown workload 'x'; known workloads: …" in another.
//!
//! A domain crate supplies only what is its own: a [`Domain`] marker (vocab,
//! factory object type, built-ins, process-wide instance), a factory trait
//! with [`SpecFamily`] as supertrait plus its domain method (`build`,
//! `memsys_params`, `generator`, …), the built-in factories, and a spec type
//! declared with [`spec_type!`] that holds its named constructors.
//!
//! ```
//! use pdfws_spec::{parse_spec, Vocab};
//!
//! static VOCAB: Vocab = Vocab {
//!     subject: "scheduler",
//!     entity: "scheduler policy",
//!     known_label: "known policies",
//! };
//!
//! // The grammar splits `name:key=value,...` and trims whitespace ...
//! let (name, params) = parse_spec("ws: steal=half, victim=random", &VOCAB).unwrap();
//! assert_eq!(name, "ws");
//! assert_eq!(params.get("steal").map(String::as_str), Some("half"));
//! assert_eq!(params.len(), 2);
//!
//! // ... and rejects malformed fragments with the domain's vocabulary.
//! let err = parse_spec("ws:steal", &VOCAB).unwrap_err();
//! assert!(err.to_string().contains("key=value"), "{err}");
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, RwLock};

/// The word pack a spec domain reports its errors with.
///
/// All three fields are substituted into the fixed [`SpecError`] message
/// templates, so two domains produce structurally identical — but correctly
/// worded — diagnostics.
#[derive(Debug, PartialEq, Eq)]
pub struct Vocab {
    /// The domain noun: "scheduler" / "workload".
    pub subject: &'static str,
    /// What an unknown name is called: "scheduler policy" / "workload".
    pub entity: &'static str,
    /// Label for the known-names list: "known policies" / "known workloads".
    pub known_label: &'static str,
}

/// The type of one declared parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// An unsigned integer (`seed=7`).  Values are normalised (`007` → `7`).
    U64,
    /// A real number in `[0, 1]` (`shared-fraction=0.5`).  Values are
    /// normalised through `f64` (`0.50` → `0.5`).
    Fraction,
    /// A strictly positive real number (`width=2.67`).  Values are normalised
    /// through `f64` (`2.50` → `2.5`); infinities are accepted (an unbounded
    /// resource), NaN and non-positive values are not.
    PositiveF64,
    /// One of a fixed set of words (`victim=random`).
    Choice(&'static [&'static str]),
}

impl ParamKind {
    /// Validate a raw value and return its canonical form, or a description of
    /// what was expected.
    pub fn canonicalise(&self, value: &str) -> Result<String, String> {
        match self {
            ParamKind::U64 => value
                .parse::<u64>()
                .map(|v| v.to_string())
                .map_err(|_| "an unsigned integer".to_string()),
            ParamKind::Fraction => match value.parse::<f64>() {
                Ok(v) if (0.0..=1.0).contains(&v) => Ok(v.to_string()),
                _ => Err("a fraction between 0 and 1".to_string()),
            },
            ParamKind::PositiveF64 => match value.parse::<f64>() {
                Ok(v) if v > 0.0 => Ok(v.to_string()),
                _ => Err("a positive real number".to_string()),
            },
            ParamKind::Choice(options) => {
                if options.contains(&value) {
                    Ok(value.to_string())
                } else {
                    Err(format!("one of {}", options.join(", ")))
                }
            }
        }
    }

    /// How the value type renders in help text (`u64`, `0..1`, `a|b|c`).
    pub fn help_token(&self) -> String {
        match self {
            ParamKind::U64 => "u64".to_string(),
            ParamKind::Fraction => "0..1".to_string(),
            ParamKind::PositiveF64 => "f64>0".to_string(),
            ParamKind::Choice(options) => options.join("|"),
        }
    }
}

/// One parameter a factory accepts.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// The key as it appears in spec strings (`"victim"`).
    pub key: &'static str,
    /// Value type and constraints.
    pub kind: ParamKind,
    /// One-line description, shown by [`Registry::help`].
    pub doc: &'static str,
}

/// What went wrong parsing or validating a spec (domain-independent shape;
/// the [`Vocab`] on the enclosing [`SpecError`] supplies the wording).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecErrorKind {
    /// The spec string was empty.
    Empty,
    /// The name is not in the registry.
    UnknownName {
        /// The name that failed to resolve.
        name: String,
        /// Registered names at the time of the error.
        known: Vec<String>,
    },
    /// The named factory has no such parameter.
    UnknownParam {
        /// The registered name the parameter was given to.
        owner: String,
        /// The unknown key.
        key: String,
        /// The keys the factory does accept.
        known: Vec<String>,
    },
    /// A parameter was not of the form `key=value`.
    MalformedParam {
        /// The offending fragment.
        fragment: String,
    },
    /// The same key appeared twice.
    DuplicateParam {
        /// The repeated key.
        key: String,
    },
    /// A combination of individually-valid parameters the factory rejected.
    InvalidCombination {
        /// The registered name that rejected the combination.
        owner: String,
        /// The factory's explanation.
        message: String,
    },
    /// The value could not be parsed as the parameter's declared type.
    InvalidValue {
        /// The registered name the parameter belongs to.
        owner: String,
        /// The parameter key.
        key: String,
        /// The rejected value.
        value: String,
        /// Human description of what was expected.
        expected: String,
    },
}

/// An error from parsing or validating a spec, with the domain's [`Vocab`]
/// attached so [`fmt::Display`] speaks the right language.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// Word pack of the domain the error came from.
    pub vocab: &'static Vocab,
    /// What went wrong.
    pub kind: SpecErrorKind,
}

impl SpecError {
    /// Construct an error in the given domain.
    pub fn new(vocab: &'static Vocab, kind: SpecErrorKind) -> Self {
        SpecError { vocab, kind }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.vocab;
        match &self.kind {
            SpecErrorKind::Empty => write!(f, "empty {} spec", v.subject),
            SpecErrorKind::UnknownName { name, known } => write!(
                f,
                "unknown {} '{name}'; {}: {}",
                v.entity,
                v.known_label,
                known.join(", ")
            ),
            SpecErrorKind::UnknownParam { owner, key, known } => {
                if known.is_empty() {
                    write!(
                        f,
                        "{} '{owner}' takes no parameters, got '{key}'",
                        v.subject
                    )
                } else {
                    write!(
                        f,
                        "{} '{owner}' has no parameter '{key}'; known parameters: {}",
                        v.subject,
                        known.join(", ")
                    )
                }
            }
            SpecErrorKind::MalformedParam { fragment } => {
                write!(f, "malformed parameter '{fragment}' (expected key=value)")
            }
            SpecErrorKind::DuplicateParam { key } => {
                write!(f, "duplicate parameter '{key}' in {} spec", v.subject)
            }
            SpecErrorKind::InvalidCombination { owner, message } => write!(
                f,
                "invalid parameter combination for {} '{owner}': {message}",
                v.subject
            ),
            SpecErrorKind::InvalidValue {
                owner,
                key,
                value,
                expected,
            } => write!(
                f,
                "invalid value '{value}' for parameter '{key}' of {} '{owner}': expected {expected}",
                v.subject
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// Split a raw `name:key=value,key=value` string into its name and parameter
/// map, without consulting any registry.
///
/// Whitespace around the name, keys and values is tolerated; malformed
/// fragments, duplicated keys and empty names are rejected.  Validation of the
/// name and the parameter values against declarations is the registry's job
/// ([`Registry::validate`]).
pub fn parse_spec(
    s: &str,
    vocab: &'static Vocab,
) -> Result<(String, BTreeMap<String, String>), SpecError> {
    let err = |kind| Err(SpecError::new(vocab, kind));
    let s = s.trim();
    if s.is_empty() {
        return err(SpecErrorKind::Empty);
    }
    let (name, rest) = match s.split_once(':') {
        Some((n, rest)) => (n.trim(), Some(rest)),
        None => (s, None),
    };
    if name.is_empty() {
        return err(SpecErrorKind::Empty);
    }
    let mut params = BTreeMap::new();
    if let Some(rest) = rest {
        for fragment in rest.split(',') {
            let fragment = fragment.trim();
            let Some((key, value)) = fragment.split_once('=') else {
                return err(SpecErrorKind::MalformedParam {
                    fragment: fragment.to_string(),
                });
            };
            let (key, value) = (key.trim(), value.trim());
            if key.is_empty() || value.is_empty() {
                return err(SpecErrorKind::MalformedParam {
                    fragment: fragment.to_string(),
                });
            }
            if params.insert(key.to_string(), value.to_string()).is_some() {
                return err(SpecErrorKind::DuplicateParam {
                    key: key.to_string(),
                });
            }
        }
    }
    Ok((name.to_string(), params))
}

/// Print the canonical form of a spec: the name, then `:key=value` pairs in
/// map (sorted) order, comma-separated.  The inverse of [`parse_spec`] on
/// canonical input.
pub fn format_spec(
    f: &mut fmt::Formatter<'_>,
    name: &str,
    params: &BTreeMap<String, String>,
) -> fmt::Result {
    f.write_str(name)?;
    for (i, (k, v)) in params.iter().enumerate() {
        f.write_str(if i == 0 { ":" } else { "," })?;
        write!(f, "{k}={v}")?;
    }
    Ok(())
}

/// A validated spec: a registered name plus its canonical parameters (only
/// the explicitly-given ones, sorted by key, values normalised; defaults are
/// the factory's business).
///
/// Every domain's spec type derefs to this (see [`spec_type!`]), so the
/// accessors below are shared by all four axes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Spec {
    name: String,
    params: BTreeMap<String, String>,
}

impl Spec {
    /// A spec the caller vouches for without consulting a registry: named
    /// constructors of already-valid values, and ad-hoc names that are not
    /// registered (such a spec renders and compares, but does not re-parse).
    pub fn known_valid(name: impl Into<String>, params: BTreeMap<String, String>) -> Self {
        Spec {
            name: name.into(),
            params,
        }
    }

    /// The registry key this spec resolves through (`"ws"`, `"mergesort"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The explicitly-given parameters, in canonical (sorted-by-key) order.
    pub fn params(&self) -> impl Iterator<Item = (&str, &str)> {
        self.params.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// The raw value of one parameter, if it was given.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params.get(key).map(String::as_str)
    }

    /// A `u64` parameter, if given.  The value parses by construction
    /// (validated against a [`ParamKind::U64`] declaration).
    pub fn u64_param(&self, key: &str) -> Option<u64> {
        self.param(key)
            .map(|v| v.parse().expect("validated u64 parameter"))
    }

    /// A real-valued parameter, if given.  The value parses by construction
    /// (validated as [`ParamKind::Fraction`] or [`ParamKind::PositiveF64`];
    /// `inf` is a legal positive value).
    pub fn f64_param(&self, key: &str) -> Option<f64> {
        self.param(key)
            .map(|v| v.parse().expect("validated f64 parameter"))
    }

    /// The canonical string form (what [`fmt::Display`] prints): reports,
    /// tables and records all carry this, so two differently parameterized
    /// instances of the same name stay distinguishable.
    pub fn canonical(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_spec(f, &self.name, &self.params)
    }
}

/// What a registry needs to know about a factory: its name, its declared
/// parameters, and its cross-parameter check.  Every domain's factory trait
/// takes this as a supertrait and adds the domain method.
pub trait SpecFamily: Send + Sync {
    /// The registry key; also the spec's name component.
    fn name(&self) -> &'static str;
    /// One-line description, shown by [`Registry::help`].
    fn doc(&self) -> &'static str;
    /// The parameters this factory accepts (empty slice: none).
    fn params(&self) -> &'static [ParamSpec];
    /// Check cross-parameter constraints after each key/value passed its
    /// [`ParamSpec`] (e.g. "`seed` requires `victim=random`").  Return an
    /// error message to reject the combination; the default accepts all.
    fn validate_spec(&self, _spec: &Spec) -> Result<(), String> {
        Ok(())
    }
}

/// One spec axis: the type parameter of its [`Registry`].
pub trait Domain: Sized + 'static {
    /// The domain's factory object type (e.g. `dyn PolicyFactory`).
    type Factory: SpecFamily + ?Sized;
    /// The domain's error wording.
    const VOCAB: &'static Vocab;
    /// The factories a [`Registry::with_builtins`] starts with.
    fn builtins() -> Vec<Arc<Self::Factory>>;
    /// The process-wide registry every spec parse resolves through (a
    /// `OnceLock` holding [`Registry::with_builtins`] in the domain crate).
    fn global() -> &'static Registry<Self>;
}

/// A name-keyed set of factories for one [`Domain`]: registration, lookup,
/// parsing and validation, and help-text rendering.
///
/// Almost all code uses the process-wide [`Registry::global`] instance, which
/// the domain's spec parser consults; separate instances exist for tests.
pub struct Registry<D: Domain> {
    entries: RwLock<BTreeMap<&'static str, Arc<D::Factory>>>,
}

impl<D: Domain> Registry<D> {
    /// An empty registry (no built-ins).
    pub fn empty() -> Self {
        Registry {
            entries: RwLock::new(BTreeMap::new()),
        }
    }

    /// A registry pre-loaded with the domain's built-in factories.
    pub fn with_builtins() -> Self {
        let reg = Self::empty();
        for factory in D::builtins() {
            reg.register(factory);
        }
        reg
    }

    /// The process-wide registry of the domain.
    pub fn global() -> &'static Self {
        D::global()
    }

    /// Add (or replace — last registration wins) a factory.  After this call
    /// on the global registry, `factory.name()` parses everywhere a spec of
    /// the domain is accepted.
    pub fn register(&self, factory: Arc<D::Factory>) {
        self.entries
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(factory.name(), factory);
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .keys()
            .map(|k| k.to_string())
            .collect()
    }

    /// Look up one factory.
    pub fn factory(&self, name: &str) -> Option<Arc<D::Factory>> {
        self.entries
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// The factory a validated spec resolves through.
    ///
    /// # Panics
    ///
    /// Panics if the spec's name is not (or no longer) registered — parsed
    /// specs are validated at construction, so this only affects specs built
    /// with [`Spec::known_valid`] for unregistered names.
    pub fn resolve(&self, spec: &Spec) -> Arc<D::Factory> {
        self.factory(spec.name()).unwrap_or_else(|| {
            panic!(
                "{} '{}' vanished from the registry",
                D::VOCAB.entity,
                spec.name()
            )
        })
    }

    /// Parse and validate a spec string.
    pub fn parse(&self, s: &str) -> Result<Spec, SpecError> {
        let (name, params) = parse_spec(s, D::VOCAB)?;
        self.validate(name, params)
    }

    /// Add or replace one parameter of `spec`, revalidating the result.
    pub fn with_param(&self, spec: Spec, key: &str, value: &str) -> Result<Spec, SpecError> {
        let Spec { name, mut params } = spec;
        params.insert(key.to_string(), value.to_string());
        self.validate(name, params)
    }

    /// Validate a raw `(name, params)` pair into a canonical [`Spec`]: the
    /// name must be registered, every key declared, every value well-typed
    /// (values are canonicalised, e.g. `threshold=007` becomes `threshold=7`), and the
    /// factory's [`SpecFamily::validate_spec`] must accept the result.
    pub fn validate(
        &self,
        name: String,
        params: BTreeMap<String, String>,
    ) -> Result<Spec, SpecError> {
        let err = |kind| Err(SpecError::new(D::VOCAB, kind));
        let Some(factory) = self.factory(&name) else {
            return err(SpecErrorKind::UnknownName {
                name,
                known: self.names(),
            });
        };
        let declared = factory.params();
        let mut canonical = BTreeMap::new();
        for (key, value) in params {
            let Some(decl) = declared.iter().find(|p| p.key == key) else {
                return err(SpecErrorKind::UnknownParam {
                    owner: name,
                    key,
                    known: declared.iter().map(|p| p.key.to_string()).collect(),
                });
            };
            match decl.kind.canonicalise(&value) {
                Ok(v) => {
                    canonical.insert(key, v);
                }
                Err(expected) => {
                    return err(SpecErrorKind::InvalidValue {
                        owner: name,
                        key,
                        value,
                        expected,
                    })
                }
            }
        }
        let spec = Spec::known_valid(factory.name(), canonical);
        if let Err(message) = factory.validate_spec(&spec) {
            return err(SpecErrorKind::InvalidCombination {
                owner: factory.name().to_string(),
                message,
            });
        }
        Ok(spec)
    }

    /// A human-readable listing of every registered factory and its
    /// parameters (what a `--list` for the spec grammar prints).
    pub fn help(&self) -> String {
        let entries = self
            .entries
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::new();
        for factory in entries.values() {
            out.push_str(&format!("{:<8} {}\n", factory.name(), factory.doc()));
            for p in factory.params() {
                out.push_str(&format!(
                    "  {}=<{}>  {}\n",
                    p.key,
                    p.kind.help_token(),
                    p.doc
                ));
            }
        }
        out
    }
}

impl<D: Domain> fmt::Debug for Registry<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("subject", &D::VOCAB.subject)
            .field("names", &self.names())
            .finish()
    }
}

/// Declare a domain's spec type: a newtype over [`Spec`] that derefs to it
/// (so the shared accessors apply), displays canonically, parses through
/// the domain's global [`Registry`], and revalidates on `with_param`.  The
/// domain adds its named constructors in its own `impl` block.
///
/// ```
/// use pdfws_spec::{spec_type, Domain, ParamSpec, Registry, SpecFamily, Vocab};
/// use std::sync::{Arc, OnceLock};
///
/// pub enum Shapes {}
///
/// struct Square;
/// impl SpecFamily for Square {
///     fn name(&self) -> &'static str { "square" }
///     fn doc(&self) -> &'static str { "a square" }
///     fn params(&self) -> &'static [ParamSpec] { &[] }
/// }
///
/// impl Domain for Shapes {
///     type Factory = dyn SpecFamily;
///     const VOCAB: &'static Vocab =
///         &Vocab { subject: "shape", entity: "shape", known_label: "known shapes" };
///     fn builtins() -> Vec<Arc<dyn SpecFamily>> { vec![Arc::new(Square)] }
///     fn global() -> &'static Registry<Shapes> {
///         static GLOBAL: OnceLock<Registry<Shapes>> = OnceLock::new();
///         GLOBAL.get_or_init(Registry::with_builtins)
///     }
/// }
///
/// spec_type! {
///     /// Which shape.
///     pub struct ShapeSpec(Shapes);
/// }
///
/// let spec: ShapeSpec = "square".parse().unwrap();
/// assert_eq!(spec.name(), "square");
/// let err = "circle".parse::<ShapeSpec>().unwrap_err();
/// assert_eq!(err.to_string(), "unknown shape 'circle'; known shapes: square");
/// ```
#[macro_export]
macro_rules! spec_type {
    ($(#[$attr:meta])* $vis:vis struct $name:ident($domain:ty);) => {
        $(#[$attr])*
        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        $vis struct $name($crate::Spec);

        impl $name {
            /// Add or replace one parameter, revalidating the result.
            /// Consumes and returns the spec so calls chain.
            pub fn with_param(self, key: &str, value: &str) -> Result<Self, $crate::SpecError> {
                $crate::Registry::<$domain>::global()
                    .with_param(self.0, key, value)
                    .map($name)
            }
        }

        impl ::std::ops::Deref for $name {
            type Target = $crate::Spec;
            fn deref(&self) -> &$crate::Spec {
                &self.0
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                ::std::fmt::Display::fmt(&self.0, f)
            }
        }

        impl ::std::str::FromStr for $name {
            type Err = $crate::SpecError;
            fn from_str(s: &str) -> Result<Self, $crate::SpecError> {
                $crate::Registry::<$domain>::global().parse(s).map($name)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    enum Widgets {}

    impl Domain for Widgets {
        type Factory = dyn SpecFamily;
        const VOCAB: &'static Vocab = &Vocab {
            subject: "widget",
            entity: "widget kind",
            known_label: "known widgets",
        };
        fn builtins() -> Vec<Arc<dyn SpecFamily>> {
            vec![Arc::new(Gear)]
        }
        fn global() -> &'static Registry<Widgets> {
            static GLOBAL: OnceLock<Registry<Widgets>> = OnceLock::new();
            GLOBAL.get_or_init(Registry::with_builtins)
        }
    }

    spec_type! {
        struct WidgetSpec(Widgets);
    }

    #[derive(Debug)]
    struct Gear;
    impl SpecFamily for Gear {
        fn name(&self) -> &'static str {
            "gear"
        }
        fn doc(&self) -> &'static str {
            "a test factory"
        }
        fn params(&self) -> &'static [ParamSpec] {
            &[
                ParamSpec {
                    key: "teeth",
                    kind: ParamKind::U64,
                    doc: "number of teeth",
                },
                ParamSpec {
                    key: "bias",
                    kind: ParamKind::Fraction,
                    doc: "load bias",
                },
                ParamSpec {
                    key: "metal",
                    kind: ParamKind::Choice(&["steel", "brass"]),
                    doc: "material",
                },
                ParamSpec {
                    key: "width",
                    kind: ParamKind::PositiveF64,
                    doc: "face width in mm",
                },
            ]
        }
        fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
            if spec.u64_param("teeth") == Some(0) {
                return Err("a gear needs teeth".into());
            }
            Ok(())
        }
    }

    const VOCAB: &Vocab = Widgets::VOCAB;

    fn table() -> &'static Registry<Widgets> {
        Registry::global()
    }

    #[test]
    fn grammar_splits_and_trims() {
        let (name, params) = parse_spec(" gear : teeth = 12 , metal = brass ", VOCAB).unwrap();
        assert_eq!(name, "gear");
        assert_eq!(params.get("teeth").map(String::as_str), Some("12"));
        assert_eq!(params.get("metal").map(String::as_str), Some("brass"));
    }

    #[test]
    fn grammar_rejects_empty_malformed_and_duplicates() {
        let e = parse_spec("  ", VOCAB).unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::Empty);
        assert_eq!(e.to_string(), "empty widget spec");
        let e = parse_spec(":x=1", VOCAB).unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::Empty);
        let e = parse_spec("gear:teeth", VOCAB).unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::MalformedParam { .. }));
        assert!(e.to_string().contains("expected key=value"), "{e}");
        let e = parse_spec("gear:teeth=1,teeth=2", VOCAB).unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::DuplicateParam { .. }));
        assert!(e.to_string().contains("in widget spec"), "{e}");
    }

    #[test]
    fn validate_canonicalises_typed_values() {
        let spec = table().parse("gear:teeth=007,bias=0.50").unwrap();
        assert_eq!(spec.param("teeth"), Some("7"));
        assert_eq!(spec.u64_param("teeth"), Some(7));
        assert_eq!(spec.f64_param("bias"), Some(0.5));
        assert_eq!(spec.to_string(), "gear:bias=0.5,teeth=7");
    }

    #[test]
    fn positive_f64_accepts_positive_reals_and_infinity_only() {
        let spec = table().parse("gear:width=2.50").unwrap();
        assert_eq!(spec.param("width"), Some("2.5"));
        let spec = table().parse("gear:width=inf").unwrap();
        assert_eq!(spec.f64_param("width"), Some(f64::INFINITY));
        for bad in ["0", "-1", "NaN", "wide"] {
            let e = table().parse(&format!("gear:width={bad}")).unwrap_err();
            assert!(e.to_string().contains("a positive real number"), "{e}");
        }
    }

    #[test]
    fn validate_speaks_the_domain_vocabulary() {
        let t = table();
        let e = t.validate("sprocket".into(), BTreeMap::new()).unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown widget kind 'sprocket'; known widgets: gear"
        );
        let e = t.parse("gear:size=3").unwrap_err();
        assert!(
            e.to_string()
                .starts_with("widget 'gear' has no parameter 'size'"),
            "{e}"
        );
        let e = t.parse("gear:bias=1.5").unwrap_err();
        assert!(e.to_string().contains("a fraction between 0 and 1"), "{e}");
        let e = t.parse("gear:metal=wood").unwrap_err();
        assert!(e.to_string().contains("one of steel, brass"), "{e}");
        let e = t.parse("gear:teeth=0").unwrap_err();
        assert_eq!(
            e.to_string(),
            "invalid parameter combination for widget 'gear': a gear needs teeth"
        );
    }

    #[test]
    fn spec_types_parse_display_and_revalidate() {
        let spec: WidgetSpec = " gear : metal = brass ".parse().unwrap();
        assert_eq!(spec.to_string(), "gear:metal=brass");
        assert_eq!(spec.canonical(), "gear:metal=brass");
        let spec = spec.with_param("teeth", "09").unwrap();
        assert_eq!(spec.to_string(), "gear:metal=brass,teeth=9");
        let again: WidgetSpec = spec.to_string().parse().unwrap();
        assert_eq!(again, spec);
        assert!(spec.with_param("teeth", "0").is_err());
    }

    #[test]
    fn separate_registries_are_independent() {
        let reg = Registry::<Widgets>::empty();
        assert!(reg.names().is_empty());
        let err = reg.parse("gear").unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::UnknownName { .. }));
        assert_eq!(Registry::<Widgets>::with_builtins().names(), ["gear"]);
    }

    #[test]
    fn help_lists_names_params_and_kinds() {
        let help = table().help();
        assert!(help.contains("gear"), "{help}");
        assert!(help.contains("teeth=<u64>"), "{help}");
        assert!(help.contains("bias=<0..1>"), "{help}");
        assert!(help.contains("metal=<steel|brass>"), "{help}");
    }

    #[test]
    fn format_spec_is_the_inverse_of_parse_spec_on_canonical_input() {
        let (name, params) = parse_spec("gear:teeth=9,metal=steel", VOCAB).unwrap();
        let printed = Spec::known_valid(name.clone(), params.clone()).to_string();
        assert_eq!(printed, "gear:metal=steel,teeth=9");
        assert_eq!(parse_spec(&printed, VOCAB).unwrap(), (name, params));
    }
}
