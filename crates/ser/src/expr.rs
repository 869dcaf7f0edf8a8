//! Policy expressions: `name(key=value, …)`.
//!
//! Every policy axis of the workspace (batch schedulers, mappings,
//! reallocation strategies, ordering heuristics) is selected from specs
//! and CLIs by string. This module upgrades those strings from bare
//! names to *expressions* carrying typed named arguments:
//!
//! ```text
//! load-threshold                      # bare name (all defaults)
//! load-threshold()                    # same thing
//! load-threshold(factor=2)            # explicit default — still the same
//! load-threshold(factor=1.5)          # a configured variant
//! EASY(protected=4)                   # integer argument
//! ```
//!
//! The registries stay the source of truth: each entry declares the
//! parameters it accepts as a list of [`ParamSpec`]s (key, type,
//! default, one-line doc). [`BoundArgs::bind`] validates a parsed
//! [`PolicyExpr`] against that list — unknown keys and type mismatches
//! produce errors that spell out the accepted parameters — and
//! [`BoundArgs::canonical`] renders the *canonical* spelling: arguments
//! equal to their declared default are dropped and the rest are printed
//! in declaration order, so `load-threshold`, `load-threshold()` and
//! `load-threshold(factor=2)` all canonicalise (and therefore display,
//! compare and hash) identically. Canonicalisation is what lets
//! expression handles flow into cache descriptors and table keys without
//! perturbing the byte-identity of default-parameter runs.
//!
//! Every axis selects its entries through one [`Handle`]: a `Copy`
//! pointer to a `'static` entry whose identity is its canonical
//! expression. [`resolve`] turns an expression into a handle for any
//! axis whose entries implement [`Entry`], and [`intern`] keeps one
//! handle per canonical expression.

use std::any::Any;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, PoisonError};

/// A parsed argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Integer literal (`protected=4`).
    Int(i64),
    /// Float literal (`factor=1.5`); integer literals coerce to floats
    /// where a float is expected.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// Quoted (`"a b"`) or bare (`abc`) string.
    Str(String),
}

impl ArgValue {
    /// Human name of the value's kind (for error messages).
    pub fn kind_name(&self) -> &'static str {
        match self {
            ArgValue::Int(_) => "integer",
            ArgValue::Float(_) => "float",
            ArgValue::Bool(_) => "boolean",
            ArgValue::Str(_) => "string",
        }
    }

    /// Canonical rendering used inside canonical expressions. Floats use
    /// the shortest round-trip form (`3` for `3.0`, `1.5` for `1.5`), so
    /// `factor=3` and `factor=3.0` canonicalise identically.
    fn canonical(&self) -> String {
        match self {
            ArgValue::Int(i) => i.to_string(),
            ArgValue::Float(f) => f.to_string(),
            ArgValue::Bool(b) => b.to_string(),
            ArgValue::Str(s) => {
                if !s.is_empty()
                    && s.chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
                {
                    s.clone()
                } else {
                    format!("{s:?}")
                }
            }
        }
    }
}

impl fmt::Display for ArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// The type a declared parameter accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Signed integer.
    Int,
    /// Float (integer literals coerce).
    Float,
    /// Boolean.
    Bool,
    /// String.
    Str,
}

impl fmt::Display for ParamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ParamKind::Int => "int",
            ParamKind::Float => "float",
            ParamKind::Bool => "bool",
            ParamKind::Str => "string",
        })
    }
}

/// One parameter a registry entry declares.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Argument key as written in expressions.
    pub key: &'static str,
    /// Accepted type.
    pub kind: ParamKind,
    /// Declared default. `None` means the default is computed at runtime
    /// (e.g. "inherit from the run configuration"); such an argument is
    /// never dropped from the canonical form when provided.
    pub default: Option<ArgValue>,
    /// One-line description shown in error messages.
    pub doc: &'static str,
}

impl ParamSpec {
    /// A float parameter.
    pub fn float(key: &'static str, default: Option<f64>, doc: &'static str) -> ParamSpec {
        ParamSpec {
            key,
            kind: ParamKind::Float,
            default: default.map(ArgValue::Float),
            doc,
        }
    }

    /// An integer parameter.
    pub fn int(key: &'static str, default: Option<i64>, doc: &'static str) -> ParamSpec {
        ParamSpec {
            key,
            kind: ParamKind::Int,
            default: default.map(ArgValue::Int),
            doc,
        }
    }

    /// A boolean parameter.
    pub fn bool(key: &'static str, default: Option<bool>, doc: &'static str) -> ParamSpec {
        ParamSpec {
            key,
            kind: ParamKind::Bool,
            default: default.map(ArgValue::Bool),
            doc,
        }
    }

    /// A string parameter.
    pub fn str(key: &'static str, default: Option<&str>, doc: &'static str) -> ParamSpec {
        ParamSpec {
            key,
            kind: ParamKind::Str,
            default: default.map(|s| ArgValue::Str(s.to_string())),
            doc,
        }
    }

    /// `key: kind = default — doc` (error-message helper).
    fn describe(&self) -> String {
        let default = match &self.default {
            Some(v) => format!(" = {v}"),
            None => String::new(),
        };
        format!("{}: {}{default} ({})", self.key, self.kind, self.doc)
    }
}

/// Render an entry's accepted-parameter list for error messages.
pub fn describe_params(entry: &str, specs: &[ParamSpec]) -> String {
    if specs.is_empty() {
        format!("`{entry}` takes no parameters")
    } else {
        format!(
            "`{entry}` accepts: {}",
            specs
                .iter()
                .map(ParamSpec::describe)
                .collect::<Vec<_>>()
                .join("; ")
        )
    }
}

/// A parsed (but not yet validated) policy expression.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyExpr {
    /// The entry name as written (case preserved; registries resolve it
    /// case-insensitively).
    pub name: String,
    /// Arguments in source order, keys unique.
    pub args: Vec<(String, ArgValue)>,
}

impl PolicyExpr {
    /// Parse `name` or `name(key=value, …)`.
    pub fn parse(input: &str) -> Result<PolicyExpr, String> {
        let s = input.trim();
        if s.is_empty() {
            return Err("empty policy expression".into());
        }
        let (name, rest) = match s.find('(') {
            None => (s, None),
            Some(i) => {
                let Some(inner) = s[i + 1..].strip_suffix(')') else {
                    return Err(format!("`{s}`: missing closing `)`"));
                };
                (s[..i].trim_end(), Some(inner))
            }
        };
        if name.is_empty() {
            return Err(format!("`{s}`: missing policy name before `(`"));
        }
        if let Some(bad) = name
            .chars()
            .find(|c| ")(,=\"".contains(*c) || c.is_whitespace())
        {
            return Err(format!("`{s}`: invalid character `{bad}` in policy name"));
        }
        let mut args: Vec<(String, ArgValue)> = Vec::new();
        if let Some(inner) = rest {
            for (key, value) in parse_args(inner).map_err(|e| format!("`{s}`: {e}"))? {
                if args.iter().any(|(k, _)| *k == key) {
                    return Err(format!("`{s}`: duplicate argument `{key}`"));
                }
                args.push((key, value));
            }
        }
        Ok(PolicyExpr {
            name: name.to_string(),
            args,
        })
    }
}

/// Tokenise the inside of the parentheses: `key=value, key=value`.
fn parse_args(inner: &str) -> Result<Vec<(String, ArgValue)>, String> {
    let mut out = Vec::new();
    let mut rest = inner.trim_start();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("expected `key=value`, got `{}`", rest.trim()))?;
        let key = rest[..eq].trim();
        if key.is_empty() {
            return Err("missing argument key before `=`".into());
        }
        if !key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(format!("invalid argument key `{key}`"));
        }
        rest = rest[eq + 1..].trim_start();
        let (value, after) = parse_value(rest)?;
        out.push((key.to_string(), value));
        rest = after.trim_start();
        match rest.strip_prefix(',') {
            Some(r) => rest = r.trim_start(),
            None if rest.is_empty() => break,
            None => return Err(format!("expected `,` before `{rest}`")),
        }
    }
    Ok(out)
}

/// Parse one value off the front of `rest`; returns (value, remainder).
fn parse_value(rest: &str) -> Result<(ArgValue, &str), String> {
    if let Some(q) = rest.strip_prefix('"') {
        // Quoted string with minimal escapes.
        let mut s = String::new();
        let mut chars = q.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok((ArgValue::Str(s), &q[i + 1..])),
                '\\' => match chars.next() {
                    Some((_, '"')) => s.push('"'),
                    Some((_, '\\')) => s.push('\\'),
                    Some((_, 'n')) => s.push('\n'),
                    Some((_, other)) => return Err(format!("unknown escape `\\{other}`")),
                    None => return Err("unterminated string".into()),
                },
                c => s.push(c),
            }
        }
        return Err("unterminated string".into());
    }
    let end = rest.find([',', ')']).unwrap_or(rest.len());
    let token = rest[..end].trim();
    if token.is_empty() {
        return Err("missing argument value".into());
    }
    if token
        .chars()
        .any(|c| c.is_whitespace() || "=\"(".contains(c))
    {
        return Err(format!(
            "invalid bare value `{token}` (quote strings containing spaces)"
        ));
    }
    let value = if token == "true" {
        ArgValue::Bool(true)
    } else if token == "false" {
        ArgValue::Bool(false)
    } else if let Ok(i) = token.parse::<i64>() {
        ArgValue::Int(i)
    } else if let Ok(f) = token.parse::<f64>() {
        if !f.is_finite() {
            return Err(format!("non-finite number `{token}`"));
        }
        ArgValue::Float(f)
    } else {
        ArgValue::Str(token.to_string())
    };
    Ok((value, &rest[end..]))
}

/// One declared parameter after binding: its effective value (provided
/// or defaulted) and whether the provided value differs from the
/// default.
#[derive(Debug, Clone)]
struct BoundParam {
    key: &'static str,
    /// Effective value; `None` when the spec has no static default and
    /// the argument was not provided (the entry computes it at runtime).
    value: Option<ArgValue>,
    /// Provided *and* different from the declared default — i.e. part of
    /// the canonical spelling.
    non_default: bool,
}

/// A policy expression validated against an entry's [`ParamSpec`]s.
#[derive(Debug, Clone)]
pub struct BoundArgs {
    params: Vec<BoundParam>,
}

impl BoundArgs {
    /// Validate `expr`'s arguments against `specs`. `entry` is the
    /// canonical entry name, used in error messages (which always spell
    /// out the accepted parameters with types and defaults).
    pub fn bind(expr: &PolicyExpr, specs: &[ParamSpec], entry: &str) -> Result<BoundArgs, String> {
        let mut provided: Vec<Option<ArgValue>> = vec![None; specs.len()];
        for (key, value) in &expr.args {
            let Some(i) = specs.iter().position(|p| p.key == key) else {
                return Err(format!(
                    "unknown parameter `{key}` for `{entry}` — {}",
                    describe_params(entry, specs)
                ));
            };
            let coerced = coerce(value, specs[i].kind).ok_or_else(|| {
                format!(
                    "parameter `{key}` of `{entry}` expects {}, got {} `{value}` — {}",
                    specs[i].kind,
                    value.kind_name(),
                    describe_params(entry, specs)
                )
            })?;
            provided[i] = Some(coerced);
        }
        let params = specs
            .iter()
            .zip(provided)
            .map(|(spec, provided)| match provided {
                Some(v) => {
                    let non_default = spec.default.as_ref() != Some(&v);
                    BoundParam {
                        key: spec.key,
                        value: Some(v),
                        non_default,
                    }
                }
                None => BoundParam {
                    key: spec.key,
                    value: spec.default.clone(),
                    non_default: false,
                },
            })
            .collect();
        Ok(BoundArgs { params })
    }

    /// The canonical spelling of the expression: the bare `name` when
    /// every argument equals its default, `name(k=v, …)` (declaration
    /// order, canonical value rendering) otherwise.
    pub fn canonical(&self, name: &str) -> String {
        let parts: Vec<String> = self
            .params
            .iter()
            .filter(|p| p.non_default)
            .map(|p| {
                format!(
                    "{}={}",
                    p.key,
                    p.value.as_ref().expect("non-default is provided")
                )
            })
            .collect();
        if parts.is_empty() {
            name.to_string()
        } else {
            format!("{name}({})", parts.join(", "))
        }
    }

    /// `true` when every argument equals its declared default.
    pub fn is_all_default(&self) -> bool {
        self.params.iter().all(|p| !p.non_default)
    }

    fn value(&self, key: &str) -> Option<&ArgValue> {
        self.params
            .iter()
            .find(|p| p.key == key)
            .and_then(|p| p.value.as_ref())
    }

    /// Effective float value of `key` (`None`: no value and no default).
    pub fn f64(&self, key: &str) -> Option<f64> {
        match self.value(key)? {
            ArgValue::Float(f) => Some(*f),
            ArgValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Effective integer value of `key`.
    pub fn i64(&self, key: &str) -> Option<i64> {
        match self.value(key)? {
            ArgValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Effective non-negative integer value of `key` (negative values
    /// were rejected by the entry's own validation or saturate to zero).
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.i64(key).map(|i| i.max(0) as u64)
    }

    /// Effective boolean value of `key`.
    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.value(key)? {
            ArgValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Effective string value of `key`.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.value(key)? {
            ArgValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The configuration hooks of one policy axis's registry entries. Each
/// axis implements it for its `dyn Trait`, forwarding to the trait's own
/// `params`/`with_params`, so [`resolve`] serves every axis.
pub trait Entry: Sync + 'static {
    /// Parameters the entry accepts in policy expressions.
    fn params(&self) -> Vec<ParamSpec>;

    /// Build a configured instance from validated arguments. Called only
    /// when at least one argument differs from its declared default.
    fn with_params(&self, args: &BoundArgs) -> Result<Box<Self>, String>;
}

/// Copyable handle to a `'static` registry entry (a batch scheduler, a
/// mapping, a reallocation strategy, an ordering, a fault
/// configuration).
///
/// Identity — equality, hashing, ordering, display and therefore cache
/// keys and table rows — is the canonical expression the handle was
/// resolved under, never the entry's address.
pub struct Handle<T: ?Sized + 'static> {
    entry: &'static T,
    key: &'static str,
}

impl<T: ?Sized> Handle<T> {
    /// A handle to `entry` whose identity is the canonical expression
    /// `key`.
    pub const fn new(key: &'static str, entry: &'static T) -> Handle<T> {
        Handle { entry, key }
    }

    /// The canonical expression — the handle's identity.
    #[inline]
    pub fn key(self) -> &'static str {
        self.key
    }

    /// The entry behind the handle.
    #[inline]
    pub fn get(self) -> &'static T {
        self.entry
    }
}

impl<T: ?Sized> Clone for Handle<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: ?Sized> Copy for Handle<T> {}

impl<T: ?Sized> fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key)
    }
}

impl<T: ?Sized> fmt::Display for Handle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key)
    }
}

impl<T: ?Sized> PartialEq for Handle<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T: ?Sized> Eq for Handle<T> {}

impl<T: ?Sized> Hash for Handle<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key.hash(state);
    }
}

impl<T: ?Sized> PartialOrd for Handle<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: ?Sized> Ord for Handle<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(other.key)
    }
}

/// Implement `Debug` and `Display` for a newtype over a [`Handle`] by
/// printing the handle in field `$field`, i.e. its canonical expression.
#[macro_export]
macro_rules! fmt_as_handle {
    ($ty:ty, $field:tt) => {
        impl ::std::fmt::Debug for $ty {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                ::std::fmt::Display::fmt(&self.$field, f)
            }
        }

        impl ::std::fmt::Display for $ty {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                ::std::fmt::Display::fmt(&self.$field, f)
            }
        }
    };
}

/// Every interned handle of the process, of any entry type. Interning
/// keeps handles `Copy` and bounds the leaked entries to one per
/// canonical expression per process.
static INTERNED: Mutex<Vec<Box<dyn Any + Send>>> = Mutex::new(Vec::new());

/// The interned handle of entry type `T` keyed `key`; on first use the
/// entry is built with `build` and leaked.
pub fn intern<T: ?Sized + Sync + 'static>(
    key: String,
    build: impl FnOnce() -> Result<Box<T>, String>,
) -> Result<Handle<T>, String> {
    // A `build` that panicked pushed nothing, so a poisoned table is
    // still valid.
    let mut interned = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
    let hit = interned
        .iter()
        .filter_map(|h| h.downcast_ref::<Handle<T>>())
        .find(|h| h.key == key);
    if let Some(hit) = hit {
        return Ok(*hit);
    }
    let entry = Box::leak(build()?);
    let handle = Handle::new(String::leak(key), entry);
    interned.push(Box::new(handle));
    Ok(handle)
}

/// Resolve a policy expression against one axis's `registry` of base
/// handles (`noun` names the axis in errors): parse, look the entry up
/// by name (case-insensitive), validate the arguments against its
/// declared parameters and canonicalise. An expression whose arguments
/// all equal their defaults is the base handle itself; anything else
/// interns a configured instance under its canonical expression.
///
/// Keeping this in one place means canonical identity — the property
/// cache keys and table keys rely on — cannot drift between axes.
pub fn resolve<T: Entry + ?Sized>(
    input: &str,
    registry: &[Handle<T>],
    noun: &str,
) -> Result<Handle<T>, String> {
    let expr = PolicyExpr::parse(input)?;
    let Some(&base) = registry
        .iter()
        .find(|h| h.key.eq_ignore_ascii_case(&expr.name))
    else {
        let names: Vec<&str> = registry.iter().map(|h| h.key).collect();
        return Err(format!(
            "unknown {noun} `{}` (registered: {})",
            expr.name,
            names.join(", ")
        ));
    };
    let bound = BoundArgs::bind(&expr, &base.entry.params(), base.key)?;
    if bound.is_all_default() {
        return Ok(base);
    }
    intern(bound.canonical(base.key), || base.entry.with_params(&bound))
}

/// Split `input` on `+` outside parentheses, so each part's arguments
/// stay intact (`EASY(protected=2)+FCFS`).
pub fn split_plus(input: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, c) in input.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            '+' if depth == 0 => {
                parts.push(&input[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&input[start..]);
    parts
}

/// Coerce a parsed value to the declared kind (`Int` → `Float` is the
/// only widening allowed).
fn coerce(value: &ArgValue, kind: ParamKind) -> Option<ArgValue> {
    match (value, kind) {
        (ArgValue::Int(i), ParamKind::Int) => Some(ArgValue::Int(*i)),
        (ArgValue::Int(i), ParamKind::Float) => Some(ArgValue::Float(*i as f64)),
        (ArgValue::Float(f), ParamKind::Float) => Some(ArgValue::Float(*f)),
        (ArgValue::Bool(b), ParamKind::Bool) => Some(ArgValue::Bool(*b)),
        (ArgValue::Str(s), ParamKind::Str) => Some(ArgValue::Str(s.clone())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<ParamSpec> {
        vec![
            ParamSpec::float("factor", Some(2.0), "imbalance factor"),
            ParamSpec::int("floor_s", None, "absolute floor in seconds"),
        ]
    }

    #[test]
    fn bare_name_parses() {
        let e = PolicyExpr::parse("load-threshold").unwrap();
        assert_eq!(e.name, "load-threshold");
        assert!(e.args.is_empty());
        let e = PolicyExpr::parse("  EASY-SJF  ").unwrap();
        assert_eq!(e.name, "EASY-SJF");
    }

    #[test]
    fn empty_parens_equal_bare_name() {
        let e = PolicyExpr::parse("load-threshold()").unwrap();
        assert_eq!(e.name, "load-threshold");
        assert!(e.args.is_empty());
        let b = BoundArgs::bind(&e, &specs(), "load-threshold").unwrap();
        assert_eq!(b.canonical("load-threshold"), "load-threshold");
        assert!(b.is_all_default());
    }

    #[test]
    fn args_parse_with_types() {
        let e = PolicyExpr::parse("x(a=1, b=1.5, c=true, d=word, e=\"two words\")").unwrap();
        assert_eq!(
            e.args,
            vec![
                ("a".into(), ArgValue::Int(1)),
                ("b".into(), ArgValue::Float(1.5)),
                ("c".into(), ArgValue::Bool(true)),
                ("d".into(), ArgValue::Str("word".into())),
                ("e".into(), ArgValue::Str("two words".into())),
            ]
        );
    }

    #[test]
    fn parse_errors_are_specific() {
        assert!(PolicyExpr::parse("").is_err());
        assert!(PolicyExpr::parse("x(").unwrap_err().contains("closing"));
        assert!(PolicyExpr::parse("(a=1)").unwrap_err().contains("name"));
        assert!(PolicyExpr::parse("x(a)").unwrap_err().contains("key=value"));
        assert!(PolicyExpr::parse("x(=1)").unwrap_err().contains("key"));
        assert!(PolicyExpr::parse("x(a=1 b=2)")
            .unwrap_err()
            .contains("quote strings"));
        assert!(PolicyExpr::parse("x(a=1, a=2)")
            .unwrap_err()
            .contains("duplicate"));
        assert!(PolicyExpr::parse("x y").is_err());
    }

    #[test]
    fn default_valued_args_canonicalise_away() {
        for spelled in ["lt", "lt()", "lt(factor=2)", "lt(factor=2.0)"] {
            let e = PolicyExpr::parse(spelled).unwrap();
            let b = BoundArgs::bind(&e, &specs(), "lt").unwrap();
            assert_eq!(b.canonical("lt"), "lt", "{spelled}");
        }
        let e = PolicyExpr::parse("lt(factor=1.5)").unwrap();
        let b = BoundArgs::bind(&e, &specs(), "lt").unwrap();
        assert_eq!(b.canonical("lt"), "lt(factor=1.5)");
        assert!(!b.is_all_default());
        // Int literal coerces to float and renders shortest.
        let e = PolicyExpr::parse("lt(factor=3)").unwrap();
        let b = BoundArgs::bind(&e, &specs(), "lt").unwrap();
        assert_eq!(b.canonical("lt"), "lt(factor=3)");
        assert_eq!(b.f64("factor"), Some(3.0));
    }

    #[test]
    fn runtime_defaults_are_never_dropped() {
        let e = PolicyExpr::parse("lt(floor_s=60)").unwrap();
        let b = BoundArgs::bind(&e, &specs(), "lt").unwrap();
        assert_eq!(b.canonical("lt"), "lt(floor_s=60)");
        assert_eq!(b.u64("floor_s"), Some(60));
        // Unprovided: no value at all.
        let e = PolicyExpr::parse("lt").unwrap();
        let b = BoundArgs::bind(&e, &specs(), "lt").unwrap();
        assert_eq!(b.u64("floor_s"), None);
        assert_eq!(b.f64("factor"), Some(2.0), "static default fills in");
    }

    #[test]
    fn canonical_orders_by_declaration() {
        let e = PolicyExpr::parse("lt(floor_s=30, factor=1.5)").unwrap();
        let b = BoundArgs::bind(&e, &specs(), "lt").unwrap();
        assert_eq!(b.canonical("lt"), "lt(factor=1.5, floor_s=30)");
    }

    #[test]
    fn bind_rejects_unknown_and_ill_typed_args() {
        let e = PolicyExpr::parse("lt(factr=3)").unwrap();
        let err = BoundArgs::bind(&e, &specs(), "load-threshold").unwrap_err();
        assert!(err.contains("unknown parameter `factr`"), "{err}");
        assert!(err.contains("factor: float = 2"), "{err}");
        assert!(err.contains("floor_s: int"), "{err}");
        assert!(err.contains("imbalance factor"), "{err}");

        let e = PolicyExpr::parse("lt(factor=fast)").unwrap();
        let err = BoundArgs::bind(&e, &specs(), "load-threshold").unwrap_err();
        assert!(err.contains("expects float"), "{err}");
        assert!(err.contains("got string"), "{err}");

        let e = PolicyExpr::parse("lt(floor_s=1.5)").unwrap();
        let err = BoundArgs::bind(&e, &specs(), "load-threshold").unwrap_err();
        assert!(err.contains("expects int"), "{err}");
    }

    #[test]
    fn no_param_entries_reject_any_arg() {
        let e = PolicyExpr::parse("FCFS(x=1)").unwrap();
        let err = BoundArgs::bind(&e, &[], "FCFS").unwrap_err();
        assert!(err.contains("takes no parameters"), "{err}");
        let e = PolicyExpr::parse("FCFS()").unwrap();
        assert!(BoundArgs::bind(&e, &[], "FCFS").is_ok());
    }

    #[test]
    fn describe_params_lists_everything() {
        let d = describe_params("lt", &specs());
        assert!(d.contains("factor: float = 2 (imbalance factor)"), "{d}");
        assert_eq!(describe_params("FCFS", &[]), "`FCFS` takes no parameters");
    }

    #[derive(Debug)]
    struct Scale(f64);

    impl Entry for Scale {
        fn params(&self) -> Vec<ParamSpec> {
            vec![ParamSpec::float("factor", Some(2.0), "scale factor")]
        }
        fn with_params(&self, args: &BoundArgs) -> Result<Box<Scale>, String> {
            let factor = args.f64("factor").expect("declared with a default");
            if factor <= 0.0 {
                return Err(format!("`scale` needs factor > 0, got {factor}"));
            }
            Ok(Box::new(Scale(factor)))
        }
    }

    const SCALE: Handle<Scale> = Handle::new("scale", &Scale(2.0));
    const SHIFT: Handle<Scale> = Handle::new("shift", &Scale(0.0));

    #[test]
    fn handles_compare_order_hash_and_print_by_key() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |h: Handle<Scale>| {
            let mut state = DefaultHasher::new();
            h.hash(&mut state);
            state.finish()
        };
        let same_key = Handle::new("scale", &Scale(9.0));
        assert_eq!(same_key, SCALE, "identity is the key, not the entry");
        assert_eq!(hash(same_key), hash(SCALE));
        assert_ne!(SCALE, SHIFT);
        assert!(SCALE < SHIFT);
        assert_eq!(SCALE.max(SHIFT), SHIFT);
        assert_eq!(format!("{SCALE} {SCALE:?}"), "scale scale");
        assert_eq!(SCALE.get().0, 2.0);
    }

    #[test]
    fn intern_returns_one_handle_per_key() {
        let mut builds = 0;
        let mut make = |f: f64| {
            intern::<Scale>("handle-test(factor=3)".into(), || {
                builds += 1;
                Ok(Box::new(Scale(f)))
            })
            .unwrap()
        };
        let (a, b) = (make(3.0), make(4.0));
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.get(), b.get()), "second lookup hits");
        assert!(std::ptr::eq(a.key(), b.key()));
        assert_eq!(builds, 1);
        // The same key under another entry type is a different handle.
        let other = intern::<str>("handle-test(factor=3)".into(), || Ok("x".into())).unwrap();
        assert_eq!(other.get(), "x");
        // A failed build interns nothing.
        let err = intern::<Scale>("handle-test(bad)".into(), || Err("no".into()));
        assert_eq!(err.unwrap_err(), "no");
        let ok = intern::<Scale>("handle-test(bad)".into(), || Ok(Box::new(Scale(1.0))));
        assert_eq!(ok.unwrap().get().0, 1.0);
    }

    #[test]
    fn resolve_canonicalises_and_interns() {
        let registry = [SCALE, SHIFT];
        for spelled in ["scale", "SCALE()", "scale(factor=2.0)"] {
            let h = resolve(spelled, &registry, "knob").unwrap();
            assert!(std::ptr::eq(h.get(), SCALE.get()), "{spelled} is the base");
        }
        let a = resolve("scale(factor=1.5)", &registry, "knob").unwrap();
        let b = resolve("Scale( factor = 1.50 )", &registry, "knob").unwrap();
        assert_eq!(a.key(), "scale(factor=1.5)");
        assert!(std::ptr::eq(a.get(), b.get()), "interned once");
        assert_eq!(a.get().0, 1.5);
        let err = resolve("nope", &registry, "knob").unwrap_err();
        assert_eq!(err, "unknown knob `nope` (registered: scale, shift)");
        let err = resolve("scale(factor=0)", &registry, "knob").unwrap_err();
        assert!(err.contains("factor > 0"), "{err}");
        let err = resolve("scale(f=1)", &registry, "knob").unwrap_err();
        assert!(err.contains("factor: float = 2"), "{err}");
    }

    #[test]
    fn split_plus_keeps_parenthesised_arguments() {
        assert_eq!(split_plus("FCFS"), ["FCFS"]);
        assert_eq!(
            split_plus("EASY(protected=2)+FCFS"),
            ["EASY(protected=2)", "FCFS"]
        );
        assert_eq!(split_plus("a(x=\"1+2\")+b"), ["a(x=\"1+2\")", "b"]);
        assert_eq!(split_plus("a++b"), ["a", "", "b"]);
        assert_eq!(split_plus("+"), ["", ""]);
    }
}
