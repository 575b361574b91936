//! Structured observability: metrics registry and run-logs.
//!
//! The paper's central discipline (§2.2, §4) is that design decisions
//! are driven by *measured* quantities — buffer occupancy, miss rates,
//! utilisation — so the measurement machinery must itself be
//! first-class and inspectable. Experiments that print a table and
//! throw away every intermediate signal cannot be audited. This module
//! provides the two pieces every simulator in the workspace records
//! into:
//!
//! * [`MetricsRegistry`] — a flat, deterministic registry of named
//!   [`Metric`]s (counters, gauges, per-slot series, quantile sketches
//!   and reservoirs)
//!   addressed as `scope/name`, with merge semantics designed so that
//!   shards merged in job order reproduce a sequential run bit for bit
//!   (the [`crate::ParRunner`] contract extended to metrics);
//! * [`RunLog`] — a structured log of one simulation run staged in
//!   memory: string metadata, typed [`RunRecord`]s and an embedded
//!   registry. [`crate::stream_run_log`] writes it as a
//!   [`crate::runlog`] directory, the one on-disk run-log format.
//!
//! The workspace is offline and vendors no serialisation crate, so
//! JSON is rendered by the built-in [`JsonValue`] tree. Rendering is
//! *deterministic*: map keys come from a `BTreeMap`, record fields keep
//! insertion order, and floats print through Rust's shortest-round-trip
//! formatting, which is a pure function of the bits. Two runs that
//! compute identical values therefore serialise to identical bytes —
//! the property CI enforces by diffing run-logs across `DMS_THREADS`
//! settings.
//!
//! # Examples
//!
//! ```
//! use dms_sim::metrics::{Metric, MetricsRegistry, RunLog, RunRecord};
//!
//! let mut reg = MetricsRegistry::new();
//! let mut server = reg.scoped("server");
//! server.counter_add("admitted", 3);
//! server.series_extend("backlog", [0.5]);
//! assert_eq!(reg.get("server/admitted"), Some(&Metric::Counter(3)));
//!
//! let mut log = RunLog::new();
//! log.set_meta("experiment", "demo");
//! log.push(RunRecord::new("row").at(0).with("value", 1.25));
//! *log.registry_mut() = reg;
//! let line = log.records()[0].to_json().render_compact();
//! assert_eq!(line, r#"{"kind":"row","slot":0,"fields":{"value":1.25}}"#);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::sketch::{QuantileSketch, Reservoir};

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// A JSON value with deterministic rendering.
///
/// Exists because the offline workspace vendors no serialisation
/// crate. Floats render via Rust's shortest-round-trip
/// `Display`, so identical bits produce identical bytes; non-finite
/// floats render as `null` (JSON has no NaN/∞).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer.
    Uint(u64),
    /// Signed integer.
    Int(i64),
    /// Floating-point number (`null` if non-finite).
    Float(f64),
    /// String (escaped on render).
    Str(String),
    /// Ordered array.
    Array(Vec<JsonValue>),
    /// Object whose fields render in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Uint(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::Uint(u64::from(v))
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Uint(v as u64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl From<Vec<f64>> for JsonValue {
    fn from(v: Vec<f64>) -> Self {
        JsonValue::Array(v.into_iter().map(JsonValue::Float).collect())
    }
}

/// Escapes `s` into `out` as a JSON string literal (with quotes).
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders `fields` into `out` as a compact JSON object.
fn object_into(out: &mut String, fields: &[(String, JsonValue)]) {
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(out, key);
        out.push(':');
        value.render_compact_into(out);
    }
    out.push('}');
}

impl JsonValue {
    /// Renders the value as pretty-printed JSON (two-space indent).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::Uint(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => escape_into(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    escape_into(out, key);
                    out.push_str(": ");
                    value.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Renders the value as compact single-line JSON (no whitespace).
    ///
    /// The canonical form for JSONL run-log records: one line per
    /// value, fields in insertion order, floats via shortest-round-trip
    /// `Display`. Contains no raw newline or other control character —
    /// `escape_into` escapes everything below U+0020 — so splitting a
    /// chunk file on `\n` always recovers record boundaries.
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render_compact_into(&mut out);
        out
    }

    /// Appends the compact rendering to `out` (see [`render_compact`]).
    ///
    /// [`render_compact`]: JsonValue::render_compact
    pub fn render_compact_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::Uint(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => escape_into(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_compact_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => object_into(out, fields),
        }
    }

    /// Parses a JSON document produced by [`JsonValue::render`] (or any
    /// standard JSON text). Numbers without a fraction/exponent parse as
    /// `Uint`/`Int`; everything else numeric becomes `Float`. This is the
    /// read-back half used by offline tooling (e.g. the bench-regression
    /// guard re-reading `BENCH_experiments.json`).
    ///
    /// # Errors
    ///
    /// Returns a static description of the first syntax error.
    pub fn parse(text: &str) -> Result<JsonValue, &'static str> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            Ok(value)
        } else {
            Err("trailing characters after JSON value")
        }
    }

    /// Object field lookup (first match); `None` for non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `f64` (`Uint`/`Int`/`Float`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Uint(v) => Some(v as f64),
            JsonValue::Int(v) => Some(v as f64),
            JsonValue::Float(v) => Some(v),
            _ => None,
        }
    }

    /// String contents, if this is a `Str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an `Array`.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Minimal recursive-descent JSON reader for [`JsonValue::parse`].
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\n' || b == b'\r' || b == b'\t' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, &'static str> {
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err("unexpected character in JSON value"),
        }
    }

    fn array(&mut self) -> Result<JsonValue, &'static str> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(JsonValue::Array(items));
            }
            if !self.eat(b',') {
                return Err("expected ',' or ']' in array");
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, &'static str> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err("expected object key");
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err("expected ':' after object key");
            }
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(JsonValue::Object(fields));
            }
            if !self.eat(b',') {
                return Err("expected ',' or '}' in object");
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (the `\u` itself
    /// already consumed) and returns the code unit.
    fn hex_unit(&mut self) -> Result<u32, &'static str> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, &'static str> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                // RFC 8259 §7: control characters (U+0000–U+001F) MUST
                // be escaped. Accepting them raw would also break the
                // JSONL framing invariant that a record never contains
                // a literal newline.
                0x00..=0x1f => return Err("unescaped control character in string"),
                b'\\' => {
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let unit = self.hex_unit()?;
                            let code = match unit {
                                // High surrogate: must pair with a
                                // following \uDC00..\uDFFF low half.
                                0xd800..=0xdbff => {
                                    if !(self.eat(b'\\') && self.eat(b'u')) {
                                        return Err("unpaired surrogate in \\u escape");
                                    }
                                    let low = self.hex_unit()?;
                                    if !(0xdc00..=0xdfff).contains(&low) {
                                        return Err("unpaired surrogate in \\u escape");
                                    }
                                    0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                                }
                                0xdc00..=0xdfff => return Err("unpaired surrogate in \\u escape"),
                                _ => unit,
                            };
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        }
                        _ => return Err("unknown escape"),
                    }
                }
                _ => {
                    // Recover the full UTF-8 scalar starting at b.
                    let start = self.pos - 1;
                    let width = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (start + width).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, &'static str> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        if text.is_empty() || text == "-" {
            return Err("bad number");
        }
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::Uint(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| "bad number")
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// One named measurement in a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotone event count (merge: add).
    Counter(u64),
    /// Last-observed level (merge: the later shard wins).
    Gauge(f64),
    /// Ordered per-slot samples (merge: concatenate in job order).
    Series(Vec<f64>),
    /// Bounded-memory quantile summary (merge: bucket-wise add;
    /// `alpha`s must agree).
    Sketch(QuantileSketch),
    /// Deterministic bottom-k sample (merge: union + re-truncate;
    /// capacity and seed must agree).
    Reservoir(Reservoir),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Series(_) => "series",
            Metric::Sketch(_) => "sketch",
            Metric::Reservoir(_) => "reservoir",
        }
    }

    fn to_json(&self) -> JsonValue {
        let mut fields = vec![("type".to_string(), JsonValue::from(self.kind()))];
        match self {
            Metric::Counter(v) => fields.push(("value".to_string(), JsonValue::Uint(*v))),
            Metric::Gauge(v) => fields.push(("value".to_string(), JsonValue::Float(*v))),
            Metric::Series(values) => {
                fields.push(("values".to_string(), JsonValue::from(values.clone())));
            }
            Metric::Sketch(s) => {
                fields.push(("sketch".to_string(), s.to_json()));
            }
            Metric::Reservoir(r) => {
                fields.push(("reservoir".to_string(), r.to_json()));
            }
        }
        JsonValue::Object(fields)
    }
}

/// A deterministic registry of named metrics.
///
/// Keys are flat `scope/name` strings (see [`MetricsRegistry::scoped`]
/// for a prefixing handle) held in a `BTreeMap`, so iteration and JSON
/// output order are independent of insertion order.
///
/// # Merge semantics
///
/// [`MetricsRegistry::merge`] folds another registry in: counters add,
/// series concatenate, sketches add bucket-wise, reservoirs union and
/// re-truncate, gauges take the incoming value. Merging per-shard registries **in job order** is
/// therefore exactly equivalent to recording sequentially — the same
/// argument that makes [`crate::ParRunner`] outputs bit-identical at
/// any thread count, here extended to metrics. Unit-tested by
/// `parallel_merge_equals_sequential`.
///
/// # Panics
///
/// Recording or merging a key with a different metric type panics: silently coercing a
/// measurement is exactly the kind of quiet corruption this layer
/// exists to rule out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry {
            metrics: BTreeMap::new(),
        }
    }

    /// Looks up a metric by its full `scope/name` key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Metric> {
        self.metrics.get(key)
    }

    /// A handle that prefixes every key with `scope` and a `/`.
    pub fn scoped(&mut self, scope: &str) -> ScopedMetrics<'_> {
        ScopedMetrics {
            registry: self,
            prefix: format!("{scope}/"),
        }
    }

    /// Adds `by` to the counter at `key`, creating it at zero.
    pub fn counter_add(&mut self, key: &str, by: u64) {
        match self
            .metrics
            .entry(key.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(v) => *v += by,
            other => panic!("metric {key} is a {}, not a counter", other.kind()),
        }
    }

    /// Sets the gauge at `key` (creating it).
    pub fn gauge_set(&mut self, key: &str, value: f64) {
        match self
            .metrics
            .entry(key.to_string())
            .or_insert(Metric::Gauge(0.0))
        {
            Metric::Gauge(v) => *v = value,
            other => panic!("metric {key} is a {}, not a gauge", other.kind()),
        }
    }

    /// Appends all of `values` to the series at `key`, creating it.
    pub fn series_extend(&mut self, key: &str, values: impl IntoIterator<Item = f64>) {
        match self
            .metrics
            .entry(key.to_string())
            .or_insert_with(|| Metric::Series(Vec::new()))
        {
            Metric::Series(v) => v.extend(values),
            other => panic!("metric {key} is a {}, not a series", other.kind()),
        }
    }

    /// Merges `sketch` into the quantile sketch at `key` bucket-wise,
    /// installing a copy if the key is new. Exact, so repeated exports
    /// from shard-local sketches equal one sequential sketch.
    ///
    /// # Panics
    ///
    /// Panics if `key` holds a different metric type or a sketch with a
    /// different `alpha`.
    pub fn sketch_merge(&mut self, key: &str, sketch: &QuantileSketch) {
        match self.metrics.get_mut(key) {
            None => {
                self.metrics
                    .insert(key.to_string(), Metric::Sketch(sketch.clone()));
            }
            Some(Metric::Sketch(s)) => s.merge(sketch),
            Some(other) => panic!("metric {key} is a {}, not a sketch", other.kind()),
        }
    }

    /// Merges `reservoir` into the reservoir at `key` (union +
    /// re-truncate), installing a copy if the key is new.
    ///
    /// # Panics
    ///
    /// Panics if `key` holds a different metric type or a reservoir
    /// with a different capacity/seed.
    pub fn reservoir_merge(&mut self, key: &str, reservoir: &Reservoir) {
        match self.metrics.get_mut(key) {
            None => {
                self.metrics
                    .insert(key.to_string(), Metric::Reservoir(reservoir.clone()));
            }
            Some(Metric::Reservoir(r)) => r.merge(reservoir),
            Some(other) => panic!("metric {key} is a {}, not a reservoir", other.kind()),
        }
    }

    /// Merges `other` into `self` (see the type docs for semantics).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (key, incoming) in &other.metrics {
            match self.metrics.get_mut(key) {
                None => {
                    self.metrics.insert(key.clone(), incoming.clone());
                }
                Some(existing) => match (existing, incoming) {
                    (Metric::Counter(a), Metric::Counter(b)) => *a += b,
                    (Metric::Gauge(a), Metric::Gauge(b)) => *a = *b,
                    (Metric::Series(a), Metric::Series(b)) => a.extend_from_slice(b),
                    (Metric::Sketch(a), Metric::Sketch(b)) => a.merge(b),
                    (Metric::Reservoir(a), Metric::Reservoir(b)) => a.merge(b),
                    (existing, incoming) => panic!(
                        "metric {key}: cannot merge {} into {}",
                        incoming.kind(),
                        existing.kind()
                    ),
                },
            }
        }
    }

    /// The registry as a JSON object keyed by metric name.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.metrics
                .iter()
                .map(|(k, m)| (k.clone(), m.to_json()))
                .collect(),
        )
    }
}

/// A mutable view of a [`MetricsRegistry`] that prefixes every key.
#[derive(Debug)]
pub struct ScopedMetrics<'a> {
    registry: &'a mut MetricsRegistry,
    prefix: String,
}

impl ScopedMetrics<'_> {
    fn key(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }

    /// Adds `by` to the scoped counter `name`.
    pub fn counter_add(&mut self, name: &str, by: u64) {
        self.registry.counter_add(&self.key(name), by);
    }

    /// Sets the scoped gauge `name`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.registry.gauge_set(&self.key(name), value);
    }

    /// Appends all of `values` to the scoped series `name`.
    pub fn series_extend(&mut self, name: &str, values: impl IntoIterator<Item = f64>) {
        self.registry.series_extend(&self.key(name), values);
    }

    /// Merges a whole sketch into the scoped sketch `name`.
    pub fn sketch_merge(&mut self, name: &str, sketch: &QuantileSketch) {
        self.registry.sketch_merge(&self.key(name), sketch);
    }

    /// Merges a whole reservoir into the scoped reservoir `name`.
    pub fn reservoir_merge(&mut self, name: &str, reservoir: &Reservoir) {
        self.registry.reservoir_merge(&self.key(name), reservoir);
    }
}

// ---------------------------------------------------------------------------
// Run-logs
// ---------------------------------------------------------------------------

/// One typed record of a [`RunLog`].
///
/// A record has a `kind` (its type tag), an optional slot index, and
/// ordered named fields. Build with the fluent constructors:
///
/// ```
/// use dms_sim::metrics::RunRecord;
/// let r = RunRecord::new("miss").at(17).with("session", 4u64);
/// assert_eq!(
///     r.to_json().render_compact(),
///     r#"{"kind":"miss","slot":17,"fields":{"session":4}}"#
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    kind: String,
    slot: Option<u64>,
    fields: Vec<(String, JsonValue)>,
}

impl RunRecord {
    /// Creates a record of the given kind with no fields.
    #[must_use]
    pub fn new(kind: impl Into<String>) -> Self {
        RunRecord {
            kind: kind.into(),
            slot: None,
            fields: Vec::new(),
        }
    }

    /// Stamps the record with a slot index.
    #[must_use]
    pub fn at(mut self, slot: u64) -> Self {
        self.slot = Some(slot);
        self
    }

    /// Appends a named field (fields keep insertion order).
    #[must_use]
    pub fn with(mut self, name: impl Into<String>, value: impl Into<JsonValue>) -> Self {
        self.fields.push((name.into(), value.into()));
        self
    }

    /// The record as a JSON object `{kind, slot?, fields}` — the shape
    /// [`crate::RunLogWriter`] streams as one JSONL line. The writer
    /// renders in place; this tree is the reference its test
    /// (`record_renders_in_place_like_its_json_tree`) compares against,
    /// and `dms-bench`'s tests read records through it.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let mut obj = vec![("kind".to_string(), JsonValue::from(self.kind.as_str()))];
        if let Some(slot) = self.slot {
            obj.push(("slot".to_string(), JsonValue::Uint(slot)));
        }
        obj.push(("fields".to_string(), JsonValue::Object(self.fields.clone())));
        JsonValue::Object(obj)
    }

    /// Appends `self.to_json().render_compact()` to `out`, rendering
    /// the kind, slot and fields in place instead of cloning them into
    /// a tree first — the run-log writer's per-record path.
    pub(crate) fn render_compact_into(&self, out: &mut String) {
        out.push_str("{\"kind\":");
        escape_into(out, &self.kind);
        if let Some(slot) = self.slot {
            let _ = write!(out, ",\"slot\":{slot}");
        }
        out.push_str(",\"fields\":");
        object_into(out, &self.fields);
        out.push('}');
    }
}

/// A structured log of one simulation run, staged in memory.
///
/// Holds string metadata (sorted), an embedded [`MetricsRegistry`] and
/// an ordered list of [`RunRecord`]s. [`crate::stream_run_log`] is its
/// one renderer: equal content streams to byte-identical run-log
/// directories, which is what lets CI diff run-logs across
/// `DMS_THREADS` settings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunLog {
    meta: BTreeMap<String, String>,
    registry: MetricsRegistry,
    records: Vec<RunRecord>,
}

impl RunLog {
    /// Creates an empty run-log.
    #[must_use]
    pub fn new() -> Self {
        RunLog::default()
    }

    /// Sets (or replaces) a metadata entry.
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.meta.insert(key.into(), value.into());
    }

    /// Iterates metadata entries in key order.
    pub fn meta_entries(&self) -> impl Iterator<Item = (&str, &str)> {
        self.meta.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// The embedded metrics registry.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mutable access to the embedded metrics registry.
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// Appends a record.
    pub fn push(&mut self, record: RunRecord) {
        self.records.push(record);
    }

    /// The records in append order.
    #[must_use]
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering_is_stable_and_escaped() {
        let v = JsonValue::Object(vec![
            ("s".to_string(), JsonValue::from("a\"b\\c\nd")),
            ("n".to_string(), JsonValue::Float(1.5)),
            ("whole".to_string(), JsonValue::Float(2.0)),
            ("bad".to_string(), JsonValue::Float(f64::NAN)),
            ("i".to_string(), JsonValue::Int(-3)),
            ("e".to_string(), JsonValue::Array(Vec::new())),
            ("b".to_string(), JsonValue::Bool(true)),
            ("z".to_string(), JsonValue::Null),
        ]);
        let s = v.render();
        assert!(s.contains("\"a\\\"b\\\\c\\nd\""));
        assert!(s.contains("\"n\": 1.5"));
        assert!(s.contains("\"whole\": 2"));
        assert!(s.contains("\"bad\": null"));
        assert!(s.contains("\"i\": -3"));
        assert!(s.contains("\"e\": []"));
        assert!(s.contains("\"b\": true"));
        assert!(s.contains("\"z\": null"));
        assert_eq!(s, v.render(), "rendering must be a pure function");
    }

    #[test]
    fn registry_records_all_metric_kinds() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("a/events", 2);
        reg.counter_add("a/events", 3);
        reg.gauge_set("a/level", 1.25);
        reg.gauge_set("a/level", 2.5);
        reg.series_extend("a/backlog", [7.0]);
        reg.series_extend("a/backlog", [8.0, 9.0]);
        assert_eq!(reg.get("a/events"), Some(&Metric::Counter(5)));
        assert_eq!(reg.get("a/level"), Some(&Metric::Gauge(2.5)));
        assert_eq!(
            reg.get("a/backlog"),
            Some(&Metric::Series(vec![7.0, 8.0, 9.0]))
        );
        let JsonValue::Object(keys) = reg.to_json() else {
            panic!("a registry renders as an object");
        };
        assert_eq!(keys.len(), 3);
        assert_eq!(reg.get("absent"), None);
    }

    #[test]
    fn scoped_handle_prefixes_keys() {
        let mut reg = MetricsRegistry::new();
        let mut s = reg.scoped("server");
        s.counter_add("admitted", 1);
        s.gauge_set("load", 0.8);
        s.series_extend("active", [3.0]);
        assert_eq!(reg.get("server/admitted"), Some(&Metric::Counter(1)));
        assert!(reg.get("server/load").is_some());
        assert_eq!(reg.get("server/active"), Some(&Metric::Series(vec![3.0])));
    }

    /// The registry analogue of the `ParRunner` determinism contract:
    /// shards merged in job order reproduce the sequential recording.
    #[test]
    fn parallel_merge_equals_sequential() {
        let record = |reg: &mut MetricsRegistry, jobs: std::ops::Range<u64>| {
            for j in jobs {
                reg.counter_add("events", 1);
                reg.gauge_set("last_job", j as f64);
                reg.series_extend("series", [j as f64 * 0.5]);
            }
        };
        let mut sequential = MetricsRegistry::new();
        record(&mut sequential, 0..100);
        // Shard as a ParRunner would: disjoint job ranges, merged in
        // job order regardless of which thread finished first.
        let shards: Vec<MetricsRegistry> = crate::ParRunner::with_threads(4).run(4, |w| {
            let mut reg = MetricsRegistry::new();
            record(&mut reg, (w as u64 * 25)..((w as u64 + 1) * 25));
            reg
        });
        let mut merged = MetricsRegistry::new();
        for shard in &shards {
            merged.merge(shard);
        }
        assert_eq!(merged, sequential);
        assert_eq!(merged.to_json().render(), sequential.to_json().render());
    }

    #[test]
    fn merge_into_empty_copies() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 7);
        b.series_extend("s", [1.0]);
        a.merge(&b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set("x", 1.0);
        reg.counter_add("x", 1);
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn merge_type_confusion_panics() {
        let mut a = MetricsRegistry::new();
        a.counter_add("x", 1);
        let mut b = MetricsRegistry::new();
        b.gauge_set("x", 1.0);
        a.merge(&b);
    }

    #[test]
    fn run_log_round_trip_shape() {
        let mut log = RunLog::new();
        log.set_meta("id", "E12");
        log.set_meta("id", "E12b"); // replace, not duplicate
        log.push(
            RunRecord::new("row")
                .at(3)
                .with("metric", "miss rate")
                .with("value", 0.25),
        );
        log.registry_mut().counter_add("server/admitted", 4);
        assert_eq!(log.records().len(), 1);
        assert_eq!(log.meta_entries().collect::<Vec<_>>(), [("id", "E12b")]);
        assert_eq!(
            log.registry().get("server/admitted"),
            Some(&Metric::Counter(4))
        );
        assert_eq!(
            log.records()[0].to_json().render_compact(),
            r#"{"kind":"row","slot":3,"fields":{"metric":"miss rate","value":0.25}}"#
        );
    }

    /// The writer's in-place rendering is the tree's compact rendering
    /// byte for byte: escaped kinds and keys, with and without a slot,
    /// no fields, and nested, non-finite and negative values.
    #[test]
    fn record_renders_in_place_like_its_json_tree() {
        let records = [
            RunRecord::new("row"),
            RunRecord::new("k\"ind\n\u{1}é").at(u64::MAX),
            RunRecord::new("verdict")
                .at(0)
                .with("id", 7u64)
                .with("d\\elta", JsonValue::Int(-3))
                .with("nan", f64::NAN)
                .with("x", 0.1)
                .with("tab\t", "a\"b\r")
                .with("ok", true)
                .with("none", JsonValue::Null)
                .with("series", vec![1.5, f64::INFINITY])
                .with(
                    "nested",
                    JsonValue::Object(vec![
                        ("a".into(), JsonValue::Array(Vec::new())),
                        ("b".into(), JsonValue::Object(Vec::new())),
                    ]),
                ),
        ];
        for record in &records {
            let mut out = String::from("prefix");
            record.render_compact_into(&mut out);
            assert_eq!(out, format!("prefix{}", record.to_json().render_compact()));
        }
    }

    #[test]
    fn json_parse_round_trips_rendered_output() {
        let value = JsonValue::Object(vec![
            ("name".into(), JsonValue::Str("bench \"smoke\"\n".into())),
            ("count".into(), JsonValue::Uint(42)),
            ("delta".into(), JsonValue::Int(-7)),
            ("seconds".into(), JsonValue::Float(0.125)),
            ("ok".into(), JsonValue::Bool(true)),
            ("none".into(), JsonValue::Null),
            (
                "items".into(),
                JsonValue::Array(vec![JsonValue::Uint(1), JsonValue::Float(2.5)]),
            ),
            ("empty".into(), JsonValue::Array(Vec::new())),
        ]);
        let parsed = JsonValue::parse(&value.render()).expect("round trip");
        assert_eq!(parsed, value);
        assert_eq!(parsed.get("count").and_then(JsonValue::as_f64), Some(42.0));
        assert_eq!(parsed.get("delta").and_then(JsonValue::as_f64), Some(-7.0));
        assert_eq!(
            parsed.get("name").and_then(JsonValue::as_str),
            Some("bench \"smoke\"\n")
        );
        assert_eq!(
            parsed
                .get("items")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }

    /// Render side of the control-character contract: every code point
    /// below U+0020 leaves [`escape_into`] as an escape sequence, never
    /// as a raw byte, so rendered JSON is always RFC 8259-valid and
    /// JSONL lines never contain a stray newline.
    #[test]
    fn render_escapes_every_control_character() {
        for code in 0u32..0x20 {
            let c = char::from_u32(code).expect("control chars are scalars");
            let rendered = JsonValue::Str(c.to_string()).render();
            assert!(
                rendered.bytes().all(|b| b == b'"' || b >= 0x20),
                "U+{code:04X} rendered raw: {rendered:?}"
            );
            let round = JsonValue::parse(&rendered).expect("own output parses");
            assert_eq!(round, JsonValue::Str(c.to_string()), "U+{code:04X}");
        }
    }

    /// Regression: the parser used to accept raw control characters
    /// inside strings — invalid JSON per RFC 8259 §7, and a framing
    /// hazard for JSONL (a raw newline inside a string would split one
    /// record into two unparseable lines). This test fails on the
    /// pre-fix parser.
    #[test]
    fn parse_rejects_raw_control_characters_in_strings() {
        assert!(JsonValue::parse("\"a\u{0001}b\"").is_err());
        assert!(JsonValue::parse("\"a\nb\"").is_err());
        assert!(JsonValue::parse("\"\u{0000}\"").is_err());
        assert!(JsonValue::parse("{\"k\u{001f}\": 1}").is_err());
        // The escaped forms of the same strings parse fine.
        assert_eq!(
            JsonValue::parse("\"a\\u0001b\""),
            Ok(JsonValue::Str("a\u{0001}b".into()))
        );
        assert_eq!(
            JsonValue::parse("\"a\\nb\""),
            Ok(JsonValue::Str("a\nb".into()))
        );
    }

    /// Regression: `\u` escapes used to decode each UTF-16 code unit in
    /// isolation, so a surrogate pair like `\ud83d\ude00` (😀) became
    /// two U+FFFD replacement characters. This test fails on the
    /// pre-fix parser.
    #[test]
    fn parse_combines_surrogate_pairs() {
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\""),
            Ok(JsonValue::Str("😀".into()))
        );
        assert_eq!(
            JsonValue::parse("\"x\\uD834\\uDD1Ey\""),
            Ok(JsonValue::Str("x\u{1d11e}y".into()))
        );
        // Lone or malformed surrogate halves are errors, not U+FFFD.
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83d!\"",
            "\"\\ud83d\\n\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Astral characters also survive a render round-trip raw.
        let v = JsonValue::Str("😀\u{1d11e}".into());
        assert_eq!(JsonValue::parse(&v.render()), Ok(v));
    }

    #[test]
    fn compact_rendering_is_single_line_and_parses_back() {
        let v = JsonValue::Object(vec![
            ("s".to_string(), JsonValue::from("a\nb\u{0001}")),
            ("n".to_string(), JsonValue::Float(0.25)),
            ("bad".to_string(), JsonValue::Float(f64::INFINITY)),
            (
                "a".to_string(),
                JsonValue::Array(vec![JsonValue::Uint(1), JsonValue::Null]),
            ),
            ("e".to_string(), JsonValue::Object(Vec::new())),
        ]);
        let compact = v.render_compact();
        assert_eq!(
            compact,
            "{\"s\":\"a\\nb\\u0001\",\"n\":0.25,\"bad\":null,\"a\":[1,null],\"e\":{}}"
        );
        assert!(!compact.contains('\n'));
        let mut expect = v.clone();
        // Non-finite floats canonicalise to null on render.
        if let JsonValue::Object(fields) = &mut expect {
            fields[2].1 = JsonValue::Null;
        }
        assert_eq!(JsonValue::parse(&compact), Ok(expect));
    }

    #[test]
    fn registry_records_sketches_and_reservoirs() {
        let mut latency = QuantileSketch::new(0.01);
        let mut sessions = Reservoir::new(8, 42);
        for i in 1..=100u32 {
            latency.record(f64::from(i));
            sessions.offer(u64::from(i), f64::from(i) * 0.5);
        }
        let mut reg = MetricsRegistry::new();
        let mut s = reg.scoped("server");
        s.sketch_merge("latency", &latency);
        s.reservoir_merge("sessions", &sessions);
        let Some(Metric::Sketch(sk)) = reg.get("server/latency") else {
            panic!("sketch not recorded");
        };
        assert_eq!(sk.count(), 100);
        let Some(Metric::Reservoir(r)) = reg.get("server/sessions") else {
            panic!("reservoir not recorded");
        };
        assert_eq!(r, &sessions);
        let json = reg.to_json().render();
        assert!(json.contains("\"type\": \"sketch\""));
        assert!(json.contains("\"type\": \"reservoir\""));
    }

    /// The `parallel_merge_equals_sequential` contract extended to the
    /// two streaming-aggregate metric kinds, exported the way producers
    /// export them: a local sketch and reservoir merged into the
    /// registry.
    #[test]
    fn sketch_and_reservoir_metrics_merge_like_sequential() {
        let record = |reg: &mut MetricsRegistry, jobs: std::ops::Range<u64>| {
            let mut lat = QuantileSketch::new(0.02);
            let mut ids = Reservoir::new(6, 9);
            for j in jobs {
                lat.record((j % 17) as f64 - 4.0);
                ids.offer(j, j as f64);
            }
            reg.sketch_merge("lat", &lat);
            reg.reservoir_merge("ids", &ids);
        };
        let mut sequential = MetricsRegistry::new();
        record(&mut sequential, 0..200);
        let mut merged = MetricsRegistry::new();
        for w in 0..4u64 {
            let mut shard = MetricsRegistry::new();
            record(&mut shard, (w * 50)..((w + 1) * 50));
            merged.merge(&shard);
        }
        assert_eq!(merged, sequential);
        assert_eq!(merged.to_json().render(), sequential.to_json().render());
    }

    #[test]
    #[should_panic(expected = "not a sketch")]
    fn sketch_type_confusion_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("x", 1);
        reg.sketch_merge("x", &QuantileSketch::new(0.01));
    }

    #[test]
    fn json_parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "1.2.3",
            "\"abc",
            "{}{}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            JsonValue::parse("  [1, 2.5e-1, \"\\u0041\"]  "),
            Ok(JsonValue::Array(vec![
                JsonValue::Uint(1),
                JsonValue::Float(0.25),
                JsonValue::Str("A".into()),
            ]))
        );
    }
}
