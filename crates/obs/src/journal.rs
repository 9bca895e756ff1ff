//! JSONL journals: append-only, one JSON object per line.
//!
//! A [`Journal`] is the durable complement to the in-memory
//! [`crate::MetricsRegistry`]: where a snapshot is one point in time, a
//! journal is a *time series* — the trainer appends one [`JournalRecord`]
//! per epoch, and the convergence tooling replays the file to plot
//! loss-vs-epoch curves (see `crates/bench`'s `convergence_report`).
//!
//! Two deliberate properties:
//!
//! * **Writes never panic and never propagate errors** into the
//!   instrumented code: a failed append is swallowed into
//!   [`Journal::write_errors`]. Training must not die because a disk
//!   filled up mid-run.
//! * **Lines are self-describing flat objects** in insertion order, so
//!   `grep`/`jq`-style tooling and the in-repo [`crate::json`] reader can
//!   both consume them; [`JournalRecord::from_json`] round-trips a parsed
//!   line back into a record (property-tested).

use crate::export::{escape_json, fmt_f64};
use crate::json::JsonValue;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One field value in a journal line.
///
/// Numbers keep their source type so integers survive the round trip
/// exactly (an `f64` can only hold integers up to 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum JournalValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values serialize as `null`).
    F64(f64),
    /// String (escaped on write).
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl JournalValue {
    fn to_json(&self) -> String {
        match self {
            JournalValue::U64(v) => format!("{v}"),
            JournalValue::I64(v) => format!("{v}"),
            JournalValue::F64(v) if !v.is_finite() => "null".to_string(),
            JournalValue::F64(v) => fmt_f64(*v),
            JournalValue::Str(s) => format!("\"{}\"", escape_json(s)),
            JournalValue::Bool(b) => format!("{b}"),
        }
    }

    /// Numeric view (integers widen losslessly below 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JournalValue::U64(v) => Some(*v as f64),
            JournalValue::I64(v) => Some(*v as f64),
            JournalValue::F64(v) => Some(*v),
            _ => None,
        }
    }
}

/// One journal line: ordered `(key, value)` fields, built fluently.
///
/// ```
/// use gem_obs::JournalRecord;
/// let line = JournalRecord::new()
///     .u64("epoch", 3)
///     .f64("loss", 0.25)
///     .str("variant", "GEM-A")
///     .to_json_line();
/// assert_eq!(line, "{\"epoch\":3,\"loss\":0.25,\"variant\":\"GEM-A\"}");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalRecord {
    fields: Vec<(String, JournalValue)>,
}

impl JournalRecord {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a field (no dedup: appending a key twice writes it twice).
    pub fn field(mut self, key: &str, value: JournalValue) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Append an unsigned integer field.
    pub fn u64(self, key: &str, v: u64) -> Self {
        self.field(key, JournalValue::U64(v))
    }

    /// Append a signed integer field.
    pub fn i64(self, key: &str, v: i64) -> Self {
        self.field(key, JournalValue::I64(v))
    }

    /// Append a float field (`NaN`/`±∞` serialize as `null`).
    pub fn f64(self, key: &str, v: f64) -> Self {
        self.field(key, JournalValue::F64(v))
    }

    /// Append a string field.
    pub fn str(self, key: &str, v: &str) -> Self {
        self.field(key, JournalValue::Str(v.to_string()))
    }

    /// Append a boolean field.
    pub fn bool(self, key: &str, v: bool) -> Self {
        self.field(key, JournalValue::Bool(v))
    }

    /// The fields, in insertion (= serialization) order.
    pub fn fields(&self) -> &[(String, JournalValue)] {
        &self.fields
    }

    /// First value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&JournalValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Serialize as one compact JSON object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape_json(k), v.to_json()));
        }
        out.push('}');
        out
    }

    /// Rebuild a record from a parsed journal line (the inverse of
    /// [`JournalRecord::to_json_line`] up to numeric representation:
    /// integral numbers below 2^53 come back as `U64`/`I64`, everything
    /// else as `F64`; `null` — the encoding of non-finite floats — comes
    /// back as `F64(NaN)`). Returns `None` if the value is not an object
    /// or contains nested structure (journal lines are flat by contract).
    pub fn from_json(value: &JsonValue) -> Option<Self> {
        let fields = value.as_object()?;
        let mut rec = JournalRecord::new();
        for (k, v) in fields {
            let jv = match v {
                JsonValue::Null => JournalValue::F64(f64::NAN),
                JsonValue::Bool(b) => JournalValue::Bool(*b),
                JsonValue::Str(s) => JournalValue::Str(s.clone()),
                JsonValue::Num(n) => {
                    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
                    if n.fract() == 0.0 && n.abs() < EXACT {
                        if *n >= 0.0 {
                            JournalValue::U64(*n as u64)
                        } else {
                            JournalValue::I64(*n as i64)
                        }
                    } else {
                        JournalValue::F64(*n)
                    }
                }
                JsonValue::Arr(_) | JsonValue::Obj(_) => return None,
            };
            rec = rec.field(k, jv);
        }
        Some(rec)
    }
}

/// An append-only JSONL file of [`JournalRecord`]s.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    lines: u64,
    write_errors: u64,
}

impl Journal {
    /// Create (truncating any existing file) a journal at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Self { file, path, lines: 0, write_errors: 0 })
    }

    /// Append one record as a line. I/O failures are counted in
    /// [`Journal::write_errors`], never raised — observability must not
    /// crash the observed run.
    pub fn append(&mut self, record: &JournalRecord) {
        let mut line = record.to_json_line();
        line.push('\n');
        if crate::faults::should_fail("journal.write") {
            self.write_errors += 1;
            return;
        }
        match self.file.write_all(line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(_) => self.write_errors += 1,
        }
    }

    /// Lines successfully written.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Appends that failed at the I/O layer.
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// Where this journal writes.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gem_obs_journal_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn builder_serializes_in_insertion_order() {
        let line = JournalRecord::new()
            .u64("epoch", 1)
            .i64("delta", -3)
            .f64("loss", 0.5)
            .str("label", "a\"b")
            .bool("done", false)
            .to_json_line();
        assert_eq!(
            line,
            "{\"epoch\":1,\"delta\":-3,\"loss\":0.5,\"label\":\"a\\\"b\",\"done\":false}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let r = JournalRecord::new().f64("a", f64::NAN).f64("b", f64::INFINITY);
        assert_eq!(r.to_json_line(), "{\"a\":null,\"b\":null}");
    }

    #[test]
    fn round_trips_through_the_json_reader() {
        let rec = JournalRecord::new()
            .u64("steps", 123_456)
            .f64("sps", 1234.5)
            .str("variant", "GEM-P")
            .bool("smoke", true)
            .i64("drift_sign", -1);
        let parsed = json::parse(&rec.to_json_line()).expect("line parses");
        let back = JournalRecord::from_json(&parsed).expect("flat object");
        assert_eq!(back, rec);
        assert_eq!(back.to_json_line(), rec.to_json_line());
    }

    #[test]
    fn from_json_rejects_nested_lines() {
        let parsed = json::parse("{\"a\": [1]}").unwrap();
        assert!(JournalRecord::from_json(&parsed).is_none());
        let parsed = json::parse("[1, 2]").unwrap();
        assert!(JournalRecord::from_json(&parsed).is_none());
    }

    #[test]
    fn journal_appends_lines_to_disk() {
        let path = tmp("append");
        let mut j = Journal::create(&path).expect("create journal");
        j.append(&JournalRecord::new().u64("epoch", 0).f64("loss", 1.5));
        j.append(&JournalRecord::new().u64("epoch", 1).f64("loss", 0.75));
        assert_eq!(j.lines_written(), 2);
        assert_eq!(j.write_errors(), 0);
        assert_eq!(j.path(), path.as_path());
        drop(j);
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let doc = json::parse(line).expect("line is valid JSON");
            assert_eq!(doc.get("epoch").unwrap().as_f64(), Some(i as f64));
        }
        std::fs::remove_file(&path).ok();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::json;
    use proptest::prelude::*;

    /// One random field value: kind selector + raw material, mapped into a
    /// [`JournalValue`] (the compat proptest stub has no `prop_oneof!`).
    /// Integers stay below 2^53 so they survive the `f64` leg of the trip.
    fn value_strategy() -> impl Strategy<Value = JournalValue> {
        (0usize..5, 0u64..(1u64 << 53), -1.0e12f64..1.0e12f64, ".{0,12}").prop_map(
            |(kind, u, f, s)| match kind {
                0 => JournalValue::U64(u),
                1 => JournalValue::I64(-(u as i64)),
                2 => JournalValue::F64(f),
                3 => JournalValue::Str(s),
                _ => JournalValue::Bool(u % 2 == 0),
            },
        )
    }

    proptest! {
        /// Any builder-produced record serializes to a line the in-repo
        /// JSON reader parses, and re-serializing the parsed record gives
        /// back the identical bytes.
        #[test]
        fn journal_lines_round_trip(
            fields in proptest::collection::vec(("[a-z0-9_.]{1,10}", value_strategy()), 0..8),
        ) {
            let mut rec = JournalRecord::new();
            for (k, v) in &fields {
                rec = rec.field(k, v.clone());
            }
            let line = rec.to_json_line();
            let parsed = json::parse(&line).expect("journal line is valid JSON");
            let back = JournalRecord::from_json(&parsed).expect("flat object");
            // Compare re-serialized bytes (NaN != NaN under PartialEq, and
            // integral f64s legitimately come back as integers).
            prop_assert_eq!(back.to_json_line(), line);
        }
    }
}
