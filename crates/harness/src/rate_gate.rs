//! `RateGate` — the one rows + tolerance + floor gate of every rate
//! report.
//!
//! `bench` (the deterministic model ladder), `bench --throughput` and
//! `bench --tick-storm` each report named rows of named rates plus a few
//! run-level fields, and gate them against a committed baseline the same
//! way. Each describes its report with a [`RateSpec`]; the report itself
//! is a [`RateGate`], which keeps the whole JSON document (informational
//! fields included, so a parsed baseline re-serialises byte for byte)
//! and owns the one parser and comparison:
//!
//! * every gated row metric may move in its worse direction by at most
//!   the relative tolerance, and the row set may not drift;
//! * context fields (thread count, book size, …) must equal the
//!   baseline's exactly, or the floors would not be comparable;
//! * each floor is a machine-independent ratio of the current run that
//!   must clear the baseline's recorded minimum, without tolerance;
//! * each invariant is a field of the current run that must hold a
//!   fixed value (zero bit mismatches, a clean zero-delta contract).

use crate::json::Json;

/// Which way a gated metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Rates: a drop below `baseline·(1−tolerance)` regresses.
    Higher,
    /// Latencies: a rise above `baseline·(1+tolerance)` regresses.
    Lower,
}

/// One gated per-row metric.
#[derive(Debug, PartialEq)]
pub struct Metric {
    /// Field name inside each row, e.g. `options_per_second`.
    pub key: &'static str,
    /// What a regression message calls it, e.g. `throughput`.
    pub what: &'static str,
    /// Unit printed after the values.
    pub unit: &'static str,
    /// Which way the metric improves.
    pub better: Better,
}

/// A tolerance-free floor: the current run's `value` field must be at
/// least the baseline's `floor` field.
#[derive(Debug, PartialEq)]
pub struct Floor {
    /// The measured ratio, e.g. `lane_speedup_1t`.
    pub value: &'static str,
    /// The recorded minimum, e.g. `min_lane_speedup`.
    pub floor: &'static str,
    /// What a message calls the ratio.
    pub what: &'static str,
}

/// A run invariant: the current run's `key` field must equal `holds`.
#[derive(Debug, PartialEq)]
pub struct Invariant {
    /// Report field, e.g. `bit_mismatches`.
    pub key: &'static str,
    /// The only passing value.
    pub holds: Json,
    /// What a violation means.
    pub what: &'static str,
}

/// The fixed shape of one rate gate.
#[derive(Debug, PartialEq)]
pub struct RateSpec {
    /// Gate name used in messages, e.g. `throughput`.
    pub gate: &'static str,
    /// Version of the serialised form; a baseline of any other version
    /// is refused at parse time.
    pub schema_version: u64,
    /// Key of the rows array (`rows`, or `metrics` for the ladder).
    pub rows: &'static str,
    /// Gated metrics of every row.
    pub metrics: &'static [Metric],
    /// Fields that must equal the baseline's, with what a message calls
    /// them.
    pub context: &'static [(&'static str, &'static str)],
    /// Tolerance-free floors.
    pub floors: &'static [Floor],
    /// Must-hold run invariants.
    pub invariants: &'static [Invariant],
    /// Relative gate width when `--tolerance` is not given.
    pub tolerance: f64,
    /// The committed baseline, named by the "regenerate" hint.
    pub baseline: &'static str,
}

/// One rate report of gate `spec`: a validated JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct RateGate {
    /// The gate this report belongs to.
    pub spec: &'static RateSpec,
    doc: Json,
}

impl RateGate {
    /// Assemble a freshly measured report from its run-level `fields`
    /// and `rows` (the schema version is added here).
    ///
    /// # Panics
    ///
    /// When a field or row metric the spec gates is missing — a bug in
    /// the gate's own run, not an input error.
    pub fn report(spec: &'static RateSpec, mut fields: Vec<(&str, Json)>, rows: Vec<Json>) -> Self {
        fields.push(("schema_version", Json::Number(spec.schema_version as f64)));
        fields.push((spec.rows, Json::Array(rows)));
        Self::validate(spec, Json::object(fields)).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validate a document against `spec`: schema version, seed, rows
    /// with every gated metric, and every context, floor and invariant
    /// field. Other fields are carried through unread.
    fn validate(spec: &'static RateSpec, doc: Json) -> Result<Self, String> {
        let gate = spec.gate;
        let num = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{gate} missing number '{key}'"))
        };
        let version = num(&doc, "schema_version")? as u64;
        if version != spec.schema_version {
            return Err(format!(
                "{gate} schema version {version} != supported {} — regenerate the baseline",
                spec.schema_version
            ));
        }
        let floors = spec.floors.iter().flat_map(|f| [f.value, f.floor]);
        for key in floors.chain(spec.context.iter().map(|c| c.0)).chain(["seed"]) {
            num(&doc, key)?;
        }
        if let Some(inv) = spec.invariants.iter().find(|i| doc.get(i.key).is_none()) {
            return Err(format!("{gate} missing field '{}'", inv.key));
        }
        let rows = doc.get(spec.rows).and_then(Json::as_array);
        for row in rows.ok_or_else(|| format!("{gate} missing '{}' array", spec.rows))? {
            row.get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{gate} row missing 'name'"))?;
            for m in spec.metrics {
                num(row, m.key)?;
            }
        }
        Ok(RateGate { spec, doc })
    }

    /// Parse a serialised report of gate `spec`, validating it the same
    /// way.
    pub fn parse(spec: &'static RateSpec, text: &str) -> Result<Self, String> {
        Self::validate(spec, crate::json::parse(text)?)
    }

    /// Pretty-printed JSON document (stable: object keys are sorted).
    pub fn pretty(&self) -> String {
        self.doc.pretty()
    }

    /// A run-level field.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.doc.get(key)
    }

    /// A run-level number (NaN when absent; the fields a spec reads are
    /// validated present).
    pub fn num(&self, key: &str) -> f64 {
        self.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }

    /// All rows, in report order.
    pub fn rows(&self) -> &[Json] {
        self.get(self.spec.rows).and_then(Json::as_array).unwrap_or_default()
    }

    /// A row's stable name.
    pub fn name(row: &Json) -> &str {
        row.get("name").and_then(Json::as_str).unwrap_or_default()
    }

    /// Look a row up by its stable name.
    pub fn row(&self, name: &str) -> Option<&Json> {
        self.rows().iter().find(|r| Self::name(r) == name)
    }

    /// A row's numeric field.
    pub fn rate(&self, row: &str, key: &str) -> Option<f64> {
        self.row(row).and_then(|r| r.get(key)).and_then(Json::as_f64)
    }

    /// Gate `current` against `self` as the baseline: one message per
    /// problem (empty = pass).
    pub fn compare(&self, current: &RateGate, tolerance: f64) -> Vec<String> {
        let mut problems = Vec::new();
        let (base_version, cur_version) =
            (self.num("schema_version"), current.num("schema_version"));
        if base_version != cur_version {
            problems.push(format!(
                "schema version mismatch: baseline {base_version} vs current {cur_version}"
            ));
        }
        for (key, what) in self.spec.context {
            let (b, c) = (self.num(key), current.num(key));
            if b != c {
                problems.push(format!(
                    "{what} changed: baseline {b} vs current {c} — floors are not comparable"
                ));
            }
        }
        for base in self.rows() {
            let name = Self::name(base);
            let Some(cur) = current.row(name) else {
                problems.push(format!("row '{name}' missing from current run"));
                continue;
            };
            for m in self.spec.metrics {
                let value = |row: &Json| row.get(m.key).and_then(Json::as_f64).unwrap_or(f64::NAN);
                let (b, c) = (value(base), value(cur));
                let regressed = match m.better {
                    Better::Higher => c < b * (1.0 - tolerance),
                    Better::Lower => c > b * (1.0 + tolerance),
                };
                if b > 0.0 && regressed {
                    problems.push(format!(
                        "{name}: {} regressed {b:.2} -> {c:.2} {} (tolerance {:.0}%)",
                        m.what,
                        m.unit,
                        tolerance * 100.0
                    ));
                }
            }
        }
        for cur in current.rows() {
            if self.row(Self::name(cur)).is_none() {
                problems.push(format!(
                    "row '{}' not in baseline — regenerate {}",
                    Self::name(cur),
                    self.spec.baseline
                ));
            }
        }
        for f in self.spec.floors {
            let (value, floor) = (current.num(f.value), self.num(f.floor));
            if value < floor {
                problems.push(format!(
                    "{} {value:.2}x fell below the required {floor:.2}x floor",
                    f.what
                ));
            }
        }
        for inv in self.spec.invariants {
            if let Some(actual) = current.get(inv.key).filter(|v| **v != inv.holds) {
                problems.push(format!(
                    "{}: {} is {}, must be {}",
                    inv.what,
                    inv.key,
                    actual.inline(),
                    inv.holds.inline()
                ));
            }
        }
        problems
    }

    /// The PASS line's detail for a clean [`RateGate::compare`].
    pub fn summary(&self, tolerance: f64) -> String {
        let mut out = format!("{} rows within {:.0}%", self.rows().len(), tolerance * 100.0);
        for f in self.spec.floors {
            out += &format!(", {} floor {:.2}x cleared", f.what, self.num(f.floor));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static SPEC: RateSpec = RateSpec {
        gate: "test-rate",
        schema_version: 2,
        rows: "rows",
        metrics: &[
            Metric { key: "per_second", what: "rate", unit: "per second", better: Better::Higher },
            Metric { key: "p99_us", what: "p99 latency", unit: "us", better: Better::Lower },
        ],
        context: &[("residents", "resident book")],
        floors: &[Floor { value: "speedup", floor: "min_speedup", what: "test speedup" }],
        invariants: &[
            Invariant { key: "mismatches", holds: Json::Number(0.0), what: "state corrupt" },
            Invariant { key: "clean", holds: Json::Bool(true), what: "contract violated" },
        ],
        tolerance: 0.40,
        baseline: "results/test_baseline.json",
    };

    fn row(name: &str, per_second: f64, p99_us: f64) -> Json {
        Json::object(vec![
            ("name", Json::Str(name.to_string())),
            ("per_second", Json::Number(per_second)),
            ("p99_us", Json::Number(p99_us)),
            ("note", Json::Str("informational".to_string())),
        ])
    }

    fn report(speedup: f64, rows: Vec<Json>) -> RateGate {
        let fields = vec![
            ("seed", Json::Number(42.0)),
            ("residents", Json::Number(512.0)),
            ("speedup", Json::Number(speedup)),
            ("min_speedup", Json::Number(100.0)),
            ("mismatches", Json::Number(0.0)),
            ("clean", Json::Bool(true)),
        ];
        RateGate::report(&SPEC, fields, rows)
    }

    fn base() -> RateGate {
        report(150.0, vec![row("full", 10.0, 5.0), row("incr", 2000.0, 1.0)])
    }

    /// `base()` with one run-level field replaced.
    fn with(key: &str, value: Json) -> RateGate {
        let mut doc = base().doc;
        if let Json::Object(map) = &mut doc {
            map.insert(key.to_string(), value);
        }
        RateGate { spec: &SPEC, doc }
    }

    #[test]
    fn round_trips_with_informational_fields() {
        let r = base();
        assert_eq!(RateGate::parse(&SPEC, &r.pretty()), Ok(r.clone()));
        assert_eq!(r.rate("incr", "per_second"), Some(2000.0));
        assert_eq!(
            r.row("full").and_then(|r| r.get("note")).and_then(Json::as_str),
            Some("informational")
        );
    }

    #[test]
    fn identical_and_noisy_runs_pass() {
        let r = base();
        assert_eq!(r.compare(&r, 0.40), Vec::<String>::new());
        let wiggle = report(150.0, vec![row("full", 6.5, 6.9), row("incr", 1300.0, 1.3)]);
        assert_eq!(r.compare(&wiggle, 0.40), Vec::<String>::new());
        assert_eq!(r.summary(0.40), "2 rows within 40%, test speedup floor 100.00x cleared");
    }

    #[test]
    fn compare_flags_every_gate_axis() {
        let r = base();
        let bad = report(99.0, vec![row("full", 5.0, 5.0), row("new", 1.0, 1.0)]);
        let problems = r.compare(&bad, 0.40);
        let has = |s: &str| problems.iter().any(|p| p.contains(s));
        assert!(
            has("full: rate regressed 10.00 -> 5.00 per second (tolerance 40%)"),
            "{problems:?}"
        );
        assert!(has("row 'incr' missing from current run"), "{problems:?}");
        assert!(has("row 'new' not in baseline — regenerate results/test_baseline.json"));
        assert!(has("test speedup 99.00x fell below the required 100.00x floor"), "{problems:?}");
        assert_eq!(problems.len(), 4, "{problems:?}");

        let slow = report(150.0, vec![row("full", 10.0, 9.0), row("incr", 2000.0, 1.0)]);
        let problems = r.compare(&slow, 0.40);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("full: p99 latency regressed 5.00 -> 9.00 us"),
            "{problems:?}"
        );
    }

    #[test]
    fn compare_flags_context_drift_invariants_and_schema() {
        let r = base();
        let drift = r.compare(&with("residents", Json::Number(513.0)), 0.40);
        assert_eq!(
            drift,
            vec!["resident book changed: baseline 512 vs current 513 — floors are not comparable"]
        );
        let corrupt = r.compare(&with("mismatches", Json::Number(3.0)), 0.40);
        assert_eq!(corrupt, vec!["state corrupt: mismatches is 3, must be 0"]);
        let dirty = r.compare(&with("clean", Json::Bool(false)), 0.40);
        assert_eq!(dirty, vec!["contract violated: clean is false, must be true"]);
        let future = r.compare(&with("schema_version", Json::Number(3.0)), 0.40);
        assert_eq!(future, vec!["schema version mismatch: baseline 2 vs current 3"]);
    }

    #[test]
    fn parse_enforces_schema_and_gated_fields() {
        let text = base().pretty();
        let bumped = text.replace("\"schema_version\": 2", "\"schema_version\": 9");
        let err = RateGate::parse(&SPEC, &bumped).expect_err("future schema");
        assert!(err.contains("schema version 9 != supported 2 — regenerate the baseline"), "{err}");
        for (from, to) in [
            ("\"p99_us\"", "\"p98_us\""),
            ("\"min_speedup\"", "\"floor\""),
            ("\"residents\"", "\"book\""),
            ("\"clean\"", "\"tidy\""),
            ("\"rows\"", "\"lines\""),
        ] {
            assert!(RateGate::parse(&SPEC, &text.replace(from, to)).is_err(), "{from}");
        }
        assert!(RateGate::parse(&SPEC, "{ not json").is_err());
    }
}
