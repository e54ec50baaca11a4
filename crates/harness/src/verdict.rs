//! `VerdictMatrix` — the one report shape of every scenario-matrix gate.
//!
//! `chaos`, `server-chaos`, `server-chaos --isolation` and
//! `storage-chaos` each run a fixed list of named scenarios and gate the
//! result against a committed baseline. They differ only in which fields
//! of a scenario are gated, so each describes itself with a
//! [`MatrixSpec`] and builds its rows into a [`VerdictMatrix`]; the
//! serialised form, the parser and the comparison live here once.
//!
//! The comparison is **exact** on every gated field: the engine chaos
//! matrix is cycle-deterministic and gates counts and fault hit lists,
//! while the wall-clock matrices gate only their stable booleans (their
//! informational counts stay in each module's in-memory case struct and
//! never reach the matrix).

use crate::json::Json;

/// The fixed shape of one matrix gate.
#[derive(Debug, PartialEq)]
pub struct MatrixSpec {
    /// Gate name used in messages, e.g. `server-chaos`.
    pub gate: &'static str,
    /// Version of the serialised form; a baseline of any other version
    /// is refused at parse time.
    pub schema_version: u64,
    /// The gated fields of every case, in row order. Each spec has a
    /// boolean `survived` field: the survival-only verdict.
    pub fields: &'static [&'static str],
    /// The committed baseline, named by the "regenerate" hint.
    pub baseline: &'static str,
}

/// One scenario: its stable name and its gated values, in
/// [`MatrixSpec::fields`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Stable scenario slug, e.g. `storage/enospc-append`.
    pub name: String,
    /// Gated values, one per spec field.
    pub values: Vec<Json>,
}

/// A seeded run of one scenario matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictMatrix {
    /// The gate this matrix belongs to (schema version included).
    pub spec: &'static MatrixSpec,
    /// Seed the scenarios derive from.
    pub seed: u64,
    /// All scenarios, in matrix order.
    pub cases: Vec<Case>,
}

impl VerdictMatrix {
    /// Look a scenario up by its stable name.
    pub fn find(&self, name: &str) -> Option<&Case> {
        self.cases.iter().find(|c| c.name == name)
    }

    /// True when every scenario's `survived` field is `true`.
    pub fn all_survived(&self) -> bool {
        let survived = self.spec.fields.iter().position(|f| *f == "survived");
        self.cases.iter().all(|c| survived.and_then(|i| c.values.get(i)) == Some(&Json::Bool(true)))
    }

    /// Serialise to the versioned JSON schema.
    pub fn to_json(&self) -> Json {
        let case = |c: &Case| {
            let mut row: Vec<(&str, Json)> =
                self.spec.fields.iter().copied().zip(c.values.iter().cloned()).collect();
            row.push(("name", Json::Str(c.name.clone())));
            Json::object(row)
        };
        Json::object(vec![
            ("schema_version", Json::Number(self.spec.schema_version as f64)),
            ("seed", Json::Number(self.seed as f64)),
            ("cases", Json::Array(self.cases.iter().map(case).collect())),
        ])
    }

    /// Pretty-printed JSON document (stable: object keys are sorted).
    pub fn pretty(&self) -> String {
        self.to_json().pretty()
    }

    /// Parse a serialised matrix of gate `spec`, validating the schema
    /// version and that every case carries every gated field. Fields the
    /// spec does not gate are ignored.
    pub fn parse(spec: &'static MatrixSpec, text: &str) -> Result<Self, String> {
        let doc = crate::json::parse(text)?;
        let gate = spec.gate;
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{gate} report missing numeric field '{key}'"))
        };
        let version = num("schema_version")? as u64;
        if version != spec.schema_version {
            return Err(format!(
                "{gate} schema version {version} != supported {} — regenerate the baseline",
                spec.schema_version
            ));
        }
        let case = |c: &Json| -> Result<Case, String> {
            let name = c.get("name").and_then(Json::as_str);
            let name = name.ok_or_else(|| format!("{gate} case missing 'name'"))?;
            let values = spec.fields.iter().map(|key| {
                c.get(key).cloned().ok_or_else(|| format!("{gate} case '{name}' missing '{key}'"))
            });
            Ok(Case { name: name.to_string(), values: values.collect::<Result<_, _>>()? })
        };
        let cases = doc.get("cases").and_then(Json::as_array);
        let cases = cases.ok_or_else(|| format!("{gate} report missing 'cases' array"))?;
        Ok(VerdictMatrix {
            spec,
            seed: num("seed")? as u64,
            cases: cases.iter().map(case).collect::<Result<_, _>>()?,
        })
    }

    /// Gate `current` against `self` as the baseline: one message per
    /// problem (empty = pass). The seeds must agree, every baseline
    /// scenario must be present with identical gated fields, and no
    /// scenario may appear silently.
    pub fn compare(&self, current: &VerdictMatrix) -> Vec<String> {
        let mut problems = Vec::new();
        if self.seed != current.seed {
            problems.push(format!(
                "seed mismatch: baseline {} vs current {} — rerun with --seed {}",
                self.seed, current.seed, self.seed
            ));
        }
        for base in &self.cases {
            let Some(cur) = current.find(&base.name) else {
                problems.push(format!("scenario '{}' missing from current run", base.name));
                continue;
            };
            let changed: Vec<String> = (self.spec.fields.iter().zip(&base.values))
                .zip(&cur.values)
                .filter(|((_, b), c)| b != c)
                .map(|((key, b), c)| format!("{key} {} -> {}", b.inline(), c.inline()))
                .collect();
            if !changed.is_empty() {
                problems.push(format!("scenario '{}' changed: {}", base.name, changed.join(", ")));
            }
        }
        for cur in &current.cases {
            if self.find(&cur.name).is_none() {
                problems.push(format!(
                    "scenario '{}' not in baseline — regenerate {}",
                    cur.name, self.spec.baseline
                ));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static SPEC: MatrixSpec = MatrixSpec {
        gate: "test-chaos",
        schema_version: 3,
        fields: &["retried", "events", "survived"],
        baseline: "results/test_baseline.json",
    };

    fn case(name: &str, retried: u64, survived: bool) -> Case {
        let events = Json::Array(vec![Json::Str("stall s[0] opt 0".to_string())]);
        Case {
            name: name.to_string(),
            values: vec![Json::Number(retried as f64), events, Json::Bool(survived)],
        }
    }

    fn matrix(cases: Vec<Case>) -> VerdictMatrix {
        VerdictMatrix { spec: &SPEC, seed: 42, cases }
    }

    #[test]
    fn round_trips_and_survival_reads_the_survived_field() {
        let m = matrix(vec![case("a", 1, true), case("b", 0, true)]);
        assert_eq!(VerdictMatrix::parse(&SPEC, &m.pretty()), Ok(m.clone()));
        assert!(m.all_survived());
        assert!(!matrix(vec![case("a", 1, true), case("b", 0, false)]).all_survived());
    }

    #[test]
    fn compare_is_exact_on_every_gated_field() {
        let base = matrix(vec![case("a", 1, true), case("b", 0, true)]);
        assert!(base.compare(&base).is_empty());
        let changed = matrix(vec![case("a", 2, true), case("b", 0, false)]);
        let problems = base.compare(&changed);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("'a' changed: retried 1 -> 2"), "{problems:?}");
        assert!(problems[1].contains("'b' changed: survived true -> false"), "{problems:?}");
    }

    #[test]
    fn compare_flags_missing_and_new_scenarios_and_seed() {
        let base = matrix(vec![case("a", 1, true)]);
        let mut cur = matrix(vec![case("new", 1, true)]);
        cur.seed = 7;
        let problems = base.compare(&cur);
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(problems[0].contains("seed mismatch"), "{problems:?}");
        assert!(problems[1].contains("'a' missing from current run"), "{problems:?}");
        assert!(
            problems[2].contains("'new' not in baseline — regenerate results/test_baseline.json")
        );
    }

    #[test]
    fn parse_enforces_schema_version_and_gated_fields() {
        let m = matrix(vec![case("a", 1, true)]);
        let text = m.pretty();
        // Informational fields the spec does not gate never reach the matrix.
        let counted = text.replace("\"name\"", "\"sent\": 10, \"name\"");
        assert_eq!(VerdictMatrix::parse(&SPEC, &counted), Ok(m));
        let bumped = text.replace("\"schema_version\": 3", "\"schema_version\": 9");
        let err = VerdictMatrix::parse(&SPEC, &bumped).expect_err("future schema");
        assert!(err.contains("schema version 9 != supported 3 — regenerate"), "{err}");
        let missing = text.replace("\"retried\"", "\"renamed\"");
        let err = VerdictMatrix::parse(&SPEC, &missing).expect_err("missing field");
        assert!(err.contains("case 'a' missing 'retried'"), "{err}");
        assert!(VerdictMatrix::parse(&SPEC, "{ not json").is_err());
    }
}
