//! Reading committed `BENCH_*.json` trajectory files and gating on them.
//!
//! The build environment has no crates.io access (so no `serde`); the files
//! are written by the vendored criterion stub with a fixed flat schema
//! (`{"schema":1, …, "benchmarks":[{"group","name","mean_ns","min_ns",
//! "p50_ns"?,"p95_ns"?,"p99_ns"?}, …]}`), and this module carries the small
//! hand-rolled parser for exactly that shape.  [`GATES`] is the CI gate
//! table: one row per gated experiment, each compared by [`Gate::check`]
//! against the committed baseline (failing on a regression past the row's
//! bar or on a gated record disappearing) and re-judged by
//! [`Gate::rejudge`] against re-runs of the experiment.

use criterion::BenchRecord;
use std::time::Duration;

/// A parsed trajectory file: its profile stamp and all benchmark records.
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    /// The `"profile"` stamp of the file (empty when missing).
    pub profile: String,
    /// All benchmark records, in file order.
    pub benchmarks: Vec<BenchRecord>,
}

impl Trajectory {
    /// Parses the JSON written by `Criterion::summary_json`.
    pub fn parse(text: &str) -> Result<Trajectory, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        let Json::Object(top) = value else {
            return Err("top-level JSON value is not an object".into());
        };
        let mut out = Trajectory::default();
        for (key, value) in top {
            match (key.as_str(), value) {
                ("profile", Json::String(s)) => out.profile = s,
                ("benchmarks", Json::Array(items)) => {
                    for item in items {
                        let Json::Object(fields) = item else {
                            return Err("benchmark entry is not an object".into());
                        };
                        let mut rec = BenchRecord::default();
                        for (k, v) in fields {
                            match (k.as_str(), v) {
                                ("group", Json::String(s)) => rec.group = s,
                                ("name", Json::String(s)) => rec.name = s,
                                ("mean_ns", Json::Number(n)) => rec.mean_ns = n,
                                ("min_ns", Json::Number(n)) => rec.min_ns = n,
                                ("p50_ns", Json::Number(n)) => rec.p50_ns = Some(n),
                                ("p95_ns", Json::Number(n)) => rec.p95_ns = Some(n),
                                ("p99_ns", Json::Number(n)) => rec.p99_ns = Some(n),
                                _ => {}
                            }
                        }
                        out.benchmarks.push(rec);
                    }
                }
                _ => {}
            }
        }
        Ok(out)
    }

    /// Reads and parses a trajectory file from disk.
    pub fn load(path: &std::path::Path) -> Result<Trajectory, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// The record with the given group and name, if present.
    pub fn find(&self, group: &str, name: &str) -> Option<&BenchRecord> {
        self.benchmarks
            .iter()
            .find(|r| r.group == group && r.name == name)
    }
}

/// One comparison of a fresh p95-bearing record against the baseline.
#[derive(Debug, Clone)]
pub struct GroupComparison {
    /// Record name (e.g. `per_answer_<query>/<n>`, `batch_<strategy>_k<k>/<n>`).
    pub name: String,
    /// Baseline p95 (ns); for a cross-arm row, the fresh reference arm's p95.
    pub baseline_p95_ns: u128,
    /// Fresh p95 (ns).
    pub fresh_p95_ns: u128,
    /// `fresh / baseline` (1.0 = unchanged, 2.0 = twice as slow).
    pub ratio: f64,
    /// Whether the ratio exceeds the record's bar ([`Gate::bar`], or
    /// [`CrossArm::bar`] for a cross-arm row).
    pub regressed: bool,
    /// Whether this is a same-run cross-arm row ([`CrossArm`]) rather than a
    /// trajectory comparison against the baseline file.
    pub cross: bool,
}

/// A same-run bar between the arms of one gated group: the widest
/// `<arm><q>…` record (largest `q > 1`) must stay within `bar`× the p95 of
/// its `<arm>1…` twin (same suffix: readers and size).
#[derive(Debug)]
pub struct CrossArm {
    /// Record-name prefix before the query count (`read_q`).
    pub arm: &'static str,
    /// Largest allowed `widest / q1` p95 ratio.
    pub bar: f64,
}

/// One CI bench gate: which records of which experiment are compared
/// against the committed trajectory, at what bar, and how a first-pass
/// violation is re-measured.  All gates are rows of [`GATES`].
#[derive(Debug)]
pub struct Gate {
    /// The experiment the gate re-runs (`"E2"`, as in `run_summary`).
    pub experiment: &'static str,
    /// Name of the profile that runs only this experiment (`"e2"`).
    pub profile: &'static str,
    /// Prefix of the gate's report lines.
    pub label: &'static str,
    /// The record group compared against the baseline.
    pub group: &'static str,
    /// Only records whose name starts with this are gated (`""` = all).
    pub prefix: &'static str,
    /// A fresh p95 more than this fraction over baseline is a regression.
    pub tolerance: f64,
    /// `(pattern, factor)`: records whose name contains `pattern` get
    /// `factor`× the tolerance.
    pub slack: Option<(&'static str, f64)>,
    /// The same-run cross-arm bar, if any.
    pub cross: Option<CrossArm>,
    /// How many times the experiment is re-run before a flagged record
    /// fails (0 = never); see [`Gate::rejudge`].
    pub remeasure_runs: usize,
    /// The gate profile's per-benchmark warm-up budget.
    pub warm_up: Duration,
    /// The gate profile's per-benchmark measurement budget.
    pub measurement: Duration,
    /// Whether the gate profile keeps the `full` profile's `tree_sizes`.
    pub tree_sizes: bool,
}

/// The CI bench gates, run in this order by `bench_summary --check`.  Each
/// gate profile runs its experiment at the `full` sizes, so record names
/// match the committed trajectory.
///
/// * **E2** — per-answer delay p95s.  The gate profile drops `tree_sizes`:
///   the legacy first-200 arm carries no percentiles.
/// * **E8** — amortized per-edit `batch_*` p95s.  The `seq_*` speedup
///   baselines replay rebalance-heavy workloads whose p95 hinges on whether a
///   rare scapegoat rebuild lands in a sample, so they are recorded, not
///   gated.  A k=1 "batch" amortizes nothing, so the `_k1/` tail arms get
///   twice the tolerance.  A flagged record is judged on the minimum p95 of
///   three re-runs: a genuine slowdown reproduces, a scheduler stall does not.
/// * **E9** — snapshot-read p95s under concurrent ingest.  The `ingest_*`
///   arms depend on how the scheduler interleaves feeder, writer and readers,
///   which varies far more across machines than the read delay does.
/// * **E11** — multiplexed read p95s, plus the multiplexing contract: the
///   widest `read_q<q>` arm within 1.5× its fresh `read_q1` twin.  The widest
///   arm amplifies a per-query-republication regression (a Q× cost) the most;
///   the 1.5× leaves room for the cache pressure of 16 resident engines.  The
///   probe p95s sit under 3 µs with a live writer on the same core, hence the
///   wide tolerance.  The `admission_*` arms track flush size and are not
///   gated.  A flagged record gets the best of two re-runs; the cross row is
///   re-judged on the best *paired* ratio.
/// * **E13** — read p95s through writer-fault heal cycles, the faulty arm
///   held to the same bar as its clean twin.  The `ingest_*` arms (retries,
///   availability ppm) are not gated.
pub static GATES: [Gate; 5] = [
    Gate {
        experiment: "E2",
        profile: "e2",
        label: "E2 p95",
        group: "E2_delay",
        prefix: "",
        tolerance: 0.25,
        slack: None,
        cross: None,
        remeasure_runs: 0,
        warm_up: Duration::from_millis(100),
        measurement: Duration::from_millis(400),
        tree_sizes: false,
    },
    Gate {
        experiment: "E8",
        profile: "e8",
        label: "E8 amortized p95",
        group: "E8_batch_updates",
        prefix: "batch_",
        tolerance: 0.25,
        slack: Some(("_k1/", 2.0)),
        cross: None,
        remeasure_runs: 3,
        warm_up: Duration::from_millis(50),
        measurement: Duration::from_millis(200),
        tree_sizes: true,
    },
    Gate {
        experiment: "E9",
        profile: "e9",
        label: "E9 read-delay p95",
        group: "E9_serving",
        prefix: "read_",
        tolerance: 0.5,
        slack: None,
        cross: None,
        remeasure_runs: 0,
        warm_up: Duration::from_millis(100),
        measurement: Duration::from_millis(400),
        tree_sizes: true,
    },
    Gate {
        experiment: "E11",
        profile: "e11",
        label: "E11 multiplexed read p95",
        group: "E11_registry",
        prefix: "read_",
        tolerance: 0.75,
        slack: None,
        cross: Some(CrossArm {
            arm: "read_q",
            bar: 1.5,
        }),
        remeasure_runs: 2,
        warm_up: Duration::from_millis(100),
        measurement: Duration::from_millis(400),
        tree_sizes: true,
    },
    Gate {
        experiment: "E13",
        profile: "e13",
        label: "E13 read-through-faults p95",
        group: "E13_chaos",
        prefix: "read_",
        tolerance: 0.5,
        slack: None,
        cross: None,
        remeasure_runs: 0,
        warm_up: Duration::from_millis(200),
        measurement: Duration::from_millis(700),
        tree_sizes: true,
    },
];

impl Gate {
    /// The `fresh / baseline` ratio above which the trajectory record `name`
    /// counts as regressed: `1 + tolerance`, the tolerance scaled by the
    /// row's slack factor when the name matches its slack pattern.
    pub fn bar(&self, name: &str) -> f64 {
        match self.slack {
            Some((pattern, factor)) if name.contains(pattern) => 1.0 + self.tolerance * factor,
            _ => 1.0 + self.tolerance,
        }
    }

    /// `name` at `fresh / reference`, judged at the bar of its kind.
    fn judged(&self, name: String, reference: u128, fresh: u128, cross: bool) -> GroupComparison {
        let ratio = fresh as f64 / reference as f64;
        let bar = match (&self.cross, cross) {
            (Some(arm), true) => arm.bar,
            _ => self.bar(&name),
        };
        GroupComparison {
            name,
            baseline_p95_ns: reference,
            fresh_p95_ns: fresh,
            ratio,
            regressed: ratio > bar,
            cross,
        }
    }

    /// Compares every gated record present in both runs against its bar,
    /// then appends the cross-arm rows.  Returns an error when nothing was
    /// comparable — a silent pass on mismatched files would defeat the gate
    /// — when any gated baseline record with a p95 has no fresh counterpart,
    /// so dropping a size or arm from the measured profile cannot silently
    /// shrink the gate, and when a cross-arm bar cannot be checked.
    pub fn check(
        &self,
        baseline: &Trajectory,
        fresh: &[BenchRecord],
    ) -> Result<Vec<GroupComparison>, String> {
        let group = self.group;
        let gated = |r: &BenchRecord| r.group == group && r.name.starts_with(self.prefix);
        let mut out = Vec::new();
        for rec in fresh.iter().filter(|r| gated(r)) {
            let base = baseline.find(&rec.group, &rec.name).and_then(|b| b.p95_ns);
            if let (Some(fresh_p95), Some(base_p95)) = (rec.p95_ns, base) {
                if base_p95 > 0 {
                    out.push(self.judged(rec.name.clone(), base_p95, fresh_p95, false));
                }
            }
        }
        if out.is_empty() {
            return Err(format!(
                "no {group} records were comparable against the baseline \
                 (size or name mismatch?)"
            ));
        }
        // Report *every* vanished record at once — a CI failure listing only
        // the first missing arm forces a fix-rerun-fix loop when a whole size
        // or strategy dropped out of the measured profile.
        let missing: Vec<&str> = baseline
            .benchmarks
            .iter()
            .filter(|base| gated(base) && base.p95_ns.is_some())
            .filter(|base| !out.iter().any(|c| c.name == base.name))
            .map(|base| base.name.as_str())
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "baseline {group} records {missing:?} have no counterpart in the \
                 fresh run — the gate no longer covers them",
            ));
        }
        if let Some(cross) = &self.cross {
            let rows = self.cross_rows(cross, fresh)?;
            if rows.is_empty() {
                return Err(format!(
                    "no multi-query {group} arm was present in the fresh run — \
                     the multiplexing bar cannot be checked"
                ));
            }
            out.extend(rows);
        }
        Ok(out)
    }

    /// One `<arm><q>_vs_q1/<n>` row per arm suffix: the widest arm's fresh
    /// p95 against its fresh `q = 1` twin.  Intermediate arms sit inside
    /// single-core scheduler noise at these sub-microsecond p95s and stay
    /// trajectory-gated only.
    fn cross_rows(
        &self,
        cross: &CrossArm,
        fresh: &[BenchRecord],
    ) -> Result<Vec<GroupComparison>, String> {
        // Name shape: <arm><q><suffix>; the suffix (readers + size) must match.
        let arms: Vec<(u64, &str, u128)> = fresh
            .iter()
            .filter(|r| r.group == self.group)
            .filter_map(|r| {
                let rest = r.name.strip_prefix(cross.arm)?;
                let digits =
                    rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
                Some((rest[..digits].parse().ok()?, &rest[digits..], r.p95_ns?))
            })
            .collect();
        let mut suffixes: Vec<&str> = arms.iter().map(|(_, s, _)| *s).collect();
        suffixes.sort_unstable();
        suffixes.dedup();
        let mut out = Vec::new();
        for suffix in suffixes {
            let Some((q, _, p95)) = arms
                .iter()
                .filter(|(aq, asuf, _)| *aq > 1 && *asuf == suffix)
                .max_by_key(|(aq, _, _)| *aq)
            else {
                continue;
            };
            let Some((_, _, q1_p95)) = arms.iter().find(|(bq, bs, _)| *bq == 1 && *bs == suffix)
            else {
                return Err(format!(
                    "fresh {} arm {}{q}{suffix} has no q=1 twin — the \
                     multiplexing bar cannot be checked",
                    self.experiment, cross.arm
                ));
            };
            let size = suffix.split('/').nth(1).unwrap_or("?");
            let name = format!("{}{q}_vs_q1/{size}", cross.arm);
            out.push(self.judged(name, *q1_p95, *p95, true));
        }
        Ok(out)
    }

    /// Re-judges the first pass's flagged comparisons against re-runs of the
    /// experiment (`reruns`: each the full record list of one re-run).  A
    /// flagged trajectory record takes its smallest re-measured p95; a
    /// flagged cross-arm row takes the re-run with the smallest ratio, both
    /// sides of the ratio from that one re-run, so the pair always saw the
    /// same machine state.  Every re-judged record keeps its own bar.
    /// Unflagged rows, and flagged rows no re-run measured, are unchanged.
    pub fn rejudge(
        &self,
        first: Vec<GroupComparison>,
        reruns: &[Vec<BenchRecord>],
    ) -> Vec<GroupComparison> {
        first
            .into_iter()
            .map(|c| {
                if !c.regressed {
                    return c;
                }
                reruns
                    .iter()
                    .filter_map(|records| self.remeasured(&c, records))
                    .min_by(|a, b| a.ratio.total_cmp(&b.ratio))
                    .unwrap_or(c)
            })
            .collect()
    }

    /// `c` as measured by one re-run's `records`.
    fn remeasured(&self, c: &GroupComparison, records: &[BenchRecord]) -> Option<GroupComparison> {
        if c.cross {
            let rows = self.cross_rows(self.cross.as_ref()?, records).ok()?;
            return rows.into_iter().find(|r| r.name == c.name);
        }
        let rec = records
            .iter()
            .find(|r| r.group == self.group && r.name == c.name)?;
        Some(self.judged(c.name.clone(), c.baseline_p95_ns, rec.p95_ns?, false))
    }
}

/// The subset of JSON the trajectory files use.  Numbers are unsigned
/// integers (all our fields are nanosecond counts).
#[derive(Debug)]
enum Json {
    String(String),
    Number(u128),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
    Other,
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.at,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-') => {
                // Negative numbers cannot occur in our schema; consume and
                // report as non-numeric rather than failing the whole file.
                self.at += 1;
                self.number().map(|_| Json::Other)
            }
            other => Err(format!("unexpected byte {other:?} at {}", self.at)),
        }
    }

    fn literal(&mut self, text: &str) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(text.as_bytes()) {
            self.at += text.len();
            Ok(Json::Other)
        } else {
            Err(format!("malformed literal at byte {}", self.at))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.at += 4;
                        }
                        Some(c) => out.push(c as char),
                        None => return Err("truncated escape".into()),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Copy a run of plain bytes (UTF-8 passes through intact).
                    let start = self.at;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.at += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.at])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+')
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).map_err(|e| e.to_string())?;
        match text.parse::<u128>() {
            Ok(n) => Ok(Json::Number(n)),
            // Floats / exponents don't occur in our fields of interest.
            Err(_) => Ok(Json::Other),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Array(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Array(out));
                }
                other => return Err(format!("expected ',' or ']' , found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            out.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(out));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(experiment: &str) -> &'static Gate {
        GATES.iter().find(|g| g.experiment == experiment).unwrap()
    }

    const SAMPLE: &str = concat!(
        "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
        "{\"group\":\"E2_delay\",\"name\":\"per_answer_select_b/10000\",",
        "\"mean_ns\":500,\"min_ns\":100,\"p50_ns\":400,\"p95_ns\":900,\"p99_ns\":1500},",
        "{\"group\":\"E1_preprocessing\",\"name\":\"build/1000\",",
        "\"mean_ns\":2084476,\"min_ns\":2037279}",
        "]}\n"
    );

    #[test]
    fn parses_summary_json() {
        let t = Trajectory::parse(SAMPLE).unwrap();
        assert_eq!(t.profile, "full");
        assert_eq!(t.benchmarks.len(), 2);
        let e2 = t.find("E2_delay", "per_answer_select_b/10000").unwrap();
        assert_eq!(e2.mean_ns, 500);
        assert_eq!(e2.p95_ns, Some(900));
        let e1 = t.find("E1_preprocessing", "build/1000").unwrap();
        assert_eq!(e1.p95_ns, None);
        assert_eq!(e1.mean_ns, 2084476);
    }

    #[test]
    fn roundtrips_through_criterion_writer() {
        let mut c = criterion::Criterion::default();
        c.push_record(BenchRecord {
            group: "E2_delay".into(),
            name: "per_answer_pairs/1000".into(),
            mean_ns: 7,
            min_ns: 3,
            p50_ns: Some(6),
            p95_ns: Some(12),
            p99_ns: Some(20),
        });
        let json = c.summary_json(&[("profile", "e2")]);
        let t = Trajectory::parse(&json).unwrap();
        assert_eq!(t.profile, "e2");
        let rec = t.find("E2_delay", "per_answer_pairs/1000").unwrap();
        assert_eq!(rec.p99_ns, Some(20));
    }

    #[test]
    fn regression_check_flags_slowdowns() {
        let baseline = Trajectory::parse(SAMPLE).unwrap();
        let fresh_ok = vec![BenchRecord {
            group: "E2_delay".into(),
            name: "per_answer_select_b/10000".into(),
            mean_ns: 480,
            min_ns: 90,
            p50_ns: Some(380),
            p95_ns: Some(1000),
            p99_ns: Some(1400),
        }];
        let cmp = row("E2").check(&baseline, &fresh_ok).unwrap();
        assert_eq!(cmp.len(), 1);
        assert!(!cmp[0].regressed, "11% over baseline is within 25%");

        let fresh_bad = vec![BenchRecord {
            p95_ns: Some(2000),
            ..fresh_ok[0].clone()
        }];
        let cmp = row("E2").check(&baseline, &fresh_bad).unwrap();
        assert!(cmp[0].regressed, "2.2x over baseline must be flagged");
    }

    #[test]
    fn regression_check_rejects_incomparable_runs() {
        let baseline = Trajectory::parse(SAMPLE).unwrap();
        let fresh = vec![BenchRecord {
            group: "E2_delay".into(),
            name: "per_answer_select_b/200".into(), // smoke size, not in baseline
            p95_ns: Some(1),
            ..BenchRecord::default()
        }];
        assert!(row("E2").check(&baseline, &fresh).is_err());
    }

    #[test]
    fn e8_gate_is_group_scoped() {
        let base = concat!(
            "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
            "{\"group\":\"E8_batch_updates\",\"name\":\"batch_skewed_k64/10000\",",
            "\"mean_ns\":400,\"min_ns\":100,\"p50_ns\":350,\"p95_ns\":800,\"p99_ns\":1200},",
            "{\"group\":\"E8_batch_updates\",\"name\":\"seq_skewed_k64/10000\",",
            "\"mean_ns\":4000,\"min_ns\":1000,\"p50_ns\":3500,\"p95_ns\":8000,\"p99_ns\":12000},",
            "{\"group\":\"E2_delay\",\"name\":\"per_answer_select_b/10000\",",
            "\"mean_ns\":500,\"min_ns\":100,\"p50_ns\":400,\"p95_ns\":900,\"p99_ns\":1500}",
            "]}\n"
        );
        let baseline = Trajectory::parse(base).unwrap();
        // A fresh run covering only the E8 batch record passes the E8 gate
        // (the E2 record belongs to the other gate) and fails the E2 gate.
        // A regressed seq_* record is NOT gated: the speedup-baseline arms
        // replay rebalance-heavy workloads with long-tailed p95s.
        let fresh = vec![
            BenchRecord {
                group: "E8_batch_updates".into(),
                name: "batch_skewed_k64/10000".into(),
                p95_ns: Some(850),
                ..BenchRecord::default()
            },
            BenchRecord {
                group: "E8_batch_updates".into(),
                name: "seq_skewed_k64/10000".into(),
                p95_ns: Some(999_999),
                ..BenchRecord::default()
            },
        ];
        let cmp = row("E8").check(&baseline, &fresh).unwrap();
        assert_eq!(cmp.len(), 1);
        assert!(!cmp[0].regressed);
        assert!(row("E2").check(&baseline, &fresh).is_err());
        // A >25% amortized-p95 regression is flagged.
        let slow = vec![BenchRecord {
            p95_ns: Some(1100),
            ..fresh[0].clone()
        }];
        let cmp = row("E8").check(&baseline, &slow).unwrap();
        assert!(cmp[0].regressed);
        // A disappearing E8 record fails the gate.
        let other = vec![BenchRecord {
            name: "batch_skewed_k8/10000".into(),
            ..slow[0].clone()
        }];
        assert!(row("E8").check(&baseline, &other).is_err());
    }

    #[test]
    fn e8_k1_tail_gets_doubled_tolerance() {
        let base = concat!(
            "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
            "{\"group\":\"E8_batch_updates\",\"name\":\"batch_uniform_k1/10000\",",
            "\"mean_ns\":400,\"min_ns\":100,\"p50_ns\":350,\"p95_ns\":1000,\"p99_ns\":1200},",
            "{\"group\":\"E8_batch_updates\",\"name\":\"batch_uniform_k64/10000\",",
            "\"mean_ns\":400,\"min_ns\":100,\"p50_ns\":350,\"p95_ns\":1000,\"p99_ns\":1200}",
            "]}\n"
        );
        let baseline = Trajectory::parse(base).unwrap();
        // 1.4x over baseline: within the doubled k1 bar (1.5 at tolerance
        // 0.25), but over the plain 1.25 bar the amortized arms get.
        let fresh = vec![
            BenchRecord {
                group: "E8_batch_updates".into(),
                name: "batch_uniform_k1/10000".into(),
                p95_ns: Some(1400),
                ..BenchRecord::default()
            },
            BenchRecord {
                group: "E8_batch_updates".into(),
                name: "batch_uniform_k64/10000".into(),
                p95_ns: Some(1400),
                ..BenchRecord::default()
            },
        ];
        let cmp = row("E8").check(&baseline, &fresh).unwrap();
        let by_name = |n: &str| cmp.iter().find(|c| c.name.contains(n)).unwrap();
        assert!(!by_name("_k1/").regressed, "k1 tail gets 2x the tolerance");
        assert!(
            by_name("_k64/").regressed,
            "amortized arms keep the tight bar"
        );
        // Past the widened bar the k1 arm still fails.
        let slow = vec![
            BenchRecord {
                p95_ns: Some(1600),
                ..fresh[0].clone()
            },
            BenchRecord {
                p95_ns: Some(1000),
                ..fresh[1].clone()
            },
        ];
        let cmp = row("E8").check(&baseline, &slow).unwrap();
        assert!(cmp.iter().any(|c| c.name.contains("_k1/") && c.regressed));
    }

    #[test]
    fn e11_gate_holds_widest_arm_to_the_multiplex_bar() {
        let base = concat!(
            "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
            "{\"group\":\"E11_registry\",\"name\":\"read_q1_r4/10000\",",
            "\"mean_ns\":500,\"min_ns\":100,\"p50_ns\":400,\"p95_ns\":1000,\"p99_ns\":2000},",
            "{\"group\":\"E11_registry\",\"name\":\"read_q4_r4/10000\",",
            "\"mean_ns\":500,\"min_ns\":100,\"p50_ns\":400,\"p95_ns\":1000,\"p99_ns\":2000},",
            "{\"group\":\"E11_registry\",\"name\":\"read_q16_r4/10000\",",
            "\"mean_ns\":500,\"min_ns\":100,\"p50_ns\":400,\"p95_ns\":1000,\"p99_ns\":2000}",
            "]}\n"
        );
        let baseline = Trajectory::parse(base).unwrap();
        let arm = |q: u32, p95: u128| BenchRecord {
            group: "E11_registry".into(),
            name: format!("read_q{q}_r4/10000"),
            p95_ns: Some(p95),
            ..BenchRecord::default()
        };
        // q16 at 1.4x the fresh q1 arm: within the 1.5x multiplex bar.  The
        // q4 arm sits at 1.7x — intermediate arms are trajectory-gated only,
        // so that ratio is noise, not a violation.
        let fresh = vec![arm(1, 1000), arm(4, 1700), arm(16, 1400)];
        let cmp = row("E11").check(&baseline, &fresh).unwrap();
        let cross: Vec<_> = cmp.iter().filter(|c| c.name.contains("_vs_q1")).collect();
        assert_eq!(cross.len(), 1, "only the widest arm is cross-gated");
        assert!(cross[0].name.contains("q16"));
        assert!(!cross[0].regressed);
        // Past the bar the widest arm fails, against the *fresh* q1 twin.
        let slow = vec![arm(1, 1000), arm(4, 1000), arm(16, 1600)];
        let cmp = row("E11").check(&baseline, &slow).unwrap();
        assert!(cmp
            .iter()
            .any(|c| c.name.contains("q16_vs_q1") && c.regressed));
        // A fresh run with no q1 twin, or no multi-query arm at all, cannot
        // check the bar and must fail loudly rather than shrink the gate.
        assert!(row("E11")
            .check(&baseline, &[arm(4, 1000), arm(16, 1000)])
            .is_err());
        assert!(row("E11").check(&baseline, &[arm(1, 1000)]).is_err());
    }

    #[test]
    fn e9_gate_covers_read_arms_only() {
        let base = concat!(
            "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
            "{\"group\":\"E9_serving\",\"name\":\"read_skewed_r4/10000\",",
            "\"mean_ns\":600,\"min_ns\":200,\"p50_ns\":500,\"p95_ns\":1500,\"p99_ns\":4000},",
            "{\"group\":\"E9_serving\",\"name\":\"ingest_adaptive_skewed/10000\",",
            "\"mean_ns\":9000,\"min_ns\":2000,\"p50_ns\":8000,\"p95_ns\":20000,\"p99_ns\":30000}",
            "]}\n"
        );
        let baseline = Trajectory::parse(base).unwrap();
        // A noisy ingest arm does not trip the gate; a regressed read arm does.
        let fresh = vec![
            BenchRecord {
                group: "E9_serving".into(),
                name: "read_skewed_r4/10000".into(),
                p95_ns: Some(1600),
                ..BenchRecord::default()
            },
            BenchRecord {
                group: "E9_serving".into(),
                name: "ingest_adaptive_skewed/10000".into(),
                p95_ns: Some(999_999),
                ..BenchRecord::default()
            },
        ];
        let cmp = row("E9").check(&baseline, &fresh).unwrap();
        assert_eq!(cmp.len(), 1);
        assert!(!cmp[0].regressed);
        let slow = vec![BenchRecord {
            p95_ns: Some(4000),
            ..fresh[0].clone()
        }];
        let cmp = row("E9").check(&baseline, &slow).unwrap();
        assert!(cmp[0].regressed);
    }

    #[test]
    fn e13_gate_covers_read_arms_only() {
        let base = concat!(
            "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
            "{\"group\":\"E13_chaos\",\"name\":\"read_faulty_r4/10000\",",
            "\"mean_ns\":700,\"min_ns\":200,\"p50_ns\":600,\"p95_ns\":2000,\"p99_ns\":6000},",
            "{\"group\":\"E13_chaos\",\"name\":\"ingest_faulty/10000\",",
            "\"mean_ns\":9000,\"min_ns\":2000,\"p50_ns\":8000,\"p95_ns\":20000,\"p99_ns\":30000},",
            "{\"group\":\"E13_chaos\",\"name\":\"ingest_available_ppm_faulty/10000\",",
            "\"mean_ns\":998000,\"min_ns\":998000}",
            "]}\n"
        );
        let baseline = Trajectory::parse(base).unwrap();
        // Noisy ingest / availability records never trip the gate; a
        // regressed read-through-faults arm does.
        let fresh = vec![
            BenchRecord {
                group: "E13_chaos".into(),
                name: "read_faulty_r4/10000".into(),
                p95_ns: Some(2200),
                ..BenchRecord::default()
            },
            BenchRecord {
                group: "E13_chaos".into(),
                name: "ingest_faulty/10000".into(),
                p95_ns: Some(999_999),
                ..BenchRecord::default()
            },
        ];
        let cmp = row("E13").check(&baseline, &fresh).unwrap();
        assert_eq!(cmp.len(), 1);
        assert!(!cmp[0].regressed);
        let slow = vec![BenchRecord {
            p95_ns: Some(5000),
            ..fresh[0].clone()
        }];
        let cmp = row("E13").check(&baseline, &slow).unwrap();
        assert!(cmp[0].regressed);
        // Dropping the faulty arm from the fresh run fails the gate: the
        // chaos bench silently not running must not look like a pass.
        let only_ingest = vec![fresh[1].clone()];
        assert!(row("E13").check(&baseline, &only_ingest).is_err());
    }

    #[test]
    fn missing_records_are_reported_all_at_once() {
        // Three baseline records, two vanish from the fresh run: the error
        // must name both, so one CI run is enough to see the whole damage.
        let base = concat!(
            "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
            "{\"group\":\"E2_delay\",\"name\":\"per_answer_select_b/10000\",",
            "\"mean_ns\":500,\"min_ns\":100,\"p50_ns\":400,\"p95_ns\":900,\"p99_ns\":1500},",
            "{\"group\":\"E2_delay\",\"name\":\"per_answer_pairs/10000\",",
            "\"mean_ns\":800,\"min_ns\":200,\"p50_ns\":700,\"p95_ns\":1400,\"p99_ns\":2000},",
            "{\"group\":\"E2_delay\",\"name\":\"per_answer_select_b/40000\",",
            "\"mean_ns\":600,\"min_ns\":200,\"p50_ns\":450,\"p95_ns\":1100,\"p99_ns\":1900}",
            "]}\n"
        );
        let baseline = Trajectory::parse(base).unwrap();
        let fresh = vec![BenchRecord {
            group: "E2_delay".into(),
            name: "per_answer_select_b/10000".into(),
            p95_ns: Some(850),
            ..BenchRecord::default()
        }];
        let err = row("E2").check(&baseline, &fresh).unwrap_err();
        assert!(err.contains("per_answer_pairs/10000"), "{err}");
        assert!(err.contains("per_answer_select_b/40000"), "{err}");
    }

    #[test]
    fn regression_check_rejects_partial_coverage() {
        // Baseline gates two records; a fresh run covering only one of them
        // must fail rather than silently shrinking the gate.
        let two = concat!(
            "{\"schema\":1,\"profile\":\"full\",\"benchmarks\":[",
            "{\"group\":\"E2_delay\",\"name\":\"per_answer_select_b/10000\",",
            "\"mean_ns\":500,\"min_ns\":100,\"p50_ns\":400,\"p95_ns\":900,\"p99_ns\":1500},",
            "{\"group\":\"E2_delay\",\"name\":\"per_answer_pairs/10000\",",
            "\"mean_ns\":800,\"min_ns\":200,\"p50_ns\":700,\"p95_ns\":1400,\"p99_ns\":2000}",
            "]}\n"
        );
        let baseline = Trajectory::parse(two).unwrap();
        let fresh = vec![BenchRecord {
            group: "E2_delay".into(),
            name: "per_answer_select_b/10000".into(),
            p95_ns: Some(850),
            ..BenchRecord::default()
        }];
        let err = row("E2").check(&baseline, &fresh).unwrap_err();
        assert!(err.contains("per_answer_pairs/10000"), "{err}");
    }

    #[test]
    fn gate_table_matches_the_ci_bars() {
        let bars: Vec<_> = GATES
            .iter()
            .map(|g| (g.profile, g.group, g.prefix, g.tolerance, g.remeasure_runs))
            .collect();
        assert_eq!(
            bars,
            [
                ("e2", "E2_delay", "", 0.25, 0),
                ("e8", "E8_batch_updates", "batch_", 0.25, 3),
                ("e9", "E9_serving", "read_", 0.5, 0),
                ("e11", "E11_registry", "read_", 0.75, 2),
                ("e13", "E13_chaos", "read_", 0.5, 0),
            ]
        );
        assert_eq!(row("E8").bar("batch_uniform_k1/10000"), 1.5);
        assert_eq!(row("E8").bar("batch_uniform_k16/10000"), 1.25);
        assert_eq!(row("E11").cross.as_ref().map(|c| c.bar), Some(1.5));
    }

    fn record(group: &str, name: &str, p95: u128) -> BenchRecord {
        BenchRecord {
            group: group.into(),
            name: name.into(),
            p95_ns: Some(p95),
            ..BenchRecord::default()
        }
    }

    fn trajectory(records: &[BenchRecord]) -> Trajectory {
        Trajectory {
            profile: "full".into(),
            benchmarks: records.to_vec(),
        }
    }

    #[test]
    fn rejudge_passes_a_stall_and_fails_a_reproduced_regression() {
        let e8 = row("E8");
        let at = |p95| vec![record("E8_batch_updates", "batch_skewed_k64/10000", p95)];
        let baseline = trajectory(&at(1000));
        let first = e8.check(&baseline, &at(1400)).unwrap();
        assert!(first[0].regressed);
        // One re-run lands under the 1.25 bar: the minimum decides.
        let stall = e8.rejudge(first.clone(), &[at(1300), at(1100), at(1500)]);
        assert!(!stall[0].regressed);
        assert_eq!(stall[0].fresh_p95_ns, 1100);
        assert_eq!(stall[0].baseline_p95_ns, 1000);
        // Every re-run over the bar: the regression stands.
        let real = e8.rejudge(first, &[at(1300), at(1400), at(1350)]);
        assert!(real[0].regressed);
        assert_eq!(real[0].fresh_p95_ns, 1300);
        // Unflagged rows keep their first-pass numbers.
        let ok = e8.check(&baseline, &at(1100)).unwrap();
        let kept = e8.rejudge(ok, &[at(5000)]);
        assert!(!kept[0].regressed);
        assert_eq!(kept[0].fresh_p95_ns, 1100);
        // A flagged row no re-run measured keeps its first-pass verdict.
        let first = e8.check(&baseline, &at(1400)).unwrap();
        assert!(e8.rejudge(first, &[])[0].regressed);
    }

    #[test]
    fn rejudge_keeps_the_k1_slack() {
        let e8 = row("E8");
        let at = |p95| vec![record("E8_batch_updates", "batch_uniform_k1/10000", p95)];
        let baseline = trajectory(&at(1000));
        let first = e8.check(&baseline, &at(1600)).unwrap();
        assert!(first[0].regressed, "past the widened 1.5 bar");
        // 1.45x: over the plain 1.25 bar, within the k1 arm's 1.5 bar.
        assert!(!e8.rejudge(first.clone(), &[at(1450)])[0].regressed);
        assert!(e8.rejudge(first, &[at(1550)])[0].regressed);
    }

    #[test]
    fn rejudge_takes_the_cross_row_from_one_paired_rerun() {
        let e11 = row("E11");
        let arms = |q1, q16| {
            vec![
                record("E11_registry", "read_q1_r4/10000", q1),
                record("E11_registry", "read_q16_r4/10000", q16),
            ]
        };
        let baseline = trajectory(&arms(1000, 1000));
        let first = e11.check(&baseline, &arms(1000, 1600)).unwrap();
        let cross = |cmp: &[GroupComparison]| cmp.iter().find(|c| c.cross).unwrap().clone();
        assert!(cross(&first).regressed, "1.6x over the 1.5x bar");
        // The second re-run has the best ratio (1.25); both sides of the
        // ratio come from it, not the smallest p95 of each arm (900 / 1200).
        let rejudged = e11.rejudge(first.clone(), &[arms(500, 900), arms(1200, 1500)]);
        let c = cross(&rejudged);
        assert_eq!(c.name, "read_q16_vs_q1/10000");
        assert_eq!((c.baseline_p95_ns, c.fresh_p95_ns), (1200, 1500));
        assert!(!c.regressed);
        // Every paired re-run over the bar: the violation stands.
        let rejudged = e11.rejudge(first, &[arms(500, 900), arms(1000, 1700)]);
        assert!(cross(&rejudged).regressed);
    }
}
