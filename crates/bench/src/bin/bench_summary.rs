//! Runs compact versions of experiments E1–E9/E11/E12/E13 and writes a JSON
//! summary.
//!
//! ```text
//! bench_summary [--profile full|smoke|e2|e8|e9|e11|e12|e13] [--out PATH]
//!               [--check BASELINE.json]
//! ```
//!
//! The committed trajectory files at the repository root are produced with the
//! `full` profile (`--out BENCH_baseline.json` before a perf change,
//! `--out BENCH_after.json` after); CI runs the `smoke` profile to keep the
//! bench code compiling and running, plus `--profile <gate> --check
//! BENCH_after.json` for every row of the gate table
//! (`treenum_bench::trajectory::GATES`: E2 per-answer delay, E8 amortized
//! per-edit batch latency, E9 snapshot-read delay under concurrent ingest,
//! E11 multiplexed read delay across registered queries, E13 read delay
//! through writer-fault heal cycles).  `--check` judges every gate whose
//! experiment the profile ran, each at its own row's bar, and exits non-zero
//! when a fresh p95 regresses past that bar, when a gated record is missing,
//! or when the profile runs no gated experiment at all.  Rows with re-measure
//! runs (E8, E11) re-run their experiment before a flagged record fails — a
//! genuine slowdown reproduces, a scheduling stall on the shared runner does
//! not.  Every gate runs and prints its comparisons before the process exits,
//! so one run shows every regression.  The `e12` profile records the
//! crash-recovery group only; splice its `E12_recovery` records into
//! `BENCH_after.json` rather than re-recording the gated groups.  Without
//! `--out` the JSON goes to stdout.

use criterion::{BenchRecord, Criterion};
use std::path::{Path, PathBuf};
use treenum_bench::summary::{run_summary, SummaryProfile};
use treenum_bench::trajectory::{Gate, Trajectory, GATES};

/// The parsed command line.
#[derive(Debug)]
struct Args {
    profile: SummaryProfile,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
}

/// Parses the arguments after the program name.  `Err("")` asks for the
/// help text; any other `Err` is a usage error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = args.into_iter();
    let mut parsed = Args {
        profile: SummaryProfile::full(),
        out: None,
        check: None,
    };
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("missing {what}"));
        match arg.as_str() {
            "--profile" => {
                let name = value("profile name")?;
                parsed.profile = SummaryProfile::by_name(&name)
                    .ok_or_else(|| format!("unknown profile {name:?}"))?;
            }
            "--out" => parsed.out = Some(value("output path")?.into()),
            "--check" => parsed.check = Some(value("baseline path")?.into()),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    // A check that gates nothing must not read as a pass.
    if parsed.check.is_some() && gates_run(&parsed.profile).next().is_none() {
        return Err(format!(
            "--check: profile {} runs no gated experiment",
            parsed.profile.name
        ));
    }
    Ok(parsed)
}

/// The gates whose experiment `profile` runs, in table order.
fn gates_run(profile: &SummaryProfile) -> impl Iterator<Item = &'static Gate> + '_ {
    GATES.iter().filter(move |g| profile.runs(g.experiment))
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| usage(&e));
    let profile = &args.profile;
    let mut criterion = Criterion::default();
    run_summary(&mut criterion, profile);
    let meta = [("profile", profile.name)];
    match &args.out {
        Some(path) => {
            criterion
                .write_summary_json(path, &meta)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            eprintln!(
                "wrote {} ({} benchmarks, profile {})",
                path.display(),
                criterion.records().len(),
                profile.name
            );
        }
        None => print!("{}", criterion.summary_json(&meta)),
    }

    let Some(baseline_path) = &args.check else {
        return;
    };
    let baseline = Trajectory::load(baseline_path).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    // Run every gate before exiting, so a single CI run reports every
    // regression instead of stopping at the first failing gate.
    let mut failed = false;
    for gate in gates_run(profile) {
        failed |= run_gate(gate, &baseline, baseline_path, criterion.records(), profile);
    }
    if failed {
        std::process::exit(1);
    }
}

/// Judges one gate on the fresh records, re-running its experiment when the
/// row asks for it and the first pass flagged something, and prints every
/// comparison.  Returns `true` when the gate failed (a regression, a gated
/// record missing from the fresh run, or an uncheckable cross-arm bar).
fn run_gate(
    gate: &'static Gate,
    baseline: &Trajectory,
    baseline_path: &Path,
    fresh: &[BenchRecord],
    profile: &SummaryProfile,
) -> bool {
    let label = gate.label;
    let mut comparisons = match gate.check(baseline, fresh) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {label}: {e}");
            return true;
        }
    };
    let runs = gate.remeasure_runs;
    if runs > 0 && comparisons.iter().any(|c| c.regressed) {
        for c in comparisons.iter().filter(|c| c.regressed) {
            eprintln!(
                "{label} {}: first pass {:.2}x — re-measuring (best of {runs} re-runs)",
                c.name, c.ratio
            );
        }
        let only = SummaryProfile {
            experiments: Some(std::slice::from_ref(&gate.experiment)),
            ..profile.clone()
        };
        let reruns: Vec<Vec<BenchRecord>> = (0..runs)
            .map(|_| {
                let mut scratch = Criterion::default();
                run_summary(&mut scratch, &only);
                scratch.records().to_vec()
            })
            .collect();
        comparisons = gate.rejudge(comparisons, &reruns);
    }
    let mut regressed = false;
    for c in &comparisons {
        eprintln!(
            "{label} {}: baseline {} ns, now {} ns ({:.2}x){}",
            c.name,
            c.baseline_p95_ns,
            c.fresh_p95_ns,
            c.ratio,
            if c.regressed { "  REGRESSION" } else { "" }
        );
        regressed |= c.regressed;
    }
    if regressed {
        eprintln!(
            "error: {label} regressed past its bar (tolerance {:.0}%) against {}",
            gate.tolerance * 100.0,
            baseline_path.display()
        );
        return true;
    }
    eprintln!(
        "{label} check passed ({} records within their bars against {})",
        comparisons.len(),
        baseline_path.display()
    );
    false
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}");
    }
    eprintln!(
        "usage: bench_summary [--profile full|smoke|e2|e8|e9|e11|e12|e13] [--out PATH] \
         [--check BASELINE.json]"
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn check_takes_a_gate_profile() {
        let args = parse(&["--profile", "e11", "--check", "BENCH_after.json"]).unwrap();
        assert_eq!(args.profile.name, "e11");
        assert_eq!(args.check, Some(PathBuf::from("BENCH_after.json")));
        let gates: Vec<_> = gates_run(&args.profile).map(|g| g.experiment).collect();
        assert_eq!(gates, ["E11"]);
        // The full profile runs every gated experiment.
        let full = parse(&["--check", "BENCH_after.json"]).unwrap();
        assert_eq!(gates_run(&full.profile).count(), GATES.len());
    }

    #[test]
    fn check_on_an_ungated_profile_is_refused() {
        let err = parse(&["--profile", "e12", "--check", "BENCH_after.json"]).unwrap_err();
        assert!(err.contains("runs no gated experiment"), "{err}");
        // Without --check the profile is fine.
        assert!(parse(&["--profile", "e12"]).is_ok());
    }

    #[test]
    fn removed_gate_flags_are_usage_errors() {
        for flag in ["--check-e8", "--tolerance"] {
            let err = parse(&["--profile", "e8", flag, "0.5"]).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
        assert!(parse(&["--check"]).unwrap_err().contains("missing"));
        assert!(parse(&["--profile", "e7"]).is_err());
        assert_eq!(parse(&["--help"]).unwrap_err(), "");
    }
}
