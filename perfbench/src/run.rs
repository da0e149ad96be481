//! What every workload shares: arguments, the run outcome, and helpers for
//! set-up, memory, percentiles and the traced/untraced request split.

use crate::stats::{Metrics, Samples, Windows, MIN_WINDOWS};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use treenum_automata::StepwiseTva;
use treenum_balance::translate_stepwise;
use treenum_core::{EnumerationStats, QueryPlan};
use treenum_serve::{QueryId, ServeConfig, TreeServer};
use treenum_trees::{EditOp, UnrankedTree};

/// A run is split into this many segments.  Each builds its set-up from
/// scratch on the seed's tree, runs an op stream of its own (see
/// [`segment_seed`]) for an equal share of `--seconds`, and ends with
/// [`RESTARTS`] timed restarts.  One run thus samples set-up, restart and
/// steady state on ten fresh memory layouts and ten stretches of edits,
/// across its whole length.  Set-up reports the median over the segments,
/// restart the [`RESTART_PERCENTILE`]; everything else pools the segments'
/// samples.
pub const SEGMENTS: usize = 10;

/// Timed restarts at the end of each segment, each from scratch (the one
/// before dropped untimed): twenty restart samples a run.
pub const RESTARTS: usize = 2;

/// The percentile of a run's restart samples that `restart_s` reports: the
/// lower quartile, low enough to leave out most of the host's slow
/// stretches and high enough that one lucky sample does not set it.
pub const RESTART_PERCENTILE: f64 = 25.0;

/// The percentile that the quiet figures take: of the window medians for
/// `latency_us.quiet_p50` and the window rates for `throughput_per_s` (see
/// [`crate::stats::Windows`]).  The host's slow stretches come and go
/// within a run; a low percentile reads the program where they are absent,
/// and a faster or slower program still moves it one for one.
pub const QUIET_PERCENTILE: f64 = 5.0;

/// The restart figure: the [`RESTART_PERCENTILE`] of a run's restart times.
pub fn quiet_restart(restarts: &mut Samples) -> f64 {
    restarts
        .low(RESTART_PERCENTILE)
        .expect("at least one restart")
}

/// In a traced run, one request in `UNTRACED_EVERY` runs without spans;
/// the gap between traced and untraced requests is the tracing overhead.
const UNTRACED_EVERY: u64 = 4;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !crate::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// Whether request `id` records spans: never in an untraced run, and in
    /// a traced run all but one in [`UNTRACED_EVERY`] requests.  The choice
    /// is a hash of the id, so it cannot fall into step with periodic work
    /// (a snapshot persisted every eighth commit, say).
    pub fn traces(&self, id: u64) -> bool {
        self.trace && !mix64(id).is_multiple_of(UNTRACED_EVERY)
    }
}

/// What a workload hands back: the correctness verdict, request counts,
/// every metric it measured, and free-form report lines.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Reports the `p`-th percentile of `samples` as `name`.  A refused
    /// percentile (too few samples beyond it) is an error for an
    /// end-to-end metric and a noted 0 for a per-layer one.
    pub fn percentile(
        &mut self,
        name: &str,
        samples: &mut Samples,
        p: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let n = samples.len();
        let value = if p == 50.0 {
            samples.median()
        } else {
            samples.percentile(p)
        };
        match value {
            Some(v) => {
                self.metrics.set(name, v, unit);
                self.notes.push(format!("{name}: p{p} of {n} samples"));
                Ok(())
            }
            None if is_end_to_end(name) => Err(format!(
                "{name}: p{p} needs {} samples beyond it, only {n} samples",
                crate::stats::MIN_BEYOND
            )),
            None => {
                self.metrics.set(name, 0.0, unit);
                self.notes
                    .push(format!("{name}: refused, p{p} of only {n} samples"));
                Ok(())
            }
        }
    }

    /// Reports the quiet figures of `windows`: `latency_us.quiet_p50`, the
    /// [`QUIET_PERCENTILE`] of the window medians, and `throughput_per_s`,
    /// the mirror percentile of the window rates.  Too few windows is an
    /// error.  The low percentiles beside them are printed as report lines.
    pub fn quiet<const N: usize>(&mut self, windows: &Windows<N>) -> Result<(), String> {
        let n = windows.len();
        let too_few = || format!("quiet figures need {MIN_WINDOWS} windows, only {n}");
        let p50 = windows.low_median(QUIET_PERCENTILE).ok_or_else(too_few)?;
        let rate = windows.high_rate(QUIET_PERCENTILE).ok_or_else(too_few)?;
        self.metrics.set("latency_us.quiet_p50", p50, "us");
        self.metrics.set("throughput_per_s", rate, "1/s");
        let lows: Vec<String> = [1.0, 5.0, 10.0, 25.0, 50.0]
            .iter()
            .map(|&p| format!("p{p} {:.1}", windows.low_median(p).unwrap()))
            .collect();
        self.notes.push(format!(
            "quiet figures: p{QUIET_PERCENTILE} of {n} windows; window medians {}",
            lows.join(", ")
        ));
        Ok(())
    }

    /// Reports `latency_us.tail` as the `p`-th percentile of the requests
    /// in the quieter half of `windows` (see [`Windows::quiet_tail`]).  A
    /// refused percentile is an error.
    pub fn quiet_tail<const N: usize>(
        &mut self,
        windows: &Windows<N>,
        p: f64,
    ) -> Result<(), String> {
        let v = windows.quiet_tail(p).ok_or(format!(
            "latency_us.tail: p{p} of the quieter half of {} windows refused",
            windows.len()
        ))?;
        self.metrics.set("latency_us.tail", v, "us");
        self.notes.push(format!(
            "latency_us.tail: p{p} of the requests in the quieter half of {} windows",
            windows.len()
        ));
        Ok(())
    }

    /// Reports the structural gauges of an engine.
    pub fn gauges(&mut self, g: &EnumerationStats) {
        self.metrics
            .set("balance.term_height", g.term_height as f64, "count");
        self.metrics
            .set("circuits.boxes", g.circuit_boxes as f64, "count");
        self.metrics
            .set("circuits.width", g.circuit_width as f64, "count");
        self.metrics
            .set("automata.states", g.automaton_states as f64, "count");
    }

    /// Reports the end-to-end metric `from` again under the workload's own
    /// name for it (scaled into `unit`), for the human-readable report.
    pub fn alias(&mut self, name: &str, from: &str, scale: f64, unit: &'static str) {
        let value = self.metrics.get(from).expect("alias of a measured metric");
        self.metrics.set(name, value * scale, unit);
    }

    /// Records the tracing report: self time per layer per traced request,
    /// the overhead (traced minus untraced median of the request latency),
    /// and writes the spans out under the work directory.
    pub fn trace_report(
        &mut self,
        args: &Args,
        tracer: &Tracer,
        traced: &mut Samples,
        untraced: &mut Samples,
    ) -> Result<(), String> {
        let requests = tracer.traced_requests().max(1) as f64;
        for (layer, ns) in tracer.self_time_by_layer() {
            let name = format!("self_us.{layer}");
            self.metrics.set(&name, ns as f64 / requests / 1e3, "us");
        }
        if let (Some(t), Some(u)) = (traced.median(), untraced.median()) {
            self.metrics.set("trace.overhead_us", t - u, "us");
            self.metrics
                .set("trace.overhead_frac", (t - u) / u, "ratio");
            self.notes.push(format!(
                "trace overhead: traced p50 {t:.1} us over {} requests, untraced p50 {u:.1} us over {}",
                traced.len(),
                untraced.len()
            ));
        }
        let path = work_dir()?.join(format!("trace-{}.tsv", args.workload));
        std::fs::write(&path, tracer.to_tsv()).map_err(|e| format!("{}: {e}", path.display()))?;
        self.notes
            .push(format!("spans written to {}", path.display()));
        Ok(())
    }
}

fn is_end_to_end(name: &str) -> bool {
    crate::END_TO_END.iter().any(|&(n, _)| n == name)
}

/// The directory runs write to (durable state, span dumps): under the
/// current directory, which is the checkout the benchmark runs in.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".perfbench_work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A query plan compiled from scratch, bypassing the process-wide plan and
/// translation caches — what a freshly started process pays.  Returns the
/// plan and the nanoseconds spent in translation and in the whole compile.
pub fn compile_plan(query: &StepwiseTva, alphabet_len: usize) -> (Arc<QueryPlan>, u64, u64) {
    let start = Instant::now();
    let translated = translate_stepwise(query, alphabet_len);
    let translate_ns = start.elapsed().as_nanos() as u64;
    let plan = Arc::new(QueryPlan::build(Arc::new(translated)));
    (plan, translate_ns, start.elapsed().as_nanos() as u64)
}

/// The splitmix64 finaliser: a well-mixed 64-bit function of `x`.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The op-stream seed of segment `segment` of a run whose stream seed is
/// `seed`: every segment edits with a stream of its own.
pub fn segment_seed(seed: u64, segment: usize) -> u64 {
    mix64(seed).wrapping_add(segment as u64)
}

/// What one set-up spent in each layer, in nanoseconds.
#[derive(Clone, Copy, Default)]
pub struct SetupCost {
    pub translate_ns: u64,
    /// Translation plus plan build, for every compiled query.
    pub compile_ns: u64,
    /// Engine (or server) construction.
    pub build_ns: u64,
    pub register_ns: u64,
}

/// Set-up costs over the segments, reported as medians.
#[derive(Default)]
pub struct SetupLayers {
    translate: Samples,
    compile: Samples,
    build: Samples,
    register: Samples,
}

impl SetupLayers {
    pub fn push(&mut self, c: SetupCost) {
        self.translate.push(c.translate_ns as f64 / 1e6);
        self.compile.push(c.compile_ns as f64 / 1e6);
        self.build.push(c.build_ns as f64 / 1e6);
        self.register.push(c.register_ns as f64 / 1e6);
    }

    pub fn report(&mut self, out: &mut Outcome) {
        let mut put = |name: &str, s: &mut Samples| {
            out.metrics
                .set(name, s.median().expect("one set-up per segment"), "ms");
        };
        put("automata.translate_ms", &mut self.translate);
        put("automata.compile_ms", &mut self.compile);
        put("core.build_ms", &mut self.build);
        put("serve.register_ms", &mut self.register);
    }
}

/// A non-durable one-shard server and the ids of its queries, primary
/// first.
pub struct ServerSetup {
    pub server: TreeServer,
    pub ids: Vec<QueryId>,
    pub cost: SetupCost,
}

/// A server over `tree` with the primary query plus `extra` registered,
/// every plan compiled from scratch.
pub fn build_server(
    tree: &UnrankedTree,
    primary: &(StepwiseTva, usize),
    extra: &[StepwiseTva],
) -> Result<ServerSetup, String> {
    let tree = tree.clone();
    let (plan, translate_ns, compile_ns) = compile_plan(&primary.0, primary.1);
    let start = Instant::now();
    let server = TreeServer::with_plan(vec![tree], plan, ServeConfig::default());
    let build_ns = start.elapsed().as_nanos() as u64;
    let mut ids = vec![QueryId::PRIMARY];
    let start = Instant::now();
    for q in extra {
        let reg = server
            .register(q, primary.1)
            .map_err(|e| format!("register: {e}"))?;
        ids.push(reg.id);
    }
    let register_ns = start.elapsed().as_nanos() as u64;
    let cost = SetupCost {
        translate_ns,
        compile_ns: compile_ns + server.registry_stats().compile_ns_total,
        build_ns,
        register_ns,
    };
    Ok(ServerSetup { server, ids, cost })
}

/// Makes a server ready to serve: one op per flush, so that both
/// publication sides build the registered queries' engines now rather than
/// in the first timed flushes.
pub fn warm_server(server: &TreeServer, ops: &[EditOp]) -> Result<(), String> {
    for &op in ops {
        server
            .ingest(0, op)
            .map_err(|e| format!("warm-up ingest: {e}"))?;
        server.flush(0).map_err(|e| format!("warm-up flush: {e}"))?;
    }
    Ok(())
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
