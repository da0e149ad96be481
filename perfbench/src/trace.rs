//! Traced-run plumbing: an in-memory span recorder and a counting global
//! allocator.
//!
//! Spans are recorded only from the benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the crates is
//! instrumented.  A span holds a name, its layer, start and end, the span
//! that encloses it and the id of the request (edit round, read, commit) it
//! belongs to.  Spans stay in memory and are written out when the run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations (and reallocations) while
/// counting is switched on.  Off, it costs one relaxed load per call.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a relaxed
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // always allocates through `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; `ptr` came from `System` (see `dealloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off for the whole process.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far (all threads).
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The layers spans are attributed to, in report order.  `bench` is the
/// benchmark's own code: a request span's time not covered by its children.
pub const LAYERS: [&str; 7] = [
    "bench",
    "automata",
    "balance",
    "core",
    "enumeration",
    "serve",
    "wal",
];

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// In-memory span recorder for one (single-threaded) request loop.
///
/// When disabled (untraced runs, or the untraced half of a traced run)
/// [`Tracer::span`] just calls its closure.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled tracing inside a span");
        self.enabled = on;
    }

    /// Starts a new request: later spans carry its id.
    pub fn begin_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of layer `layer`, returning `f`'s
    /// result and the span's duration in nanoseconds (0 when disabled).
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        if !self.enabled {
            return (f(self), 0);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx as usize].end_ns = end_ns;
        (r, end_ns - start_ns)
    }

    /// Records a span measured elsewhere (for example a writer-side duration
    /// the server reports) as a child of the innermost open span, ending now.
    pub fn record(&mut self, layer: &'static str, name: &'static str, nanos: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: end_ns.saturating_sub(nanos),
            end_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            request: self.request,
        });
    }

    /// Number of distinct requests that recorded at least one span.
    pub fn traced_requests(&self) -> usize {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.request).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Self time per layer in nanoseconds, summed over all spans: a span's
    /// duration minus the part of it its child spans cover (children of one
    /// span never overlap, the recorder being single-threaded; a recorded
    /// span is clamped to its parent).
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &self.spans[s.parent as usize];
                let covered = s
                    .end_ns
                    .min(p.end_ns)
                    .saturating_sub(s.start_ns.max(p.start_ns));
                child_ns[s.parent as usize] += covered;
            }
        }
        let mut by_layer: Vec<(&'static str, u64)> = LAYERS.iter().map(|&l| (l, 0)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            let slot = by_layer
                .iter_mut()
                .find(|(l, _)| *l == s.layer)
                .unwrap_or_else(|| panic!("span {} has unknown layer {}", s.name, s.layer));
            slot.1 += own;
        }
        by_layer
    }

    /// The spans as tab-separated text: index, parent, request, layer,
    /// name, start and end in nanoseconds since the recorder was created.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("span\tparent\trequest\tlayer\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.request, s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.begin_request(1);
        let ((), outer) = t.span("bench", "round", |t| {
            spin(200_000);
            t.span("core", "apply", |_| spin(300_000));
            t.record("serve", "flush", 100_000);
        });
        let by_layer = t.self_time_by_layer();
        let get = |l: &str| by_layer.iter().find(|(n, _)| *n == l).unwrap().1;
        assert!(get("core") >= 300_000);
        assert_eq!(get("serve"), 100_000);
        assert_eq!(get("bench") + get("core") + get("serve"), outer);
        assert_eq!(t.traced_requests(), 1);
        assert_eq!(t.to_tsv().lines().count(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, ns) = t.span("core", "apply", |_| 7);
        assert_eq!((v, ns), (7, 0));
        t.record("serve", "flush", 10);
        assert_eq!(t.traced_requests(), 0);
    }
}
