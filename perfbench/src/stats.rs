//! Sample statistics and the metric table a run prints.

/// Fewest samples that must lie strictly beyond a percentile for it to be
/// reported: a tail figure backed by fewer is noise, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// A set of timing samples (or any other per-event values).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The median (mean of the two middle values for an even count); `None`
    /// only when there are no samples.
    pub fn median(&mut self) -> Option<f64> {
        self.sort();
        let n = self.values.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.values[n / 2]),
            _ => Some((self.values[n / 2 - 1] + self.values[n / 2]) / 2.0),
        }
    }

    /// The nearest-rank `p`-th percentile (`0 < p < 100`), refused (`None`)
    /// when fewer than [`MIN_BEYOND`] samples lie above its rank.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p < 100.0, "percentile out of range: {p}");
        self.sort();
        let n = self.values.len();
        if n == 0 {
            return None;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let rank = rank.clamp(1, n);
        let beyond = n - rank;
        (beyond >= MIN_BEYOND).then(|| self.values[rank - 1])
    }

    /// The nearest-rank `p`-th percentile (`0 < p <= 50`) of any non-empty
    /// set: a low figure, which a slow outlier cannot move.
    pub fn low(&mut self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p <= 50.0, "a low percentile: {p}");
        self.sort();
        let n = self.values.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (n > 0).then(|| self.values[rank.clamp(1, n) - 1])
    }

    /// The mirror of [`Samples::low`]: the value with as many samples above
    /// it as [`Samples::low`] has below.
    pub fn high(&mut self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p <= 50.0, "a low percentile: {p}");
        self.sort();
        let n = self.values.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (n > 0).then(|| self.values[n - rank.clamp(1, n)])
    }
}

/// Requests cut, in the order they were measured, into consecutive windows
/// of `SIZE` requests.  Each full window contributes the median of its
/// request latencies (in µs) and its rate: the work its requests did (rounds,
/// ops, answers) per second of their summed latency.  A partial window at
/// the end is dropped.
///
/// The reference machine lends this process a share of a host whose other
/// tenants change its speed every second or so, by up to half: a run's
/// median over all requests mostly measures how much of the run fell in a
/// slow stretch.  A low percentile of the window medians (a high one of the
/// rates) measures the program in the run's quiet stretches instead, and
/// still moves one for one with the program's own cost.
#[derive(Clone, Debug, Default)]
pub struct Windows<const SIZE: usize> {
    open: Vec<f64>,
    open_work: f64,
    full: Vec<Window>,
}

#[derive(Clone, Debug)]
struct Window {
    median: f64,
    rate: f64,
    latencies: Vec<f64>,
}

impl<const SIZE: usize> Windows<SIZE> {
    /// Adds one request that took `latency_us` and did `work`.
    pub fn push(&mut self, latency_us: f64, work: f64) {
        self.open.push(latency_us);
        self.open_work += work;
        if self.open.len() == SIZE {
            let latencies = std::mem::take(&mut self.open);
            let mut sorted = Samples::new();
            latencies.iter().for_each(|&v| sorted.push(v));
            self.full.push(Window {
                median: sorted.median().expect("a full window"),
                rate: self.open_work / (latencies.iter().sum::<f64>() / 1e6),
                latencies,
            });
            self.open_work = 0.0;
        }
    }

    /// Full windows so far.
    pub fn len(&self) -> usize {
        self.full.len()
    }

    fn medians(&self) -> Samples {
        let mut m = Samples::new();
        self.full.iter().for_each(|w| m.push(w.median));
        m
    }

    /// The `p`-th percentile of the window medians, refused (`None`) below
    /// [`MIN_WINDOWS`] windows.
    pub fn low_median(&self, p: f64) -> Option<f64> {
        if self.len() < MIN_WINDOWS {
            return None;
        }
        self.medians().low(p)
    }

    /// The `(100 - p)`-th percentile of the window rates, refused (`None`)
    /// below [`MIN_WINDOWS`] windows.
    pub fn high_rate(&self, p: f64) -> Option<f64> {
        if self.len() < MIN_WINDOWS {
            return None;
        }
        let mut r = Samples::new();
        self.full.iter().for_each(|w| r.push(w.rate));
        r.high(p)
    }

    /// The `tail`-th percentile of the requests in the quieter half of the
    /// windows (those whose median is at most the median of medians),
    /// refused (`None`) below [`MIN_WINDOWS`] windows or as
    /// [`Samples::percentile`] refuses it.
    pub fn quiet_tail(&self, tail: f64) -> Option<f64> {
        let cut = self.low_median(50.0)?;
        let mut pooled = Samples::new();
        for w in self.full.iter().filter(|w| w.median <= cut) {
            w.latencies.iter().for_each(|&v| pooled.push(v));
        }
        pooled.percentile(tail)
    }
}

/// Fewest windows a low percentile of window medians is taken over.
pub const MIN_WINDOWS: usize = 50;

/// `failed / attempted`, the share of requests that failed.  A run attempts
/// at least one request, so the denominator is never zero.
pub fn failure_share(failed: u64, attempted: u64) -> f64 {
    assert!(attempted >= 1, "a run attempts at least one request");
    assert!(failed <= attempted, "more failures than attempts");
    failed as f64 / attempted as f64
}

/// `true` iff `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics one run reports, in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "illegal metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|e| e.1)
    }

    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// The metrics restricted to `declared` (name, unit) pairs, in declared
    /// order; a declared metric the run did not set is an error, as is a
    /// unit that differs from the declaration.
    pub fn select(&self, declared: &[(&str, &'static str)]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for &(name, unit) in declared {
            let Some((_, v, u)) = self.entries.iter().find(|(n, _, _)| n == name) else {
                return Err(format!("metric {name} was not measured"));
            };
            if *u != unit {
                return Err(format!("metric {name} measured in {u}, declared in {unit}"));
            }
            out.set(name, *v, unit);
        }
        Ok(out)
    }

    /// The `{"name": {"value": v, "unit": u}, ...}` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        for i in (1..=n).rev() {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond its rank: reported.
        assert_eq!(samples(1000).percentile(99.0), Some(990.0));
        // p99 of 999 samples has only 9 beyond: refused.
        assert_eq!(samples(999).percentile(99.0), None);
        // p95 needs 200 samples, p90 needs 100.
        assert_eq!(samples(200).percentile(95.0), Some(190.0));
        assert_eq!(samples(199).percentile(95.0), None);
        assert_eq!(samples(100).percentile(90.0), Some(90.0));
        assert_eq!(samples(99).percentile(90.0), None);
        // Even the median is refused below 20 samples.
        assert_eq!(samples(19).percentile(50.0), None);
        assert_eq!(samples(20).percentile(50.0), Some(10.0));
        assert_eq!(Samples::new().percentile(50.0), None);
    }

    #[test]
    fn low_percentile_of_any_nonempty_set() {
        assert_eq!(samples(10).low(10.0), Some(1.0));
        assert_eq!(samples(10).low(25.0), Some(3.0));
        assert_eq!(samples(1).low(10.0), Some(1.0));
        assert_eq!(Samples::new().low(10.0), None);
        assert_eq!(samples(10).high(10.0), Some(10.0));
        assert_eq!(samples(10).high(25.0), Some(8.0));
        assert_eq!(Samples::new().high(10.0), None);
    }

    #[test]
    fn median_of_any_nonempty_set() {
        assert_eq!(samples(3).median(), Some(2.0));
        assert_eq!(samples(4).median(), Some(2.5));
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn windows_take_a_low_percentile_of_their_medians() {
        let mut w = Windows::<3>::default();
        // Window k holds k, k + 100 and k + 200 µs, one unit of work each:
        // its median is k + 100, its rate 3 / (3k + 300) µs.
        for k in (1..=60).rev() {
            for v in [k, k + 200, k + 100] {
                w.push(v as f64, 1.0);
            }
        }
        w.push(1.0, 1.0); // a partial window, dropped
        assert_eq!(w.len(), 60);
        // p10 of the medians 101..=160 is the 6th smallest.
        assert_eq!(w.low_median(10.0), Some(106.0));
        assert_eq!(w.low_median(50.0), Some(130.0));
        // The rate mirrors it: the 6th highest is window 6's, 1/106 per µs.
        assert_eq!(w.high_rate(10.0), Some(1e6 / 106.0));
        // The quieter half is windows 1..=30 (medians up to 130): 90
        // requests, whose p80 (rank 72) is 212, with 18 beyond it.
        assert_eq!(w.quiet_tail(80.0), Some(212.0));
        // Their p95 has only 4 beyond it: refused.
        assert_eq!(w.quiet_tail(95.0), None);
    }

    #[test]
    fn windows_refuse_too_few() {
        let mut w = Windows::<2>::default();
        for v in 0..2 * (MIN_WINDOWS - 1) {
            w.push(v as f64, 1.0);
        }
        assert_eq!(w.low_median(10.0), None);
        assert_eq!(w.high_rate(10.0), None);
        w.push(0.0, 1.0);
        w.push(0.0, 1.0);
        // Medians 0, 0.5, 2.5, 4.5, 6.5, …: p10 of 50 is the 5th smallest.
        assert_eq!(w.low_median(10.0), Some(6.5));
    }

    #[test]
    fn metric_names_are_checked() {
        for good in [
            "setup_s",
            "latency_us.quiet_p50",
            "serve.page_us.first.p50",
            "9lives-x",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".p50", "_x", "a b", "a/b", "ms\"", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "illegal metric name")]
    fn setting_a_bad_name_panics() {
        Metrics::default().set("bad name", 1.0, "ms");
    }

    #[test]
    fn failure_share_is_against_attempts() {
        assert_eq!(failure_share(0, 7), 0.0);
        assert_eq!(failure_share(3, 12), 0.25);
        assert_eq!(failure_share(5, 5), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn failure_share_refuses_zero_attempts() {
        failure_share(0, 0);
    }

    #[test]
    fn select_requires_every_declared_metric() {
        let mut m = Metrics::default();
        m.set("a", 1.0, "ms");
        m.set("b", 2.0, "s");
        let sel = m.select(&[("b", "s")]).unwrap();
        assert_eq!(sel.entries().len(), 1);
        assert!(m.select(&[("c", "s")]).is_err());
        assert!(m.select(&[("a", "s")]).is_err());
        assert_eq!(sel.to_json(), "{\"b\": {\"value\": 2, \"unit\": \"s\"}}");
    }
}
