//! What every workload shares: the seeded generator, the process clocks,
//! the order statistics, the round loop and the span recorder.

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only randomness, so the same `--seed` gives
/// the same inputs on every machine and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named part of the input, independent of how
    /// many draws the other parts make.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-32 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds of the whole process (all threads, living or
/// joined), so wall time bought with extra cores shows. `/proc/self/stat`
/// has the same sum in 10 ms ticks, too coarse for a round of half a second.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and keeps nothing; `ts` is a live, writable value of that
    // layout on 64-bit Linux (two 64-bit integers), the only platform this
    // benchmark runs on (it reads /proc).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value");
    kb / 1024.0
}

/// The `q`-quantile (nearest rank) of an unsorted sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// One recorded span: a call into a layer, or the benchmark's own unit
/// around such calls. `parent` indexes the span that caused it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The window, pass or query this span belongs to.
    pub op: u64,
}

/// In-memory span recorder. Disabled, `begin`/`end` cost one branch, so the
/// untraced run measures the program and not the recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` while tracing is off).
pub type SpanId = Option<u32>;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        if on && self.spans.capacity() == 0 {
            // Room for the busiest workload's spans, so that recording
            // never stops to move them.
            self.spans.reserve(1 << 18);
        }
        self.enabled = on;
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        Some(self.spans.len() as u32 - 1)
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of durations and number of spans called `name`.
    pub fn total_ns(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, n), s| (t + (s.end_ns - s.start_ns), n + 1))
    }

    /// Self time of the spans called `name`: their duration minus the part
    /// their child spans cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut own = vec![0i64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let d = (s.end_ns - s.start_ns) as i64;
            own[i] += d;
            if let Some(p) = s.parent {
                own[p as usize] -= d;
            }
        }
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &o)| o.max(0) as u64)
            .sum()
    }

    /// Writes the spans as one JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// What one round of a workload did.
pub struct RoundResult {
    /// Operations (packets or queries) completed.
    pub ops: u64,
    /// Operations whose output failed verification.
    pub failed: u64,
}

/// A workload after set-up: it can run one more round of fixed size. A
/// round appends the wall time of each of its timed units to `unit_ms`.
pub trait Workload {
    fn round(&mut self, tracer: &mut Tracer, unit_ms: &mut Vec<f64>) -> RoundResult;

    /// Starts the count of bytes leaving the process; the measured phase
    /// calls it before its first round.
    fn mark_bytes(&mut self);

    /// Bytes that have left the process since [`Self::mark_bytes`]. Each
    /// workload says what that means for it.
    fn bytes_since_mark(&self) -> f64;

    /// Checks over the whole run's output, after the last round. Returns
    /// one line per check that failed.
    fn verify_end(&mut self) -> Vec<String>;

    /// The per-layer metrics: reads the recorded spans, runs the isolation
    /// phases (one layer's public function at a time over the same inputs)
    /// and prints the budget table.
    fn layer_metrics(
        &mut self,
        tracer: &Tracer,
        plain: &Measured,
        traced: &Measured,
        m: &mut crate::metrics::Metrics,
    );
}

/// A run of whole rounds.
#[derive(Default)]
pub struct Measured {
    pub rounds: usize,
    pub ops: u64,
    pub failed: u64,
    /// Operations per second of each round.
    pub round_rates: Vec<f64>,
    /// Median and 90th percentile of each round's timed units, in ms.
    pub round_p50_ms: Vec<f64>,
    pub round_p90_ms: Vec<f64>,
    /// CPU microseconds per operation of each round.
    pub round_cpu_us: Vec<f64>,
    /// Timed units over all rounds.
    pub units: usize,
    /// The counts, read when round `checkpoint` ended (or the last round,
    /// if fewer ran): operations so far, bytes that left the process, and
    /// `VmHWM`. Reading them after a fixed amount of work makes them the
    /// same for the same seed however far a run gets in its seconds, and
    /// keeps a faster program from reporting more memory only because it
    /// got further.
    pub checkpoint_ops: u64,
    pub checkpoint_bytes: f64,
    pub peak_rss_mb: f64,
}

impl Measured {
    fn run_round<W: Workload + ?Sized>(&mut self, w: &mut W, tracer: &mut Tracer) {
        let mut unit_ms = Vec::new();
        let cpu0 = cpu_seconds();
        let r = w.round(tracer, &mut unit_ms);
        self.round_cpu_us
            .push((cpu_seconds() - cpu0) * 1e6 / r.ops as f64);
        // A round's time is the sum of its timed units: verification
        // between units is not the program's work.
        let round_s: f64 = unit_ms.iter().sum::<f64>() / 1e3;
        self.round_rates.push(r.ops as f64 / round_s);
        self.round_p50_ms.push(median(&unit_ms));
        self.round_p90_ms.push(quantile(&unit_ms, 0.9));
        self.units += unit_ms.len();
        self.ops += r.ops;
        self.failed += r.failed;
        self.rounds += 1;
    }
}

/// Fewest rounds a measured phase may have: a median needs three.
const MIN_ROUNDS: usize = 3;

/// The measured phase of an untraced run: whole rounds until `seconds`
/// have passed.
pub fn measure<W: Workload + ?Sized>(
    w: &mut W,
    tracer: &mut Tracer,
    seconds: f64,
    checkpoint: usize,
) -> Measured {
    let mut m = Measured::default();
    let budget = Duration::from_secs_f64(seconds);
    w.mark_bytes();
    let start = Instant::now();
    while m.rounds < MIN_ROUNDS || start.elapsed() < budget {
        m.run_round(w, tracer);
        if m.rounds <= checkpoint {
            m.checkpoint_ops = m.ops;
            m.checkpoint_bytes = w.bytes_since_mark();
            m.peak_rss_mb = peak_rss_mb();
        }
    }
    m
}

/// Rounds recorded with spans in a traced run, each paired with an
/// untraced round; the order within a pair alternates, so that neither
/// drift nor a workload whose consecutive rounds differ favours one side of
/// the overhead figure.
pub const TRACED_ROUNDS: usize = 5;

/// The measured phase of a traced run: alternating untraced and traced
/// rounds, at most [`TRACED_ROUNDS`] pairs and, past the third pair, no
/// longer than `seconds`.
pub fn measure_pairs<W: Workload + ?Sized>(
    w: &mut W,
    tracer: &mut Tracer,
    seconds: f64,
) -> (Measured, Measured) {
    let (mut plain, mut traced) = (Measured::default(), Measured::default());
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while traced.rounds < TRACED_ROUNDS && (traced.rounds < MIN_ROUNDS || start.elapsed() < budget)
    {
        for traced_turn in [traced.rounds % 2 == 1, traced.rounds % 2 == 0] {
            tracer.set_enabled(traced_turn);
            if traced_turn {
                traced.run_round(w, tracer);
            } else {
                plain.run_round(w, tracer);
            }
        }
    }
    tracer.set_enabled(false);
    (plain, traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_forks_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::fork(7, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(7, 2).next_u64());
        let mut r = Rng::fork(1, 0);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, sorted);
    }

    #[test]
    fn order_statistics() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let root = t.begin("op", None, 0);
        let child = t.begin("layer", root, 0);
        std::thread::sleep(Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let (layer, n) = t.total_ns("layer");
        assert_eq!(n, 1);
        let (op, _) = t.total_ns("op");
        assert_eq!(t.self_ns("op"), op - layer);
        assert_eq!(t.self_ns("layer"), layer);
    }

    #[test]
    fn process_clocks_read() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
