//! The closed-loop load generator, counter deltas and the result line
//! shared by the workloads.

use crate::{stats, trace};
use mix_obs::{HistSnapshot, Registry, Snapshot};
use std::collections::BTreeMap;
use std::time::Instant;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The processor count the load and the daemons are sized to.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One measured window of a closed loop.
#[derive(Default)]
pub struct Window {
    /// Latency of every completed operation, ms, in completion order.
    pub latencies_ms: Vec<f64>,
    /// When each of those operations completed, seconds into the window.
    pub ends_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub seconds: f64,
}

impl Window {
    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.seconds
    }

    fn absorb(&mut self, w: Window) {
        self.latencies_ms.extend(w.latencies_ms);
        self.ends_s.extend(w.ends_s);
        self.attempted += w.attempted;
        self.failed += w.failed;
        self.seconds += w.seconds;
    }
}

/// What the traced run's windows produced.
pub struct TracedRun {
    pub plain: Window,
    pub traced: Window,
    /// Counter and histogram growth over the traced windows.
    pub delta: Delta,
    /// Counters after the last window.
    pub end: Counters,
    /// The traced windows, on the benchmark's clock.
    pub windows: Vec<(u64, u64)>,
    pub spans: Vec<trace::Span>,
    pub obs: Vec<trace::ObsSpan>,
    /// Spans the `mix_obs` ring dropped before a drain saw them.
    pub lost: u64,
    notes: Vec<String>,
}

/// The traced run: four windows of `seconds / 4` over one fixture,
/// untraced and traced in turn (their throughput difference is the
/// tracing overhead), while `ring`'s span ring is drained. `window(i,
/// seconds)` measures one window. The spans are written out at the end.
pub fn traced_run(
    args: &Args,
    ring: &Registry,
    registries: &[&Registry],
    mut window: impl FnMut(u64, f64) -> Window,
) -> TracedRun {
    let mut collector = trace::ObsCollector::new(ring);
    let (mut plain, mut traced) = (Window::default(), Window::default());
    let mut delta = Delta::default();
    let mut windows = Vec::new();
    trace::take();
    trace::draining(&mut collector, || {
        for phase in 0..4u64 {
            let on = phase % 2 == 1;
            let before = Counters::read(registries);
            trace::set_enabled(on);
            let t0 = trace::now_ns();
            let w = window(phase, args.seconds / 4.0);
            let t1 = trace::now_ns();
            trace::set_enabled(false);
            if on {
                delta.add(&before, &Counters::read(registries));
                windows.push((t0, t1));
                traced.absorb(w);
            } else {
                plain.absorb(w);
            }
        }
    });
    let end = Counters::read(registries);
    let spans = trace::take();
    let (obs, lost) = collector.finish();
    let path = format!(
        ".bench_work/traces/{}-seed{}.jsonl",
        args.workload, args.seed
    );
    if let Err(e) = trace::write_out(std::path::Path::new(&path), &spans, &obs) {
        eprintln!("perfbench: could not write {path}: {e}");
    }
    let notes = vec![
        format!(
            "traced run: {} traced and {} untraced operations; spans written to {path}",
            traced.attempted, plain.attempted
        ),
        format!(
            "ops/s untraced {} traced {}",
            plain.ops_per_s(),
            traced.ops_per_s()
        ),
    ];
    TracedRun {
        plain,
        traced,
        delta,
        end,
        windows,
        spans,
        obs,
        lost,
        notes,
    }
}

impl TracedRun {
    pub fn overhead_pct(&self) -> f64 {
        (1.0 - self.traced.ops_per_s() / self.plain.ops_per_s()) * 100.0
    }

    pub fn report(self, metrics: Vec<Metric>) -> Report {
        let attempted = self.plain.attempted + self.traced.attempted;
        let failed = self.plain.failed + self.traced.failed;
        let mut notes = self.notes;
        notes.push(format!(
            "error_rate {} over both windows",
            ratio(failed, attempted)
        ));
        Report {
            attempted,
            failed,
            metrics,
            notes,
        }
    }
}

/// Runs `clients` closed-loop clients for `seconds`: each sends its next
/// operation only after the previous one completed. `client(i)` builds
/// client `i`'s operation, which takes the operation's sequence number
/// and returns its latency in ns and whether its answer was correct.
pub fn closed_loop<F, C>(clients: usize, seconds: f64, client: F) -> Window
where
    F: Fn(usize) -> C + Sync,
    C: FnMut(u64) -> (u64, bool),
{
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<(f64, f64)>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let client = &client;
                scope.spawn(move || {
                    let mut op = client(i);
                    let (mut done, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
                    while Instant::now() < deadline {
                        let (ns, ok) = op(attempted);
                        attempted += 1;
                        if !ok {
                            failed += 1;
                        }
                        done.push((start.elapsed().as_secs_f64(), ns as f64 / 1e6));
                    }
                    (done, attempted, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut w = Window {
        seconds: start.elapsed().as_secs_f64(),
        ..Window::default()
    };
    let mut done = Vec::new();
    for (d, a, f) in per_client {
        done.extend(d);
        w.attempted += a;
        w.failed += f;
    }
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    (w.ends_s, w.latencies_ms) = done.into_iter().unzip();
    w
}

/// A stretch of consecutive completions inside one measuring process.
struct Slice {
    ops: usize,
    seconds: f64,
    latencies_ms: Vec<f64>,
}

/// Slices last at least this long and hold at least [`SLICE_MIN_OPS`]
/// operations.
const SLICE_S: f64 = 0.5;
const SLICE_MIN_OPS: usize = 4;

/// Share of a run's slices, the fastest, that the end-to-end metrics
/// come from.
const FAST_SHARE: f64 = 0.25;

/// Cuts a window into slices of equal operation counts. A slice's time
/// runs from the previous slice's last completion to its own last one.
fn slices(w: &Window) -> Vec<Slice> {
    let n = w.ends_s.len();
    let count = ((w.seconds / SLICE_S) as usize)
        .min(n / SLICE_MIN_OPS)
        .max(1);
    let mut out = Vec::with_capacity(count);
    let mut from = (0, 0.0);
    for k in 1..=count {
        let to = n * k / count;
        if to == from.0 {
            continue;
        }
        let end = w.ends_s[to - 1];
        out.push(Slice {
            ops: to - from.0,
            seconds: end - from.1,
            latencies_ms: w.latencies_ms[from.0..to].to_vec(),
        });
        from = (to, end);
    }
    out
}

/// What a workload run produces: the raw measured window, or the traced
/// run's per-layer report.
pub enum Outcome {
    Measured { setup_s: Vec<f64>, window: Window },
    Traced(Report),
}

fn floats(v: &[f64]) -> String {
    v.iter().map(f64::to_string).collect::<Vec<_>>().join(",")
}

/// One measuring process's result, as the line it prints for the parent.
pub fn worker_line(setup_s: &[f64], w: &Window) -> String {
    format!(
        "WORKER setup={} attempted={} failed={} seconds={} rss={} lat={} end={}",
        floats(setup_s),
        w.attempted,
        w.failed,
        w.seconds,
        peak_rss_mb(),
        floats(&w.latencies_ms),
        floats(&w.ends_s)
    )
}

/// Parses a [`worker_line`] back into set-up times, window and peak RSS.
pub fn parse_worker_line(line: &str) -> Result<(Vec<f64>, Window, f64), String> {
    let body = line.strip_prefix("WORKER ").ok_or("not a worker line")?;
    let mut w = Window::default();
    let (mut setup, mut rss) = (Vec::new(), 0.0);
    let list = |v: &str| -> Result<Vec<f64>, String> {
        v.split(',')
            .filter(|x| !x.is_empty())
            .map(|x| x.parse::<f64>().map_err(|e| format!("{x}: {e}")))
            .collect()
    };
    for field in body.split(' ') {
        let (k, v) = field.split_once('=').ok_or("malformed worker field")?;
        let bad = |e: String| format!("worker {k}: {e}");
        match k {
            "setup" => setup = list(v).map_err(bad)?,
            "attempted" => w.attempted = v.parse().map_err(|e| bad(format!("{e}")))?,
            "failed" => w.failed = v.parse().map_err(|e| bad(format!("{e}")))?,
            "seconds" => w.seconds = v.parse().map_err(|e| bad(format!("{e}")))?,
            "rss" => rss = v.parse().map_err(|e| bad(format!("{e}")))?,
            "lat" => w.latencies_ms = list(v).map_err(bad)?,
            "end" => w.ends_s = list(v).map_err(bad)?,
            _ => return Err(format!("unknown worker field {k}")),
        }
    }
    if w.ends_s.len() != w.latencies_ms.len() {
        return Err("worker latencies and completion times differ in number".into());
    }
    Ok((setup, w, rss))
}

/// The merged instrument state of several registries.
pub struct Counters {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl Counters {
    pub fn read(registries: &[&Registry]) -> Counters {
        let mut snap = Snapshot::default();
        for r in registries {
            let mut s = r.snapshot();
            s.spans.clear();
            s.events.clear();
            snap = snap.merge(&s);
        }
        Counters {
            counters: snap.counters,
            gauges: snap.gauges,
            histograms: snap.histograms,
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Counter and histogram growth between two readings, accumulated over
/// several windows.
#[derive(Default)]
pub struct Delta {
    counters: BTreeMap<String, u64>,
    hist_buckets: BTreeMap<String, BTreeMap<u64, u64>>,
}

impl Delta {
    pub fn add(&mut self, before: &Counters, after: &Counters) {
        for (k, v) in &after.counters {
            let d = v.saturating_sub(before.counters.get(k).copied().unwrap_or(0));
            *self.counters.entry(k.clone()).or_insert(0) += d;
        }
        for (k, h) in &after.histograms {
            let prior: BTreeMap<u64, u64> = before
                .histograms
                .get(k)
                .map(|b| b.buckets.iter().copied().collect())
                .unwrap_or_default();
            let acc = self.hist_buckets.entry(k.clone()).or_default();
            for &(le, n) in &h.buckets {
                *acc.entry(le).or_insert(0) +=
                    n.saturating_sub(prior.get(&le).copied().unwrap_or(0));
            }
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Observations added to every histogram whose name starts with
    /// `prefix`.
    pub fn hist_count(&self, prefix: &str) -> u64 {
        self.hist_buckets
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .flat_map(|(_, b)| b.values())
            .sum()
    }

    /// Interpolated median of a histogram's growth, in the histogram's
    /// unit.
    pub fn hist_p50(&self, name: &str) -> f64 {
        self.hist_buckets.get(name).map_or(0.0, |b| {
            stats::hist_p50(&b.iter().map(|(&le, &n)| (le, n)).collect::<Vec<_>>())
        })
    }
}

/// `num / den`, 0 when nothing happened.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The process's peak resident set (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a run prints.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// The end-to-end report of a measured run made of several measuring
    /// processes spread over the run. The shared host's speed swings by
    /// tens of percent over seconds, and outside load only ever slows the
    /// program. So each process's window is cut into slices of about half
    /// a second, and throughput, median and tail come from the fastest
    /// quarter of all slices pooled: the program's speed when the host
    /// lets it run. The tail is the pooled p99 when at least ten samples
    /// lie beyond it, else the highest percentile that has ten beyond.
    pub fn end_to_end(setup_s: &[f64], processes: &[Window], peak_rss_mb: f64) -> Report {
        let mut all: Vec<Slice> = processes.iter().flat_map(slices).collect();
        let rate = |s: &Slice| s.ops as f64 / s.seconds.max(1e-9);
        all.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
        let keep = ((all.len() as f64 * FAST_SHARE).ceil() as usize).max(1);
        let fast = &all[..keep.min(all.len())];
        let ops: usize = fast.iter().map(|s| s.ops).sum();
        let seconds: f64 = fast.iter().map(|s| s.seconds).sum();
        let ops_per_s = ops as f64 / seconds.max(1e-9);
        let mut sorted: Vec<f64> = fast.iter().flat_map(|s| s.latencies_ms.clone()).collect();
        sorted.sort_by(f64::total_cmp);
        let p50 = stats::nearest_rank(&sorted, 50.0).map_or(0.0, |(x, _)| x);
        let (tail_p, tail) = stats::p99_or_supported(&sorted).unwrap_or((99.0, 0.0));
        let per_ops: Vec<f64> = processes.iter().map(Window::ops_per_s).collect();
        let attempted: u64 = processes.iter().map(|w| w.attempted).sum();
        let failed: u64 = processes.iter().map(|w| w.failed).sum();
        let error_rate = ratio(failed, attempted);
        let mut notes = vec![
            format!(
                "operations: {attempted} attempted, {failed} failed, error_rate {error_rate} (wrong answers count as failures)"
            ),
            format!(
                "latency samples: {} in the fastest {keep} of {} slices; op_p99_ms is their p{tail_p}",
                sorted.len(),
                all.len()
            ),
            format!(
                "slice ops/s fastest {:?} median {:?} slowest {:?}",
                all.first().map(rate),
                all.get(all.len() / 2).map(rate),
                all.last().map(rate)
            ),
            format!("ops_per_s per whole process window: {per_ops:?}"),
            format!("setup_s over {} set-ups: {setup_s:?}", setup_s.len()),
        ];
        if tail_p < 99.0 {
            notes.push(format!(
                "warning: {} samples do not support p99; op_p99_ms reports p{tail_p}",
                sorted.len()
            ));
        }
        Report {
            attempted,
            failed,
            metrics: vec![
                metric("setup_s", "s", stats::p50(setup_s)),
                metric("ops_per_s", "1/s", ops_per_s),
                metric("op_p50_ms", "ms", p50),
                metric("op_p99_ms", "ms", tail),
                metric("peak_rss_mb", "MB", peak_rss_mb),
            ],
            notes,
        }
    }

    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for m in &self.metrics {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-client window: `fast` ops of 1 ms, then `slow` of 4 ms.
    fn window(fast: usize, slow: usize) -> Window {
        let mut w = Window::default();
        let mut t = 0.0;
        for ms in std::iter::repeat(1.0)
            .take(fast)
            .chain(std::iter::repeat(4.0).take(slow))
        {
            t += ms / 1e3;
            w.latencies_ms.push(ms);
            w.ends_s.push(t);
        }
        w.attempted = (fast + slow) as u64;
        // the deadline passes a little after the last completion
        w.seconds = t + 0.01;
        w
    }

    #[test]
    fn slices_split_completions_evenly_and_cover_the_window() {
        let w = window(2000, 500);
        let s = slices(&w);
        assert_eq!(s.len(), 8);
        assert_eq!(s.iter().map(|s| s.ops).sum::<usize>(), 2500);
        let covered: f64 = s.iter().map(|s| s.seconds).sum();
        assert!((covered - w.ends_s[2499]).abs() < 1e-9, "{covered}");
        // a window too short for two slices is one slice
        assert_eq!(slices(&window(3, 0)).len(), 1);
        assert!(slices(&Window::default()).is_empty());
    }

    #[test]
    fn end_to_end_reports_the_fastest_quarter_of_slices() {
        // half the time at 1 ms per op, half at 4 ms, over two processes
        let r = Report::end_to_end(&[0.5, 0.25], &[window(2000, 500), window(500, 0)], 10.0);
        let get = |n: &str| r.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert!(
            (get("ops_per_s") - 1000.0).abs() < 1.0,
            "{}",
            get("ops_per_s")
        );
        assert_eq!(get("op_p50_ms"), 1.0);
        assert_eq!(get("op_p99_ms"), 1.0);
        assert_eq!(get("setup_s"), 0.25);
        assert_eq!(r.attempted, 3000);
    }
}
