//! The repository's benchmark: four workloads that call the library crates
//! directly from one process, a correctness check on every repetition,
//! and a separate traced run that reports the per-layer ledger.
//!
//! ```text
//! perfbench --workload <essd-mix|ssd-gc|fleet-4k|serve-uds> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --workload <name> --record-digests
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! See `perfbench/README.md` for the workloads and the metric table.

mod alloc;
mod closed;
mod fleet;
mod host;
mod ledger;
mod serve;
mod span;

use std::path::{Path, PathBuf};
use std::time::Instant;

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;

/// Seeds map onto this many input sets, each with a recorded digest.
const INPUT_SETS: u64 = 32;
/// Fewest repetitions an untraced run measures, however long they take.
const MIN_REPS: usize = 3;
/// Recorded output digests: `<workload> <input set> <hex digest>` lines.
const DIGESTS: &str = include_str!("../digests.txt");
/// Where runs leave spans and sockets, relative to the checkout root.
const RUN_DIR: &str = ".bench_build/perfbench";

const WORKLOADS: [&str; 4] = ["essd-mix", "ssd-gc", "fleet-4k", "serve-uds"];

/// One measured repetition of a workload.
pub struct Rep {
    /// Set-up seconds, for workloads that set up once per repetition.
    pub setup_s: Option<f64>,
    pub wall_s: f64,
    pub ios: u64,
    pub failed: u64,
    pub digest: u64,
}

/// FNV-1a over everything a repetition simulated.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let rows: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", rows.join(", "))
    }
}

pub fn per(total: u64, n: u64) -> f64 {
    total as f64 / n.max(1) as f64
}

/// Median of `xs` (sorted in place); the mean of the middle pair when even.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
fn percentile_us(samples: &mut [u64], p: f64) -> f64 {
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1] as f64 / 1e3
}

/// The `p`-th percentile doorbell time of each driver job, averaged over
/// the jobs, in microseconds. Each job (one paper cell, one phase, one
/// fleet epoch) is its own latency population; pooling them would put
/// the median in the gap between populations.
fn rtt_us(rec: &mut span::Recording, p: f64) -> f64 {
    let mut bounds = rec.jobs.clone();
    if bounds.first() != Some(&0) {
        bounds.insert(0, 0);
    }
    bounds.push(rec.doorbell_ns.len());
    let per_job: Vec<f64> = bounds
        .windows(2)
        .filter(|w| w[1] > w[0])
        .map(|w| percentile_us(&mut rec.doorbell_ns[w[0]..w[1]], p))
        .collect();
    per_job.iter().sum::<f64>() / per_job.len() as f64
}

enum Workload {
    EssdMix(closed::EssdMix),
    SsdGc(Box<closed::SsdGc>),
    Fleet(fleet::Fleet),
    Serve(serve::Serve),
}

impl Workload {
    fn new(name: &str, input: u64, run_dir: &Path) -> Workload {
        match name {
            "essd-mix" => Workload::EssdMix(closed::EssdMix::new(input)),
            "ssd-gc" => Workload::SsdGc(Box::new(closed::SsdGc::new(input))),
            "fleet-4k" => Workload::Fleet(fleet::Fleet::new(fleet::config(
                input,
                fleet::TENANTS,
                fleet::DEVICES,
            ))),
            "serve-uds" => Workload::Serve(serve::Serve::new(input, serve::IOS, run_dir)),
            other => unreachable!("workload {other} was validated"),
        }
    }

    fn rep(&mut self) -> Result<Rep, String> {
        match self {
            Workload::EssdMix(w) => w.rep().map_err(|e| e.to_string()),
            Workload::SsdGc(w) => w.rep().map_err(|e| e.to_string()),
            Workload::Fleet(w) => w.rep(),
            Workload::Serve(w) => w.rep(),
        }
    }

    /// `(total, precondition)` seconds of the set-ups made before the
    /// first repetition (none for per-repetition set-ups).
    fn setups(&self) -> &[(f64, f64)] {
        match self {
            Workload::EssdMix(w) => &w.setups,
            Workload::SsdGc(w) => &w.setups,
            _ => &[],
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload")
        .ok_or("--workload is required")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let number = |flag: &str, default: &str| -> Result<f64, String> {
        let v = value(flag).unwrap_or(default);
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or(format!("{flag} expects a non-negative number, got {v:?}"))
    };
    let seed = value("--seed")
        .unwrap_or("0")
        .parse::<u64>()
        .map_err(|_| "--seed expects an unsigned integer".to_string())?;
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: number("--seconds", "10")?,
        trace,
        record_digests: args.iter().any(|a| a == "--record-digests"),
    })
}

fn recorded_digest(workload: &str, input: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, i, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && i.parse::<u64>().ok()? == input)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// The outcome of a run, printed as the last line of standard output.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Outcome {
    fn print(&self) {
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics.json()
        );
    }
}

/// Reports a failed check on standard error.
fn passes(check: Result<(), String>) -> bool {
    check.map_err(|e| eprintln!("perfbench: {e}")).is_ok()
}

/// Checks one repetition's digest against the recorded one.
fn check(workload: &str, input: u64, rep: &Rep) -> Result<(), String> {
    match recorded_digest(workload, input) {
        Some(d) if d == rep.digest => Ok(()),
        Some(d) => Err(format!(
            "{workload} input {input}: digest {:016x} differs from the recorded {d:016x}",
            rep.digest
        )),
        None => Err(format!("{workload} input {input}: no recorded digest")),
    }
}

fn untraced(args: &Args, input: u64, run_dir: &Path) -> Result<Outcome, String> {
    // Host times are stated at the reference kernel's nominal speed (see
    // `host`), each scaled by the speed sampled around it.
    let mut host = host::Reference::new();
    let (mut w, speed) = host.around(|| Workload::new(&args.workload, input, run_dir));
    let mut setups: Vec<f64> = w.setups().iter().map(|s| s.0 * speed).collect();
    let (mut walls, mut rates, mut p50s, mut p99s) = (vec![], vec![], vec![], vec![]);
    let mut raw_walls = vec![];
    let (mut attempted, mut failed) = (0, 0);
    let mut correct = true;
    span::set_mode(span::Mode::Clock);
    let started = Instant::now();
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        let (rep, speed) = host.around(|| w.rep());
        let rep = rep?;
        let mut rec = span::take();
        let matched = passes(check(&args.workload, input, &rep));
        correct &= matched;
        attempted += rep.ios + rep.failed;
        // A repetition whose output differs from the recorded one failed
        // every operation it ran.
        failed += if matched {
            rep.failed
        } else {
            rep.ios + rep.failed
        };
        setups.extend(rep.setup_s.map(|s| s * speed));
        raw_walls.push(rep.wall_s);
        walls.push(rep.wall_s * speed);
        rates.push(rep.ios as f64 / (rep.wall_s * speed));
        p50s.push(rtt_us(&mut rec, 50.0) * speed);
        p99s.push(rtt_us(&mut rec, 99.0) * speed);
    }
    span::set_mode(span::Mode::Off);
    eprintln!(
        "perfbench: {} {} repetition(s) in {:.2} s; host time {:.4} s per repetition \
         (median), reference kernel {:.3} ms (median of {} samples; nominal {:.3} ms)",
        args.workload,
        walls.len(),
        started.elapsed().as_secs_f64(),
        median(&mut raw_walls),
        median(&mut host.samples) * 1e3,
        host.samples.len(),
        host::NOMINAL_S * 1e3,
    );
    let mut m = Metrics::default();
    m.put("wall_s", median(&mut walls), "s");
    m.put("sim_ios_per_s", median(&mut rates), "1/s");
    m.put("setup_s", median(&mut setups), "s");
    let rss = uc_bench::peak_rss_bytes().ok_or("peak RSS is unavailable on this platform")?;
    m.put("peak_rss_mb", rss as f64 / 1e6, "MB");
    m.put("rtt_us_p50", median(&mut p50s), "us");
    m.put("rtt_us_p99", median(&mut p99s), "us");
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    })
}

/// The driver's and the doorbell seam's rows from a traced recording.
fn driver_rows(rec: &span::Recording, driver: &str, m: &mut Metrics) {
    let totals = span::totals(&rec.spans);
    let ios = rec.reqs.len() as u64;
    let driver = totals.get(driver).copied().unwrap_or_default();
    let doorbell = totals
        .get("blockdev.submit_batch")
        .copied()
        .unwrap_or_default();
    m.put(
        "workload.driver.self_ns_per_io",
        per(driver.self_ns, ios),
        "ns",
    );
    m.put(
        "blockdev.submit_batch.ns_per_io",
        per(doorbell.ns, ios),
        "ns",
    );
    m.put(
        "blockdev.submit_batch.allocs_per_io",
        per(doorbell.allocs, ios),
        "count",
    );
}

fn traced(args: &Args, input: u64, run_dir: &Path) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let [essd, _] = closed::essd_presets(input);
    let ssd = closed::ssd_preset(input);
    let mut w = Workload::new(&args.workload, input, run_dir);
    let precondition_s = {
        let mut pre: Vec<f64> = w.setups().iter().map(|s| s.1).collect();
        (!pre.is_empty()).then(|| median(&mut pre))
    };

    // Tracing overhead: the same repetition as the untraced run times it
    // (after one warm-up), then traced.
    let warm = w.rep()?;
    let mut correct = passes(check(&args.workload, input, &warm));
    span::set_mode(span::Mode::Clock);
    let plain = w.rep()?;
    span::set_mode(span::Mode::Off);
    correct &= passes(check(&args.workload, input, &plain));
    let (rep, rec, driver) = match &mut w {
        Workload::Fleet(f) => {
            let (rep, rec) = fleet::traced(f, &mut m)?;
            (rep, rec, "fleet.run_epoch")
        }
        _ => {
            let (rep, rec) = span::record(|| w.rep());
            (rep?, rec, "workload.driver")
        }
    };
    correct &= passes(check(&args.workload, input, &rep));
    m.put(
        "trace.wall_overhead_ratio",
        rep.wall_s / plain.wall_s,
        "ratio",
    );
    driver_rows(&rec, driver, &mut m);
    let replay_precondition_s = ledger::leaves(&rec, &essd, &ssd, &mut m);

    // The serve and fleet layers: this workload's own run when it has
    // them, otherwise a small probe of that subsystem.
    let probe_rec;
    let serve_rec = match &w {
        Workload::Serve(s) => {
            m.put("setup.precondition_ms", s.last_precondition_s * 1e3, "ms");
            &rec
        }
        _ => {
            let mut probe = serve::Serve::new(input, serve::PROBE_IOS, run_dir);
            let (probe_rep, r) = span::record(|| probe.rep());
            probe_rep?;
            probe_rec = r;
            &probe_rec
        }
    };
    let rtt = span::totals(&serve_rec.spans)["blockdev.submit_batch"];
    let (codec_ns, pool_ns) = ledger::serve_path(serve_rec, &essd, &mut m);
    m.put(
        "serve.loop.self_us_per_rtt",
        (per(rtt.ns, rtt.calls) - codec_ns - pool_ns) / 1e3,
        "us",
    );
    m.put("serve.allocs_per_rtt", per(rtt.allocs, rtt.calls), "count");
    if !matches!(w, Workload::Fleet(_)) {
        let mut probe = fleet::Fleet::new(fleet::config(
            input,
            fleet::PROBE_TENANTS,
            fleet::PROBE_DEVICES,
        ));
        fleet::traced(&mut probe, &mut m)?;
    }
    if !matches!(w, Workload::Serve(_)) {
        let s = precondition_s.unwrap_or(replay_precondition_s);
        m.put("setup.precondition_ms", s * 1e3, "ms");
    }

    let path = run_dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    span::write_spans(&path, &rec.spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        rec.spans.len(),
        path.display()
    );
    let attempted = [&warm, &plain, &rep].iter().map(|r| r.ios + r.failed).sum();
    Ok(Outcome {
        correct,
        attempted,
        failed: if correct {
            warm.failed + plain.failed + rep.failed
        } else {
            attempted
        },
        metrics: m,
    })
}

fn record_digests(workload: &str, run_dir: &Path) -> Result<(), String> {
    for input in 0..INPUT_SETS {
        let rep = Workload::new(workload, input, run_dir).rep()?;
        println!("{workload} {input} {:016x}", rep.digest);
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = PathBuf::from(RUN_DIR);
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: creating {}: {e}", run_dir.display());
        std::process::exit(1);
    }
    if args.record_digests {
        if let Err(e) = record_digests(&args.workload, &run_dir) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let input = args.seed % INPUT_SETS;
    let outcome = if args.trace {
        traced(&args, input, &run_dir)
    } else {
        untraced(&args, input, &run_dir)
    };
    match outcome {
        Ok(o) => {
            o.print();
            if !o.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
