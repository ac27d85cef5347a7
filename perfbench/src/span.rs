//! Host-time recording at layer boundaries, from outside the program.
//!
//! One recorder per thread, in one of three modes:
//!
//! * `Off` — nothing is recorded;
//! * `Clock` — every device doorbell's host time is kept, with the index
//!   where each driver job starts (the untraced run's `rtt_us_*` samples;
//!   two clock reads per doorbell);
//! * `Trace` — spans (name, start, end, parent, request id, allocations)
//!   are kept in memory, and every doorbelled request and completion
//!   latency is captured for the leaf-layer replay.
//!
//! The recorder's own allocations are measured and excluded from every
//! span's allocation count, so a span counts exactly what the layer did.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use uc_blockdev::{
    BlockDevice, CheckpointDevice, CheckpointError, Completion, DeviceCheckpoint, DeviceInfo,
    IoBatch, IoError, IoRequest, IoResult,
};
use uc_sim::{SimDuration, SimTime};

use crate::alloc;

/// What the recorder keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Off,
    Clock,
    Trace,
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The request the span served: the index of the doorbell's first
    /// request in the captured stream, or the job/epoch index for driver
    /// spans.
    pub req: u64,
    /// Allocations made while the span was open (children included).
    pub allocs: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything a recorder kept since its mode was last set.
#[derive(Debug, Default)]
pub struct Recording {
    pub doorbell_ns: Vec<u64>,
    /// Index into `doorbell_ns` where each driver job starts.
    pub jobs: Vec<usize>,
    pub spans: Vec<Span>,
    /// Every doorbelled request, in doorbell order.
    pub reqs: Vec<IoRequest>,
    /// `(first request, request count)` of every doorbell.
    pub doorbells: Vec<(usize, usize)>,
    /// Device latency of every completion, in doorbell order.
    pub latencies: Vec<SimDuration>,
}

struct Recorder {
    mode: Mode,
    epoch: Instant,
    open: Vec<(u32, u64)>,
    /// Allocations the recorder itself made while spans were open.
    own_allocs: u64,
    out: Recording,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        mode: Mode::Off,
        epoch: Instant::now(),
        open: Vec::new(),
        own_allocs: 0,
        out: Recording::default(),
    });
}

/// Switches this thread's recorder to `mode`, discarding what it held.
pub fn set_mode(mode: Mode) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.mode = mode;
        r.epoch = Instant::now();
        r.open.clear();
        r.own_allocs = 0;
        r.out = Recording::default();
    });
}

fn mode() -> Mode {
    REC.with(|r| r.borrow().mode)
}

/// Hands over what the recorder kept and clears it (the mode stays).
pub fn take() -> Recording {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().out))
}

/// Runs `f` with this thread's recorder tracing; returns its result and
/// what was recorded. The recorder is off afterwards.
pub fn record<T>(f: impl FnOnce() -> T) -> (T, Recording) {
    set_mode(Mode::Trace);
    let out = f();
    let rec = take();
    set_mode(Mode::Off);
    (out, rec)
}

/// Marks the start of a driver job: later doorbells belong to it.
pub fn job_start() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.mode != Mode::Off {
            let before = alloc::allocs();
            let at = r.out.doorbell_ns.len();
            r.out.jobs.push(at);
            r.own_allocs += alloc::allocs() - before;
        }
    });
}

/// Runs `f` inside a span named `name` when tracing; plain call otherwise.
pub fn scope<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    if mode() != Mode::Trace {
        return f();
    }
    let id = begin(name, req);
    let out = f();
    end(id);
    out
}

fn layer_allocs(r: &Recorder) -> u64 {
    alloc::allocs() - r.own_allocs
}

fn begin(name: &'static str, req: u64) -> u32 {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let before = alloc::allocs();
        let parent = r.open.last().map(|&(id, _)| id);
        let id = r.out.spans.len() as u32;
        r.out.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            req,
            allocs: 0,
        });
        r.open.push((id, 0));
        r.own_allocs += alloc::allocs() - before;
        let start_allocs = layer_allocs(&r);
        r.open.last_mut().expect("just pushed").1 = start_allocs;
        r.out.spans[id as usize].start_ns = r.epoch.elapsed().as_nanos() as u64;
        id
    })
}

fn end(id: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        let end_allocs = layer_allocs(&r);
        let (open_id, start_allocs) = r.open.pop().expect("span ends after it begins");
        debug_assert_eq!(open_id, id, "spans close in LIFO order");
        let span = &mut r.out.spans[id as usize];
        span.end_ns = end_ns;
        span.allocs = end_allocs - start_allocs;
    })
}

/// Records the captured stream of one traced doorbell.
fn capture(reqs: &[IoRequest], completions: &[Completion]) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let before = alloc::allocs();
        let first = r.out.reqs.len();
        r.out.doorbells.push((first, reqs.len()));
        r.out.reqs.extend_from_slice(reqs);
        r.out
            .latencies
            .extend(completions.iter().map(|c| c.latency()));
        r.own_allocs += alloc::allocs() - before;
    })
}

fn doorbell_clocked(ns: u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let before = alloc::allocs();
        r.out.doorbell_ns.push(ns);
        r.own_allocs += alloc::allocs() - before;
    });
}

/// A device wrapper that times every doorbell the program rings on it.
///
/// Behaviour is exactly the inner device's: every call forwards unchanged.
pub struct Probe<D>(pub D);

impl<D: BlockDevice> BlockDevice for Probe<D> {
    fn info(&self) -> DeviceInfo {
        self.0.info()
    }

    fn submit(&mut self, req: &IoRequest) -> IoResult {
        self.0.submit(req)
    }

    fn submit_batch(&mut self, batch: &IoBatch) -> Result<Vec<Completion>, IoError> {
        match mode() {
            Mode::Off => self.0.submit_batch(batch),
            Mode::Clock => {
                let t = Instant::now();
                let out = self.0.submit_batch(batch);
                doorbell_clocked(t.elapsed().as_nanos() as u64);
                out
            }
            Mode::Trace => {
                let first = REC.with(|r| r.borrow().out.reqs.len()) as u64;
                let id = begin("blockdev.submit_batch", first);
                let out = self.0.submit_batch(batch);
                end(id);
                let ns = REC.with(|r| r.borrow().out.spans[id as usize].ns());
                doorbell_clocked(ns);
                if let Ok(completions) = &out {
                    capture(batch.requests(), completions);
                }
                out
            }
        }
    }

    fn idle_until(&mut self, now: SimTime) {
        self.0.idle_until(now)
    }

    fn observe_into(&self, prefix: &str, obs: &mut uc_obs::MetricsRegistry) {
        self.0.observe_into(prefix, obs)
    }
}

impl<D: CheckpointDevice> CheckpointDevice for Probe<D> {
    fn checkpoint(&self) -> DeviceCheckpoint {
        self.0.checkpoint()
    }

    fn restore_from(&mut self, checkpoint: DeviceCheckpoint) -> Result<(), CheckpointError> {
        self.0.restore_from(checkpoint)
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
    pub allocs: u64,
    pub self_allocs: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.ns();
            child_allocs[p as usize] += s.allocs;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.ns += s.ns();
        t.self_ns += s.ns().saturating_sub(child_ns[i]);
        t.allocs += s.allocs;
        t.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
    }
    out
}

/// Writes `spans` as tab-separated rows to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\treq\tallocs")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, s.req, s.allocs
        )?;
    }
    w.flush()
}
