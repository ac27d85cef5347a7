//! Trace replay: batched, timestamp-honouring, resumable.
//!
//! [`TraceReplayJob`] drives a [`Trace`] against any
//! [`BlockDevice`], speaking the queue-pair API
//! ([`BlockDevice::submit_batch`]) with **burst-preserving** scheduling:
//! entries sharing one (speed-scaled) arrival instant go to the device
//! through one doorbell ring, so a captured burst replays as the burst it
//! was, not as a trickle of single submissions. Two modes:
//!
//! * **open loop** ([`ReplayMode::OpenLoop`]) — every entry is submitted
//!   at its scaled arrival instant regardless of completions; latencies
//!   include whatever queueing the device accumulates. This is the mode
//!   for burstiness studies (the paper's Implication 4) and for exact
//!   re-execution of a captured submission timeline.
//! * **closed loop** ([`ReplayMode::ClosedLoop`]) — at most `queue_depth`
//!   entries are outstanding; each next entry is submitted at
//!   `max(scaled arrival, slot-free instant)`. Arrival *gaps* larger than
//!   the device's service time are still honoured, but the trace can
//!   never overrun the configured depth.
//!
//! The driver implements the same checkpoint contract as
//! [`ClosedLoopJob`](crate::ClosedLoopJob) (PR 3): it pauses at
//! entry-index milestones, freezes into a plain-data
//! [`ReplayCheckpoint`], and resumes with a byte-identical continuation —
//! which is how `uc-core` slices a long replay into pipelined segments
//! and how a killed replay process resumes from disk.

use crate::driver::InflightIo;
use crate::trace::{Trace, TraceEntry, TraceError};
use crate::JobReport;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use uc_blockdev::{BlockDevice, IoBatch, IoError, IoRequest};
use uc_sim::{SimDuration, SimTime};

/// How replayed entries are paced against the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Submit every entry at its scaled arrival instant, regardless of
    /// completions (arrival-driven; queueing shows up as latency).
    OpenLoop,
    /// Keep at most `queue_depth` entries outstanding; an entry whose
    /// arrival instant has passed waits for a free slot.
    ClosedLoop {
        /// Maximum outstanding requests.
        queue_depth: usize,
    },
}

/// Configuration of a trace replay.
///
/// # Example
///
/// ```
/// use uc_sim::SimDuration;
/// use uc_workload::ReplayConfig;
///
/// let cfg = ReplayConfig::open_loop()
///     .with_window(SimDuration::from_millis(10))
///     .with_speed(10.0);
/// assert_eq!(cfg.speed, 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Open- or closed-loop pacing.
    pub mode: ReplayMode,
    /// Width of the [`JobReport`] throughput windows (the historical
    /// hardcoded value was 100 ms; it is a parameter now).
    pub window: SimDuration,
    /// Acceleration factor: arrival instants are divided by `speed`, so
    /// `10.0` replays the trace ten times faster than it was captured.
    /// Must be positive and finite; `1.0` reproduces arrivals exactly.
    pub speed: f64,
    /// Maximum requests per doorbell ring. Bursts larger than this are
    /// split across consecutive rings (schedules are unaffected — every
    /// request carries its own submit instant).
    pub ring: usize,
}

impl ReplayConfig {
    /// Open-loop replay at captured speed, 100 ms report windows,
    /// 32-request doorbells — the semantics of the original
    /// [`replay`](crate::replay) function.
    pub fn open_loop() -> Self {
        ReplayConfig {
            mode: ReplayMode::OpenLoop,
            window: SimDuration::from_millis(100),
            speed: 1.0,
            ring: 32,
        }
    }

    /// Closed-loop replay holding `queue_depth` entries outstanding.
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth` is zero.
    pub fn closed_loop(queue_depth: usize) -> Self {
        assert!(queue_depth > 0, "queue depth must be positive");
        ReplayConfig {
            mode: ReplayMode::ClosedLoop { queue_depth },
            ..ReplayConfig::open_loop()
        }
    }

    /// Replaces the throughput-window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(mut self, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be non-zero");
        self.window = window;
        self
    }

    /// Replaces the acceleration factor.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not positive and finite.
    pub fn with_speed(mut self, speed: f64) -> Self {
        assert!(
            speed.is_finite() && speed > 0.0,
            "speed must be positive and finite"
        );
        self.speed = speed;
        self
    }

    /// Replaces the doorbell ring size.
    ///
    /// # Panics
    ///
    /// Panics if `ring` is zero.
    pub fn with_ring(mut self, ring: usize) -> Self {
        assert!(ring > 0, "ring size must be positive");
        self.ring = ring;
        self
    }

    /// An arrival instant under this config's acceleration factor.
    ///
    /// `speed == 1.0` is the identity (bit-exact, no float round trip);
    /// other factors divide the nanosecond timestamp in `f64` and round,
    /// which preserves non-decreasing order.
    pub fn scaled(&self, at: SimTime) -> SimTime {
        if self.speed == 1.0 {
            at
        } else {
            SimTime::from_nanos((at.as_nanos() as f64 / self.speed).round() as u64)
        }
    }
}

/// Why a replay failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// The trace failed validation against the device (detected before
    /// any I/O was issued).
    Trace(TraceError),
    /// The device rejected a request mid-replay.
    Io(IoError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Trace(e) => write!(f, "invalid trace: {e}"),
            ReplayError::Io(e) => write!(f, "device error during replay: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> Self {
        ReplayError::Trace(e)
    }
}

impl From<IoError> for ReplayError {
    fn from(e: IoError) -> Self {
        ReplayError::Io(e)
    }
}

/// How a [`TraceReplayJob::run_until`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayProgress {
    /// The entry milestone was reached; the job can be resumed.
    Paused,
    /// Every trace entry has been submitted and completed; the report is
    /// final.
    Finished,
}

/// The complete serializable state of a paused [`TraceReplayJob`].
///
/// Captured by [`TraceReplayJob::checkpoint`];
/// [`TraceReplayJob::resume`] rebuilds a job whose continuation is
/// byte-identical to one that was never paused. The trace itself is
/// *not* embedded — a resume pairs the checkpoint with the same trace
/// (and the device's own checkpoint), exactly as fig3 pairs a
/// [`DriverCheckpoint`](crate::DriverCheckpoint) with its device state.
#[derive(Debug, Clone)]
pub struct ReplayCheckpoint {
    /// The replay configuration being executed.
    pub config: ReplayConfig,
    /// Trace entries already submitted.
    pub position: u64,
    /// Everything measured so far.
    pub report: JobReport,
    /// Outstanding requests (closed loop only), in canonical schedule
    /// order (`(completes, submitted, kind, len)` ascending).
    pub inflight: Vec<InflightIo>,
    /// `true` once every entry has been submitted and completed.
    pub finished: bool,
}

/// A resumable trace replay: batched (entries sharing one speed-scaled
/// arrival instant go through one doorbell ring), open or closed loop
/// ([`ReplayMode`]), and checkpointable at entry-index milestones into a
/// [`ReplayCheckpoint`] that resumes byte-identically.
///
/// # Example
///
/// ```
/// use uc_ssd::{Ssd, SsdConfig};
/// use uc_workload::{replay_with, ReplayConfig, Trace};
/// use uc_sim::SimDuration;
///
/// let trace = Trace::bursty_writes(4, 8, SimDuration::from_millis(1), 4096, 16 << 20, 7);
/// let mut ssd = Ssd::new(SsdConfig::samsung_970_pro(256 << 20));
/// let report = replay_with(&mut ssd, &trace, &ReplayConfig::open_loop().with_speed(2.0))?;
/// assert_eq!(report.ios, 32);
/// # Ok::<(), uc_workload::ReplayError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceReplayJob {
    config: ReplayConfig,
    position: usize,
    report: JobReport,
    inflight: BinaryHeap<Reverse<InflightIo>>,
    finished: bool,
}

/// Submits a queued batch through one doorbell ring and moves the
/// completions into the in-flight heap.
fn ring_doorbell<D: BlockDevice + ?Sized>(
    dev: &mut D,
    batch: &IoBatch,
    inflight: &mut BinaryHeap<Reverse<InflightIo>>,
) -> Result<(), IoError> {
    if batch.is_empty() {
        return Ok(());
    }
    for c in dev.submit_batch(batch)? {
        inflight.push(Reverse(InflightIo {
            completes: c.completes,
            submitted: c.submitted,
            kind: c.kind,
            len: c.len,
        }));
    }
    Ok(())
}

impl TraceReplayJob {
    /// Primes a replay of `trace` against `dev`: validates every entry
    /// against the device capacity up front, issuing no I/O yet.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::Trace`] if any entry is invalid for this
    /// device.
    pub fn start<D: BlockDevice + ?Sized>(
        dev: &D,
        trace: &Trace,
        config: &ReplayConfig,
    ) -> Result<Self, ReplayError> {
        trace.validate(dev.info().capacity())?;
        Ok(TraceReplayJob {
            config: *config,
            position: 0,
            report: JobReport::new(config.window, SimTime::ZERO),
            inflight: BinaryHeap::new(),
            finished: false,
        })
    }

    /// Drives the replay until at least `entries` trace entries have been
    /// submitted, pausing at the next burst (open loop) or drain-group
    /// (closed loop) boundary — or until the trace is fully replayed,
    /// whichever comes first. Pass `usize::MAX` to run to completion.
    ///
    /// Pausing is exact: for any milestone sequence the final report (and
    /// the device-observed submission timeline) is byte-identical to an
    /// uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Propagates the first [`IoError`] a submission reports.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is shorter than the entries already replayed (a
    /// resume must pair a checkpoint with the trace it was taken from).
    pub fn run_until<D: BlockDevice + ?Sized>(
        &mut self,
        dev: &mut D,
        trace: &Trace,
        entries: usize,
    ) -> Result<ReplayProgress, ReplayError> {
        assert!(
            self.position <= trace.len(),
            "checkpoint position {} exceeds trace length {} (wrong trace?)",
            self.position,
            trace.len()
        );
        if self.finished {
            return Ok(ReplayProgress::Finished);
        }
        match self.config.mode {
            ReplayMode::OpenLoop => self.run_open(dev, trace.entries(), entries),
            ReplayMode::ClosedLoop { queue_depth } => {
                self.run_closed(dev, trace.entries(), entries, queue_depth)
            }
        }
    }

    /// Open-loop drive: submit each burst at its scaled arrival instant,
    /// record completions as they are returned.
    fn run_open<D: BlockDevice + ?Sized>(
        &mut self,
        dev: &mut D,
        entries: &[TraceEntry],
        target: usize,
    ) -> Result<ReplayProgress, ReplayError> {
        let mut batch = IoBatch::with_capacity(self.config.ring);
        while self.position < entries.len() {
            if self.position >= target {
                return Ok(ReplayProgress::Paused);
            }
            // One doorbell per burst: gather entries sharing this scaled
            // arrival instant, splitting only at the ring size.
            let burst_at = self.config.scaled(entries[self.position].at);
            batch.clear();
            while self.position < entries.len() && batch.len() < self.config.ring {
                let e = entries[self.position];
                let at = self.config.scaled(e.at);
                if at != burst_at {
                    break;
                }
                batch.push(IoRequest {
                    kind: e.kind,
                    offset: e.offset,
                    len: e.len,
                    submit_time: at,
                });
                self.position += 1;
            }
            for c in dev.submit_batch(&batch)? {
                self.report
                    .record(c.kind.is_write(), c.len, c.submitted, c.completes);
            }
        }
        self.finished = true;
        Ok(ReplayProgress::Finished)
    }

    /// Closed-loop drive: keep `queue_depth` entries outstanding; each
    /// drained completion group queues its replacements at
    /// `max(scaled arrival, group completion instant)`.
    fn run_closed<D: BlockDevice + ?Sized>(
        &mut self,
        dev: &mut D,
        entries: &[TraceEntry],
        target: usize,
        queue_depth: usize,
    ) -> Result<ReplayProgress, ReplayError> {
        let ring = self.config.ring;
        let mut batch = IoBatch::with_capacity(queue_depth.min(ring));
        // Initial fill (first call only): the first `queue_depth` entries
        // go out at their own scaled arrivals, at most `ring` per
        // doorbell (splitting a doorbell never changes the schedule —
        // every request carries its own submit instant).
        if self.inflight.is_empty() && self.position < entries.len() {
            while self.position < entries.len() && self.inflight.len() + batch.len() < queue_depth {
                let e = entries[self.position];
                batch.push(IoRequest {
                    kind: e.kind,
                    offset: e.offset,
                    len: e.len,
                    submit_time: self.config.scaled(e.at),
                });
                self.position += 1;
                if batch.len() >= ring {
                    ring_doorbell(dev, &batch, &mut self.inflight)?;
                    batch.clear();
                }
            }
            ring_doorbell(dev, &batch, &mut self.inflight)?;
            if self.position >= target && self.position < entries.len() {
                return Ok(ReplayProgress::Paused);
            }
        }
        while let Some(Reverse(first)) = self.inflight.pop() {
            batch.clear();
            // Drain every completion sharing the earliest instant and
            // queue one replacement per completion. Replacements are
            // submitted no earlier than this instant, so the heap order —
            // and therefore the schedule — matches one-at-a-time
            // submission exactly (the `ClosedLoopJob` argument).
            let mut done = first;
            loop {
                self.report.record(
                    done.kind.is_write(),
                    done.len,
                    done.submitted,
                    done.completes,
                );
                if self.position < entries.len() {
                    let e = entries[self.position];
                    batch.push(IoRequest {
                        kind: e.kind,
                        offset: e.offset,
                        len: e.len,
                        submit_time: self.config.scaled(e.at).max(done.completes),
                    });
                    self.position += 1;
                    // Honour the ring cap mid-drain too. Replacements
                    // complete strictly after this group's instant, so
                    // the early flush cannot add members to the group
                    // being drained.
                    if batch.len() >= ring {
                        ring_doorbell(dev, &batch, &mut self.inflight)?;
                        batch.clear();
                    }
                }
                match self.inflight.peek() {
                    Some(Reverse(next)) if next.completes == first.completes => {
                        done = self.inflight.pop().expect("peeked").0;
                    }
                    _ => break,
                }
            }
            ring_doorbell(dev, &batch, &mut self.inflight)?;
            if self.position >= target && !self.inflight.is_empty() {
                return Ok(ReplayProgress::Paused);
            }
        }
        self.finished = true;
        Ok(ReplayProgress::Finished)
    }

    /// Trace entries already submitted.
    pub fn position(&self) -> usize {
        self.position
    }

    /// `true` once every entry has been submitted and completed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Everything measured so far (final once
    /// [`TraceReplayJob::is_finished`]).
    pub fn report(&self) -> &JobReport {
        &self.report
    }

    /// Consumes the job, yielding its report.
    pub fn into_report(self) -> JobReport {
        self.report
    }

    /// Captures the job's complete state at a pause point (canonical
    /// form: in-flight entries in schedule order).
    pub fn checkpoint(&self) -> ReplayCheckpoint {
        let mut inflight: Vec<InflightIo> = self.inflight.iter().map(|Reverse(io)| *io).collect();
        inflight.sort_unstable();
        ReplayCheckpoint {
            config: self.config,
            position: self.position as u64,
            report: self.report.clone(),
            inflight,
            finished: self.finished,
        }
    }

    /// Rebuilds a job that continues exactly where `checkpoint` was
    /// taken (pair it with the trace the checkpoint came from).
    pub fn resume(checkpoint: ReplayCheckpoint) -> Self {
        TraceReplayJob {
            config: checkpoint.config,
            position: checkpoint.position as usize,
            report: checkpoint.report,
            inflight: checkpoint.inflight.into_iter().map(Reverse).collect(),
            finished: checkpoint.finished,
        }
    }
}

/// Replays `trace` against `dev` under `config`, straight through.
///
/// This is [`TraceReplayJob`] run to completion — see its documentation
/// for pause/checkpoint semantics.
///
/// # Errors
///
/// Returns [`ReplayError::Trace`] if the trace fails validation against
/// the device (before any I/O), or [`ReplayError::Io`] if the device
/// rejects a request mid-replay.
pub fn replay_with<D: BlockDevice + ?Sized>(
    dev: &mut D,
    trace: &Trace,
    config: &ReplayConfig,
) -> Result<JobReport, ReplayError> {
    let mut job = TraceReplayJob::start(dev, trace, config)?;
    job.run_until(dev, trace, usize::MAX)?;
    Ok(job.into_report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_blockdev::{DeviceInfo, IoResult};

    /// A device with fixed service time and `servers`-way parallelism
    /// that remembers every submission instant.
    struct TestDevice {
        service: SimDuration,
        servers: uc_sim::ParallelResource,
        submissions: Vec<SimTime>,
    }

    impl TestDevice {
        fn new(us: u64, servers: usize) -> Self {
            TestDevice {
                service: SimDuration::from_micros(us),
                servers: uc_sim::ParallelResource::new(servers),
                submissions: Vec::new(),
            }
        }
    }

    impl BlockDevice for TestDevice {
        fn info(&self) -> DeviceInfo {
            DeviceInfo::new("test", 1 << 30, 4096)
        }
        fn submit(&mut self, req: &IoRequest) -> IoResult {
            self.info().validate(req)?;
            self.submissions.push(req.submit_time);
            Ok(self.servers.acquire(req.submit_time, self.service).1)
        }
    }

    fn bursty() -> Trace {
        Trace::bursty_writes(5, 12, SimDuration::from_millis(1), 4096, 8 << 20, 3)
    }

    #[test]
    fn open_loop_matches_legacy_replay_exactly() {
        let trace = bursty();
        let mut legacy_dev = TestDevice::new(10, 2);
        // The legacy semantics, spelled out: one submit per entry at its
        // arrival, recorded under a 100 ms window.
        let mut legacy = JobReport::new(SimDuration::from_millis(100), SimTime::ZERO);
        for e in trace.entries() {
            let req = IoRequest {
                kind: e.kind,
                offset: e.offset,
                len: e.len,
                submit_time: e.at,
            };
            let done = legacy_dev.submit(&req).unwrap();
            legacy.record(e.kind.is_write(), e.len, e.at, done);
        }
        let mut dev = TestDevice::new(10, 2);
        let batched = replay_with(&mut dev, &trace, &ReplayConfig::open_loop()).unwrap();
        assert_eq!(batched.ios, legacy.ios);
        assert_eq!(batched.bytes, legacy.bytes);
        assert_eq!(batched.finished_at, legacy.finished_at);
        assert_eq!(batched.latency.mean(), legacy.latency.mean());
        assert_eq!(batched.latency.max(), legacy.latency.max());
        assert_eq!(dev.submissions, legacy_dev.submissions);
    }

    #[test]
    fn bursts_share_one_doorbell() {
        // 12-entry bursts with ring 32: each burst must arrive as one
        // batch (observable through a submit_batch-counting device).
        struct Counting {
            inner: TestDevice,
            batches: Vec<usize>,
        }
        impl BlockDevice for Counting {
            fn info(&self) -> DeviceInfo {
                self.inner.info()
            }
            fn submit(&mut self, req: &IoRequest) -> IoResult {
                self.inner.submit(req)
            }
            fn submit_batch(
                &mut self,
                batch: &IoBatch,
            ) -> Result<Vec<uc_blockdev::Completion>, IoError> {
                self.batches.push(batch.len());
                // Delegate to the default sequential servicing.
                let mut out = Vec::with_capacity(batch.len());
                for (i, req) in batch.requests().iter().enumerate() {
                    out.push(uc_blockdev::Completion::of(i, req, self.inner.submit(req)?));
                }
                Ok(out)
            }
        }
        let mut dev = Counting {
            inner: TestDevice::new(10, 2),
            batches: Vec::new(),
        };
        replay_with(&mut dev, &bursty(), &ReplayConfig::open_loop()).unwrap();
        assert_eq!(dev.batches, vec![12; 5], "one doorbell per burst");
        // A ring smaller than the burst splits it.
        let mut dev = Counting {
            inner: TestDevice::new(10, 2),
            batches: Vec::new(),
        };
        replay_with(&mut dev, &bursty(), &ReplayConfig::open_loop().with_ring(5)).unwrap();
        assert_eq!(
            dev.batches,
            vec![5, 5, 2, 5, 5, 2, 5, 5, 2, 5, 5, 2, 5, 5, 2]
        );
    }

    #[test]
    fn closed_loop_honours_the_ring_cap() {
        struct Counting {
            inner: TestDevice,
            batches: Vec<usize>,
        }
        impl BlockDevice for Counting {
            fn info(&self) -> DeviceInfo {
                self.inner.info()
            }
            fn submit(&mut self, req: &IoRequest) -> IoResult {
                self.inner.submit(req)
            }
            fn submit_batch(
                &mut self,
                batch: &IoBatch,
            ) -> Result<Vec<uc_blockdev::Completion>, IoError> {
                self.batches.push(batch.len());
                let mut out = Vec::with_capacity(batch.len());
                for (i, req) in batch.requests().iter().enumerate() {
                    out.push(uc_blockdev::Completion::of(i, req, self.inner.submit(req)?));
                }
                Ok(out)
            }
        }
        let trace = bursty();
        let config = ReplayConfig::closed_loop(16).with_ring(4);
        let mut capped = Counting {
            inner: TestDevice::new(10, 2),
            batches: Vec::new(),
        };
        let report = replay_with(&mut capped, &trace, &config).unwrap();
        assert!(
            capped.batches.iter().all(|&n| n <= 4),
            "no doorbell may exceed the ring: {:?}",
            capped.batches
        );
        // Splitting doorbells must not change the schedule: an uncapped
        // run produces an identical report and submission timeline.
        let mut uncapped_dev = TestDevice::new(10, 2);
        let uncapped =
            replay_with(&mut uncapped_dev, &trace, &ReplayConfig::closed_loop(16)).unwrap();
        assert_eq!(report.ios, uncapped.ios);
        assert_eq!(report.finished_at, uncapped.finished_at);
        assert_eq!(report.latency.mean(), uncapped.latency.mean());
        assert_eq!(capped.inner.submissions, uncapped_dev.submissions);
    }

    #[test]
    fn speed_scales_arrivals() {
        let trace = bursty();
        let mut dev = TestDevice::new(10, 4);
        let normal = replay_with(&mut dev, &trace, &ReplayConfig::open_loop()).unwrap();
        let mut dev = TestDevice::new(10, 4);
        let fast = replay_with(
            &mut dev,
            &trace,
            &ReplayConfig::open_loop().with_speed(10.0),
        )
        .unwrap();
        // Ten times faster: the last arrival lands at a tenth of the
        // original, so the run finishes much earlier…
        assert!(fast.finished_at < normal.finished_at);
        // …and the compressed bursts queue harder on the same device.
        assert!(fast.latency.max() >= normal.latency.max());
        assert_eq!(fast.ios, normal.ios);
    }

    #[test]
    fn closed_loop_caps_outstanding_requests() {
        // One burst of 20 arrivals at t=0 on a 1-server 10 us device:
        // open loop sees up to 200 us of queueing, closed loop at QD 2
        // never has more than 2 outstanding.
        let trace = Trace::bursty_writes(1, 20, SimDuration::from_secs(1), 4096, 1 << 20, 1);
        let mut dev = TestDevice::new(10, 1);
        let open = replay_with(&mut dev, &trace, &ReplayConfig::open_loop()).unwrap();
        assert_eq!(open.latency.max(), SimDuration::from_micros(200));
        let mut dev = TestDevice::new(10, 1);
        let closed = replay_with(&mut dev, &trace, &ReplayConfig::closed_loop(2)).unwrap();
        assert_eq!(closed.ios, 20);
        // At QD 2 a request waits at most one service time.
        assert_eq!(closed.latency.max(), SimDuration::from_micros(20));
        // Submissions happen when slots free, never before arrivals.
        for w in dev.submissions.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn closed_loop_honours_arrival_gaps() {
        // Arrivals 50 us apart on a 10 us device: even closed-loop, the
        // trace's own pacing dominates and no queueing appears.
        let entries: Vec<TraceEntry> = (0..10)
            .map(|i| TraceEntry {
                at: SimTime::ZERO + SimDuration::from_micros(50 * i),
                kind: uc_blockdev::IoKind::Write,
                offset: 4096 * i,
                len: 4096,
            })
            .collect();
        let trace = Trace::from_entries(entries);
        let mut dev = TestDevice::new(10, 1);
        let report = replay_with(&mut dev, &trace, &ReplayConfig::closed_loop(4)).unwrap();
        assert_eq!(report.latency.max(), SimDuration::from_micros(10));
        assert_eq!(
            report.finished_at,
            SimTime::ZERO + SimDuration::from_micros(50 * 9 + 10)
        );
    }

    #[test]
    fn paused_replay_matches_straight_run_exactly() {
        for config in [
            ReplayConfig::open_loop(),
            ReplayConfig::open_loop().with_speed(3.0),
            ReplayConfig::closed_loop(4),
            ReplayConfig::closed_loop(1),
        ] {
            let trace = bursty();
            let mut straight_dev = TestDevice::new(9, 2);
            let straight = replay_with(&mut straight_dev, &trace, &config).unwrap();

            let mut dev = TestDevice::new(9, 2);
            let mut job = TraceReplayJob::start(&dev, &trace, &config).unwrap();
            let mut milestone = 7;
            loop {
                match job.run_until(&mut dev, &trace, milestone).unwrap() {
                    ReplayProgress::Finished => break,
                    ReplayProgress::Paused => {
                        // Freeze and thaw: the continuation must not care.
                        job = TraceReplayJob::resume(job.checkpoint());
                        milestone += 7;
                    }
                }
            }
            assert!(job.is_finished());
            let segmented = job.into_report();
            assert_eq!(segmented.ios, straight.ios, "{config:?}");
            assert_eq!(segmented.bytes, straight.bytes);
            assert_eq!(segmented.finished_at, straight.finished_at);
            assert_eq!(segmented.latency.mean(), straight.latency.mean());
            assert_eq!(
                segmented.latency.percentile(99.9),
                straight.latency.percentile(99.9)
            );
            assert_eq!(dev.submissions, straight_dev.submissions, "{config:?}");
        }
    }

    #[test]
    fn invalid_traces_fail_before_any_io() {
        let out_of_range = Trace::from_entries(vec![TraceEntry {
            at: SimTime::ZERO,
            kind: uc_blockdev::IoKind::Write,
            offset: 1 << 40,
            len: 4096,
        }]);
        let mut dev = TestDevice::new(10, 1);
        let err = replay_with(&mut dev, &out_of_range, &ReplayConfig::open_loop()).unwrap_err();
        assert!(matches!(
            err,
            ReplayError::Trace(TraceError::OutOfRange { index: 0, .. })
        ));
        assert!(dev.submissions.is_empty(), "no i/o was issued");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn checkpoint_is_canonical_and_resume_lossless() {
        let trace = bursty();
        let config = ReplayConfig::closed_loop(6);
        let mut dev = TestDevice::new(5, 2);
        let mut job = TraceReplayJob::start(&dev, &trace, &config).unwrap();
        job.run_until(&mut dev, &trace, 20).unwrap();
        let cp = job.checkpoint();
        assert!(!cp.finished);
        assert!(cp.position >= 20);
        assert!(
            cp.inflight.windows(2).all(|w| w[0] <= w[1]),
            "inflight entries are in canonical schedule order"
        );
        // A resumed job's own checkpoint is identical (canonical form).
        let resumed = TraceReplayJob::resume(cp.clone());
        let cp2 = resumed.checkpoint();
        assert_eq!(cp2.config, cp.config);
        assert_eq!(cp2.position, cp.position);
        assert_eq!(cp2.inflight, cp.inflight);
        assert_eq!(cp2.finished, cp.finished);
        assert_eq!(cp2.report.ios, cp.report.ios);
        assert_eq!(cp2.report.bytes, cp.report.bytes);
    }

    #[test]
    fn run_until_past_end_reports_finished_idempotently() {
        let trace = bursty();
        let mut dev = TestDevice::new(3, 1);
        let mut job = TraceReplayJob::start(&dev, &trace, &ReplayConfig::open_loop()).unwrap();
        assert_eq!(
            job.run_until(&mut dev, &trace, usize::MAX).unwrap(),
            ReplayProgress::Finished
        );
        assert_eq!(
            job.run_until(&mut dev, &trace, usize::MAX).unwrap(),
            ReplayProgress::Finished
        );
        assert_eq!(job.report().ios, trace.len() as u64);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        let _ = ReplayConfig::open_loop().with_speed(0.0);
    }

    #[test]
    #[should_panic(expected = "wrong trace")]
    fn mismatched_trace_on_resume_panics() {
        let trace = bursty();
        let mut dev = TestDevice::new(3, 1);
        let mut job = TraceReplayJob::start(&dev, &trace, &ReplayConfig::open_loop()).unwrap();
        job.run_until(&mut dev, &trace, 20).unwrap();
        let short = Trace::from_entries(trace.entries()[..5].to_vec());
        let _ = job.run_until(&mut dev, &short, usize::MAX);
    }
}
