//! The served device pool: shared lanes, admission control, rate limits.
//!
//! [`ServePool`] owns the device lanes a server exposes. Each lane wraps
//! one [`BlockDevice`] in a [`SharedDevice`] behind a mutex; every
//! connection (or in-process [`PoolDevice`]) opens a session on one lane
//! and submits batches through [`ServePool::submit`], which applies the
//! three protection mechanisms in order:
//!
//! 1. **ring bound** — a batch larger than the per-connection submission
//!    ring is refused with [`BusyReason::RingFull`] before admission;
//! 2. **overload shedding** — a batch arriving while `max_inflight`
//!    batches are already being serviced (including responses still being
//!    written back to slow clients) is refused with
//!    [`BusyReason::Overload`];
//! 3. **token-bucket rate limiting** — an optional per-session
//!    byte-rate budget ([`TokenBucket`]): a batch over budget is not
//!    refused but *delayed*, its submit instants shifted to the bucket's
//!    grant instant, exactly how the elastic devices themselves enforce
//!    their throughput budgets (Observation 4).
//!
//! Refusals are typed and issue no I/O — backpressure is never a silent
//! drop. Admission counts whole batches and is the only cross-lane
//! state, so one lane's slow client cannot block another lane's traffic
//! (the device mutex is never held across a socket write).
//!
//! **Fleet mode** ([`ServePool::new_fleet`]) mounts a fed
//! [`FleetSim`](uc_fleet::FleetSim) behind the same pool: wire clients
//! attach *tenant* lanes, push arrival entries
//! ([`tenant_push`](ServePool::tenant_push)) and flush epochs
//! ([`tenant_flush`](ServePool::tenant_flush)). An epoch runs only when
//! every tenant in the fleet has flushed it — the wire-facing form of
//! the fleet's epoch barrier — and completed rebalances surface as
//! typed moves for the server to translate into `LANE_MOVED` frames.

use crate::wire::BusyReason;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use uc_blockdev::{
    BlockDevice, Completion, DeviceInfo, IoBatch, IoError, IoRequest, IoResult, SessionId,
    SessionStats, SharedDevice,
};
use uc_fleet::{FeedError, FleetReport, FleetSim};
use uc_obs::{CounterId, GaugeId, HistId, ObsHub, ObsSnapshot};
use uc_sim::{SimTime, TokenBucket};
use uc_workload::TraceEntry;

/// Tuning knobs of a [`ServePool`].
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Maximum requests per submit frame (the per-connection submission
    /// ring). Larger batches are refused with [`BusyReason::RingFull`].
    pub ring: usize,
    /// Maximum batches in flight across the whole pool (admission to
    /// response write-back). Arrivals above the ceiling are refused with
    /// [`BusyReason::Overload`].
    pub max_inflight: usize,
    /// Per-session byte-rate budget in bytes/second (burst = one
    /// second's worth). `None` disables rate limiting.
    pub rate: Option<f64>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            ring: 64,
            max_inflight: 1024,
            rate: None,
        }
    }
}

/// One session's handle on a pool lane.
#[derive(Debug)]
pub struct PoolSession {
    device: usize,
    session: SessionId,
    bucket: Option<TokenBucket>,
    throttled: u64,
}

impl PoolSession {
    /// The lane index the session is attached to.
    pub fn device(&self) -> usize {
        self.device
    }

    /// The lane-local session id.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Batches this session has had delayed by its rate budget.
    pub fn throttled(&self) -> u64 {
        self.throttled
    }
}

/// Why [`ServePool::submit`] refused or failed a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// Backpressure: nothing was issued; the caller may retry.
    Busy(BusyReason),
    /// The device rejected a request (requests queued before the failing
    /// one have been applied, as with any batch submission).
    Io(IoError),
}

/// Decrements the pool's in-flight count when dropped.
///
/// [`ServePool::submit`] returns one guard per admitted batch; the
/// server holds it across the response write so that a stalled reader
/// keeps occupying its admission slot — which is precisely what the
/// overload ceiling must see.
pub struct InflightGuard<'a> {
    pool: &'a ServePool,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.pool.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for InflightGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InflightGuard")
            .field("inflight", &self.pool.inflight.load(Ordering::Acquire))
            .finish()
    }
}

/// The `'static` form of [`InflightGuard`]: holds the pool by [`Arc`],
/// so the event loop — whose connections outlive any one stack frame —
/// can park the admission slot inside a per-connection state machine
/// until the response bytes have actually drained to the socket.
pub struct OwnedInflightGuard {
    pool: Arc<ServePool>,
}

impl Drop for OwnedInflightGuard {
    fn drop(&mut self) {
        self.pool.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for OwnedInflightGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OwnedInflightGuard")
            .field("inflight", &self.pool.inflight.load(Ordering::Acquire))
            .finish()
    }
}

struct Lane {
    label: String,
    shared: Mutex<SharedDevice<Box<dyn BlockDevice + Send>>>,
}

/// Typed handles into the pool's [`ObsHub`] for one lane.
#[derive(Debug, Clone, Copy)]
struct LaneObsIds {
    ios: CounterId,
    bytes: CounterId,
    batch_size: HistId,
    service: HistId,
    queue_depth: GaugeId,
}

/// Typed handles into the pool's [`ObsHub`], registered once at
/// construction so the hot path never allocates a metric name.
#[derive(Debug, Clone)]
struct PoolObsIds {
    batches: CounterId,
    ios: CounterId,
    bytes: CounterId,
    busy_ring_full: CounterId,
    shed_overload: CounterId,
    throttled: CounterId,
    inflight_peak: GaugeId,
    lanes: Vec<LaneObsIds>,
}

impl PoolObsIds {
    /// Registration order is the snapshot's row order: pool-level
    /// metrics first, then each lane's, in lane order — deterministic
    /// for any pool shape.
    fn register(obs: &ObsHub, lanes: usize) -> Self {
        PoolObsIds {
            batches: obs.counter("serve.pool.batches"),
            ios: obs.counter("serve.pool.ios"),
            bytes: obs.counter("serve.pool.bytes"),
            busy_ring_full: obs.counter("serve.pool.busy_ring_full"),
            shed_overload: obs.counter("serve.pool.shed_overload"),
            throttled: obs.counter("serve.pool.throttled"),
            inflight_peak: obs.gauge("serve.pool.inflight_peak"),
            lanes: (0..lanes)
                .map(|i| LaneObsIds {
                    ios: obs.counter(&format!("serve.lane{i}.ios")),
                    bytes: obs.counter(&format!("serve.lane{i}.bytes")),
                    batch_size: obs.hist(&format!("serve.lane{i}.batch_size")),
                    service: obs.hist(&format!("serve.lane{i}.service_ns")),
                    queue_depth: obs.gauge(&format!("serve.lane{i}.queue_depth")),
                })
                .collect(),
        }
    }
}

/// Errors from the fleet-mode tenant seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetError {
    /// The pool is not serving a fleet.
    NotFleet,
    /// No such tenant.
    UnknownTenant,
    /// The tenant is already mounted on another lane.
    AlreadyAttached,
    /// A flush named an epoch that is not the fleet's next.
    EpochMismatch {
        /// The epoch the fleet will run next.
        expected: u64,
    },
    /// The feed seam refused the pushed entries.
    Feed(FeedError),
    /// The epoch run hit a device error (a placement/geometry bug).
    Io(IoError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NotFleet => write!(f, "pool is not serving a fleet"),
            FleetError::UnknownTenant => write!(f, "unknown tenant"),
            FleetError::AlreadyAttached => write!(f, "tenant already attached"),
            FleetError::EpochMismatch { expected } => {
                write!(f, "flush out of order: fleet expects epoch {expected}")
            }
            FleetError::Feed(e) => write!(f, "{e}"),
            FleetError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// One completed rebalance move, as surfaced to the server for
/// `LANE_MOVED` framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantMove {
    /// The migrated tenant.
    pub tenant: u32,
    /// Its new home device index.
    pub to_device: u32,
}

/// What [`ServePool::tenant_flush`] observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlushOutcome {
    /// Other tenants have not flushed this epoch yet; the caller's
    /// `FLUSH_OK` is owed once the barrier clears.
    Waiting,
    /// This flush completed the barrier and the epoch ran: every lane
    /// pending on `epoch` is owed its `FLUSH_OK` now (preceded by a
    /// `LANE_MOVED` for tenants in `moves`).
    EpochComplete {
        /// The epoch that ran.
        epoch: u64,
        /// Rebalance moves the epoch completed, in completion order.
        moves: Vec<TenantMove>,
    },
}

/// The wire-facing face of a fed [`FleetSim`]: attachment bookkeeping
/// plus the all-tenants flush barrier.
struct FleetFrontend {
    sim: FleetSim,
    attached: Vec<bool>,
    flushed: Vec<bool>,
    flushed_count: usize,
}

/// The set of device lanes one server exposes, plus (in fleet mode) the
/// tenant seam.
pub struct ServePool {
    lanes: Vec<Lane>,
    fleet: Option<Mutex<FleetFrontend>>,
    config: PoolConfig,
    inflight: AtomicUsize,
    busy_ring_full: AtomicU64,
    shed_overload: AtomicU64,
    throttled: AtomicU64,
    obs: ObsHub,
    oids: PoolObsIds,
}

/// One lane's slice of a [`ServeReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceLaneReport {
    /// Lane index.
    pub index: usize,
    /// The label the lane was registered under.
    pub label: String,
    /// The device's name.
    pub name: String,
    /// The device's capacity in bytes.
    pub capacity: u64,
    /// The lane's queue head (latest doorbelled instant).
    pub queue_head: SimTime,
    /// Every session's ledger, in open order.
    pub sessions: Vec<SessionStats>,
}

/// The device-side read-out of a serving run: per-lane session ledgers
/// plus the pool-level backpressure counters.
///
/// Equality is exact, which is what the loopback-determinism acceptance
/// bar compares: a replay through the server and the same replay
/// in-process must produce `==` (and byte-identical rendered) reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// One entry per lane, in lane order.
    pub devices: Vec<DeviceLaneReport>,
    /// Submit frames refused because they exceeded the ring.
    pub busy_ring_full: u64,
    /// Submit frames shed above the in-flight ceiling.
    pub shed_overload: u64,
    /// Batches delayed by a session's rate budget.
    pub throttled: u64,
}

impl ServeReport {
    /// Total requests doorbelled across every lane and session.
    pub fn total_ios(&self) -> u64 {
        self.devices
            .iter()
            .flat_map(|d| d.sessions.iter())
            .map(|s| s.ios)
            .sum()
    }

    /// Total bytes doorbelled across every lane and session.
    pub fn total_bytes(&self) -> u64 {
        self.devices
            .iter()
            .flat_map(|d| d.sessions.iter())
            .map(|s| s.bytes)
            .sum()
    }
}

impl ServePool {
    /// Builds a pool of `(label, device)` lanes under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.ring` or `config.max_inflight` is zero, or a
    /// configured rate is not positive and finite.
    pub fn new(devices: Vec<(String, Box<dyn BlockDevice + Send>)>, config: PoolConfig) -> Self {
        assert!(config.ring > 0, "submission ring must be positive");
        assert!(
            config.max_inflight > 0,
            "in-flight ceiling must be positive"
        );
        if let Some(rate) = config.rate {
            assert!(
                rate > 0.0 && rate.is_finite(),
                "rate budget must be positive and finite"
            );
        }
        let lanes: Vec<Lane> = devices
            .into_iter()
            .map(|(label, dev)| Lane {
                label,
                shared: Mutex::new(SharedDevice::new(dev)),
            })
            .collect();
        let obs = ObsHub::new();
        let oids = PoolObsIds::register(&obs, lanes.len());
        ServePool {
            lanes,
            fleet: None,
            config,
            inflight: AtomicUsize::new(0),
            busy_ring_full: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
            obs,
            oids,
        }
    }

    /// Builds a fleet-mode pool: no device lanes, every wire lane is a
    /// tenant of `sim`, which must have been built with
    /// [`FleetSim::new_fed`] (external drivers supply the arrival
    /// streams).
    ///
    /// # Panics
    ///
    /// Panics on the same invalid `config` values as
    /// [`new`](ServePool::new).
    pub fn new_fleet(sim: FleetSim, config: PoolConfig) -> Self {
        let tenants = sim.config().tenants;
        let mut pool = ServePool::new(Vec::new(), config);
        pool.fleet = Some(Mutex::new(FleetFrontend {
            sim,
            attached: vec![false; tenants],
            flushed: vec![false; tenants],
            flushed_count: 0,
        }));
        pool
    }

    /// Whether the pool is serving a fleet.
    pub fn is_fleet(&self) -> bool {
        self.fleet.is_some()
    }

    /// Number of tenants in fleet mode (0 otherwise).
    pub fn fleet_tenants(&self) -> usize {
        self.fleet
            .as_ref()
            .map_or(0, |f| f.lock().expect("fleet lock").attached.len())
    }

    /// Mounts `tenant` as a wire lane: returns the lane's advertised
    /// facts — tenant-region name, region span as capacity, and the
    /// fleet's I/O size as the block granularity.
    ///
    /// # Errors
    ///
    /// [`FleetError::NotFleet`] / [`FleetError::UnknownTenant`] /
    /// [`FleetError::AlreadyAttached`].
    pub fn attach_tenant(&self, tenant: u32) -> Result<(String, u64, u32), FleetError> {
        let mut f = self.fleet_frontend()?;
        let slot = f
            .attached
            .get_mut(tenant as usize)
            .ok_or(FleetError::UnknownTenant)?;
        if *slot {
            return Err(FleetError::AlreadyAttached);
        }
        *slot = true;
        let span = f.sim.region_span();
        let io_size = f.sim.config().io_size;
        Ok((format!("tenant{tenant}@fleet"), span, io_size))
    }

    /// Appends pushed arrival entries to `tenant`'s stream; returns how
    /// many were accepted (all of them — the feed is transactional).
    ///
    /// # Errors
    ///
    /// [`FleetError::Feed`] with the seam's typed refusal.
    pub fn tenant_push(&self, tenant: u32, entries: &[TraceEntry]) -> Result<u64, FleetError> {
        let mut f = self.fleet_frontend()?;
        f.sim
            .push_entries(tenant, entries)
            .map_err(FleetError::Feed)?;
        Ok(entries.len() as u64)
    }

    /// Marks `tenant` flushed for `epoch`. When this flush is the last
    /// one the barrier was waiting on, the epoch runs and the outcome
    /// lists the rebalance moves it completed.
    ///
    /// # Errors
    ///
    /// [`FleetError::EpochMismatch`] for an out-of-order flush,
    /// [`FleetError::Io`] if the epoch run hit a device error.
    pub fn tenant_flush(&self, tenant: u32, epoch: u64) -> Result<FlushOutcome, FleetError> {
        let mut f = self.fleet_frontend()?;
        if tenant as usize >= f.attached.len() {
            return Err(FleetError::UnknownTenant);
        }
        let expected = f.sim.epoch() as u64;
        if epoch != expected {
            return Err(FleetError::EpochMismatch { expected });
        }
        if !f.flushed[tenant as usize] {
            f.flushed[tenant as usize] = true;
            f.flushed_count += 1;
        }
        if f.flushed_count < f.flushed.len() {
            return Ok(FlushOutcome::Waiting);
        }
        f.sim.run_epoch().map_err(FleetError::Io)?;
        f.flushed.fill(false);
        f.flushed_count = 0;
        let moves = f
            .sim
            .migrations()
            .iter()
            .filter(|m| m.epoch == epoch)
            .map(|m| TenantMove {
                tenant: m.tenant,
                to_device: m.to.0 as u32,
            })
            .collect();
        Ok(FlushOutcome::EpochComplete { epoch, moves })
    }

    /// The fleet's report so far (`None` for a roster pool).
    pub fn fleet_report(&self) -> Option<FleetReport> {
        self.fleet
            .as_ref()
            .map(|f| f.lock().expect("fleet lock").sim.report())
    }

    fn fleet_frontend(&self) -> Result<std::sync::MutexGuard<'_, FleetFrontend>, FleetError> {
        self.fleet
            .as_ref()
            .map(|f| f.lock().expect("fleet lock"))
            .ok_or(FleetError::NotFleet)
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Number of device lanes.
    pub fn devices(&self) -> usize {
        self.lanes.len()
    }

    /// Opens a session on lane `device`; `None` if the index is out of
    /// range.
    pub fn open(&self, device: usize) -> Option<(PoolSession, DeviceInfo)> {
        let lane = self.lanes.get(device)?;
        let mut shared = lane.shared.lock().expect("lane lock");
        let session = shared.open_session();
        let info = shared.info();
        Some((
            PoolSession {
                device,
                session,
                bucket: self.config.rate.map(|r| TokenBucket::new(r, r)),
                throttled: 0,
            },
            info,
        ))
    }

    /// Submits one batch under `sess`, applying, in order, the ring bound
    /// ([`BusyReason::RingFull`]), overload shedding
    /// ([`BusyReason::Overload`]) and the session's rate budget (an
    /// over-budget batch is delayed, not refused).
    ///
    /// On success the returned [`InflightGuard`] holds the batch's
    /// admission slot; drop it once the completions have been delivered.
    ///
    /// # Errors
    ///
    /// [`Rejection::Busy`] refusals issue no I/O. [`Rejection::Io`]
    /// propagates the device's typed error.
    pub fn submit(
        &self,
        sess: &mut PoolSession,
        reqs: &[IoRequest],
    ) -> Result<(Vec<Completion>, InflightGuard<'_>), Rejection> {
        if reqs.len() > self.config.ring {
            self.busy_ring_full.fetch_add(1, Ordering::Relaxed);
            self.obs.inc(self.oids.busy_ring_full);
            return Err(Rejection::Busy(BusyReason::RingFull));
        }
        // Admission: occupancy counts whole batches, admission-to-drop of
        // the guard. CAS so a burst of arrivals cannot overshoot.
        let mut current = self.inflight.load(Ordering::Acquire);
        loop {
            if current >= self.config.max_inflight {
                self.shed_overload.fetch_add(1, Ordering::Relaxed);
                self.obs.inc(self.oids.shed_overload);
                return Err(Rejection::Busy(BusyReason::Overload));
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
        let guard = InflightGuard { pool: self };
        self.obs
            .set_max(self.oids.inflight_peak, (current + 1) as i64);

        // Rate budget: shift the whole batch to the bucket's grant
        // instant (relative spacing within the batch is preserved).
        let mut delay_nanos = 0u64;
        if let (Some(bucket), Some(first)) = (sess.bucket.as_mut(), reqs.first()) {
            let bytes: u64 = reqs.iter().map(|r| r.len as u64).sum();
            let grant = bucket.reserve(first.submit_time, bytes);
            delay_nanos = grant
                .as_nanos()
                .saturating_sub(first.submit_time.as_nanos());
            if delay_nanos > 0 {
                sess.throttled += 1;
                self.throttled.fetch_add(1, Ordering::Relaxed);
                self.obs.inc(self.oids.throttled);
            }
        }

        let mut batch = IoBatch::with_capacity(reqs.len());
        for req in reqs {
            let mut shifted = *req;
            shifted.submit_time =
                SimTime::from_nanos(shifted.submit_time.as_nanos().saturating_add(delay_nanos));
            batch.push(shifted);
        }
        let owners = vec![sess.session; batch.len()];
        let lane = &self.lanes[sess.device];
        let completions = {
            let mut shared = lane.shared.lock().expect("lane lock");
            shared
                .submit_batch_shared(&owners, &batch)
                .map_err(Rejection::Io)?
            // Lock released here — never held across a response write
            // (and never while touching the obs hub: the hub-then-lane
            // order in obs_snapshot stays deadlock-free).
        };
        self.obs.inc(self.oids.batches);
        let bytes: u64 = reqs.iter().map(|r| r.len as u64).sum();
        self.obs.add(self.oids.ios, reqs.len() as u64);
        self.obs.add(self.oids.bytes, bytes);
        if let Some(ids) = self.oids.lanes.get(sess.device).copied() {
            self.obs.add(ids.ios, reqs.len() as u64);
            self.obs.add(ids.bytes, bytes);
            self.obs.record_ns(ids.batch_size, reqs.len() as u64);
            self.obs.set_max(ids.queue_depth, reqs.len() as i64);
            for c in &completions {
                self.obs.record_ns(
                    ids.service,
                    c.completes.saturating_since(c.submitted).as_nanos(),
                );
            }
        }
        Ok((completions, guard))
    }

    /// [`submit`](ServePool::submit), but the admission slot comes back
    /// as an [`OwnedInflightGuard`]: the event loop parks it in the
    /// connection's state machine until the completions frame has fully
    /// drained to the socket, so a stalled reader keeps occupying its
    /// slot exactly as in the thread-per-connection design.
    ///
    /// # Errors
    ///
    /// As [`submit`](ServePool::submit).
    pub fn submit_owned(
        self: &Arc<Self>,
        sess: &mut PoolSession,
        reqs: &[IoRequest],
    ) -> Result<(Vec<Completion>, OwnedInflightGuard), Rejection> {
        let (completions, guard) = self.submit(sess, reqs)?;
        // Transfer the decrement duty from the borrowed guard to the
        // owned one: exactly one of them may run its destructor.
        std::mem::forget(guard);
        Ok((
            completions,
            OwnedInflightGuard {
                pool: Arc::clone(self),
            },
        ))
    }

    /// Whether `sess` still names a live session on its lane — the
    /// sanity check the server runs before re-arming a resumed session's
    /// lanes onto the pool.
    pub fn validate_session(&self, sess: &PoolSession) -> bool {
        self.lanes.get(sess.device).is_some_and(|lane| {
            lane.shared
                .lock()
                .expect("lane lock")
                .has_session(sess.session)
        })
    }

    /// The session's ledger and its lane's queue head.
    pub fn stats(&self, sess: &PoolSession) -> (SessionStats, SimTime) {
        let shared = self.lanes[sess.device].shared.lock().expect("lane lock");
        (*shared.stats(sess.session), shared.queue_head())
    }

    /// Submit frames refused for exceeding the ring.
    pub fn busy_ring_full(&self) -> u64 {
        self.busy_ring_full.load(Ordering::Relaxed)
    }

    /// Submit frames shed above the in-flight ceiling.
    pub fn shed_overload(&self) -> u64 {
        self.shed_overload.load(Ordering::Relaxed)
    }

    /// Batches delayed by a session rate budget.
    pub fn throttled(&self) -> u64 {
        self.throttled.load(Ordering::Relaxed)
    }

    /// The device-side report: every lane's session ledgers plus the
    /// pool-level backpressure counters.
    pub fn report(&self) -> ServeReport {
        ServeReport {
            devices: self
                .lanes
                .iter()
                .enumerate()
                .map(|(index, lane)| {
                    let shared = lane.shared.lock().expect("lane lock");
                    let info = shared.info();
                    DeviceLaneReport {
                        index,
                        label: lane.label.clone(),
                        name: info.name().to_string(),
                        capacity: info.capacity(),
                        queue_head: shared.queue_head(),
                        sessions: shared.session_stats().to_vec(),
                    }
                })
                .collect(),
            busy_ring_full: self.busy_ring_full(),
            shed_overload: self.shed_overload(),
            throttled: self.throttled(),
        }
    }

    /// The pool's shared telemetry hub — the event loop and the metrics
    /// endpoint clone this to record their own counters alongside the
    /// pool's.
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// A live telemetry snapshot: the hub's rows (pool counters, per-lane
    /// histograms, whatever the event loop registered) in registration
    /// order, then each lane's underlying device observed under
    /// `serve.device{i}.*`, then — in fleet mode — the fleet simulation's
    /// whole snapshot. Deterministic: same run, same bytes.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        // Clone the registry out of the hub first, then observe devices
        // into the clone: no lane lock is ever taken under the hub lock
        // (submit records hub-side only after releasing its lane lock).
        let mut reg = self.obs.with_registry(|r| r.clone());
        for (i, lane) in self.lanes.iter().enumerate() {
            let shared = lane.shared.lock().expect("lane lock");
            shared
                .inner()
                .observe_into(&format!("serve.device{i}"), &mut reg);
        }
        let mut snap = reg.snapshot();
        if let Some(f) = self.fleet.as_ref() {
            let fleet_snap = f.lock().expect("fleet lock").sim.obs_snapshot();
            snap.extend_prefixed("", &fleet_snap);
        }
        snap
    }

    /// A full `uc.obs.v1` telemetry capture: the combined snapshot from
    /// [`ServePool::obs_snapshot`] plus the flight-recorder tail — the
    /// hub's own events followed, in fleet mode, by the fleet
    /// simulation's (migration phases, contract violations).
    pub fn obs_report(&self) -> uc_obs::ObsReport {
        let mut report = self.obs.report();
        report.snapshot = self.obs_snapshot();
        if let Some(f) = self.fleet.as_ref() {
            let fleet_report = f.lock().expect("fleet lock").sim.obs_report();
            report.events.extend(fleet_report.events);
            report.dropped_events += fleet_report.dropped_events;
        }
        report
    }

    /// Service-latency percentiles merged across every lane — the
    /// summary `serve --bench-json` publishes.
    pub fn service_summary(&self) -> uc_obs::HistSummary {
        let ids: Vec<HistId> = self.oids.lanes.iter().map(|l| l.service).collect();
        uc_obs::HistSummary::of(&self.obs.merged_hist(&ids))
    }

    /// Opens a session on lane `device` wrapped as an in-process
    /// [`BlockDevice`] — the local twin of the remote client, used by
    /// `serve --inprocess` to produce the determinism baseline.
    pub fn device(&self, device: usize) -> Option<PoolDevice<'_>> {
        let (session, info) = self.open(device)?;
        Some(PoolDevice {
            pool: self,
            session,
            info,
        })
    }
}

/// An in-process session on a [`ServePool`] lane, speaking the plain
/// [`BlockDevice`] interface.
///
/// Batches larger than the pool's ring are split at the ring boundary
/// (splitting never changes the schedule — every request carries its own
/// submit instant), and an overload refusal is retried after yielding,
/// so the adapter converges exactly like the network client's retry
/// path.
pub struct PoolDevice<'a> {
    pool: &'a ServePool,
    session: PoolSession,
    info: DeviceInfo,
}

impl PoolDevice<'_> {
    /// The underlying pool session.
    pub fn session(&self) -> &PoolSession {
        &self.session
    }
}

impl BlockDevice for PoolDevice<'_> {
    fn info(&self) -> DeviceInfo {
        self.info.clone()
    }

    fn submit(&mut self, req: &IoRequest) -> IoResult {
        let completions = self.submit_batch(&IoBatch::from(vec![*req]))?;
        Ok(completions[0].completes)
    }

    fn submit_batch(&mut self, batch: &IoBatch) -> Result<Vec<Completion>, IoError> {
        let ring = self.pool.config.ring;
        let mut out = Vec::with_capacity(batch.len());
        for chunk in batch.requests().chunks(ring) {
            let base = out.len();
            loop {
                match self.pool.submit(&mut self.session, chunk) {
                    Ok((completions, guard)) => {
                        drop(guard);
                        out.extend(completions.into_iter().map(|c| Completion {
                            index: base + c.index,
                            ..c
                        }));
                        break;
                    }
                    Err(Rejection::Busy(_)) => std::thread::yield_now(),
                    Err(Rejection::Io(e)) => return Err(e),
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_sim::SimDuration;

    /// A fixed-latency device.
    struct Fixed;

    impl BlockDevice for Fixed {
        fn info(&self) -> DeviceInfo {
            DeviceInfo::new("fixed", 1 << 30, 512)
        }
        fn submit(&mut self, req: &IoRequest) -> IoResult {
            self.info().validate(req)?;
            Ok(req.submit_time + SimDuration::from_micros(10))
        }
    }

    fn pool(config: PoolConfig) -> ServePool {
        ServePool::new(
            vec![
                (
                    "a".to_string(),
                    Box::new(Fixed) as Box<dyn BlockDevice + Send>,
                ),
                ("b".to_string(), Box::new(Fixed)),
            ],
            config,
        )
    }

    fn at(nanos: u64) -> SimTime {
        SimTime::from_nanos(nanos)
    }

    #[test]
    fn sessions_submit_and_account_per_lane() {
        let pool = pool(PoolConfig::default());
        let (mut s0, info) = pool.open(0).unwrap();
        let (mut s1, _) = pool.open(1).unwrap();
        assert_eq!(info.capacity(), 1 << 30);
        let reqs = [
            IoRequest::write(0, 4096, at(0)),
            IoRequest::read(4096, 512, at(5)),
        ];
        let (completions, guard) = pool.submit(&mut s0, &reqs).unwrap();
        assert_eq!(completions.len(), 2);
        drop(guard);
        let (completions, guard) = pool.submit(&mut s1, &reqs[..1]).unwrap();
        assert_eq!(completions.len(), 1);
        drop(guard);
        let report = pool.report();
        assert_eq!(report.devices.len(), 2);
        assert_eq!(report.devices[0].sessions[0].ios, 2);
        assert_eq!(report.devices[1].sessions[0].ios, 1);
        assert_eq!(report.total_ios(), 3);
        assert_eq!(report.total_bytes(), 4096 + 512 + 4096);
        assert_eq!(report.busy_ring_full, 0);
        assert_eq!(report.shed_overload, 0);
    }

    #[test]
    fn oversized_batches_are_refused_with_ring_full() {
        let pool = pool(PoolConfig {
            ring: 2,
            ..PoolConfig::default()
        });
        let (mut s, _) = pool.open(0).unwrap();
        let reqs = [
            IoRequest::write(0, 512, at(0)),
            IoRequest::write(512, 512, at(0)),
            IoRequest::write(1024, 512, at(0)),
        ];
        assert_eq!(
            pool.submit(&mut s, &reqs).unwrap_err(),
            Rejection::Busy(BusyReason::RingFull)
        );
        assert_eq!(pool.busy_ring_full(), 1);
        // Nothing was issued.
        assert_eq!(pool.report().total_ios(), 0);
    }

    #[test]
    fn arrivals_above_the_ceiling_are_shed() {
        let pool = pool(PoolConfig {
            max_inflight: 1,
            ..PoolConfig::default()
        });
        let (mut s, _) = pool.open(0).unwrap();
        let reqs = [IoRequest::write(0, 512, at(0))];
        let (_, guard) = pool.submit(&mut s, &reqs).unwrap();
        // The first batch's guard is still alive: the next arrival sheds.
        assert_eq!(
            pool.submit(&mut s, &reqs).unwrap_err(),
            Rejection::Busy(BusyReason::Overload)
        );
        assert_eq!(pool.shed_overload(), 1);
        drop(guard);
        // Slot free again: the retry is admitted.
        let (_, guard) = pool.submit(&mut s, &reqs).unwrap();
        drop(guard);
        assert_eq!(pool.report().total_ios(), 2);
    }

    #[test]
    fn rate_budget_delays_instead_of_refusing() {
        // 1 MB/s budget, 2 MB batch: granted ~1 s after the burst.
        let pool = pool(PoolConfig {
            rate: Some(1e6),
            ..PoolConfig::default()
        });
        let (mut s, _) = pool.open(0).unwrap();
        let reqs: Vec<IoRequest> = (0..4)
            .map(|i| IoRequest::write(i * (512 << 10), 512 << 10, at(0)))
            .collect();
        let (completions, guard) = pool.submit(&mut s, &reqs).unwrap();
        drop(guard);
        // 2 MB against a 1 MB burst: 1 MB of deficit at 1 MB/s = 1 s.
        assert!(completions[0].submitted >= at(999_000_000));
        assert_eq!(s.throttled(), 1);
        assert_eq!(pool.throttled(), 1);
    }

    #[test]
    fn device_errors_propagate_typed() {
        let pool = pool(PoolConfig::default());
        let (mut s, _) = pool.open(0).unwrap();
        let reqs = [IoRequest::write(1 << 40, 512, at(0))];
        assert!(matches!(
            pool.submit(&mut s, &reqs),
            Err(Rejection::Io(IoError::OutOfRange { .. }))
        ));
        // The failed batch's admission slot was released with its guard.
        let ok = [IoRequest::write(0, 512, at(0))];
        assert!(pool.submit(&mut s, &ok).is_ok());
    }

    #[test]
    fn unknown_lane_is_refused() {
        let pool = pool(PoolConfig::default());
        assert!(pool.open(2).is_none());
        assert!(pool.device(7).is_none());
    }

    #[test]
    fn owned_guards_hold_the_same_admission_slot() {
        let pool = Arc::new(pool(PoolConfig {
            max_inflight: 1,
            ..PoolConfig::default()
        }));
        let (mut s, _) = pool.open(0).unwrap();
        let reqs = [IoRequest::write(0, 512, at(0))];
        let (_, guard) = pool.submit_owned(&mut s, &reqs).unwrap();
        assert_eq!(
            pool.submit(&mut s, &reqs).unwrap_err(),
            Rejection::Busy(BusyReason::Overload)
        );
        drop(guard);
        let (_, guard) = pool.submit_owned(&mut s, &reqs).unwrap();
        drop(guard);
        assert_eq!(pool.report().total_ios(), 2);
        assert!(pool.validate_session(&s));
    }

    #[test]
    fn fleet_mode_serves_tenants_behind_the_epoch_barrier() {
        use uc_essd::{Essd, EssdConfig};
        use uc_fleet::{FleetConfig, FleetDevice};

        let fleet_config =
            FleetConfig::new(3, 1).with_duration(uc_sim::SimDuration::from_millis(4));
        let devices: Vec<FleetDevice> = vec![Box::new(Essd::new(
            EssdConfig::alibaba_pl3(64 << 20).with_name("fleet-essd-0".to_string()),
        ))];
        let sim = FleetSim::new_fed(fleet_config, devices);
        let pool = ServePool::new_fleet(sim, PoolConfig::default());
        assert!(pool.is_fleet());
        assert_eq!(pool.fleet_tenants(), 3);

        let (name, span, io_size) = pool.attach_tenant(0).unwrap();
        assert_eq!(name, "tenant0@fleet");
        assert!(span >= io_size as u64);
        assert_eq!(pool.attach_tenant(0), Err(FleetError::AlreadyAttached));
        assert_eq!(pool.attach_tenant(9), Err(FleetError::UnknownTenant));

        let entry = TraceEntry {
            at: at(10),
            kind: uc_blockdev::IoKind::Write,
            offset: 0,
            len: io_size,
        };
        assert_eq!(pool.tenant_push(0, &[entry]).unwrap(), 1);
        assert!(matches!(
            pool.tenant_push(
                0,
                &[TraceEntry {
                    offset: span,
                    ..entry
                }]
            ),
            Err(FleetError::Feed(uc_fleet::FeedError::OutOfRegion { .. }))
        ));

        // The barrier: the epoch runs only once every tenant flushed.
        assert_eq!(
            pool.tenant_flush(0, 1),
            Err(FleetError::EpochMismatch { expected: 0 })
        );
        assert_eq!(pool.tenant_flush(0, 0).unwrap(), FlushOutcome::Waiting);
        assert_eq!(pool.tenant_flush(1, 0).unwrap(), FlushOutcome::Waiting);
        match pool.tenant_flush(2, 0).unwrap() {
            FlushOutcome::EpochComplete { epoch: 0, moves } => assert!(moves.is_empty()),
            other => panic!("barrier did not clear: {other:?}"),
        }
        let report = pool.fleet_report().expect("fleet report");
        assert_eq!(report.epochs, 1);
        assert_eq!(report.total_ios, 1);

        // A roster pool has no tenant seam.
        let roster = super::tests::pool(PoolConfig::default());
        assert_eq!(roster.attach_tenant(0), Err(FleetError::NotFleet));
        assert!(roster.fleet_report().is_none());
    }

    #[test]
    fn obs_snapshot_mirrors_the_report_and_is_deterministic() {
        let drive = |pool: &ServePool| {
            let (mut s0, _) = pool.open(0).unwrap();
            let (mut s1, _) = pool.open(1).unwrap();
            for i in 0..4u64 {
                let reqs = [
                    IoRequest::write(i * 8192, 4096, at(i * 100)),
                    IoRequest::read(i * 8192, 512, at(i * 100 + 10)),
                ];
                let (_, g) = pool.submit(&mut s0, &reqs).unwrap();
                drop(g);
            }
            let (_, g) = pool
                .submit(&mut s1, &[IoRequest::write(0, 4096, at(9))])
                .unwrap();
            drop(g);
        };
        let a = pool(PoolConfig::default());
        drive(&a);
        let snap = a.obs_snapshot();
        assert_eq!(snap.counter("serve.pool.ios"), Some(a.report().total_ios()));
        assert_eq!(
            snap.counter("serve.pool.bytes"),
            Some(a.report().total_bytes())
        );
        assert_eq!(snap.counter("serve.lane1.ios"), Some(1));
        let svc = snap.histogram("serve.lane0.service_ns").unwrap();
        assert_eq!(svc.count, 8);
        assert!(svc.p99_ns >= svc.p50_ns);
        let sizes = snap.histogram("serve.lane0.batch_size").unwrap();
        assert_eq!((sizes.count, sizes.max_ns), (4, 2));

        // Same traffic on a twin pool: byte-identical snapshots.
        let b = pool(PoolConfig::default());
        drive(&b);
        assert_eq!(snap.render_text(), b.obs_snapshot().render_text());
        assert_eq!(
            snap.render_prometheus(),
            b.obs_snapshot().render_prometheus()
        );
    }

    #[test]
    fn pool_device_matches_direct_device_exactly() {
        // The in-process adapter is transparent: the same batch sequence
        // against a bare device produces identical completions.
        let pool = pool(PoolConfig {
            ring: 3, // force mid-batch splits
            ..PoolConfig::default()
        });
        let mut via_pool = pool.device(0).unwrap();
        let mut direct = Fixed;
        let batch: IoBatch = (0..8u64)
            .map(|i| IoRequest::write(i * 4096, 4096, at(i * 100)))
            .collect();
        let a = via_pool.submit_batch(&batch).unwrap();
        let b = direct.submit_batch(&batch).unwrap();
        assert_eq!(a, b);
        assert_eq!(via_pool.info().name(), "fixed");
        // Single-request path too.
        let req = IoRequest::read(0, 4096, at(10_000));
        assert_eq!(via_pool.submit(&req).unwrap(), direct.submit(&req).unwrap());
    }
}
