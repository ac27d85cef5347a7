//! Busy-until resource timelines.
//!
//! Device models in this workspace are *timeline-driven*: rather than
//! scheduling explicit events for every internal state change, each shared
//! station (a firmware pipeline, a DMA engine, a flash die, a storage-node
//! service pool) is a resource that, given a request arrival time and a
//! service time, answers "when would this request start and finish?". The
//! answer is exact for FIFO stations and makes the simulators both simple
//! and fast.

use crate::{SimDuration, SimTime};
use std::collections::VecDeque;
use uc_invariant::{ensure, Contract, Violation};

/// A serialized FIFO station (one server).
///
/// Models anything that processes one request at a time in arrival order:
/// a command-processing firmware stage, a bus/DMA engine, a network link
/// serializing bytes.
///
/// # Example
///
/// ```
/// use uc_sim::{Resource, SimDuration, SimTime};
///
/// let mut bus = Resource::new();
/// let t0 = SimTime::ZERO;
/// let (s1, f1) = bus.acquire(t0, SimDuration::from_micros(4));
/// let (s2, f2) = bus.acquire(t0, SimDuration::from_micros(4));
/// assert_eq!(s1, t0);
/// assert_eq!(s2, f1); // queued behind the first request
/// assert_eq!(f2, t0 + SimDuration::from_micros(8));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Resource {
    busy_until: SimTime,
    busy_time: SimDuration,
}

/// The complete serializable state of a [`Resource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceSnapshot {
    /// The instant the resource becomes idle.
    pub busy_until: SimTime,
    /// Total service time accumulated.
    pub busy_time: SimDuration,
}

/// The complete serializable state of a [`ParallelResource`].
///
/// The per-server free-at instants are stored in ascending order — the
/// canonical form, and the live station's own layout — so two snapshots
/// of behaviourally identical stations compare equal. Restoring from the
/// sorted form is exact: the station only ever consults the
/// *earliest-free* server, and servers with equal free-at instants are
/// interchangeable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelResourceSnapshot {
    /// Per-server free-at instants, sorted ascending.
    pub servers: Vec<SimTime>,
    /// Total service time accumulated across all servers.
    pub busy_time: SimDuration,
}

impl Resource {
    /// A resource that is idle from the simulation epoch.
    pub fn new() -> Self {
        Resource::default()
    }

    /// Reserves the resource for `service` starting no earlier than `now`.
    ///
    /// Returns `(start, finish)` of the granted slot and advances the
    /// timeline so later calls queue behind this one.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        let start = now.max(self.busy_until);
        let finish = start + service;
        self.busy_until = finish;
        self.busy_time += service;
        (start, finish)
    }

    /// The earliest instant at which new work could start.
    pub fn free_at(&self) -> SimTime {
        self.busy_until
    }

    /// Total service time accumulated (for utilization accounting).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Forgets all scheduled work; the resource is idle from `SimTime::ZERO`.
    pub fn reset(&mut self) {
        *self = Resource::default();
    }

    /// Captures the resource's complete state.
    pub fn snapshot(&self) -> ResourceSnapshot {
        ResourceSnapshot {
            busy_until: self.busy_until,
            busy_time: self.busy_time,
        }
    }

    /// Rebuilds a resource that continues exactly where `snapshot` was
    /// taken.
    pub fn restore(snapshot: ResourceSnapshot) -> Self {
        Resource {
            busy_until: snapshot.busy_until,
            busy_time: snapshot.busy_time,
        }
    }
}

/// A k-server FIFO station.
///
/// Models stations with internal parallelism: the set of flash dies reached
/// through independent channels, a storage node's worker pool, parallel
/// network connections. Each arriving request is assigned to the server
/// that frees up earliest.
///
/// The servers' free-at instants are kept as an ascending ring: the
/// front is the earliest-free server and the back the last to drain. An
/// acquire pops the front and puts the new finish back in order — at the
/// back when it is the latest, otherwise at its binary-searched slot. The
/// back is the common case: on an idle station, and within a run of
/// equal-service requests from one arrival instant (a die pool's page
/// loop), finishes come out in ascending order. The multiset of free-at
/// instants, and so every `(start, finish)`, is exactly what a min-heap
/// would produce.
///
/// # Example
///
/// ```
/// use uc_sim::{ParallelResource, SimDuration, SimTime};
///
/// let mut dies = ParallelResource::new(2);
/// let t0 = SimTime::ZERO;
/// let service = SimDuration::from_micros(100);
/// let (_, f1) = dies.acquire(t0, service);
/// let (_, f2) = dies.acquire(t0, service);
/// let (_, f3) = dies.acquire(t0, service);
/// assert_eq!(f1, t0 + service);       // first server
/// assert_eq!(f2, t0 + service);       // second server, in parallel
/// assert_eq!(f3, t0 + service * 2);   // queued behind the first
/// ```
#[derive(Debug, Clone)]
pub struct ParallelResource {
    /// Per-server free-at instants, ascending.
    servers: VecDeque<SimTime>,
    capacity: usize,
    busy_time: SimDuration,
}

impl ParallelResource {
    /// A station with `servers` parallel servers, all idle from the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "ParallelResource requires at least one server");
        ParallelResource {
            servers: VecDeque::from(vec![SimTime::ZERO; servers]),
            capacity: servers,
            busy_time: SimDuration::ZERO,
        }
    }

    /// Number of servers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reserves the earliest-free server for `service` starting no earlier
    /// than `now`; returns `(start, finish)`.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        let free = self.servers.pop_front().expect("at least one server");
        let start = now.max(free);
        let finish = start + service;
        match self.servers.back() {
            Some(&last) if finish < last => {
                let slot = self.servers.partition_point(|&t| t <= finish);
                self.servers.insert(slot, finish);
            }
            _ => self.servers.push_back(finish),
        }
        self.busy_time += service;
        // Contract hook (O(1)): the pop/insert pair conserved the server
        // count — a lost server would silently serialize the station.
        uc_invariant::enforce(|| {
            ensure!(
                self,
                "server-count-conserved",
                self.servers.len() == self.capacity,
                "{} servers in ring, capacity {}",
                self.servers.len(),
                self.capacity
            );
            Ok(())
        });
        (start, finish)
    }

    /// The earliest instant at which any server could start new work.
    pub fn free_at(&self) -> SimTime {
        self.servers.front().copied().unwrap_or(SimTime::ZERO)
    }

    /// The instant at which *all* currently scheduled work completes.
    pub fn drained_at(&self) -> SimTime {
        self.servers.back().copied().unwrap_or(SimTime::ZERO)
    }

    /// Total service time accumulated across all servers.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Forgets all scheduled work.
    pub fn reset(&mut self) {
        *self = ParallelResource::new(self.capacity);
    }

    /// Captures the station's complete state in canonical (sorted) form.
    pub fn snapshot(&self) -> ParallelResourceSnapshot {
        ParallelResourceSnapshot {
            servers: self.servers.iter().copied().collect(),
            busy_time: self.busy_time,
        }
    }

    /// Rebuilds a station that continues exactly where `snapshot` was
    /// taken. A hand-built snapshot whose servers are out of order is
    /// sorted first (servers are interchangeable, so order carries no
    /// state).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot holds no servers.
    pub fn restore(snapshot: ParallelResourceSnapshot) -> Self {
        assert!(
            !snapshot.servers.is_empty(),
            "ParallelResource snapshot requires at least one server"
        );
        let mut servers = snapshot.servers;
        servers.sort_unstable();
        ParallelResource {
            capacity: servers.len(),
            servers: VecDeque::from(servers),
            busy_time: snapshot.busy_time,
        }
    }
}

/// Structural audit of a k-server station: the server pool never leaks or
/// duplicates a server, and the ring stays ascending (the front must be
/// the earliest-free server). O(servers).
impl Contract for ParallelResource {
    fn contract_name(&self) -> &'static str {
        "uc-sim/ParallelResource"
    }

    fn check(&self) -> Result<(), Violation> {
        ensure!(
            self,
            "capacity-positive",
            self.capacity > 0,
            "station has zero capacity"
        );
        ensure!(
            self,
            "server-count-conserved",
            self.servers.len() == self.capacity,
            "{} servers in ring, capacity {}",
            self.servers.len(),
            self.capacity
        );
        ensure!(
            self,
            "servers-ascending",
            self.servers
                .iter()
                .zip(self.servers.iter().skip(1))
                .all(|(a, b)| a <= b),
            "free-at ring out of order: {:?}",
            self.servers
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_resource_queues_fifo() {
        let mut r = Resource::new();
        let d = SimDuration::from_micros(10);
        let (s1, f1) = r.acquire(SimTime::ZERO, d);
        let (s2, f2) = r.acquire(SimTime::ZERO, d);
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(s2, f1);
        assert_eq!(f2.as_nanos(), 20_000);
        assert_eq!(r.busy_time(), SimDuration::from_micros(20));
    }

    #[test]
    fn serial_resource_idles_between_arrivals() {
        let mut r = Resource::new();
        let d = SimDuration::from_micros(1);
        let (_, f1) = r.acquire(SimTime::ZERO, d);
        let late = f1 + SimDuration::from_micros(100);
        let (s2, _) = r.acquire(late, d);
        assert_eq!(s2, late, "an idle resource starts work immediately");
    }

    #[test]
    fn parallel_resource_uses_all_servers() {
        let mut r = ParallelResource::new(4);
        let d = SimDuration::from_micros(50);
        let finishes: Vec<SimTime> = (0..8).map(|_| r.acquire(SimTime::ZERO, d).1).collect();
        let first_wave = finishes.iter().filter(|f| **f == SimTime::ZERO + d).count();
        let second_wave = finishes
            .iter()
            .filter(|f| **f == SimTime::ZERO + d * 2)
            .count();
        assert_eq!(first_wave, 4);
        assert_eq!(second_wave, 4);
    }

    #[test]
    fn parallel_resource_free_and_drained() {
        let mut r = ParallelResource::new(2);
        let d = SimDuration::from_micros(10);
        r.acquire(SimTime::ZERO, d);
        assert_eq!(r.free_at(), SimTime::ZERO, "one server still idle");
        r.acquire(SimTime::ZERO, d * 3);
        assert_eq!(r.free_at(), SimTime::ZERO + d);
        assert_eq!(r.drained_at(), SimTime::ZERO + d * 3);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_server_station_panics() {
        let _ = ParallelResource::new(0);
    }

    #[test]
    fn snapshot_restore_resumes_both_station_kinds() {
        let d = SimDuration::from_micros(10);
        let mut serial = Resource::new();
        serial.acquire(SimTime::ZERO, d);
        let resumed = Resource::restore(serial.snapshot());
        assert_eq!(resumed.free_at(), serial.free_at());
        assert_eq!(resumed.busy_time(), serial.busy_time());

        let mut pool = ParallelResource::new(3);
        pool.acquire(SimTime::ZERO, d);
        pool.acquire(SimTime::ZERO, d * 4);
        let snap = pool.snapshot();
        assert_eq!(snap.servers.len(), 3);
        assert!(snap.servers.windows(2).all(|w| w[0] <= w[1]), "canonical");
        let mut resumed = ParallelResource::restore(snap.clone());
        assert_eq!(resumed.capacity(), 3);
        assert_eq!(resumed.snapshot(), snap, "round trip is lossless");
        // The resumed pool schedules exactly as the original would.
        assert_eq!(
            resumed.acquire(SimTime::ZERO, d),
            pool.acquire(SimTime::ZERO, d)
        );
        assert_eq!(resumed.drained_at(), pool.drained_at());
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_parallel_snapshot_rejected() {
        let _ = ParallelResource::restore(ParallelResourceSnapshot {
            servers: Vec::new(),
            busy_time: SimDuration::ZERO,
        });
    }

    #[test]
    fn restore_sorts_a_hand_built_snapshot() {
        let us = |n| SimTime::ZERO + SimDuration::from_micros(n);
        let mut pool = ParallelResource::restore(ParallelResourceSnapshot {
            servers: vec![us(30), us(10), us(20)],
            busy_time: SimDuration::ZERO,
        });
        assert!(pool.check().is_ok());
        assert_eq!(pool.snapshot().servers, vec![us(10), us(20), us(30)]);
        assert_eq!(pool.free_at(), us(10));
        assert_eq!(pool.drained_at(), us(30));
        assert_eq!(
            pool.acquire(SimTime::ZERO, SimDuration::from_micros(5)),
            (us(10), us(15))
        );
    }

    #[test]
    fn out_of_order_insert_keeps_the_ring_ascending() {
        let mut pool = ParallelResource::new(3);
        let d = SimDuration::from_micros;
        pool.acquire(SimTime::ZERO, d(100));
        pool.acquire(SimTime::ZERO, d(50));
        // The idle third server finishes before both busy ones: the new
        // instant goes mid-ring, not at the back.
        pool.acquire(SimTime::ZERO, d(10));
        let snap = pool.snapshot().servers;
        assert_eq!(
            snap,
            vec![
                SimTime::ZERO + d(10),
                SimTime::ZERO + d(50),
                SimTime::ZERO + d(100)
            ]
        );
        assert!(pool.check().is_ok());
    }

    #[test]
    fn reset_clears_schedule() {
        let mut r = Resource::new();
        r.acquire(SimTime::ZERO, SimDuration::from_secs(1));
        r.reset();
        assert_eq!(r.free_at(), SimTime::ZERO);
        let mut p = ParallelResource::new(3);
        p.acquire(SimTime::ZERO, SimDuration::from_secs(1));
        p.reset();
        assert_eq!(p.drained_at(), SimTime::ZERO);
        assert_eq!(p.capacity(), 3);
    }
}
