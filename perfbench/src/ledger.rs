//! Leaf-layer replay: a traced run's captured request stream, replayed
//! call by call against fresh instances of each leaf layer, built from
//! the preset configs. Each replay pass is timed as a whole and its
//! allocations counted, so a row reads host ns (and allocations) per call.

use std::hint::black_box;
use std::time::Instant;

use uc_blockdev::{BlockDevice, IoKind, IoRequest};
use uc_cluster::{ChunkMap, Cluster};
use uc_essd::{Essd, EssdConfig};
use uc_flash::FlashArray;
use uc_ftl::Ftl;
use uc_metrics::LatencyHistogram;
use uc_net::{HostStack, NetPath};
use uc_persist::decode_record;
use uc_serve::{Body, Frame, FrameHeader, PoolConfig, ServePool};
use uc_sim::{SimRng, SimTime, TokenBucket};
use uc_ssd::{Ssd, SsdConfig};
use uc_workload::precondition;

use crate::span::Recording;
use crate::{alloc, median, per, Metrics};

/// Requests replayed at most (a fleet run captures about a million).
const MAX_REPLAY: usize = 1 << 18;
/// Passes per replay, each on a fresh instance; the median time is kept.
const PASSES: usize = 3;
/// Wire bytes of a request/response header, as the ESSD model charges.
const HEADER_BYTES: u64 = 128;
/// The serving pool's submission ring: larger doorbells travel as
/// several frames.
const RING: usize = 64;

/// One replay: `PASSES` timed passes of `pass` over `calls` calls, each
/// on a state from `fresh`.
pub struct Replay<S> {
    pub ns_per_call: f64,
    /// Allocations per call (the count is the same on every pass).
    pub allocs_per_call: f64,
    /// The state the last pass left.
    pub state: S,
}

pub fn replay<S>(calls: u64, fresh: impl Fn() -> S, mut pass: impl FnMut(&mut S)) -> Replay<S> {
    let mut times = Vec::with_capacity(PASSES);
    let mut allocs = 0;
    let mut state = fresh();
    for i in 0..PASSES {
        if i > 0 {
            state = fresh();
        }
        let before = alloc::allocs();
        let t = Instant::now();
        pass(&mut state);
        times.push(t.elapsed().as_nanos() as f64);
        allocs = alloc::allocs() - before;
    }
    Replay {
        ns_per_call: median(&mut times) / calls.max(1) as f64,
        allocs_per_call: per(allocs, calls),
        state,
    }
}

/// `req` moved into a device of `capacity` bytes (same length, aligned).
fn fit(req: &IoRequest, capacity: u64) -> IoRequest {
    let mut r = *req;
    r.offset %= capacity;
    if r.end() > capacity {
        r.offset = capacity - r.len as u64;
    }
    r
}

/// Replays `rec` against every ESSD and SSD leaf layer.
///
/// Returns the seconds the SSD replay template took to precondition.
pub fn leaves(
    rec: &Recording,
    essd: &EssdConfig,
    ssd: &(SsdConfig, u64),
    out: &mut Metrics,
) -> f64 {
    let reqs = &rec.reqs[..rec.reqs.len().min(MAX_REPLAY)];
    let n = reqs.len() as u64;

    let lats = &rec.latencies[..rec.latencies.len().min(MAX_REPLAY)];
    let r = replay(lats.len() as u64, LatencyHistogram::new, |hist| {
        for &l in lats {
            hist.record(black_box(l));
        }
    });
    out.put("metrics.hist.record_ns", r.ns_per_call, "ns");

    // ESSD stations, in the order a request crosses them.
    let essd_reqs: Vec<IoRequest> = reqs.iter().map(|r| fit(r, essd.capacity)).collect();
    let rng = || SimRng::new(essd.seed);
    let r = replay(
        n,
        || {
            let stack = HostStack::new(essd.stack_workers.max(1), essd.stack_per_io.clone());
            (stack, rng())
        },
        |(stack, rng)| {
            for r in &essd_reqs {
                black_box(stack.process(r.submit_time, rng));
            }
        },
    );
    out.put("net.host_stack.ns_per_call", r.ns_per_call, "ns");

    let r = replay(
        n,
        || {
            TokenBucket::new(
                essd.bandwidth_burst_bytes.max(1.0),
                essd.bandwidth_bytes_per_sec,
            )
        },
        |bucket| {
            for r in &essd_reqs {
                black_box(bucket.reserve(r.submit_time, r.len as u64));
            }
        },
    );
    out.put("sim.token.ns_per_call", r.ns_per_call, "ns");

    let r = replay(
        n,
        || (NetPath::new(essd.net.clone()), rng()),
        |(path, rng)| {
            for r in &essd_reqs {
                let bytes = HEADER_BYTES + if r.kind.is_write() { r.len as u64 } else { 0 };
                black_box(path.send(r.submit_time, bytes, rng));
            }
        },
    );
    out.put("net.fabric.ns_per_call", r.ns_per_call, "ns");

    let c = &essd.cluster;
    let map = || ChunkMap::new(c.chunk_bytes, c.nodes, c.replication, c.placement_seed);
    let counting = map();
    let map_calls: u64 = essd_reqs
        .iter()
        .map(|r| 1 + counting.fragments(r.offset, r.len).len() as u64)
        .sum();
    let r = replay(map_calls, map, |map| {
        for r in &essd_reqs {
            for (chunk, _) in black_box(map.fragments(r.offset, r.len)) {
                black_box(map.replicas(chunk));
            }
        }
    });
    out.put("cluster.map.ns_per_call", r.ns_per_call, "ns");
    out.put("cluster.map.allocs_per_call", r.allocs_per_call, "count");

    let r = replay(
        n,
        || (Cluster::new(c.clone()), rng()),
        |(cluster, rng)| {
            for r in &essd_reqs {
                black_box(match r.kind {
                    IoKind::Write => cluster.write(r.submit_time, r.offset, r.len, rng),
                    IoKind::Read => cluster.read(r.submit_time, r.offset, r.len, rng),
                });
            }
        },
    );
    let s = r.state.0.stats();
    out.put("cluster.io.ns_per_call", r.ns_per_call, "ns");
    out.put(
        "cluster.fragments_per_io",
        per(s.write_fragments + s.read_fragments, n),
        "count",
    );

    let r = replay(
        n,
        || Essd::new(essd.clone()),
        |device| {
            for r in &essd_reqs {
                black_box(device.submit(r).expect("replayed request is in range"));
            }
        },
    );
    out.put("essd.submit.ns_per_io", r.ns_per_call, "ns");
    out.put("essd.submit.allocs_per_io", r.allocs_per_call, "count");

    // SSD stations: the device on a full drive, then its FTL and flash.
    let (config, jitter) = ssd;
    let mut full = Ssd::with_seed(config.clone(), *jitter);
    let t = Instant::now();
    precondition(&mut full).expect("preconditioning a fresh SSD");
    let precondition_s = t.elapsed().as_secs_f64();
    let cap = full.info().capacity();
    let ssd_reqs: Vec<IoRequest> = reqs.iter().map(|r| fit(r, cap)).collect();
    let r = replay(
        n,
        || full.clone(),
        |device| {
            for r in &ssd_reqs {
                black_box(device.submit(r).expect("replayed request is in range"));
            }
        },
    );
    out.put("ssd.submit.ns_per_io", r.ns_per_call, "ns");
    out.put("ssd.submit.allocs_per_io", r.allocs_per_call, "count");
    drop(full);

    let mut full = Ftl::new(config.ftl);
    for lpn in 0..full.logical_pages() {
        full.write_page(SimTime::ZERO, lpn);
    }
    let page = full.page_size() as u64;
    let pages = |kind: IoKind| -> Vec<(SimTime, u64)> {
        ssd_reqs
            .iter()
            .filter(|r| r.kind == kind)
            .flat_map(|r| {
                (0..r.len as u64 / page).map(move |i| (r.submit_time, r.offset / page + i))
            })
            .collect()
    };
    let (writes, reads) = (pages(IoKind::Write), pages(IoKind::Read));
    let r = replay(
        writes.len() as u64,
        || full.clone(),
        |ftl| {
            for &(at, lpn) in &writes {
                black_box(ftl.write_page(at, lpn));
            }
        },
    );
    let (before, after) = (full.stats(), r.state.stats());
    out.put("ftl.write_page.ns_per_call", r.ns_per_call, "ns");
    out.put(
        "ftl.gc.relocations_per_write",
        per(
            after.gc_pages_relocated - before.gc_pages_relocated,
            after.host_pages_written - before.host_pages_written,
        ),
        "count",
    );
    let r = replay(
        reads.len() as u64,
        || full.clone(),
        |ftl| {
            for &(at, lpn) in &reads {
                black_box(ftl.read_page(at, lpn));
            }
        },
    );
    out.put("ftl.read_page.ns_per_call", r.ns_per_call, "ns");

    let geometry = config.ftl.geometry;
    let dies = geometry.total_dies();
    let r = replay(
        writes.len() as u64,
        || FlashArray::new(geometry, config.ftl.timing),
        |flash| {
            for (i, &(at, _)) in writes.iter().enumerate() {
                black_box(flash.program_page(at, i as u32 % dies));
            }
        },
    );
    out.put("flash.program_page.ns_per_call", r.ns_per_call, "ns");
    precondition_s
}

/// The serve path's layers replayed on a serve recording: the pool's
/// submit on a fresh one-lane pool, and the wire codec on every
/// doorbell's submit and completions frames. Returns `(encode + decode
/// ns of one round trip's four frames, pool ns per batch)`.
pub fn serve_path(rec: &Recording, essd: &EssdConfig, out: &mut Metrics) -> (f64, f64) {
    let batches: Vec<&[IoRequest]> = rec
        .doorbells
        .iter()
        .flat_map(|&(first, len)| rec.reqs[first..first + len].chunks(RING))
        .collect();

    let mut device = Essd::new(essd.clone());
    precondition(&mut device).expect("preconditioning a fresh ESSD");
    let pool = || {
        let lane: Box<dyn BlockDevice + Send> = Box::new(device.clone());
        let pool = ServePool::new(vec![("essd-1".to_string(), lane)], PoolConfig::default());
        let (session, _) = pool.open(0).expect("lane 0 exists");
        (pool, session, Vec::with_capacity(batches.len()))
    };
    let r = replay(
        batches.len() as u64,
        pool,
        |(pool, session, completions)| {
            for reqs in &batches {
                let (done, _admitted) = pool
                    .submit(session, reqs)
                    .expect("replayed batch is admitted");
                completions.push(done);
            }
        },
    );
    let pool_ns = r.ns_per_call;
    out.put("serve.pool.submit_ns_per_batch", pool_ns, "ns");

    let header = FrameHeader {
        session: 1,
        lane: 1,
        seq: 1,
    };
    let mut frames = Vec::with_capacity(2 * batches.len());
    for (reqs, done) in batches.iter().zip(r.state.2) {
        let reqs = reqs.to_vec();
        frames.push(Frame::new(header, Body::Submit { reqs }));
        frames.push(Frame::new(header, Body::Completions { completions: done }));
    }
    let n = frames.len() as u64;
    let encoded = replay(n, Vec::new, |encoded| {
        encoded.extend(frames.iter().map(Frame::encode));
    });
    let decoded = replay(
        n,
        || (),
        |()| {
            for bytes in &encoded.state {
                let (kind, payload) = decode_record(bytes).expect("own encoding decodes");
                black_box(Frame::from_parts(&kind, payload).expect("own encoding decodes"));
            }
        },
    );
    let bytes: usize = encoded.state.iter().map(Vec::len).sum();
    let ios: usize = batches.iter().map(|b| b.len()).sum();
    out.put("serve.wire.encode_ns_per_frame", encoded.ns_per_call, "ns");
    out.put("serve.wire.decode_ns_per_frame", decoded.ns_per_call, "ns");
    out.put(
        "serve.wire.bytes_per_io",
        per(bytes as u64, ios as u64),
        "bytes",
    );
    (2.0 * (encoded.ns_per_call + decoded.ns_per_call), pool_ns)
}
