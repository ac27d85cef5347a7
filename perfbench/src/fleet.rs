//! `fleet-4k`: thousands of budgeted tenants merged onto a shared ESSD
//! pool through `FleetSim`, epoch by epoch. Single-threaded.

use std::hint::black_box;
use std::time::Instant;

use uc_core::experiments::fleet::{build_pool, evaluate};
use uc_core::experiments::FleetRunConfig;
use uc_core::report::render_fleet_report;
use uc_fleet::{FleetDevice, FleetSim, FleetSnapshot, RebalancePolicy, ShapeMix};
use uc_persist::{Decoder, Encoder, Persist};
use uc_sim::SimRng;

use crate::ledger::replay;
use crate::span::{self, Probe, Recording};
use crate::{per, Digest, Metrics, Rep};

/// ROADMAP's north-star fleet: 4096 tenants on 128 devices.
pub const TENANTS: usize = 4096;
pub const DEVICES: usize = 128;
/// The fleet a traced run of another workload measures the fleet layers on.
pub const PROBE_TENANTS: usize = 256;
pub const PROBE_DEVICES: usize = 8;

pub fn config(seed: u64, tenants: usize, devices: usize) -> FleetRunConfig {
    let mut config = FleetRunConfig::new(tenants, devices);
    config.fleet = config
        .fleet
        .with_mix(ShapeMix {
            steady: 2,
            diurnal: 1,
            bursty: 1,
        })
        .with_epochs(4)
        .with_seed(SimRng::new(seed ^ 0xF1EE7).next_u64())
        .with_rebalance(RebalancePolicy::default());
    config
}

pub struct Fleet {
    config: FleetRunConfig,
    /// The simulation of the latest repetition, kept only when asked for
    /// (a 4k-tenant fleet holds well over 100 MB).
    pub last: Option<FleetSim>,
    pub keep_last: bool,
    /// Seconds `FleetSim::new` (tenant synthesis) took in the latest rep.
    pub last_synthesis_s: f64,
}

impl Fleet {
    pub fn new(config: FleetRunConfig) -> Self {
        Fleet {
            config,
            last: None,
            keep_last: false,
            last_synthesis_s: 0.0,
        }
    }

    pub fn rep(&mut self) -> Result<Rep, String> {
        self.last = None;
        let t = Instant::now();
        let pool: Vec<FleetDevice> = build_pool(&self.config)
            .into_iter()
            .map(|d| Box::new(Probe(d)) as FleetDevice)
            .collect();
        let s = Instant::now();
        let mut sim = FleetSim::new(self.config.fleet.clone(), pool);
        self.last_synthesis_s = s.elapsed().as_secs_f64();
        let setup = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut epoch = 0;
        while !sim.is_finished() {
            span::job_start();
            span::scope("fleet.run_epoch", epoch, || sim.run_epoch()).map_err(|e| e.to_string())?;
            epoch += 1;
        }
        let wall = t.elapsed().as_secs_f64();

        let verdict = evaluate(sim.report());
        let failed = verdict.report.violations.len() as u64;
        let ios = verdict.report.total_ios;
        let mut digest = Digest::default();
        digest.update(render_fleet_report(&verdict).as_bytes());
        if self.keep_last {
            self.last = Some(sim);
        }
        Ok(Rep {
            setup_s: Some(setup),
            wall_s: wall,
            ios,
            failed,
            digest: digest.finish(),
        })
    }
}

/// One traced repetition plus the fleet-only layers measured on its final
/// state: synthesis, snapshot codec, telemetry snapshot and stream merge.
pub fn traced(fleet: &mut Fleet, out: &mut Metrics) -> Result<(Rep, Recording), String> {
    fleet.keep_last = true;
    let (rep, rec) = span::record(|| fleet.rep());
    let rep = rep?;
    let sim = fleet.last.take().expect("kept by the traced rep");

    let epochs = span::totals(&rec.spans)["fleet.run_epoch"];
    out.put("fleet.run_epoch.ns_per_io", per(epochs.ns, rep.ios), "ns");
    out.put("fleet.allocs_per_io", per(epochs.allocs, rep.ios), "count");
    out.put(
        "setup.fleet_synthesis_ms",
        fleet.last_synthesis_s * 1e3,
        "ms",
    );

    // Snapshot codec and telemetry snapshot, timed per call.
    let snapshot = sim.snapshot();
    let encoded = replay(1, Encoder::new, |w| snapshot.encode(w));
    let bytes = encoded.state.into_bytes();
    let decoded = replay(
        1,
        || (),
        |()| {
            let mut r = Decoder::new(&bytes);
            black_box(FleetSnapshot::decode(&mut r).expect("own encoding decodes"));
        },
    );
    let n = bytes.len() as f64;
    out.put("persist.fleet_snapshot.bytes", n, "bytes");
    out.put(
        "persist.fleet_snapshot.encode_ns_per_byte",
        encoded.ns_per_call / n,
        "ns",
    );
    out.put(
        "persist.fleet_snapshot.decode_ns_per_byte",
        decoded.ns_per_call / n,
        "ns",
    );
    let obs = replay(
        1,
        || (),
        |()| {
            black_box(sim.obs_snapshot());
        },
    );
    out.put("obs.fleet_snapshot_us", obs.ns_per_call / 1e3, "us");

    // Stream merge: each device's residents' synthesized arrival streams.
    let traces: Vec<_> = (0..fleet.config.fleet.tenants as u32)
        .map(|t| sim.tenant_spec(t).trace.generate())
        .collect();
    let merge = replay(
        1,
        || 0u64,
        |merged| {
            for device in 0..fleet.config.fleet.devices {
                let refs: Vec<_> = sim
                    .placement()
                    .residents(device)
                    .into_iter()
                    .map(|t| (t, traces[t as usize].entries()))
                    .collect();
                let m = uc_trace::merge_streams(&refs).expect("synthesized streams are monotone");
                *merged += m.len() as u64;
                black_box(m);
            }
        },
    );
    out.put(
        "trace.merge.ns_per_entry",
        merge.ns_per_call / merge.state.max(1) as f64,
        "ns",
    );
    Ok((rep, rec))
}
