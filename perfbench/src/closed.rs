//! The two closed-loop simulator workloads: `essd-mix` (the paper's
//! cells on both ESSD presets) and `ssd-gc` (sustained random writes on a
//! full local SSD, with read phases between). Single-threaded.

use std::time::Instant;

use uc_blockdev::{BlockDevice, IoError};
use uc_core::DeviceRoster;
use uc_essd::{Essd, EssdConfig};
use uc_persist::{Encoder, Persist};
use uc_sim::{SimRng, SimTime};
use uc_ssd::{Ssd, SsdConfig};
use uc_workload::{precondition, AccessPattern, ClosedLoopJob, JobReport, JobSpec};

use crate::span::{self, Probe};
use crate::{Digest, Rep};

// Repetitions last about two host seconds each, so every repetition
// spans the host's multi-second swings in speed instead of sampling one.

/// I/Os per `essd-mix` cell (8 cells per repetition).
const CELL_IOS: u64 = 131_072;
/// I/Os per `ssd-gc` write phase and read phase.
const GC_WRITE_IOS: u64 = 131_072;
const GC_READ_IOS: u64 = 32_768;
/// Write-then-read cycles per `ssd-gc` repetition.
const GC_CYCLES: usize = 6;
/// Set-ups timed per run; the median is reported.
pub const SETUPS: usize = 9;

/// The closed-loop driver as `run_job` runs it, inside a driver span.
pub fn drive<D: BlockDevice + ?Sized>(
    dev: &mut D,
    spec: &JobSpec,
    job: u64,
) -> Result<JobReport, IoError> {
    span::job_start();
    span::scope("workload.driver", job, || {
        let mut run = ClosedLoopJob::start(dev, spec)?;
        run.run_until(dev, u64::MAX)?;
        Ok(run.into_report())
    })
}

pub fn report_bytes(report: &JobReport) -> Vec<u8> {
    let mut w = Encoder::new();
    report.encode(&mut w);
    w.into_bytes()
}

/// A preconditioned device and the instant its fill completed.
pub struct Template<D> {
    pub device: D,
    pub ready_at: SimTime,
}

/// Builds and preconditions `SETUPS` devices with `build`, returning the
/// last one plus each set-up's `(total, precondition)` seconds.
fn prepare<D: BlockDevice>(build: impl Fn() -> D) -> (Template<D>, Vec<(f64, f64)>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut device = build();
        let built = t.elapsed().as_secs_f64();
        let p = Instant::now();
        let ready_at = precondition(&mut device).expect("preconditioning a fresh device");
        let pre = p.elapsed().as_secs_f64();
        times.push((built + pre, pre));
        last = Some(Template { device, ready_at });
    }
    (last.expect("at least one set-up"), times)
}

pub fn essd_presets(seed: u64) -> [EssdConfig; 2] {
    let capacity = DeviceRoster::scaled_default().essd_capacity();
    let mut rng = SimRng::new(seed ^ 0xE55D);
    [
        EssdConfig::aws_io2(capacity).with_seed(rng.next_u64()),
        EssdConfig::alibaba_pl3(capacity).with_seed(rng.next_u64()),
    ]
}

pub fn ssd_preset(seed: u64) -> (SsdConfig, u64) {
    let capacity = DeviceRoster::scaled_default().ssd_capacity();
    let jitter = SimRng::new(seed ^ 0x55D).next_u64();
    (SsdConfig::samsung_970_pro(capacity), jitter)
}

/// `essd-mix`: the paper's cells, each on a fresh copy of a preconditioned
/// ESSD-1 and then ESSD-2.
pub struct EssdMix {
    devices: Vec<Template<Essd>>,
    cells: Vec<JobSpec>,
    pub setups: Vec<(f64, f64)>,
}

impl EssdMix {
    pub fn new(seed: u64) -> Self {
        let mut devices = Vec::new();
        let mut setups = vec![(0.0, 0.0); SETUPS];
        for config in essd_presets(seed) {
            let (template, times) = prepare(|| Essd::new(config.clone()));
            for (acc, t) in setups.iter_mut().zip(times) {
                acc.0 += t.0;
                acc.1 += t.1;
            }
            devices.push(template);
        }
        let mut rng = SimRng::new(seed ^ 0xCE11);
        let cells = [
            (AccessPattern::RandRead, 4096, 1),
            (AccessPattern::RandWrite, 4096, 32),
            (AccessPattern::SeqWrite, 128 << 10, 8),
            (
                AccessPattern::Mixed {
                    write_ratio: 0.3,
                    random: true,
                },
                4096,
                16,
            ),
        ]
        .into_iter()
        .map(|(pattern, size, qd)| {
            JobSpec::new(pattern, size, qd)
                .with_io_limit(CELL_IOS)
                .with_seed(rng.next_u64())
        })
        .collect();
        EssdMix {
            devices,
            cells,
            setups,
        }
    }

    pub fn rep(&mut self) -> Result<Rep, IoError> {
        let mut digest = Digest::default();
        let mut ios = 0;
        let mut wall = 0.0;
        let mut job = 0;
        for template in &self.devices {
            for cell in &self.cells {
                let spec = cell.clone().with_start(template.ready_at);
                let mut device = Probe(template.device.clone());
                let t = Instant::now();
                let report = drive(&mut device, &spec, job)?;
                wall += t.elapsed().as_secs_f64();
                digest.update(&report_bytes(&report));
                ios += report.ios;
                job += 1;
            }
        }
        Ok(Rep {
            setup_s: None,
            wall_s: wall,
            ios,
            failed: 0,
            digest: digest.finish(),
        })
    }
}

/// `ssd-gc`: a full local SSD under sustained random writes, with random
/// read phases between.
pub struct SsdGc {
    template: Template<Ssd>,
    phases: Vec<JobSpec>,
    pub setups: Vec<(f64, f64)>,
}

impl SsdGc {
    pub fn new(seed: u64) -> Self {
        let (config, jitter) = ssd_preset(seed);
        let (template, setups) = prepare(|| Ssd::with_seed(config.clone(), jitter));
        let mut rng = SimRng::new(seed ^ 0x6C);
        let mut phases = Vec::new();
        for _ in 0..GC_CYCLES {
            phases.push(
                JobSpec::new(AccessPattern::RandWrite, 4096, 32)
                    .with_io_limit(GC_WRITE_IOS)
                    .with_seed(rng.next_u64()),
            );
            phases.push(
                JobSpec::new(AccessPattern::RandRead, 4096, 8)
                    .with_io_limit(GC_READ_IOS)
                    .with_seed(rng.next_u64()),
            );
        }
        SsdGc {
            template,
            phases,
            setups,
        }
    }

    pub fn rep(&mut self) -> Result<Rep, IoError> {
        let mut digest = Digest::default();
        let mut device = Probe(self.template.device.clone());
        let mut at = self.template.ready_at;
        let mut reports = Vec::with_capacity(self.phases.len());
        let t = Instant::now();
        for (job, phase) in self.phases.iter().enumerate() {
            let report = drive(&mut device, &phase.clone().with_start(at), job as u64)?;
            at = report.finished_at;
            reports.push(report);
        }
        let wall = t.elapsed().as_secs_f64();
        let mut ios = 0;
        for report in &reports {
            ios += report.ios;
            digest.update(&report_bytes(report));
        }
        let ftl = device.0.ftl_stats();
        digest.update(&ftl.gc_pages_relocated.to_le_bytes());
        Ok(Rep {
            setup_s: None,
            wall_s: wall,
            ios,
            failed: 0,
            digest: digest.finish(),
        })
    }
}
