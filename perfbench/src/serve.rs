//! `serve-uds`: one `serve_events` thread serving one ESSD lane on a
//! Unix-domain socket, and this thread as its client running the
//! closed-loop driver over `RemoteDevice`. Exactly two threads.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use uc_blockdev::BlockDevice;
use uc_essd::{Essd, EssdConfig};
use uc_serve::{serve_events, Endpoint, Listener, PoolConfig, RemoteDevice, ServePool};
use uc_sim::SimRng;
use uc_workload::{precondition, run_job, AccessPattern, JobSpec};

use crate::closed::{drive, essd_presets, report_bytes};
use crate::span::Probe;
use crate::{Digest, Rep};

/// Closed-loop I/Os per repetition (about half a host second). The host's
/// speed drifts within seconds, so short repetitions, each between two
/// speed samples, track it more closely than long ones; and each still
/// yields more than 10k round-trip samples.
pub const IOS: u64 = 32_768;
/// I/Os of the serve layers' probe in another workload's traced run.
pub const PROBE_IOS: u64 = 4_096;

pub struct Serve {
    device: EssdConfig,
    spec: JobSpec,
    socket: PathBuf,
    /// Precondition seconds of the latest repetition's served device.
    pub last_precondition_s: f64,
    /// `JobReport` bytes of the same job run in-process on a fresh
    /// device, made once: the simulation is deterministic, so one
    /// in-process run is the expected report of every repetition.
    expected: Option<Vec<u8>>,
}

impl Serve {
    pub fn new(seed: u64, ios: u64, run_dir: &std::path::Path) -> Self {
        let [device, _] = essd_presets(seed);
        let spec = JobSpec::new(
            AccessPattern::Mixed {
                write_ratio: 0.5,
                random: true,
            },
            4096,
            8,
        )
        .with_io_limit(ios)
        .with_seed(SimRng::new(seed ^ 0x5E5E).next_u64());
        Serve {
            device,
            spec,
            socket: run_dir.join(format!("serve-{}.sock", std::process::id())),
            last_precondition_s: 0.0,
            expected: None,
        }
    }

    pub fn rep(&mut self) -> Result<Rep, String> {
        let io = |e: std::io::Error| e.to_string();
        let t = Instant::now();
        let mut device = Essd::new(self.device.clone());
        let p = Instant::now();
        let ready = precondition(&mut device).map_err(|e| e.to_string())?;
        self.last_precondition_s = p.elapsed().as_secs_f64();
        let pool = Arc::new(ServePool::new(
            vec![(
                "essd-1".to_string(),
                Box::new(device) as Box<dyn BlockDevice + Send>,
            )],
            PoolConfig::default(),
        ));
        let endpoint = Endpoint::Uds(self.socket.clone());
        let listener = Listener::bind(&endpoint).map_err(io)?;
        let server = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || serve_events(&listener, &pool, 1))
        };
        let remote = RemoteDevice::open(&endpoint, 0);
        let setup = t.elapsed().as_secs_f64();

        let spec = self.spec.clone().with_start(ready);
        let outcome = remote.map_err(io).and_then(|remote| {
            let mut remote = Probe(remote);
            let t = Instant::now();
            let report = drive(&mut remote, &spec, 0).map_err(|e| e.to_string());
            let wall = t.elapsed().as_secs_f64();
            let refused = remote.0.ring_full_splits() + remote.0.overload_retries();
            remote.0.close().map_err(io)?;
            Ok((report?, wall, refused))
        });
        // The server exits once its one session closes; if the client
        // never got that far, unblock it with a connection that closes.
        if outcome.is_err() {
            let _ = RemoteDevice::open(&endpoint, 0).map(RemoteDevice::close);
        }
        let served = server
            .join()
            .map_err(|_| "serve thread panicked".to_string())?;
        let _ = std::fs::remove_file(&self.socket);
        let (report, wall, refused) = outcome?;
        served.map_err(io)?;

        let served = pool.report();
        let failed = refused + served.busy_ring_full + served.shed_overload;
        // The wire run must equal the same job in-process on a fresh device.
        let bytes = report_bytes(&report);
        if self.expected.is_none() {
            let mut local = Essd::new(self.device.clone());
            precondition(&mut local).map_err(|e| e.to_string())?;
            let expected = run_job(&mut local, &spec).map_err(|e| e.to_string())?;
            self.expected = Some(report_bytes(&expected));
        }
        if self.expected.as_ref() != Some(&bytes) {
            return Err("wire JobReport differs from the in-process run".to_string());
        }
        let mut digest = Digest::default();
        digest.update(&bytes);
        digest.update(format!("{served:?}").as_bytes());
        Ok(Rep {
            setup_s: Some(setup),
            wall_s: wall,
            ios: report.ios,
            failed,
            digest: digest.finish(),
        })
    }
}
