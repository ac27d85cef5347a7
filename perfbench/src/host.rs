//! The host's speed, measured with a fixed reference kernel.
//!
//! On a shared machine the host's speed drifts by up to 2x over seconds
//! to minutes. The process keeps its CPU the whole time (its CPU time
//! equals its wall time), so the CPU itself runs slower, most likely
//! while other tenants share its caches and cores. Times taken minutes
//! apart, as two runs of the benchmark are, then differ by more than a
//! change to the program would move them.
//!
//! The reference kernel is code of this package only, so no change to
//! the simulator moves it: a pointer chase through a table the size of
//! L2, and small allocations. Of the kernels tried (pure ALU, chases
//! through 256 KiB, 4 MiB and 64 MiB, small allocations, a mix of std
//! collections, socket round trips), these two tracked the simulator's
//! own drift best. Timing the kernel around each measured repetition
//! gives the host's speed at that moment, and a host time `t` is stated
//! at the nominal speed as `t * NOMINAL_S / kernel_s`.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one timed pass of the kernel takes at the nominal host speed:
/// its typical time on the 2-vCPU Xeon host the benchmark was tuned on,
/// so that stated times read close to that host's real seconds.
pub const NOMINAL_S: f64 = 0.003;

/// Passes timed per speed sample; the sample is their median.
const PASSES: usize = 3;

/// 256 KiB of `u32` links.
const LINKS: usize = 1 << 16;
const CHASE_STEPS: usize = 400_000;
const SMALL_ALLOCS: u64 = 40_000;

pub struct Reference {
    /// One random cycle through every slot: `next[i]` follows `i`.
    next: Vec<u32>,
    /// Every speed sample taken, for the run's diagnostics.
    pub samples: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        let mut order: Vec<u32> = (0..LINKS as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..LINKS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; LINKS];
        for (i, &slot) in order.iter().enumerate() {
            next[slot as usize] = order[(i + 1) % LINKS];
        }
        Reference {
            next,
            samples: Vec::new(),
        }
    }

    fn kernel(&self) -> u64 {
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        let mut acc = at as u64;
        for i in 0..SMALL_ALLOCS {
            let v: Vec<u8> = vec![1; 16 + ((i * 37) & 255) as usize];
            acc = acc.wrapping_add(black_box(v).len() as u64);
        }
        acc
    }

    /// Seconds a kernel pass takes now: one warm-up pass, so the table is
    /// back in cache whatever ran before, then the median of `PASSES`.
    pub fn sample(&mut self) -> f64 {
        black_box(self.kernel());
        let mut times: Vec<f64> = (0..PASSES)
            .map(|_| {
                let t = Instant::now();
                black_box(self.kernel());
                t.elapsed().as_secs_f64()
            })
            .collect();
        let s = crate::median(&mut times);
        self.samples.push(s);
        s
    }

    /// Runs `f` between two speed samples; returns its result and the
    /// factor that states host times taken during `f` at nominal speed.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.sample();
        let out = f();
        let after = self.sample();
        (out, 2.0 * NOMINAL_S / (before + after))
    }
}
