//! Host-speed probes.
//!
//! The shared host this benchmark was calibrated on ran the same code
//! at speeds up to 2× apart, shifting within seconds and drifting over
//! minutes. Each timed end-to-end metric is therefore reported at a
//! reference host speed: the benchmark times two fixed kernels of its
//! own right before and after each measurement and scales the raw
//! figure by how far they ran from their reference times. The kernels
//! never call the code under test, so a change to the library moves
//! the metric and not the scale. Raw figures and probe times are in the
//! run metadata.

use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::nproc;
use crate::stats::median;

/// Compute-probe time on the calibration host, ns.
pub const COMPUTE_REF_NS: f64 = 928_000.0;

/// Wake-probe round trip on the calibration host, µs.
pub const WAKE_REF_US: f64 = 9.6;

/// Words per compute-probe buffer: a few hypervectors' worth.
const WORDS: usize = 2_048;

/// Compute-probe tries per probe.
const TRIES: usize = 5;

/// Round trips per wake probe.
const TRIPS: usize = 32;

/// The probe times around one measurement.
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    /// Compute probe: the kernel on every CPU at once, slowest CPU, ns.
    pub compute_ns: f64,
    /// The same kernel runs, averaged over the CPUs, ns: the speed a
    /// single thread that moves between CPUs sees.
    pub serial_ns: f64,
    /// Wake probe: one-byte round trip to a thread over a Unix socket
    /// pair, µs.
    pub wake_us: f64,
}

impl Speed {
    /// The mean of the probes taken before and after a measurement.
    pub fn around(before: Self, after: Self) -> Self {
        Self {
            compute_ns: 0.5 * (before.compute_ns + after.compute_ns),
            serial_ns: 0.5 * (before.serial_ns + after.serial_ns),
            wake_us: 0.5 * (before.wake_us + after.wake_us),
        }
    }
}

/// How a metric is brought to the reference host speed.
#[derive(Debug, Clone, Copy)]
pub enum Scale {
    /// A compute-bound rate of work spread over every CPU: scaled by
    /// compute-probe time over its reference.
    ComputeRate,
    /// A compute-bound rate of one thread: scaled by the CPU-averaged
    /// probe time over the same reference.
    SerialRate,
    /// A compute-bound duration: scaled by the inverse.
    ComputeTime,
    /// A duration dominated by thread wake-ups and socket hand-offs:
    /// scaled by the wake-probe reference over its time.
    WakeTime,
}

impl Scale {
    pub fn apply(self, raw: f64, s: Speed) -> f64 {
        match self {
            Self::ComputeRate => raw * s.compute_ns / COMPUTE_REF_NS,
            Self::SerialRate => raw * s.serial_ns / COMPUTE_REF_NS,
            Self::ComputeTime => raw * COMPUTE_REF_NS / s.compute_ns,
            Self::WakeTime => raw * WAKE_REF_US / s.wake_us,
        }
    }
}

/// The compute kernel: xor + popcount over two buffers, ns.
fn kernel_ns(a: &[u64], b: &[u64]) -> f64 {
    let t = Instant::now();
    let mut acc = 0u32;
    for _ in 0..512 {
        for (x, y) in black_box(a).iter().zip(black_box(b)) {
            acc = acc.wrapping_add((x ^ y).count_ones());
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e9
}

/// The probe kernels, with the echo thread of the wake probe.
pub struct Probe {
    a: Vec<u64>,
    b: Vec<u64>,
    socket: UnixStream,
    echo: Option<JoinHandle<()>>,
}

impl Probe {
    pub fn spawn() -> Result<Self, String> {
        let (socket, mut peer) =
            UnixStream::pair().map_err(|e| format!("probe socket pair: {e}"))?;
        let echo = std::thread::Builder::new()
            .name("perfbench-echo".into())
            .spawn(move || {
                let mut byte = [0u8; 1];
                while peer.read_exact(&mut byte).is_ok() && peer.write_all(&byte).is_ok() {}
            })
            .map_err(|e| format!("probe echo thread: {e}"))?;
        Ok(Self {
            a: (0..WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            b: (0..WORDS as u64)
                .map(|i| i.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) ^ 0x55)
                .collect(),
            socket,
            echo: Some(echo),
        })
    }

    /// Times both kernels. The compute kernel runs on every CPU at once,
    /// [`TRIES`] times; each try counts the slowest thread, since a
    /// pooled stage waits for its slowest worker, and the fastest try
    /// counts, since a burst this short is only ever slowed by the host
    /// taking a CPU away for a moment, which the measurements it scales
    /// average out.
    pub fn speed(&mut self) -> Result<Speed, String> {
        let (a, b) = (&self.a, &self.b);
        let tries: Vec<Vec<f64>> = (0..TRIES)
            .map(|_| {
                std::thread::scope(|s| {
                    let workers: Vec<_> =
                        (0..nproc()).map(|_| s.spawn(|| kernel_ns(a, b))).collect();
                    workers
                        .into_iter()
                        .map(|w| w.join().expect("probe thread"))
                        .collect()
                })
            })
            .collect();
        let fastest = |f: fn(&[f64]) -> f64| tries.iter().map(|t| f(t)).fold(f64::MAX, f64::min);
        let compute_ns = fastest(|t| t.iter().copied().fold(0.0, f64::max));
        let serial_ns = fastest(|t| t.iter().sum::<f64>() / t.len() as f64);
        let mut wake = Vec::with_capacity(TRIPS);
        let mut byte = [7u8; 1];
        for _ in 0..TRIPS {
            let t = Instant::now();
            self.socket
                .write_all(&byte)
                .and_then(|()| self.socket.read_exact(&mut byte))
                .map_err(|e| format!("wake probe: {e}"))?;
            wake.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(Speed {
            compute_ns,
            serial_ns,
            wake_us: median(&wake),
        })
    }

    /// Closes the socket and joins the echo thread.
    pub fn finish(mut self) {
        let _ = self.socket.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}
