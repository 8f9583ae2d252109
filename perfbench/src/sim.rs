//! The simulator stage: the trained model on the cycle-accurate PULP
//! cluster (`AccelBackend`, and `AccelChain` when traced), classifying
//! held-out one-sample windows on the three platforms of the paper's
//! Table 3.

use std::time::{Duration, Instant};

use pulp_hd_core::backend::{
    AccelBackend, BackendSession, ExecutionBackend, GoldenBackend, HdModel, Verdict,
};
use pulp_hd_core::platform::Platform;
use pulp_hd_core::{AccelChain, ChainRun};

use crate::host::{Probe, Scale, Speed};
use crate::stats::{median, median_of, Metrics};
use crate::{err, Fixture, Gate};

/// One-sample windows simulated per platform in one pass.
const WINDOWS: usize = 8;

/// The paper's Table 3 total for PULPv3 with one core, kcycles: the
/// base of its speed-ups.
const PAPER_BASE_K: f64 = 533.0;

/// `(metric suffix, platform, paper Table 3 total kcycles)`.
fn platforms() -> [(&'static str, Platform, f64); 3] {
    [
        ("pulpv3x1", Platform::pulpv3(1), PAPER_BASE_K),
        ("pulpv3x4", Platform::pulpv3(4), 143.0),
        ("wolf8", Platform::wolf_builtin(8), 29.0),
    ]
}

/// One prepared `AccelBackend` session per platform.
pub fn prepare_all(model: &HdModel) -> Result<Vec<Box<dyn BackendSession>>, String> {
    platforms()
        .into_iter()
        .map(|(_, p, _)| {
            AccelBackend::new(p)
                .prepare(model)
                .map_err(err("accel prepare"))
        })
        .collect()
}

/// Simulator statistics of one platform, summed over a pass.
#[derive(Default, Clone, Copy)]
struct Counters {
    cycles: u64,
    map_encode: u64,
    am: u64,
    retired: u64,
    stall_mem_conflict: u64,
    stall_l2: u64,
    stall_dma: u64,
    stall_barrier: u64,
    dma_words: u64,
}

impl Counters {
    fn add(&mut self, run: &ChainRun) {
        self.cycles += run.cycles_total;
        self.map_encode += run.cycles_map_encode;
        self.am += run.cycles_am;
        self.retired += run.summary.total_retired();
        for c in &run.summary.cores {
            self.stall_mem_conflict += c.stall_mem_conflict;
            self.stall_l2 += c.stall_l2;
            self.stall_dma += c.stall_dma;
            self.stall_barrier += c.stall_barrier;
        }
        self.dma_words += run.summary.dma.words_moved;
    }
}

fn same_decision(a: &Verdict, class: usize, distances: &[u32], query: &hdc::BinaryHv) -> bool {
    a.class == class && a.distances == distances && a.query == *query
}

struct TracedRound {
    cycles_per_s: f64,
    /// Host seconds per platform over the pass.
    host_s: [f64; 3],
}

pub struct Sim {
    windows: Vec<Vec<Vec<u16>>>,
    golden: Vec<Verdict>,
    sessions: Vec<Box<dyn BackendSession>>,
    chains: Vec<AccelChain>,
    /// Total simulated cycles per platform over the window set, fixed
    /// by the first pass.
    cycles: Option<[u64; 3]>,
    counters: Option<[Counters; 3]>,
    /// Per round: simulated cycles per host second, and the probes.
    rates: Vec<(f64, Speed)>,
    traced: Vec<TracedRound>,
}

impl Sim {
    pub fn new(fx: &Fixture, trace: bool) -> Result<Self, String> {
        let windows: Vec<Vec<Vec<u16>>> = (0..WINDOWS)
            .map(|i| vec![fx.test[i * fx.test.len() / WINDOWS][0].clone()])
            .collect();
        let mut golden = GoldenBackend
            .prepare(&fx.model)
            .map_err(err("golden prepare"))?;
        let golden = golden
            .classify_batch(&windows)
            .map_err(err("golden classify"))?;
        let mut chains = Vec::new();
        if trace {
            for (_, platform, _) in platforms() {
                let mut chain =
                    AccelChain::new(&platform, fx.model.params()).map_err(err("chain"))?;
                chain
                    .load_model(fx.model.cim(), fx.model.im(), fx.model.prototypes())
                    .map_err(err("chain load"))?;
                chains.push(chain);
            }
        }
        Ok(Self {
            windows,
            golden,
            sessions: prepare_all(&fx.model)?,
            chains,
            cycles: None,
            counters: None,
            rates: Vec::new(),
            traced: Vec::new(),
        })
    }

    /// One round: untraced `AccelBackend` passes for the budget (at
    /// least one), then, when traced, `AccelChain` passes for the same
    /// budget. Every verdict must equal golden's, and every pass must
    /// repeat the first pass's cycle counts exactly.
    pub fn round(
        &mut self,
        budget: Duration,
        probe: &mut Probe,
        gate: &mut Gate,
    ) -> Result<(), String> {
        let before = probe.speed()?;
        let mut rates = Vec::new();
        let mut mismatched = 0;
        let start = Instant::now();
        while rates.is_empty() || start.elapsed() < budget {
            let mut pass = [0u64; 3];
            let t = Instant::now();
            for (session, total) in self.sessions.iter_mut().zip(&mut pass) {
                for (w, g) in self.windows.iter().zip(&self.golden) {
                    let v = session.classify(w).map_err(err("accel classify"))?;
                    mismatched += usize::from(!same_decision(g, v.class, &v.distances, &v.query));
                    *total += v.cycles.map_or(0, |c| c.total);
                }
            }
            rates.push(pass.iter().sum::<u64>() as f64 / t.elapsed().as_secs_f64());
            let first = *self.cycles.get_or_insert(pass);
            gate.check(first == pass, || {
                format!("sim: cycle counts changed between passes: {first:?} then {pass:?}")
            });
        }
        gate.check(mismatched == 0, || {
            format!("sim: {mismatched} simulated verdicts differ from golden")
        });
        let n = (rates.len() * WINDOWS * 3) as u64;
        gate.phase("sim.classify", n, n - mismatched as u64, mismatched as u64);
        self.rates
            .push((median(&rates), Speed::around(before, probe.speed()?)));

        if !self.chains.is_empty() {
            self.traced_round(budget, gate)?;
        }
        Ok(())
    }

    /// Traced passes through `AccelChain`, reading the simulator's full
    /// run summary for every window.
    fn traced_round(&mut self, budget: Duration, gate: &mut Gate) -> Result<(), String> {
        let mut passes = Vec::new();
        let mut mismatched = 0;
        let start = Instant::now();
        while passes.is_empty() || start.elapsed() < budget {
            let mut counters = [Counters::default(); 3];
            let mut host_s = [0.0; 3];
            let t = Instant::now();
            for ((chain, c), h) in self.chains.iter_mut().zip(&mut counters).zip(&mut host_s) {
                let tp = Instant::now();
                for (w, g) in self.windows.iter().zip(&self.golden) {
                    let run = chain.classify(w).map_err(err("chain classify"))?;
                    mismatched +=
                        usize::from(!same_decision(g, run.class, &run.distances, &run.query));
                    c.add(&run);
                }
                *h = tp.elapsed().as_secs_f64();
            }
            let total: u64 = counters.iter().map(|c| c.cycles).sum();
            passes.push(TracedRound {
                cycles_per_s: total as f64 / t.elapsed().as_secs_f64(),
                host_s,
            });
            let first = *self.counters.get_or_insert(counters);
            gate.check(
                first
                    .iter()
                    .zip(&counters)
                    .all(|(a, b)| a.cycles == b.cycles && a.retired == b.retired),
                || "sim (traced): simulator statistics changed between passes".into(),
            );
        }
        gate.check(mismatched == 0, || {
            format!("sim (traced): {mismatched} chain verdicts differ from golden")
        });
        let n = (passes.len() * WINDOWS * 3) as u64;
        gate.phase("sim.chain", n, n - mismatched as u64, mismatched as u64);
        let mid = median_of(&passes, |p| p.cycles_per_s);
        let pick = passes
            .into_iter()
            .min_by(|a, b| {
                (a.cycles_per_s - mid)
                    .abs()
                    .total_cmp(&(b.cycles_per_s - mid).abs())
            })
            .ok_or("sim: no traced pass ran")?;
        self.traced.push(pick);
        Ok(())
    }

    fn per_window(&self, i: usize) -> f64 {
        self.cycles.map_or(0.0, |c| c[i] as f64 / WINDOWS as f64)
    }

    pub fn end_to_end(&self, m: &mut Metrics) {
        for (i, (name, _, _)) in platforms().iter().enumerate() {
            m.put(format!("sim_cycles.{name}"), self.per_window(i), "cycles");
        }
        m.rounds(
            "sim_host_cycles_per_s",
            &self.rates,
            "1/s",
            Scale::SerialRate,
        );
    }

    pub fn layers(&self, m: &mut Metrics) {
        let Some(counters) = &self.counters else {
            return;
        };
        let w = WINDOWS as f64;
        for (i, ((name, platform, _), c)) in platforms().iter().zip(counters).enumerate() {
            let per = |v: u64| v as f64 / w;
            m.put(
                format!("sim.map_encode_cycles.{name}"),
                per(c.map_encode),
                "cycles",
            );
            m.put(format!("sim.am_cycles.{name}"), per(c.am), "cycles");
            m.put(
                format!("sim.retired_per_window.{name}"),
                per(c.retired),
                "count",
            );
            m.put(
                format!("sim.ipc.{name}"),
                c.retired as f64 / (c.cycles as f64 * platform.cores() as f64),
                "1/cycle",
            );
            m.put(
                format!("sim.stall_mem_conflict.{name}"),
                per(c.stall_mem_conflict),
                "cycles",
            );
            m.put(format!("sim.stall_l2.{name}"), per(c.stall_l2), "cycles");
            m.put(format!("sim.stall_dma.{name}"), per(c.stall_dma), "cycles");
            m.put(
                format!("sim.stall_barrier.{name}"),
                per(c.stall_barrier),
                "cycles",
            );
            m.put(
                format!("sim.dma_words_moved.{name}"),
                per(c.dma_words),
                "count",
            );
            m.put(
                format!("sim.host_ns_per_retired.{name}"),
                median_of(&self.traced, |t| t.host_s[i]) * 1e9 / c.retired as f64,
                "ns",
            );
        }
        for (i, (name, _, paper_k)) in platforms().iter().enumerate().skip(1) {
            let speedup = self.per_window(0) / self.per_window(i);
            m.put(format!("sim.speedup.{name}"), speedup, "x");
            let paper = PAPER_BASE_K / paper_k;
            m.put(
                format!("sim.speedup_abs_error_pct.{name}"),
                100.0 * ((speedup - paper) / paper).abs(),
                "%",
            );
        }
        for (i, (name, _, paper_k)) in platforms().iter().enumerate() {
            m.put(
                format!("sim.cycles_abs_error_pct.{name}"),
                100.0 * ((self.per_window(i) - paper_k * 1e3) / (paper_k * 1e3)).abs(),
                "%",
            );
        }
        let untraced = median_of(&self.rates, |r| r.0);
        m.put(
            "trace.sim_overhead_pct",
            100.0 * (untraced - median_of(&self.traced, |t| t.cycles_per_s)) / untraced,
            "%",
        );
    }

    /// Measured cycles and speed-ups beside the paper's Table 3, as a
    /// JSON fragment for the run metadata.
    pub fn paper_comparison(&self) -> String {
        let rows: Vec<String> = platforms()
            .iter()
            .enumerate()
            .map(|(i, (name, _, paper_k))| {
                let cycles = self.per_window(i);
                let speedup = self.per_window(0) / cycles;
                let paper_speedup = PAPER_BASE_K / paper_k;
                format!(
                    "\"{name}\": {{\"cycles\": {cycles}, \"paper_cycles\": {}, \"cycles_error_pct\": {:.2}, \"speedup\": {speedup:.3}, \"paper_speedup\": {paper_speedup:.2}, \"speedup_error_pct\": {:.2}}}",
                    paper_k * 1e3,
                    100.0 * (cycles - paper_k * 1e3) / (paper_k * 1e3),
                    100.0 * (speedup - paper_speedup) / paper_speedup,
                )
            })
            .collect();
        format!("\"table3\": {{{}}}", rows.join(", "))
    }
}
