//! The offline stage: batch classification of the held-out windows and
//! batch training, straight into `FastBackend` (serve and net are
//! bypassed).

use std::hint::black_box;
use std::time::{Duration, Instant};

use hdc::Hv64;
use pulp_hd_core::backend::{
    BackendSession, ExecutionBackend, FastBackend, TrainableBackend, Verdict,
};

use crate::host::{Probe, Scale, Speed};
use crate::stats::{median, median_of, Metrics};
use crate::{err, nproc, Fixture, Gate};

/// Windows per `classify_batch` call.
const BATCH: usize = 256;

/// Repeats `pass` until `budget` is spent (at least twice) and returns
/// the median of its results.
fn median_over(
    budget: Duration,
    mut pass: impl FnMut() -> Result<f64, String>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut values = Vec::new();
    while values.len() < 2 || start.elapsed() < budget {
        values.push(pass()?);
    }
    Ok(median(&values))
}

/// One pass of batched classification over every held-out window;
/// returns windows per second of wall time. With `spans`, the start and
/// end of each `classify_batch` call are recorded as a trace would.
fn classify_pass(
    session: &mut dyn BackendSession,
    fx: &Fixture,
    spans: bool,
) -> Result<f64, String> {
    let mut trace = Vec::with_capacity(if spans { fx.test.len() / BATCH + 1 } else { 0 });
    let start = Instant::now();
    for batch in fx.test.chunks(BATCH) {
        let t = spans.then(Instant::now);
        black_box(
            session
                .classify_batch(black_box(batch))
                .map_err(err("classify"))?,
        );
        if let Some(t) = t {
            trace.push((t, Instant::now()));
        }
    }
    let elapsed = start.elapsed();
    black_box(trace);
    Ok(fx.test.len() as f64 / elapsed.as_secs_f64())
}

/// One training pass over the training windows on a fresh session;
/// returns windows per second of `train_batch` and the finalize time.
fn train_pass(backend: &FastBackend, fx: &Fixture) -> Result<(f64, Duration), String> {
    let mut trainer = backend
        .begin_training(&fx.spec)
        .map_err(err("begin training"))?;
    let t = Instant::now();
    trainer
        .train_batch(black_box(&fx.train), &fx.train_labels)
        .map_err(err("train"))?;
    let rate = fx.train.len() as f64 / t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(trainer.finalize().map_err(err("finalize"))?);
    Ok((rate, t.elapsed()))
}

struct Round {
    infer_wps: (f64, Speed),
    train_wps: (f64, Speed),
    traced: Option<TracedRound>,
}

struct TracedRound {
    infer_wps: f64,
    single_wps: f64,
    scan_ns: f64,
    unpack_ns: f64,
    train_ns: f64,
    finalize_ms: f64,
}

/// Single-thread session and packed hypervectors for the traced split.
struct Tracer {
    one: FastBackend,
    single: Box<dyn BackendSession>,
    prototypes: Vec<Hv64>,
    queries: Vec<Hv64>,
}

pub struct Offline<'a> {
    fx: &'a Fixture,
    fast: FastBackend,
    session: Box<dyn BackendSession>,
    tracer: Option<Tracer>,
    accuracy: f64,
    rounds: Vec<Round>,
}

impl<'a> Offline<'a> {
    /// Prepares the sessions and runs the gates: every held-out verdict
    /// bit-identical to golden, accuracy equal to golden's, and trained
    /// prototypes equal to golden training on the same spec.
    pub fn new(fx: &'a Fixture, trace: bool, gate: &mut Gate) -> Result<Self, String> {
        let fast = FastBackend::try_with_threads(nproc()).map_err(err("fast backend"))?;
        let mut session = fast.prepare(&fx.model).map_err(err("prepare"))?;
        let mut verdicts = Vec::with_capacity(fx.test.len());
        for batch in fx.test.chunks(BATCH) {
            verdicts.extend(session.classify_batch(batch).map_err(err("classify"))?);
        }
        let mismatched = verdicts
            .iter()
            .zip(&fx.golden)
            .filter(|(v, g)| v != g)
            .count();
        gate.check(mismatched == 0, || {
            format!("offline: {mismatched} verdicts differ from golden")
        });
        let hits = |vs: &[Verdict]| {
            vs.iter()
                .zip(&fx.test_labels)
                .filter(|(v, &l)| v.class == l)
                .count()
        };
        let (correct, golden_correct) = (hits(&verdicts), hits(&fx.golden));
        gate.check(correct == golden_correct, || {
            format!("offline: accuracy {correct} != golden {golden_correct} windows")
        });
        gate.check(
            fx.model.prototypes() == fx.golden_prototypes.as_slice(),
            || "offline: trained prototypes differ from golden training".into(),
        );
        let n = fx.test.len() as u64;
        gate.phase(
            "offline.classify",
            n,
            n - mismatched as u64,
            mismatched as u64,
        );

        let tracer = if trace {
            let one = FastBackend::try_with_threads(1).map_err(err("fast backend"))?;
            let single = one.prepare(&fx.model).map_err(err("prepare"))?;
            Some(Tracer {
                one,
                single,
                prototypes: fx
                    .model
                    .prototypes()
                    .iter()
                    .map(Hv64::from_binary)
                    .collect(),
                queries: fx
                    .golden
                    .iter()
                    .map(|v| Hv64::from_binary(&v.query))
                    .collect(),
            })
        } else {
            None
        };
        Ok(Self {
            fx,
            fast,
            session,
            tracer,
            accuracy: correct as f64 / fx.test.len() as f64,
            rounds: Vec::new(),
        })
    }

    /// One round: classification then training passes for half the
    /// budget each; traced runs then spend the budget again on the
    /// traced split.
    pub fn round(&mut self, budget: Duration, probe: &mut Probe) -> Result<(), String> {
        let fx = self.fx;
        let half = budget / 2;
        let s0 = probe.speed()?;
        let infer = median_over(half, || classify_pass(self.session.as_mut(), fx, false))?;
        let s1 = probe.speed()?;
        let train = median_over(half, || Ok(train_pass(&self.fast, fx)?.0))?;
        let s2 = probe.speed()?;
        let infer_wps = (infer, Speed::around(s0, s1));
        let train_wps = (train, Speed::around(s1, s2));
        let traced = match &mut self.tracer {
            Some(t) => Some(traced_round(fx, self.session.as_mut(), t, budget)?),
            None => None,
        };
        self.rounds.push(Round {
            infer_wps,
            train_wps,
            traced,
        });
        Ok(())
    }

    pub fn end_to_end(&self, m: &mut Metrics) {
        let series = |f: fn(&Round) -> (f64, Speed)| self.rounds.iter().map(f).collect::<Vec<_>>();
        m.rounds(
            "infer_wps",
            &series(|r| r.infer_wps),
            "1/s",
            Scale::ComputeRate,
        );
        m.rounds(
            "train_wps",
            &series(|r| r.train_wps),
            "1/s",
            Scale::ComputeRate,
        );
        m.put("accuracy", self.accuracy, "ratio");
    }

    pub fn layers(&self, m: &mut Metrics) {
        let traced: Vec<(&Round, &TracedRound)> = self
            .rounds
            .iter()
            .filter_map(|r| r.traced.as_ref().map(|t| (r, t)))
            .collect();
        let med = |f: &dyn Fn(&Round, &TracedRound) -> f64| median_of(&traced, |(r, t)| f(r, t));
        let classify_ns = med(&|_, t| 1e9 / t.single_wps);
        let scan_ns = med(&|_, t| t.scan_ns);
        let unpack_ns = med(&|_, t| t.unpack_ns);
        m.put("backend.classify_ns_per_window", classify_ns, "ns");
        m.put("hdc.am_scan_ns_per_window", scan_ns, "ns");
        m.put("backend.verdict_unpack_ns_per_window", unpack_ns, "ns");
        m.put(
            "backend.encode_ns_per_window",
            classify_ns - scan_ns - unpack_ns,
            "ns",
        );
        m.put("backend.train_ns_per_window", med(&|_, t| t.train_ns), "ns");
        m.put("backend.finalize_ms", med(&|_, t| t.finalize_ms), "ms");
        m.put(
            "pool.speedup_vs_1thread",
            med(&|r, t| r.infer_wps.0 / t.single_wps),
            "x",
        );
        m.put(
            "trace.offline_overhead_pct",
            med(&|r, t| 100.0 * (r.infer_wps.0 - t.infer_wps) / r.infer_wps.0),
            "%",
        );
    }
}

/// The traced split of one round: per-call spans on the pooled
/// session, then the single-thread session's classification split into
/// AM scan (`Hv64::hamming` of each query against every prototype),
/// verdict unpack (`Hv64::to_binary`) and the rest (encode), and
/// single-thread training with its finalize.
fn traced_round(
    fx: &Fixture,
    session: &mut dyn BackendSession,
    t: &mut Tracer,
    budget: Duration,
) -> Result<TracedRound, String> {
    let slice = budget / 6;
    let infer_wps = median_over(slice, || classify_pass(session, fx, true))?;
    let single_wps = median_over(slice, || classify_pass(t.single.as_mut(), fx, true))?;
    let per_window = |d: Duration| d.as_secs_f64() * 1e9 / t.queries.len() as f64;
    let scan_ns = median_over(slice, || {
        let start = Instant::now();
        for q in &t.queries {
            for p in &t.prototypes {
                black_box(black_box(q).hamming(p));
            }
        }
        Ok(per_window(start.elapsed()))
    })?;
    let unpack_ns = median_over(slice, || {
        let start = Instant::now();
        for q in &t.queries {
            black_box(black_box(q).to_binary());
        }
        Ok(per_window(start.elapsed()))
    })?;
    let mut finalize_ms = Vec::new();
    let train_ns = median_over(2 * slice, || {
        let (rate, fin) = train_pass(&t.one, fx)?;
        finalize_ms.push(fin.as_secs_f64() * 1e3);
        Ok(1e9 / rate)
    })?;
    Ok(TracedRound {
        infer_wps,
        single_wps,
        scan_ns,
        unpack_ns,
        train_ns,
        finalize_ms: median(&finalize_ms),
    })
}
