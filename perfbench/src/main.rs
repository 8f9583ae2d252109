//! `perfbench` — the end-to-end and per-layer benchmark of the pulp-hd
//! stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run synthesizes the paper's EMG task from `--seed`, trains a
//! `FastBackend` on the 25 %-repetition split, and measures three
//! stages of the system on the held-out windows: offline batch
//! classification and training (`offline`), an open-loop stream over a
//! Unix socket into `NetServer` → `Server` → `FastBackend` (`stream`),
//! and the cycle-accurate PULP cluster (`sim`). The workload fixes the
//! window length of the host traffic. Every verdict is checked against
//! `GoldenBackend`.
//!
//! `--trace 0` measures with no per-call timing and prints the
//! end-to-end metrics; `--trace 1` spends half of the time on the
//! untraced measurement and half timing every layer call, and prints
//! the per-layer metrics with the tracing overhead. The last line of
//! standard output is one JSON object: `{"correct", "attempted",
//! "failed", "metrics"}`. See `METRICS.md` for every metric and the
//! end-to-end metric each layer metric should move.

mod host;
mod offline;
mod sim;
mod stats;
mod stream;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use emg::{Dataset, SynthConfig};
use hdc::rng::derive_seed;
use hdc::{HdConfig, Simd};
use pulp_hd_core::backend::{
    ExecutionBackend, FastBackend, GoldenBackend, HdModel, TrainSpec, TrainableBackend, Verdict,
};
use pulp_hd_serve::net::{Endpoint, NetConfig};
use pulp_hd_serve::{NetServer, ServeConfig, Server};

use stats::Metrics;

/// One workload: the window length of the host traffic and the stream
/// rates frozen for it. The rates were calibrated once on a 2-CPU host,
/// against the highest rate one connection sustained there when the
/// host ran slow: `light` at about a tenth of it, `heavy` (sent in
/// bursts) at about a quarter, so that neither phase backs up when the
/// shared host slows down.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Samples per window (500 Hz: 5 samples = 10 ms).
    pub window: usize,
    /// `light` stream rate, windows per second.
    pub light_wps: f64,
    /// `heavy` stream rate, windows per second.
    pub heavy_wps: f64,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "emg-10ms",
        window: 5,
        light_wps: 6_000.0,
        heavy_wps: 15_000.0,
    },
    Workload {
        name: "emg-50ms",
        window: 25,
        light_wps: 3_500.0,
        heavy_wps: 9_000.0,
    },
];

/// The seed `METRICS.md` names as the default, and the held-out seed
/// kept for confirming later claims.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 1_000_003;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Worker threads for every host backend: one per CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Correctness gates and operation accounting shared by every stage.
#[derive(Default)]
pub struct Gate {
    errors: Vec<String>,
    /// `(phase, [attempted, succeeded, failed])`, summed over rounds.
    phases: Vec<(String, [u64; 3])>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Records one phase's operations: attempted, succeeded, failed.
    pub fn phase(&mut self, name: &str, attempted: u64, succeeded: u64, failed: u64) {
        self.check(succeeded + failed == attempted, || {
            format!("{name}: {succeeded} succeeded + {failed} failed != {attempted} attempted")
        });
        let counts = [attempted, succeeded, failed];
        match self.phases.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => {
                for (t, c) in total.iter_mut().zip(counts) {
                    *t += c;
                }
            }
            None => self.phases.push((name.to_string(), counts)),
        }
    }

    fn total(&self, i: usize) -> u64 {
        self.phases.iter().map(|(_, c)| c[i]).sum()
    }

    fn phases_json(&self) -> String {
        let rows: Vec<String> = self
            .phases
            .iter()
            .map(|(name, [a, s, f])| {
                format!("\"{name}\": {{\"attempted\": {a}, \"succeeded\": {s}, \"failed\": {f}}}")
            })
            .collect();
        format!("\"phases\": {{{}}}", rows.join(", "))
    }
}

/// The trained system and its golden references, shared by the stages.
pub struct Fixture {
    pub model: HdModel,
    pub train: Vec<Vec<Vec<u16>>>,
    pub train_labels: Vec<usize>,
    pub test: Vec<Vec<Vec<u16>>>,
    pub test_labels: Vec<usize>,
    pub spec: TrainSpec,
    /// `GoldenBackend` verdict of every held-out window.
    pub golden: Vec<Verdict>,
    /// Prototypes of golden training on the same spec and windows.
    pub golden_prototypes: Vec<hdc::BinaryHv>,
}

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// What one set-up builds, and the seconds of each step: synthesis,
/// training, serving prepare + wire spawn, simulator prepare.
struct Built {
    model: HdModel,
    spec: TrainSpec,
    split: Split,
    steps: [f64; 4],
}

struct Split {
    train: Vec<Vec<Vec<u16>>>,
    train_labels: Vec<usize>,
    test: Vec<Vec<Vec<u16>>>,
    test_labels: Vec<usize>,
}

/// The system's set-up: synthesize the task, train, prepare a serving
/// session behind the wire server, and build the simulated clusters.
fn set_up(workload: Workload, seed: u64) -> Result<Built, String> {
    let t = Instant::now();
    let data = Dataset::generate(&SynthConfig::paper(), 0, seed);
    let train_idx = data.training_trial_indices(0.25);
    let test_idx: Vec<usize> = (0..data.trials().len())
        .filter(|i| !train_idx.contains(i))
        .collect();
    let cut = |idx: &[usize]| -> (Vec<Vec<Vec<u16>>>, Vec<usize>) {
        data.windows_of(idx, workload.window)
            .into_iter()
            .map(|w| (w.codes, w.label))
            .unzip()
    };
    let (train, train_labels) = cut(&train_idx);
    let (test, test_labels) = cut(&test_idx);
    let synth_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let config = HdConfig {
        window: workload.window,
        seed: derive_seed(seed, 0x5eed),
        ..HdConfig::emg_default()
    };
    let spec = TrainSpec::from_config(&config, data.classes()).map_err(err("spec"))?;
    let fast = FastBackend::try_with_threads(nproc()).map_err(err("fast backend"))?;
    let mut trainer = fast.begin_training(&spec).map_err(err("begin training"))?;
    trainer
        .train_batch(&train, &train_labels)
        .map_err(err("train"))?;
    let model = trainer.finalize().map_err(err("finalize"))?;
    let train_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let server = Server::spawn(&fast, &model, ServeConfig::default()).map_err(err("spawn"))?;
    let path = stream::socket_path("setup");
    let net = NetServer::spawn(server, &[Endpoint::Uds(path)], NetConfig::default())
        .map_err(err("net spawn"))?;
    let spawn_s = t.elapsed().as_secs_f64();
    let _ = net.shutdown();

    let t = Instant::now();
    let sessions = sim::prepare_all(&model)?;
    drop(sessions);
    let sim_s = t.elapsed().as_secs_f64();

    Ok(Built {
        model,
        spec,
        split: Split {
            train,
            train_labels,
            test,
            test_labels,
        },
        steps: [synth_s, train_s, spawn_s, sim_s],
    })
}

/// Golden references for the gates: golden training on the same spec,
/// and the golden verdict of every held-out window.
fn golden_references(
    model: &HdModel,
    spec: &TrainSpec,
    split: &Split,
) -> Result<(Vec<Verdict>, Vec<hdc::BinaryHv>), String> {
    let mut trainer = GoldenBackend
        .begin_training(spec)
        .map_err(err("golden training"))?;
    trainer
        .train_batch(&split.train, &split.train_labels)
        .map_err(err("golden train"))?;
    let prototypes = trainer
        .finalize()
        .map_err(err("golden finalize"))?
        .prototypes()
        .to_vec();
    let mut golden = GoldenBackend
        .prepare(model)
        .map_err(err("golden prepare"))?;
    let verdicts = golden
        .classify_batch(&split.test)
        .map_err(err("golden classify"))?;
    Ok((verdicts, prototypes))
}

/// Rounds per run. Each round sets the system up once and runs every
/// stage for its share of `--seconds / ROUNDS`, so every stage samples
/// the host across the whole run. A metric is the median of its
/// per-round values, so a burst of load on the host moves a few
/// rounds, not the result.
const ROUNDS: usize = 20;

/// The band the light-phase closure of a traced run should lie in. It
/// is a timing reconciliation, not an output check, so it is reported
/// in the metadata and does not make a run incorrect.
const CLOSURE_BAND: (f64, f64) = (0.9, 1.1);

/// Share of a round's budget per stage: offline, stream, sim.
const SHARES: [f64; 3] = [0.2, 0.55, 0.25];

fn run(args: &Args) -> Result<(Gate, Metrics, Vec<String>), String> {
    let mut gate = Gate::default();
    let mut probe = host::Probe::spawn()?;
    let before = probe.speed()?;
    let Built {
        model,
        spec,
        split,
        steps: first,
    } = set_up(args.workload, args.seed)?;
    let mut steps = vec![(first, host::Speed::around(before, probe.speed()?))];
    let (golden, golden_prototypes) = golden_references(&model, &spec, &split)?;
    let fx = Fixture {
        model,
        train: split.train,
        train_labels: split.train_labels,
        test: split.test,
        test_labels: split.test_labels,
        spec,
        golden,
        golden_prototypes,
    };

    let mut off = offline::Offline::new(&fx, args.trace, &mut gate)?;
    let mut st = stream::Stream::new(&fx, args.workload, args.seed, args.trace);
    let mut sm = sim::Sim::new(&fx, args.trace)?;
    // A traced run spends half of each share untraced and half on the
    // traced measurements, so it takes about as long as an untraced one.
    let traced_split = if args.trace { 0.5 } else { 1.0 };
    let round = Duration::from_secs_f64(args.seconds * traced_split / ROUNDS as f64);
    for r in 0..ROUNDS {
        if r > 0 {
            let before = probe.speed()?;
            let built = set_up(args.workload, args.seed)?;
            steps.push((built.steps, host::Speed::around(before, probe.speed()?)));
        }
        off.round(round.mul_f64(SHARES[0]), &mut probe)?;
        st.round(round.mul_f64(SHARES[1]), &mut probe, &mut gate)?;
        sm.round(round.mul_f64(SHARES[2]), &mut probe, &mut gate)?;
    }
    probe.finish();

    let mut metrics = Metrics::default();
    let mut closure = None;
    if args.trace {
        let step = |i: usize| stats::median_of(&steps, |s| s.0[i]) * 1e3;
        metrics.put("setup.synth_ms", step(0), "ms");
        metrics.put("setup.train_ms", step(1), "ms");
        metrics.put("setup.serve_spawn_ms", step(2), "ms");
        metrics.put("setup.sim_prepare_ms", step(3), "ms");
        off.layers(&mut metrics);
        closure = Some(st.layers(&mut metrics));
        sm.layers(&mut metrics);
    } else {
        let setup: Vec<_> = steps
            .iter()
            .map(|(s, speed)| (s.iter().sum(), *speed))
            .collect();
        metrics.rounds("setup_s", &setup, "s", host::Scale::ComputeTime);
        off.end_to_end(&mut metrics);
        st.end_to_end(&mut metrics);
        sm.end_to_end(&mut metrics);
    }

    let w = args.workload;
    let mut meta = vec![
        format!("\"workload\": \"{}\"", w.name),
        format!("\"seed\": {}", args.seed),
        format!("\"default_seed\": {DEFAULT_SEED}, \"held_out_seed\": {HELD_OUT_SEED}"),
        format!("\"nproc\": {}", nproc()),
        format!("\"simd\": \"{}\"", Simd::active().name()),
        format!("\"git_rev\": \"{}\"", git_rev()),
        format!(
            "\"window_samples\": {}, \"light_wps\": {}, \"heavy_wps\": {}",
            w.window, w.light_wps, w.heavy_wps
        ),
        format!(
            "\"held_out_windows\": {}, \"train_windows\": {}",
            fx.test.len(),
            fx.train.len()
        ),
        st.summary(),
        sm.paper_comparison(),
        metrics.series_json(),
    ];
    if let Some(c) = closure {
        let in_band = (CLOSURE_BAND.0..=CLOSURE_BAND.1).contains(&c);
        if !in_band {
            eprintln!(
                "perfbench: note: light-phase closure {c:.3} outside [{}, {}]",
                CLOSURE_BAND.0, CLOSURE_BAND.1
            );
        }
        meta.push(format!(
            "\"closure_light\": {c}, \"closure_in_band\": {in_band}"
        ));
    }
    Ok((gate, metrics, meta))
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory when there is one.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(name) => read(&format!(".git/{name}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
        }),
        None => Some(head),
    };
    match rev.as_deref().map(str::trim) {
        Some(r) if !r.is_empty() => r.chars().take(12).collect(),
        _ => "unknown".into(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (gate, metrics, meta) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &gate.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!(
        "{{\"meta\": {{{}, {}}}}}",
        meta.join(", "),
        gate.phases_json()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gate.errors.is_empty(),
        gate.total(0),
        gate.total(2),
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
