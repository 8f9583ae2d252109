//! The stream stage: a load generator on one Unix-socket connection to
//! `NetServer` → `Server` (default `ServeConfig`) → `FastBackend`.
//!
//! One writer thread sends pipelined `Classify` frames, with at most
//! [`INFLIGHT`] requests unanswered (the server's per-connection
//! window, so it never sheds load). One reader thread times each reply.
//! The stage runs three phases, each on a fresh server so its
//! `ServerStats` and `NetStats` cover that phase alone:
//!
//! * `light` and `heavy` are open loops at the workload's fixed rates,
//!   `light` one window at a time, `heavy` in bursts of
//!   [`HEAVY_BURST`] windows due together; each reply is timed from the
//!   moment its request was *due*, so a stalled server or a late
//!   generator shows in the latency.
//! * `saturate` keeps the window full: the completion rate it reaches
//!   is the highest rate the connection sustains, since any higher
//!   offered rate builds a backlog.

use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use pulp_hd_core::backend::{FastBackend, Verdict};
use pulp_hd_serve::net::proto::{self, Request, Response, HEADER_LEN};
use pulp_hd_serve::net::{Endpoint, NetConfig, NetStats};
use pulp_hd_serve::{NetServer, ServeConfig, Server, ServerStats};

use crate::host::{Probe, Scale, Speed};
use crate::stats::{max, median, median_of, percentile, us, Metrics};
use crate::{err, nproc, Fixture, Gate, Workload};

/// Requests the generator keeps unanswered at most: the server's
/// default per-connection in-flight window.
const INFLIGHT: usize = 64;

/// Requests that fall due together in the `heavy` phase, so the
/// micro-batcher sees batches form.
const HEAVY_BURST: u64 = 16;

/// Requests per slice: tail percentiles and throughput are taken per
/// slice and reported as the median over slices, so one stall of the
/// host moves one slice, not the run.
const SLICE: usize = 1_000;

/// How long the drain waits for outstanding replies.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Latency charged to a request that failed: it misses any limit.
const MISSED_US: f64 = 1e9;

/// A socket path inside the working directory, unique to this process.
pub fn socket_path(tag: &str) -> PathBuf {
    PathBuf::from(format!(".perfbench-{}-{tag}.sock", std::process::id()))
}

/// The offered load of a phase.
#[derive(Clone, Copy)]
enum Load {
    /// Open loop at `wps` windows per second, sent in bursts of `burst`
    /// requests that fall due together.
    Rate { wps: f64, burst: u64 },
    /// Closed loop that keeps [`INFLIGHT`] requests outstanding.
    Saturate,
}

/// Median over [`SLICE`]-request slices of percentile `q` (the whole
/// sample's percentile when it holds less than one slice).
fn sliced_percentile(values: &[f64], q: f64) -> f64 {
    if values.len() < SLICE {
        return percentile(values, q);
    }
    let per: Vec<f64> = values
        .chunks_exact(SLICE)
        .map(|c| percentile(c, q))
        .collect();
    median(&per)
}

/// What one phase measured.
pub struct Phase {
    /// Client latency per request, µs: from the due time in an open
    /// loop, from the send in a closed one.
    latency_us: Vec<f64>,
    /// How late the generator sent each request, µs (open loop only).
    late_us: Vec<f64>,
    /// Reply arrival times, in order.
    completions: Vec<Instant>,
    failed: u64,
    server: ServerStats,
    net: NetStats,
    /// Traced only: client encode and decode time per request, ns.
    encode_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    /// Traced only: one request frame and its reply frame.
    frames: Option<(Vec<u8>, Vec<u8>)>,
}

impl Phase {
    fn p50(&self) -> f64 {
        percentile(&self.latency_us, 50.0)
    }

    fn p90(&self) -> f64 {
        sliced_percentile(&self.latency_us, 90.0)
    }

    fn p99(&self) -> f64 {
        sliced_percentile(&self.latency_us, 99.0)
    }

    /// Completed requests per second: the median over slices (over the
    /// whole phase when it completed less than one slice).
    fn throughput(&self) -> f64 {
        let rate = |c: &[Instant]| (c.len() - 1) as f64 / (c[c.len() - 1] - c[0]).as_secs_f64();
        if self.completions.len() < SLICE {
            return if self.completions.len() < 2 {
                0.0
            } else {
                rate(&self.completions)
            };
        }
        let rates: Vec<f64> = self.completions.chunks_exact(SLICE).map(rate).collect();
        median(&rates)
    }
}

/// The writer's view of the connection's in-flight window.
struct Window {
    outstanding: usize,
    closed: bool,
    /// Send time of every outstanding request, by id modulo the ring.
    sent_at: [Option<Instant>; 2 * INFLIGHT],
}

/// Index of the held-out window request `id` (1-based) carries: the
/// held-out windows in order, starting at a seed-derived offset.
fn window_of(fx: &Fixture, offset: usize, id: u64) -> usize {
    (offset + id as usize - 1) % fx.test.len()
}

/// One phase of `load` for `duration` on a fresh wire server.
fn run_phase(
    fx: &Fixture,
    tag: &str,
    load: Load,
    duration: Duration,
    offset: usize,
    trace: bool,
    gate: &mut Gate,
) -> Result<Phase, String> {
    let backend = FastBackend::try_with_threads(nproc()).map_err(err("fast backend"))?;
    let server =
        Server::spawn(&backend, &fx.model, ServeConfig::default()).map_err(err("spawn"))?;
    let path = socket_path(tag);
    let net = NetServer::spawn(server, &[Endpoint::Uds(path.clone())], NetConfig::default())
        .map_err(err("net spawn"))?;
    let conn = UnixStream::connect(&path).map_err(err("connect"))?;
    let mut reader = conn.try_clone().map_err(err("clone socket"))?;
    let mut writer = conn;

    let t0 = Instant::now() + Duration::from_millis(2);
    let (n, period, burst) = match load {
        Load::Rate { wps, burst } => (
            ((wps * duration.as_secs_f64()).ceil() as u64).max(1),
            Some(Duration::from_secs_f64(burst as f64 / wps)),
            burst,
        ),
        Load::Saturate => (u64::MAX, None, 1),
    };
    let due = |id: u64| period.map(|p| t0 + p.mul_f64(((id - 1) / burst) as f64));
    let window = (
        Mutex::new(Window {
            outstanding: 0,
            closed: false,
            sent_at: [None; 2 * INFLIGHT],
        }),
        Condvar::new(),
    );
    let slot = |id: u64| (id % (2 * INFLIGHT as u64)) as usize;

    let (sent, late_us, encode_ns, request_frame, reading) = std::thread::scope(|s| {
        let reading = s.spawn(|| {
            let mut header = [0u8; HEADER_LEN];
            let mut out = Reading::default();
            // Ends when the socket is shut down after the drain, or on
            // any transport or protocol failure.
            while reader.read_exact(&mut header).is_ok() {
                let Ok(h) = proto::decode_header(&header, proto::DEFAULT_MAX_FRAME) else {
                    break;
                };
                let mut payload = vec![0u8; h.len as usize];
                if h.id == 0 || reader.read_exact(&mut payload).is_err() {
                    break;
                }
                let t = Instant::now();
                let response = proto::decode_response(&h, &payload);
                let done = Instant::now();
                let mut w = window.0.lock().expect("window lock");
                let sent_at = w.sent_at[slot(h.id)].take();
                w.outstanding -= 1;
                window.1.notify_all();
                drop(w);
                let Some(start) = due(h.id).or(sent_at) else {
                    break;
                };
                out.completions.push(done);
                if let Ok(Response::Verdict(v)) = response {
                    out.latency_us.push(us(done - start));
                    out.succeeded += 1;
                    let expected: &Verdict = &fx.golden[window_of(fx, offset, h.id)];
                    out.mismatched += u64::from(&v != expected);
                    if trace {
                        out.decode_ns.push((done - t).as_secs_f64() * 1e9);
                        if out.reply_frame.is_none() {
                            let mut frame = header.to_vec();
                            frame.extend_from_slice(&payload);
                            out.reply_frame = Some(frame);
                        }
                    }
                } else {
                    out.latency_us.push(MISSED_US);
                }
            }
            // Release a writer blocked on the window.
            window.0.lock().expect("window lock").closed = true;
            window.1.notify_all();
            out
        });

        let mut sent = 0u64;
        let mut late_us = Vec::new();
        let mut encode_ns = Vec::new();
        let mut request_frame = None;
        for id in 1..=n {
            if let Some(due) = due(id) {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            } else if t0.elapsed() >= duration {
                break;
            }
            let t = {
                let mut w = window.0.lock().expect("window lock");
                while w.outstanding >= INFLIGHT && !w.closed {
                    w = window.1.wait(w).expect("window lock");
                }
                if w.closed {
                    break;
                }
                w.outstanding += 1;
                let t = Instant::now();
                w.sent_at[slot(id)] = Some(t);
                t
            };
            if let Some(due) = due(id) {
                late_us.push(us(t - due));
            }
            let request = Request::Classify {
                deadline_us: 0,
                window: fx.test[window_of(fx, offset, id)].clone(),
            };
            let frame = proto::encode_request(id, &request);
            if trace {
                encode_ns.push(t.elapsed().as_secs_f64() * 1e9);
                request_frame.get_or_insert_with(|| frame.clone());
            }
            if writer.write_all(&frame).is_err() {
                break;
            }
            sent += 1;
        }
        // Drain: wait for every reply (bounded), then close the
        // connection, which ends the reader.
        {
            let w = window.0.lock().expect("window lock");
            let _ = window
                .1
                .wait_timeout_while(w, DRAIN_TIMEOUT, |w| w.outstanding > 0 && !w.closed)
                .expect("window lock");
        }
        let _ = writer.shutdown(std::net::Shutdown::Both);
        let reading = reading.join().expect("reader thread");
        (sent, late_us, encode_ns, request_frame, reading)
    });
    let (server, net) = net.shutdown();

    let failed = sent - reading.succeeded;
    gate.phase(&format!("stream.{tag}"), sent, reading.succeeded, failed);
    gate.check(net.frames == sent && net.responses == sent, || {
        format!(
            "stream.{tag}: net frames {} / responses {} != attempted {sent}",
            net.frames, net.responses
        )
    });
    gate.check(server.completed == reading.succeeded, || {
        format!(
            "stream.{tag}: server completed {} != succeeded {}",
            server.completed, reading.succeeded
        )
    });
    gate.check(reading.mismatched == 0, || {
        format!(
            "stream.{tag}: {} wire verdicts differ from golden",
            reading.mismatched
        )
    });
    let mut latency_us = reading.latency_us;
    latency_us.resize(sent as usize, MISSED_US);
    Ok(Phase {
        latency_us,
        late_us,
        completions: reading.completions,
        failed,
        server,
        net,
        encode_ns,
        decode_ns: reading.decode_ns,
        frames: request_frame.zip(reading.reply_frame),
    })
}

#[derive(Default)]
struct Reading {
    latency_us: Vec<f64>,
    completions: Vec<Instant>,
    succeeded: u64,
    mismatched: u64,
    decode_ns: Vec<f64>,
    reply_frame: Option<Vec<u8>>,
}

/// The in-process twin of a phase: the same schedule through
/// `Client::submit` / `Ticket::wait`, with no wire. Returns the client
/// latencies from the due time, µs.
fn run_inproc(
    fx: &Fixture,
    rate: f64,
    duration: Duration,
    offset: usize,
    gate: &mut Gate,
) -> Result<Vec<f64>, String> {
    let backend = FastBackend::try_with_threads(nproc()).map_err(err("fast backend"))?;
    let server =
        Server::spawn(&backend, &fx.model, ServeConfig::default()).map_err(err("spawn"))?;
    let client = server.client();
    let n = ((rate * duration.as_secs_f64()).ceil() as u64).max(1);
    let period = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |id: u64| t0 + period.mul_f64((id - 1) as f64);
    let (tx, rx) = mpsc::channel();
    let (latency_us, mismatched) = std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut latency_us = Vec::new();
            let mut mismatched = 0u64;
            for (id, ticket) in rx {
                match pulp_hd_serve::Ticket::wait(ticket) {
                    Ok(v) => {
                        latency_us.push(us(due(id).elapsed()));
                        mismatched += u64::from(v != fx.golden[window_of(fx, offset, id)]);
                    }
                    Err(_) => latency_us.push(MISSED_US),
                }
            }
            (latency_us, mismatched)
        });
        for id in 1..=n {
            let now = Instant::now();
            if due(id) > now {
                std::thread::sleep(due(id) - now);
            }
            match client.submit(fx.test[window_of(fx, offset, id)].clone()) {
                Ok(ticket) => {
                    if tx.send((id, ticket)).is_err() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        drop(tx);
        waiter.join().expect("waiter thread")
    });
    let stats = server.shutdown();
    let sent = latency_us.len() as u64;
    let failed = latency_us.iter().filter(|&&l| l >= MISSED_US).count() as u64;
    gate.phase("stream.inproc_light", n, sent - failed, n - sent + failed);
    gate.check(stats.completed == sent - failed, || {
        format!(
            "stream.inproc_light: server completed {} != succeeded {}",
            stats.completed,
            sent - failed
        )
    });
    gate.check(mismatched == 0, || {
        format!("stream.inproc_light: {mismatched} verdicts differ from golden")
    });
    Ok(latency_us)
}

/// Server-side codec cost per request: the captured request frame
/// decoded as the server's reader does, and its verdict encoded as the
/// responder does, ns per request (median of five timed batches).
fn server_codec_ns(request: &[u8], reply: &[u8]) -> Result<f64, String> {
    let h = proto::decode_header(reply, proto::DEFAULT_MAX_FRAME).map_err(err("reply header"))?;
    let Ok(Response::Verdict(verdict)) = proto::decode_response(&h, &reply[HEADER_LEN..]) else {
        return Err("captured reply is not a verdict".into());
    };
    let response = Response::Verdict(verdict);
    let reps = 2_000;
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..reps {
            let rh = proto::decode_header(black_box(request), proto::DEFAULT_MAX_FRAME)
                .map_err(err("request header"))?;
            let req = proto::decode_request(&rh, &request[HEADER_LEN..]).map_err(err("decode"))?;
            black_box(req);
            black_box(proto::encode_response(rh.id, black_box(&response)));
        }
        samples.push(t.elapsed().as_secs_f64() * 1e9 / f64::from(reps));
    }
    Ok(median(&samples))
}

/// Picks one phase out of a round.
type PhaseOf = fn(&Round) -> &Phase;

struct Round {
    light: Phase,
    heavy: Phase,
    saturate: Phase,
    /// Probe times around `light` and around `saturate`.
    speeds: [Speed; 2],
    traced: Option<TracedRound>,
}

struct TracedRound {
    light: Phase,
    inproc_p50_us: f64,
    server_codec_ns: f64,
}

pub struct Stream<'a> {
    fx: &'a Fixture,
    workload: Workload,
    offset: usize,
    trace: bool,
    rounds: Vec<Round>,
}

impl<'a> Stream<'a> {
    pub fn new(fx: &'a Fixture, workload: Workload, seed: u64, trace: bool) -> Self {
        Self {
            fx,
            workload,
            offset: (seed % fx.test.len() as u64) as usize,
            trace,
            rounds: Vec::new(),
        }
    }

    /// One round: `light` 30 %, `heavy` 30 % and `saturate` 40 % of the
    /// budget; traced runs then add a traced `light` phase and its
    /// in-process twin, 30 % each.
    pub fn round(
        &mut self,
        budget: Duration,
        probe: &mut Probe,
        gate: &mut Gate,
    ) -> Result<(), String> {
        let (fx, offset, w) = (self.fx, self.offset, self.workload);
        let phase = |tag, load, share, trace, gate: &mut Gate| {
            run_phase(fx, tag, load, budget.mul_f64(share), offset, trace, gate)
        };
        let light_load = Load::Rate {
            wps: w.light_wps,
            burst: 1,
        };
        let heavy_load = Load::Rate {
            wps: w.heavy_wps,
            burst: HEAVY_BURST,
        };
        let s0 = probe.speed()?;
        let light = phase("light", light_load, 0.3, false, gate)?;
        let s1 = probe.speed()?;
        let heavy = phase("heavy", heavy_load, 0.3, false, gate)?;
        let s2 = probe.speed()?;
        let saturate = phase("saturate", Load::Saturate, 0.4, false, gate)?;
        let s3 = probe.speed()?;
        let speeds = [Speed::around(s0, s1), Speed::around(s2, s3)];
        let traced = if self.trace {
            let light = phase("traced", light_load, 0.3, true, gate)?;
            let inproc = run_inproc(fx, w.light_wps, budget.mul_f64(0.3), offset, gate)?;
            let Some((request, reply)) = &light.frames else {
                return Err("stream: traced phase captured no frames".into());
            };
            let server_codec_ns = server_codec_ns(request, reply)?;
            Some(TracedRound {
                light,
                inproc_p50_us: median(&inproc),
                server_codec_ns,
            })
        } else {
            None
        };
        self.rounds.push(Round {
            light,
            heavy,
            saturate,
            speeds,
            traced,
        });
        Ok(())
    }

    fn med(&self, f: impl Fn(&Round) -> f64) -> f64 {
        median_of(&self.rounds, f)
    }

    /// Every round's latency and throughput, as a JSON fragment for the
    /// run metadata.
    pub fn summary(&self) -> String {
        let row = |p: &Phase| {
            format!(
                "{{\"p50_us\": {:.1}, \"p90_us\": {:.1}, \"p99_us\": {:.1}, \"late_max_us\": {:.1}, \"throughput_wps\": {:.1}, \"failed\": {}}}",
                p.p50(),
                p.p90(),
                p.p99(),
                max(&p.late_us),
                p.throughput(),
                p.failed,
            )
        };
        let rounds: Vec<String> = self
            .rounds
            .iter()
            .map(|r| {
                format!(
                    "{{\"light\": {}, \"heavy\": {}, \"saturate\": {}}}",
                    row(&r.light),
                    row(&r.heavy),
                    row(&r.saturate)
                )
            })
            .collect();
        format!("\"stream_rounds\": [{}]", rounds.join(", "))
    }

    pub fn end_to_end(&self, m: &mut Metrics) {
        let series = |f: fn(&Phase) -> f64, phase: PhaseOf, i: usize| {
            self.rounds
                .iter()
                .map(|r| (f(phase(r)), r.speeds[i]))
                .collect::<Vec<_>>()
        };
        let light = series(Phase::p50, |r| &r.light, 0);
        m.rounds("p50_us.light", &light, "us", Scale::WakeTime);
        let saturate = series(Phase::throughput, |r| &r.saturate, 1);
        m.rounds("max_rate_wps", &saturate, "1/s", Scale::ComputeRate);
    }

    /// Puts the per-layer metrics and returns `closure.light`.
    pub fn layers(&self, m: &mut Metrics) -> f64 {
        let traced: Vec<(&Round, &TracedRound)> = self
            .rounds
            .iter()
            .filter_map(|r| r.traced.as_ref().map(|t| (r, t)))
            .collect();
        let med = |f: &dyn Fn(&Round, &TracedRound) -> f64| median_of(&traced, |(r, t)| f(r, t));
        let phases: [(&str, PhaseOf); 2] = [("light", |r| &r.light), ("heavy", |r| &r.heavy)];
        m.put("stream.p50_us.heavy", self.med(|r| r.heavy.p50()), "us");
        for (name, get) in phases {
            m.put(
                format!("stream.p90_us.{name}"),
                self.med(|r| get(r).p90()),
                "us",
            );
            m.put(
                format!("stream.p99_us.{name}"),
                self.med(|r| get(r).p99()),
                "us",
            );
            let s = |f: &dyn Fn(&ServerStats) -> f64| self.med(|r| f(&get(r).server));
            m.put(
                format!("serve.latency_p50_us.{name}"),
                s(&|s| s.p50_us as f64),
                "us",
            );
            m.put(
                format!("serve.latency_p99_us.{name}"),
                s(&|s| s.p99_us as f64),
                "us",
            );
            m.put(
                format!("serve.batch_service_mean_us.{name}"),
                s(&|s| s.batch_service_mean_us),
                "us",
            );
            m.put(
                format!("serve.queue_wait_mean_us.{name}"),
                s(&|s| s.latency_mean_us - s.batch_service_mean_us),
                "us",
            );
            m.put(
                format!("serve.mean_batch.{name}"),
                s(&|s| s.mean_batch),
                "count",
            );
        }
        let all = || {
            self.rounds
                .iter()
                .flat_map(|r| [&r.light, &r.heavy, &r.saturate])
        };
        let sum = |f: fn(&Phase) -> u64| all().map(f).sum::<u64>() as f64;
        m.put("serve.rejected", sum(|p| p.server.rejected), "count");
        m.put(
            "serve.deadline_expired",
            sum(|p| p.server.deadline_expired),
            "count",
        );
        m.put(
            "serve.inproc_p50_us.light",
            med(&|_, t| t.inproc_p50_us),
            "us",
        );

        let (request, reply) = traced
            .first()
            .and_then(|(_, t)| t.light.frames.as_ref())
            .map_or((0, 0), |(a, b)| (a.len(), b.len()));
        m.put("net.request_bytes", request as f64, "bytes");
        m.put("net.reply_bytes", reply as f64, "bytes");
        let codec_ns = |t: &TracedRound| median(&t.light.encode_ns) + median(&t.light.decode_ns);
        m.put("net.client_codec_ns", med(&|_, t| codec_ns(t)), "ns");
        m.put("net.server_codec_ns", med(&|_, t| t.server_codec_ns), "ns");
        let wire_us = |r: &Round| r.light.p50() - r.light.server.p50_us as f64;
        m.put("net.wire_p50_us", self.med(wire_us), "us");
        m.put(
            "net.wire_overloaded",
            sum(|p| p.net.wire_overloaded),
            "count",
        );
        m.put("net.frames", sum(|p| p.net.frames), "count");
        m.put("net.responses", sum(|p| p.net.responses), "count");
        let late = |r: &Round| [&r.light, &r.heavy].map(|p| p.late_us.clone()).concat();
        m.put(
            "gen.late_p99_us",
            self.med(|r| percentile(&late(r), 99.0)),
            "us",
        );
        m.put("gen.late_max_us", self.med(|r| max(&late(r))), "us");

        // Closure on the light phase: client codec + wire + queue wait
        // + batch service against the measured client p50. Queue wait
        // and service are means, so a host that stalls the server now
        // and then pushes it past 1.1 while every verdict is right: it
        // is reported, not gated.
        let closure = med(&|r, t| {
            let s = &r.light.server;
            let parts = codec_ns(t) / 1e3
                + wire_us(r)
                + (s.latency_mean_us - s.batch_service_mean_us)
                + s.batch_service_mean_us;
            parts / r.light.p50()
        });
        m.put("closure.light", closure, "ratio");
        m.put(
            "trace.stream_overhead_us",
            med(&|r, t| t.light.p50() - r.light.p50()),
            "us",
        );
        closure
    }
}
