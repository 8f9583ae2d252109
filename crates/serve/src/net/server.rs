//! The listener side of the wire front-end: accept loops, and one
//! reader + one responder thread per connection feeding the in-process
//! [`Server`](crate::Server)'s micro-batcher.
//!
//! Bytes move in bursts on both halves of a connection:
//!
//! * **Reader.** Each connection owns a read buffer (`READ_BUF`
//!   bytes at rest). One `read` takes in every frame the peer has
//!   pipelined so far, and frames are parsed out of the buffer until it
//!   runs dry. A frame's header is decoded — and `max_frame` enforced —
//!   before the buffer may grow to hold it. Between frames (nothing
//!   buffered) the reader waits without limit but honours draining;
//!   with a partial frame buffered, the slow-loris stall clock runs.
//! * **Responder.** Replies come off the reader's channel in request
//!   order and are encoded straight into one output buffer, which is
//!   written with one `write_all` per run of ready replies (or once it
//!   holds `WRITE_BUF` bytes).
//! * **Flush before block.** The responder writes what it has buffered
//!   before it blocks on anything — the channel when no reply is
//!   queued, or a ticket the batcher has not answered yet — so a ready
//!   reply never waits behind a pending one, and a lone request is
//!   written as soon as its verdict exists.

use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pulp_hd_core::backend::Verdict;

use crate::{ServeError, Server, ServerStats, Ticket, TrySubmitError};

use super::proto::{self, ErrorCode, FrameHeader, HealthReport, Response, WireError, WireFault};
use super::transport::WireStream;
use super::{NetConfig, NetError};

/// How often blocked accept/read loops wake to re-check the draining
/// flag and the connection-dead flag.
const POLL_TICK: Duration = Duration::from_millis(5);

/// An address to serve on.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP listen address, e.g. `"127.0.0.1:0"` (`0` picks a free
    /// port; read it back from [`NetServer::tcp_addr`]).
    Tcp(String),
    /// A Unix-domain socket path. A stale socket file at the path (one
    /// left by a dead server) is removed before binding; a regular file
    /// or a socket a live server answers on makes the bind fail with
    /// `AddrInUse`. The socket file is removed again on shutdown.
    Uds(PathBuf),
}

/// An address the server actually bound.
#[derive(Debug, Clone)]
pub enum BoundEndpoint {
    /// Bound TCP address with the OS-assigned port resolved.
    Tcp(SocketAddr),
    /// Bound Unix-domain socket path.
    Uds(PathBuf),
}

/// Wire-side counters (the transport analog of [`ServerStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused (connection cap, or arriving mid-drain).
    pub refused: u64,
    /// Connections currently open.
    pub active: u64,
    /// Request frames fully read.
    pub frames: u64,
    /// Response frames fully written.
    pub responses: u64,
    /// Connections killed for an undecodable frame.
    pub malformed: u64,
    /// Connections killed for stalling mid-frame past
    /// [`NetConfig::read_timeout`] (slow-loris defense).
    pub stalled_kills: u64,
    /// Requests shed with [`ErrorCode::Overloaded`] at the wire layer
    /// (per-connection in-flight window or batcher queue full).
    pub wire_overloaded: u64,
}

/// State shared by the accept loops and every connection.
#[derive(Debug, Default)]
struct NetShared {
    draining: AtomicBool,
    active: AtomicUsize,
    accepted: AtomicU64,
    refused: AtomicU64,
    frames: AtomicU64,
    responses: AtomicU64,
    malformed: AtomicU64,
    stalled: AtomicU64,
    overloaded: AtomicU64,
}

impl NetShared {
    fn snapshot(&self) -> NetStats {
        NetStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            // ORDERING: `active` is the drain handshake's connection
            // count (SeqCst everywhere else: the accept loop's
            // check-then-increment must be totally ordered against
            // shutdown's drain-then-wait). This read used to be Relaxed
            // — a snapshot taken after `shutdown()` returned could then
            // lag the guards' SeqCst decrements and report a phantom
            // active connection; reading SeqCst keeps the snapshot
            // inside the same total order the handshake relies on.
            active: self.active.load(Ordering::SeqCst) as u64,
            frames: self.frames.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            stalled_kills: self.stalled.load(Ordering::Relaxed),
            wire_overloaded: self.overloaded.load(Ordering::Relaxed),
        }
    }
}

/// A running wire front-end around an in-process [`Server`].
///
/// Dropping it performs the same graceful drain as
/// [`shutdown`](Self::shutdown): new connections are refused, every
/// accepted request is answered, connections wind down, then the inner
/// server itself drains.
#[derive(Debug)]
pub struct NetServer {
    server: Option<Arc<Server>>,
    shared: Arc<NetShared>,
    accepts: Vec<JoinHandle<()>>,
    bound: Vec<BoundEndpoint>,
    uds_paths: Vec<PathBuf>,
    final_stats: Option<ServerStats>,
}

enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Box<dyn WireStream>> {
        match self {
            Self::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(Box::new(stream))
            }
            Self::Uds(l) => {
                let (stream, _) = l.accept()?;
                Ok(Box::new(stream))
            }
        }
    }
}

impl NetServer {
    /// Puts `server` on the wire at every endpoint in `endpoints`.
    ///
    /// Takes ownership of the in-process server: its lifecycle is now
    /// the net server's ([`shutdown`](Self::shutdown) drains the wire
    /// side first, then the batcher). Telemetry stays reachable through
    /// [`server_stats`](Self::server_stats) and the wire `Stats`
    /// command.
    ///
    /// # Errors
    ///
    /// [`NetError::Config`] for an invalid [`NetConfig`] or empty
    /// `endpoints`, [`NetError::Io`] if an endpoint cannot be bound.
    pub fn spawn(
        server: Server,
        endpoints: &[Endpoint],
        config: NetConfig,
    ) -> Result<Self, NetError> {
        config.validate()?;
        if endpoints.is_empty() {
            return Err(NetError::Config("at least one endpoint required".into()));
        }
        let mut listeners = Vec::with_capacity(endpoints.len());
        let mut bound = Vec::with_capacity(endpoints.len());
        let mut uds_paths = Vec::new();
        for endpoint in endpoints {
            match endpoint {
                Endpoint::Tcp(addr) => {
                    let listener = TcpListener::bind(addr.as_str())?;
                    bound.push(BoundEndpoint::Tcp(listener.local_addr()?));
                    listeners.push(Listener::Tcp(listener));
                }
                Endpoint::Uds(path) => {
                    unlink_stale_uds(path)?;
                    let listener = UnixListener::bind(path)?;
                    bound.push(BoundEndpoint::Uds(path.clone()));
                    uds_paths.push(path.clone());
                    listeners.push(Listener::Uds(listener));
                }
            }
        }
        let server = Arc::new(server);
        let shared = Arc::new(NetShared::default());
        let mut accepts = Vec::with_capacity(listeners.len());
        for listener in listeners {
            let server = Arc::clone(&server);
            let shared = Arc::clone(&shared);
            let config = config.clone();
            accepts.push(
                std::thread::Builder::new()
                    .name("pulp-hd-net-accept".into())
                    .spawn(move || accept_loop(&listener, &server, &shared, &config))
                    .map_err(|e| NetError::Config(format!("cannot spawn accept thread: {e}")))?,
            );
        }
        Ok(Self {
            server: Some(server),
            shared,
            accepts,
            bound,
            uds_paths,
            final_stats: None,
        })
    }

    /// The addresses actually bound, in `endpoints` order.
    #[must_use]
    pub fn bound(&self) -> &[BoundEndpoint] {
        &self.bound
    }

    /// The first bound TCP address, if any (the port is resolved, so
    /// `Tcp("127.0.0.1:0")` spawns report the real port here).
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.bound.iter().find_map(|b| match b {
            BoundEndpoint::Tcp(addr) => Some(*addr),
            BoundEndpoint::Uds(_) => None,
        })
    }

    /// A snapshot of the inner server's telemetry (what the wire
    /// `Stats` command returns).
    #[must_use]
    pub fn server_stats(&self) -> ServerStats {
        self.server.as_ref().map_or_else(
            || self.final_stats.clone().unwrap_or_else(zero_stats),
            |s| s.stats(),
        )
    }

    /// A snapshot of the wire-side counters.
    #[must_use]
    pub fn net_stats(&self) -> NetStats {
        self.shared.snapshot()
    }

    /// Graceful drain: refuse new connections, answer everything
    /// already accepted, wind down every connection, then shut the
    /// inner server down. Returns the final stats of both layers.
    ///
    /// Connections blocked waiting for traffic see a go-away frame
    /// ([`ErrorCode::Closed`], request id 0) and close. A request with
    /// no deadline whose backend never answers would hold the drain
    /// open — deadlines bound the drain the same way they bound
    /// requests.
    #[must_use = "the final stats are the server's life's work; ignore explicitly if unwanted"]
    pub fn shutdown(mut self) -> (ServerStats, NetStats) {
        self.finish();
        (
            self.final_stats.clone().unwrap_or_else(zero_stats),
            self.shared.snapshot(),
        )
    }

    fn finish(&mut self) {
        if self.server.is_none() {
            return;
        }
        // ORDERING: SeqCst store-then-load against the accept loop's
        // load-then-increment (Dekker-style): either the acceptor sees
        // `draining` and refuses, or this drain sees its `active`
        // increment and waits — weaker orders would allow both sides to
        // miss each other and leak a served connection past shutdown.
        self.shared.draining.store(true, Ordering::SeqCst);
        for handle in self.accepts.drain(..) {
            let _ = handle.join();
        }
        while self.shared.active.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        if let Some(arc) = self.server.take() {
            // Every connection (and the accept loops) has exited, so
            // their `Arc` clones are gone or about to be: spin the
            // handful of nanoseconds until ours is the last.
            let mut arc = arc;
            let server = loop {
                match Arc::try_unwrap(arc) {
                    Ok(server) => break server,
                    Err(still_shared) => {
                        arc = still_shared;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            };
            self.final_stats = Some(server.shutdown());
        }
        for path in &self.uds_paths {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.finish();
    }
}

/// An all-zero stats value for the post-shutdown edge (final stats are
/// always set by then; this is belt-and-braces, not a real path).
fn zero_stats() -> ServerStats {
    crate::stats::Recorder::new().snapshot(Duration::ZERO)
}

/// Unlinks a *stale* socket file — one left behind by a dead server —
/// before a UDS bind. Anything else at the path stays put: a regular
/// file is never deleted (the bind then fails with `AddrInUse`), and a
/// socket a live server still answers on is a typed error rather than
/// a silent theft.
fn unlink_stale_uds(path: &std::path::Path) -> Result<(), NetError> {
    use std::os::unix::fs::FileTypeExt;
    if let Ok(meta) = std::fs::symlink_metadata(path) {
        if meta.file_type().is_socket() {
            if std::os::unix::net::UnixStream::connect(path).is_ok() {
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("{} is in use by a live server", path.display()),
                )));
            }
            let _ = std::fs::remove_file(path);
        }
    }
    Ok(())
}

fn accept_loop(
    listener: &Listener,
    server: &Arc<Server>,
    shared: &Arc<NetShared>,
    config: &NetConfig,
) {
    match listener {
        Listener::Tcp(l) => l.set_nonblocking(true).ok(),
        Listener::Uds(l) => l.set_nonblocking(true).ok(),
    };
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok(stream) => {
                if shared.draining.load(Ordering::SeqCst)
                    || shared.active.load(Ordering::SeqCst) >= config.max_connections
                {
                    // ORDERING: Relaxed telemetry counter; the SeqCst
                    // accesses around it carry the drain handshake.
                    shared.refused.fetch_add(1, Ordering::Relaxed);
                    refuse(&*stream, shared.draining.load(Ordering::SeqCst));
                    continue;
                }
                // Count the connection before its thread exists so the
                // cap can never be raced past, and hand the increment's
                // ownership to the thread (its guard decrements).
                // ORDERING: `active` is SeqCst at every site — the
                // drain handshake in `finish` needs the check-then-
                // increment totally ordered against drain-then-wait.
                // `accepted` is Relaxed telemetry.
                shared.active.fetch_add(1, Ordering::SeqCst);
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                let server = Arc::clone(server);
                let shared_conn = Arc::clone(shared);
                let config = config.clone();
                let spawned = std::thread::Builder::new()
                    .name("pulp-hd-net-conn".into())
                    .spawn(move || connection(stream, &server, &shared_conn, &config));
                if spawned.is_err() {
                    // ORDERING: SeqCst, same `active` protocol as above.
                    shared.active.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(POLL_TICK);
            }
            Err(_) => std::thread::sleep(POLL_TICK),
        }
    }
}

/// Best-effort go-away for a connection that will not be served.
fn refuse(stream: &dyn WireStream, draining: bool) {
    let fault = if draining {
        WireFault::new(ErrorCode::Closed, "server is draining")
    } else {
        WireFault::new(ErrorCode::Overloaded, "connection limit reached")
    };
    let frame = proto::encode_response(0, &Response::Error(fault));
    if let Ok(mut w) = stream.try_clone_stream() {
        let _ = w.write_all(&frame);
        let _ = w.flush();
    }
    stream.shutdown_stream();
}

/// Decrements the active-connection count when the connection thread
/// exits, however it exits.
struct ActiveGuard<'a>(&'a NetShared);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        // ORDERING: SeqCst — the release half of the `active` protocol;
        // shutdown's SeqCst wait loop must observe this decrement after
        // the connection's final writes.
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What the reader hands the responder, in request order.
enum Reply {
    /// A reply known when the request was read (stats, health,
    /// immediate errors).
    Ready(u64, Response),
    /// A submitted classify: resolve the ticket, then encode.
    Wait {
        id: u64,
        ticket: Ticket,
        deadline: Option<Instant>,
    },
    /// A submitted batch: resolve each accepted ticket in order.
    WaitBatch {
        id: u64,
        items: Vec<Result<Ticket, WireFault>>,
        deadline: Option<Instant>,
    },
}

/// A typed error reply.
fn fault_reply(id: u64, code: ErrorCode, detail: impl Into<String>) -> Reply {
    Reply::Ready(id, Response::Error(WireFault::new(code, detail)))
}

fn connection(
    stream: Box<dyn WireStream>,
    server: &Arc<Server>,
    shared: &Arc<NetShared>,
    config: &NetConfig,
) {
    let _guard = ActiveGuard(shared);
    let Ok(writer) = stream.try_clone_stream() else {
        stream.shutdown_stream();
        return;
    };
    // A peer that submits requests but never reads its replies fills
    // the kernel send buffer; bounding writes turns that into a dead
    // connection instead of a responder blocked forever (which would
    // wedge the reader on the bounded channel and hold graceful drain
    // open indefinitely).
    if writer
        .set_stream_write_timeout(Some(config.write_timeout))
        .is_err()
    {
        stream.shutdown_stream();
        return;
    }
    // Reads poll in POLL_TICK slices so the reader notices draining and
    // responder-death promptly even while idle.
    if stream.set_stream_read_timeout(Some(POLL_TICK)).is_err() {
        stream.shutdown_stream();
        return;
    }
    // Bounded queue: `Wait` entries are capped by the in-flight window,
    // `Ready` entries by the reader blocking on `send` once the
    // responder falls behind — which stops the reader reading, which
    // backpressures the peer through the socket.
    let (tx, rx) = sync_channel(config.inflight_window + 8);
    let inflight = Arc::new(AtomicUsize::new(0));
    let conn_dead = Arc::new(AtomicBool::new(false));
    let responder = {
        let inflight = Arc::clone(&inflight);
        let conn_dead = Arc::clone(&conn_dead);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("pulp-hd-net-responder".into())
            .spawn(move || Responder::new(writer, &inflight, &conn_dead, &shared).run(&rx))
    };
    let Ok(responder) = responder else {
        stream.shutdown_stream();
        return;
    };
    let mut stream = stream;
    reader_loop(
        stream.as_mut(),
        server,
        shared,
        config,
        &tx,
        &inflight,
        &conn_dead,
    );
    drop(tx);
    let _ = responder.join();
    stream.shutdown_stream();
}

/// Initial and resting size of a connection's read buffer: one `read`
/// takes in hundreds of pipelined classify frames. A larger frame grows
/// it (only after its header passed the `max_frame` check), and it
/// shrinks back once that frame is consumed.
const READ_BUF: usize = 64 * 1024;

/// The responder writes once this many reply bytes are buffered, even
/// if more replies are ready — the bound on its output buffer.
const WRITE_BUF: usize = 64 * 1024;

/// One complete frame read, or the reason there is none.
#[derive(Debug)]
enum ReadOutcome<'a> {
    /// A frame's header and its payload, borrowed from the read buffer.
    Frame(FrameHeader, &'a [u8]),
    /// Clean EOF between frames.
    Eof,
    /// The server started draining while this connection was idle.
    Draining,
    /// Mid-frame stall past the read timeout.
    Stalled,
    /// Header or length failed to decode (resync is impossible).
    Malformed(WireError),
    /// Transport failure or peer vanished mid-frame.
    Dead,
}

/// A connection's read side: one buffer that each `read` fills with
/// everything the peer has sent so far, and the frames parsed out of
/// it. Frames already buffered are handed out without touching the
/// socket.
struct FrameReader {
    buf: Vec<u8>,
    /// First byte not yet handed out.
    start: usize,
    /// End of the bytes read.
    end: usize,
}

impl FrameReader {
    fn new() -> Self {
        Self {
            buf: vec![0; READ_BUF],
            start: 0,
            end: 0,
        }
    }

    /// The next frame. While no byte of it has arrived, waiting is
    /// unlimited but the draining flag is honored; once part of a frame
    /// is buffered, the stall clock runs: more than
    /// `config.read_timeout` without progress is a slow-loris kill. The
    /// clock starts afresh on each call, so time the caller spends
    /// between frames (blocked on backpressure) never counts as the
    /// peer's stall.
    fn next_frame(
        &mut self,
        stream: &mut dyn WireStream,
        config: &NetConfig,
        shared: &NetShared,
        conn_dead: &AtomicBool,
    ) -> ReadOutcome<'_> {
        let mut last_progress = Instant::now();
        loop {
            let buffered = self.end - self.start;
            if buffered >= proto::HEADER_LEN {
                let header =
                    match proto::decode_header(&self.buf[self.start..self.end], config.max_frame) {
                        Ok(h) => h,
                        Err(e) => return ReadOutcome::Malformed(e),
                    };
                let total = proto::HEADER_LEN + header.len as usize;
                if buffered >= total {
                    let at = self.start;
                    self.start += total;
                    return ReadOutcome::Frame(
                        header,
                        &self.buf[at + proto::HEADER_LEN..at + total],
                    );
                }
                self.make_room(total);
            } else {
                self.make_room(proto::HEADER_LEN);
            }
            if conn_dead.load(Ordering::SeqCst) {
                return ReadOutcome::Dead;
            }
            match stream.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return if self.start == self.end {
                        ReadOutcome::Eof
                    } else {
                        ReadOutcome::Dead
                    };
                }
                Ok(n) => {
                    self.end += n;
                    last_progress = Instant::now();
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if self.start == self.end {
                        if shared.draining.load(Ordering::SeqCst) {
                            return ReadOutcome::Draining;
                        }
                    } else if last_progress.elapsed() > config.read_timeout {
                        return ReadOutcome::Stalled;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Dead,
            }
        }
    }

    /// Makes room for a `need`-byte frame from `start`, leaving spare
    /// space to read into: the unparsed bytes move to the front when the
    /// frame would not fit behind them (or when there are none), and the
    /// buffer grows only to `need`, which the caller has bounded by the
    /// header check.
    fn make_room(&mut self, need: usize) {
        if self.start == self.end || self.buf.len() - self.start < need {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < need {
            self.buf.resize(need, 0);
        } else if self.end == 0 && self.buf.len() > READ_BUF {
            self.buf.truncate(READ_BUF);
            self.buf.shrink_to_fit();
        }
    }
}

/// The wire deadline for a request: its own header, else the server's
/// default.
fn wire_deadline(deadline_us: u64, config: &NetConfig) -> Option<Duration> {
    if deadline_us == 0 {
        config.default_deadline
    } else {
        Some(Duration::from_micros(deadline_us))
    }
}

#[allow(clippy::too_many_lines)]
fn reader_loop(
    stream: &mut dyn WireStream,
    server: &Arc<Server>,
    shared: &Arc<NetShared>,
    config: &NetConfig,
    tx: &SyncSender<Reply>,
    inflight: &Arc<AtomicUsize>,
    conn_dead: &Arc<AtomicBool>,
) {
    let client = server.client();
    let overload = |id: u64, detail: &str| {
        // ORDERING: Relaxed telemetry counter (see NetShared).
        shared.overloaded.fetch_add(1, Ordering::Relaxed);
        fault_reply(id, ErrorCode::Overloaded, detail)
    };
    let mut frames = FrameReader::new();
    loop {
        let (header, request) = match frames.next_frame(stream, config, shared, conn_dead) {
            ReadOutcome::Frame(header, payload) => {
                (header, proto::decode_request(&header, payload))
            }
            ReadOutcome::Eof | ReadOutcome::Dead => return,
            ReadOutcome::Draining => {
                let _ = tx.send(fault_reply(0, ErrorCode::Closed, "server is draining"));
                return;
            }
            ReadOutcome::Stalled => {
                // ORDERING: Relaxed telemetry counter.
                shared.stalled.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(fault_reply(
                    0,
                    ErrorCode::Stalled,
                    "stalled mid-frame past the read timeout",
                ));
                return;
            }
            ReadOutcome::Malformed(e) => {
                // ORDERING: Relaxed telemetry counter.
                shared.malformed.fetch_add(1, Ordering::Relaxed);
                let code = if matches!(e, WireError::TooLarge { .. }) {
                    ErrorCode::TooLarge
                } else {
                    ErrorCode::Malformed
                };
                let _ = tx.send(fault_reply(0, code, e.to_string()));
                return;
            }
        };
        // ORDERING: Relaxed telemetry counter.
        shared.frames.fetch_add(1, Ordering::Relaxed);
        let request = match request {
            Ok(request) => request,
            Err(e) => {
                // The frame boundary was intact, but the payload is
                // garbage: answer with the request's own id, then kill
                // the connection (a peer that encodes garbage cannot be
                // trusted to stay in sync).
                // ORDERING: Relaxed telemetry counter.
                shared.malformed.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(fault_reply(header.id, ErrorCode::Malformed, e.to_string()));
                return;
            }
        };
        let reply = match request {
            proto::Request::Classify {
                deadline_us,
                window,
            } => {
                if inflight.load(Ordering::SeqCst) >= config.inflight_window {
                    overload(header.id, "connection in-flight window full")
                } else {
                    let deadline = wire_deadline(deadline_us, config);
                    match client.try_submit_with_deadline(window, deadline) {
                        Ok(ticket) => {
                            // ORDERING: SeqCst — `inflight` is a
                            // reader-side admission bound decremented on
                            // the responder thread; the check-then-add
                            // here must stay ordered against those subs
                            // so the window cannot be overshot.
                            inflight.fetch_add(1, Ordering::SeqCst);
                            Reply::Wait {
                                id: header.id,
                                ticket,
                                deadline: deadline.map(|d| Instant::now() + d),
                            }
                        }
                        Err(TrySubmitError::Overloaded) => overload(header.id, "server queue full"),
                        Err(TrySubmitError::Closed) => {
                            let _ = tx.send(fault_reply(
                                header.id,
                                ErrorCode::Closed,
                                "server is shut down",
                            ));
                            return;
                        }
                    }
                }
            }
            proto::Request::ClassifyBatch {
                deadline_us,
                windows,
            } => {
                let deadline = wire_deadline(deadline_us, config);
                let room = config
                    .inflight_window
                    .saturating_sub(inflight.load(Ordering::SeqCst));
                if windows.len() > room {
                    overload(header.id, "batch exceeds connection in-flight window")
                } else {
                    let mut items = Vec::with_capacity(windows.len());
                    let mut accepted = 0usize;
                    for window in windows {
                        match client.try_submit_with_deadline(window, deadline) {
                            Ok(ticket) => {
                                accepted += 1;
                                items.push(Ok(ticket));
                            }
                            Err(TrySubmitError::Overloaded) => {
                                // ORDERING: Relaxed telemetry counter.
                                shared.overloaded.fetch_add(1, Ordering::Relaxed);
                                items.push(Err(WireFault::new(
                                    ErrorCode::Overloaded,
                                    "server queue full",
                                )));
                            }
                            Err(TrySubmitError::Closed) => {
                                items.push(Err(WireFault::new(
                                    ErrorCode::Closed,
                                    "server is shut down",
                                )));
                            }
                        }
                    }
                    // ORDERING: SeqCst `inflight` protocol, as in the
                    // single-window path above.
                    inflight.fetch_add(accepted, Ordering::SeqCst);
                    Reply::WaitBatch {
                        id: header.id,
                        items,
                        deadline: deadline.map(|d| Instant::now() + d),
                    }
                }
            }
            proto::Request::Stats => Reply::Ready(header.id, Response::Stats(server.stats())),
            proto::Request::Health => {
                let report = HealthReport {
                    serving: !shared.draining.load(Ordering::SeqCst),
                    shard_healthy: server.stats().shard_healthy,
                };
                Reply::Ready(header.id, Response::Health(report))
            }
        };
        if tx.send(reply).is_err() {
            // Responder gone (write failure): nothing to answer to.
            return;
        }
    }
}

/// Resolves one accepted ticket against its (absolute) deadline. The
/// wire layer enforces the deadline on the reply path too — the
/// batcher's triage cannot run while the backend itself hangs, so this
/// `wait_timeout` is what keeps "every fault surfaces before its
/// deadline" true even then.
fn wait_result(ticket: Ticket, deadline: Option<Instant>) -> Result<Verdict, WireFault> {
    let outcome = match deadline {
        Some(at) => match ticket.wait_timeout(at.saturating_duration_since(Instant::now())) {
            Ok(Some(verdict)) => Ok(verdict),
            Ok(None) => Err(ServeError::DeadlineExceeded),
            Err(e) => Err(e),
        },
        None => ticket.wait(),
    };
    outcome.map_err(|e| fault_of(&e))
}

/// Maps a serve-layer error to its wire fault.
fn fault_of(e: &ServeError) -> WireFault {
    match e {
        ServeError::Backend(inner) => {
            if matches!(
                inner,
                pulp_hd_core::backend::BackendError::WorkerLost { .. }
                    | pulp_hd_core::backend::BackendError::ShardLost { .. }
            ) {
                WireFault::new(ErrorCode::WorkerLost, inner.to_string())
            } else {
                WireFault::new(ErrorCode::Backend, inner.to_string())
            }
        }
        ServeError::Config(what) => WireFault::new(ErrorCode::Backend, what.clone()),
        ServeError::Closed => WireFault::new(ErrorCode::Closed, "server is shut down"),
        ServeError::ServerDied => {
            WireFault::new(ErrorCode::ServerDied, "server batcher thread died")
        }
        ServeError::DeadlineExceeded => WireFault::new(
            ErrorCode::DeadlineExceeded,
            "deadline exceeded before service",
        ),
    }
}

/// A connection's write side. Replies are encoded straight into one
/// output buffer, and each run of ready replies goes out in one write.
/// The buffer is flushed before blocking on anything — the next reply,
/// or a ticket not answered yet — so a reply that is ready is never
/// held behind one that is not, and a lone request is written as soon
/// as it is answered.
struct Responder<'a> {
    writer: Box<dyn WireStream>,
    out: Vec<u8>,
    /// Frames encoded into `out` since the last write.
    frames: u64,
    /// Cleared by the first failed write: later replies are still
    /// resolved (keeping `inflight` accurate) but no longer written.
    write_ok: bool,
    inflight: &'a AtomicUsize,
    conn_dead: &'a AtomicBool,
    shared: &'a NetShared,
}

impl<'a> Responder<'a> {
    fn new(
        writer: Box<dyn WireStream>,
        inflight: &'a AtomicUsize,
        conn_dead: &'a AtomicBool,
        shared: &'a NetShared,
    ) -> Self {
        Self {
            writer,
            out: Vec::with_capacity(WRITE_BUF),
            frames: 0,
            write_ok: true,
            inflight,
            conn_dead,
            shared,
        }
    }

    fn run(mut self, rx: &Receiver<Reply>) {
        loop {
            let reply = match rx.try_recv() {
                Ok(reply) => reply,
                Err(TryRecvError::Empty) => {
                    self.flush();
                    match rx.recv() {
                        Ok(reply) => reply,
                        Err(_) => break,
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            };
            match reply {
                Reply::Ready(id, response) => self.push(id, &response),
                Reply::Wait {
                    id,
                    ticket,
                    deadline,
                } => {
                    let response = match self.resolve(ticket, deadline) {
                        Ok(verdict) => Response::Verdict(verdict),
                        Err(fault) => Response::Error(fault),
                    };
                    self.push(id, &response);
                }
                Reply::WaitBatch {
                    id,
                    items,
                    deadline,
                } => {
                    let results = items
                        .into_iter()
                        .map(|item| item.and_then(|ticket| self.resolve(ticket, deadline)))
                        .collect();
                    self.push(id, &Response::VerdictBatch(results));
                }
            }
        }
        self.flush();
        self.writer.shutdown_stream();
    }

    /// Resolves one accepted ticket, writing what is buffered first if
    /// the ticket is not answered yet.
    fn resolve(&mut self, ticket: Ticket, deadline: Option<Instant>) -> Result<Verdict, WireFault> {
        let result = match ticket.try_take() {
            Ok(outcome) => outcome.map_err(|e| fault_of(&e)),
            Err(pending) => {
                self.flush();
                wait_result(pending, deadline)
            }
        };
        // ORDERING: SeqCst — the release half of the `inflight`
        // admission protocol (reader adds, responder subs).
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        result
    }

    fn push(&mut self, id: u64, response: &Response) {
        if self.write_ok {
            proto::encode_response_into(&mut self.out, id, response);
            self.frames += 1;
            if self.out.len() >= WRITE_BUF {
                self.flush();
            }
        }
    }

    /// Writes the buffered frames in one `write_all`.
    fn flush(&mut self) {
        if self.out.is_empty() {
            return;
        }
        self.write_ok = self
            .writer
            .write_all(&self.out)
            .and_then(|()| self.writer.flush())
            .is_ok();
        if self.write_ok {
            // ORDERING: Relaxed telemetry counter.
            self.shared
                .responses
                .fetch_add(self.frames, Ordering::Relaxed);
        } else {
            // Wake the reader (it is blocked in poll-tick reads) so the
            // connection winds down instead of reading requests nobody
            // can answer.
            // ORDERING: SeqCst kill flag — must become visible to the
            // reader's SeqCst poll before it commits to another
            // blocking read tick.
            self.conn_dead.store(true, Ordering::SeqCst);
        }
        self.out.clear();
        self.frames = 0;
        if self.out.capacity() > 4 * WRITE_BUF {
            // A large batch reply grew the buffer: give the memory back.
            self.out = Vec::with_capacity(WRITE_BUF);
        }
    }
}

#[cfg(test)]
mod tests {
    //! The batched wire path against scripted transports: read
    //! boundaries never change what is parsed, every reader defence
    //! still fires, and the responder coalesces ready replies without
    //! ever holding one behind a pending ticket.

    use std::collections::VecDeque;
    use std::io::{self, Read};
    use std::sync::Mutex;

    use hdc::rng::Xoshiro256PlusPlus;
    use pulp_hd_core::backend::{
        ExecutionBackend, FastBackend, FaultBackend, FaultKind, FaultPlan, HdModel,
    };
    use pulp_hd_core::layout::AccelParams;

    use super::*;
    use crate::ServeConfig;

    /// A scripted transport: each `read` delivers (up to) the next
    /// chunk; with the script spent it reads as a quiet socket
    /// (`WouldBlock` after a short sleep) or, once `eof` is set, as
    /// end-of-stream. Every `write` call is logged as one entry.
    struct Script {
        reads: VecDeque<Vec<u8>>,
        eof: bool,
        read_calls: usize,
        writes: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl Script {
        fn reading(chunks: Vec<Vec<u8>>, eof: bool) -> Self {
            Self {
                reads: chunks.into(),
                eof,
                read_calls: 0,
                writes: Arc::default(),
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.read_calls += 1;
            match self.reads.pop_front() {
                Some(mut chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        chunk.drain(..n);
                        self.reads.push_front(chunk);
                    }
                    Ok(n)
                }
                None if self.eof => Ok(0),
                None => {
                    std::thread::sleep(Duration::from_millis(1));
                    Err(io::ErrorKind::WouldBlock.into())
                }
            }
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl WireStream for Script {
        fn try_clone_stream(&self) -> io::Result<Box<dyn WireStream>> {
            Err(io::ErrorKind::Unsupported.into())
        }

        fn set_stream_read_timeout(&self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }

        fn set_stream_write_timeout(&self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }

        fn shutdown_stream(&self) {}
    }

    fn window(samples: usize, channels: usize, seed: u64) -> Vec<Vec<u16>> {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        (0..samples)
            .map(|_| {
                (0..channels)
                    .map(|_| (rng.next_u32() & 0xffff) as u16)
                    .collect()
            })
            .collect()
    }

    /// 64 request frames of every kind and a spread of sizes.
    fn sample_frames() -> Vec<Vec<u8>> {
        (1..=64u64)
            .map(|id| {
                let request = match id % 5 {
                    0 => proto::Request::Stats,
                    1 => proto::Request::Health,
                    2 => proto::Request::ClassifyBatch {
                        deadline_us: id,
                        windows: vec![window(3, 4, id), Vec::new(), window(1, 2, id + 1)],
                    },
                    _ => proto::Request::Classify {
                        deadline_us: 0,
                        window: window(id as usize % 30, 4, id),
                    },
                };
                proto::encode_request(id, &request)
            })
            .collect()
    }

    fn expected(frames: &[Vec<u8>]) -> Vec<(FrameHeader, Vec<u8>)> {
        frames
            .iter()
            .map(|f| {
                let header = proto::decode_header(f, proto::DEFAULT_MAX_FRAME).unwrap();
                (header, f[proto::HEADER_LEN..].to_vec())
            })
            .collect()
    }

    /// Reads frames until end-of-stream; returns them and the number of
    /// `read` calls it took.
    fn read_all(chunks: Vec<Vec<u8>>) -> (Vec<(FrameHeader, Vec<u8>)>, usize) {
        let mut stream = Script::reading(chunks, true);
        let mut reader = FrameReader::new();
        let (config, shared, dead) = (
            NetConfig::default(),
            NetShared::default(),
            AtomicBool::new(false),
        );
        let mut frames = Vec::new();
        loop {
            match reader.next_frame(&mut stream, &config, &shared, &dead) {
                ReadOutcome::Frame(header, payload) => frames.push((header, payload.to_vec())),
                ReadOutcome::Eof => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(reader.buf.len(), READ_BUF, "buffer must return to rest");
        (frames, stream.read_calls)
    }

    #[test]
    fn read_boundaries_never_change_the_parsed_frames() {
        let frames = sample_frames();
        let want = expected(&frames);
        let bytes = frames.concat();
        assert!(bytes.len() < READ_BUF, "the burst must fit one read");

        // All 64 frames in one read (plus the read that sees EOF).
        let (got, reads) = read_all(vec![bytes.clone()]);
        assert_eq!(got, want);
        assert_eq!(reads, 2, "one read per burst");

        // One byte per read.
        let (got, _) = read_all(bytes.iter().map(|&b| vec![b]).collect());
        assert_eq!(got, want);

        // Chunks straddling header and payload boundaries everywhere.
        let mut chunks = Vec::new();
        let mut rest = bytes.as_slice();
        for size in [1usize, 7, 19, 20, 21, 333, 4096].iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at((*size).min(rest.len()));
            chunks.push(chunk.to_vec());
            rest = tail;
        }
        let (got, _) = read_all(chunks);
        assert_eq!(got, want);
    }

    /// A frame larger than the resting buffer grows it to exactly what
    /// the admitted header declares, and the buffer shrinks back once
    /// that frame is consumed.
    #[test]
    fn large_frames_grow_the_buffer_only_while_they_are_read() {
        let big = proto::encode_request(
            1,
            &proto::Request::Classify {
                deadline_us: 0,
                window: window(10_000, 4, 1),
            },
        );
        assert!(big.len() > READ_BUF);
        let small = proto::encode_request(2, &proto::Request::Health);
        let frames = vec![big, small];
        let chunks = frames.concat().chunks(5_000).map(<[u8]>::to_vec).collect();
        let (got, _) = read_all(chunks);
        assert_eq!(got, expected(&frames));
    }

    #[test]
    fn oversized_header_is_rejected_before_the_buffer_grows() {
        let mut frame = proto::encode_request(9, &proto::Request::Stats);
        frame[16..20].copy_from_slice(&10_000_000u32.to_le_bytes());
        let mut stream = Script::reading(vec![frame], false);
        let mut reader = FrameReader::new();
        let config = NetConfig {
            max_frame: 1024,
            ..NetConfig::default()
        };
        let outcome = reader.next_frame(
            &mut stream,
            &config,
            &NetShared::default(),
            &AtomicBool::new(false),
        );
        assert!(matches!(
            outcome,
            ReadOutcome::Malformed(WireError::TooLarge {
                len: 10_000_000,
                max: 1024
            })
        ));
        assert_eq!(reader.buf.len(), READ_BUF);
    }

    /// A partial frame trips the stall clock after `read_timeout` —
    /// even while draining, which is honoured only between frames.
    #[test]
    fn partial_frame_stalls_after_the_read_timeout() {
        let frame = proto::encode_request(3, &proto::Request::Health);
        for partial in [&frame[..7], &frame[..proto::HEADER_LEN - 1]] {
            let mut stream = Script::reading(vec![partial.to_vec()], false);
            let config = NetConfig {
                read_timeout: Duration::from_millis(30),
                ..NetConfig::default()
            };
            let shared = NetShared::default();
            shared.draining.store(true, Ordering::SeqCst);
            let started = Instant::now();
            let mut reader = FrameReader::new();
            let outcome = reader.next_frame(&mut stream, &config, &shared, &AtomicBool::new(false));
            assert!(matches!(outcome, ReadOutcome::Stalled), "{outcome:?}");
            assert!(started.elapsed() >= config.read_timeout);
        }
        // A whole header with part of its payload stalls the same way.
        let frame = proto::encode_request(
            4,
            &proto::Request::Classify {
                deadline_us: 0,
                window: window(5, 4, 4),
            },
        );
        let mut stream = Script::reading(vec![frame[..proto::HEADER_LEN + 3].to_vec()], false);
        let config = NetConfig {
            read_timeout: Duration::from_millis(30),
            ..NetConfig::default()
        };
        let mut reader = FrameReader::new();
        let outcome = reader.next_frame(
            &mut stream,
            &config,
            &NetShared::default(),
            &AtomicBool::new(false),
        );
        assert!(matches!(outcome, ReadOutcome::Stalled), "{outcome:?}");
    }

    /// Buffered frames are still handed out once draining starts; the
    /// go-away comes when the connection is idle.
    #[test]
    fn idle_connection_sees_draining_and_a_dead_one_stops() {
        let frame = proto::encode_request(5, &proto::Request::Stats);
        let mut stream = Script::reading(vec![frame], false);
        let (config, shared, dead) = (
            NetConfig::default(),
            NetShared::default(),
            AtomicBool::new(false),
        );
        shared.draining.store(true, Ordering::SeqCst);
        let mut reader = FrameReader::new();
        assert!(matches!(
            reader.next_frame(&mut stream, &config, &shared, &dead),
            ReadOutcome::Frame(FrameHeader { id: 5, .. }, _)
        ));
        assert!(matches!(
            reader.next_frame(&mut stream, &config, &shared, &dead),
            ReadOutcome::Draining
        ));

        let mut stream = Script::reading(Vec::new(), false);
        dead.store(true, Ordering::SeqCst);
        assert!(matches!(
            FrameReader::new().next_frame(&mut stream, &config, &NetShared::default(), &dead),
            ReadOutcome::Dead
        ));
    }

    fn params() -> AccelParams {
        AccelParams {
            n_words: 16,
            ngram: 2,
            ..AccelParams::emg_default()
        }
    }

    /// Splits a byte stream into decoded frames.
    fn replies(bytes: &[u8]) -> Vec<(u64, Response)> {
        let mut out = Vec::new();
        let mut rest = bytes;
        while !rest.is_empty() {
            let header = proto::decode_header(rest, proto::DEFAULT_MAX_FRAME).unwrap();
            let end = proto::HEADER_LEN + header.len as usize;
            let response = proto::decode_response(&header, &rest[proto::HEADER_LEN..end]).unwrap();
            out.push((header.id, response));
            rest = &rest[end..];
        }
        out
    }

    fn wait(id: u64, ticket: Ticket) -> Reply {
        Reply::Wait {
            id,
            ticket,
            deadline: None,
        }
    }

    /// N pipelined requests whose verdicts are all ready come back as N
    /// intact frames, in id order, from fewer than N writes.
    #[test]
    #[cfg_attr(miri, ignore = "OS threads")]
    fn ready_replies_are_coalesced_into_fewer_writes() {
        const N: usize = 32;
        let params = params();
        let model = HdModel::random(&params, 0x5E1);
        let backend = FastBackend::try_with_threads(1).unwrap();
        let server = Server::spawn(&backend, &model, ServeConfig::default()).unwrap();
        let client = server.client();
        let windows: Vec<_> = (0..N as u64)
            .map(|i| window(4, params.channels, i))
            .collect();
        let (tx, rx) = sync_channel(N + 1);
        for (i, w) in windows.iter().enumerate() {
            let ticket = client.try_submit(w.clone()).unwrap();
            tx.send(wait(i as u64 + 1, ticket)).unwrap();
        }
        tx.send(Reply::Ready(
            N as u64 + 1,
            Response::Health(HealthReport {
                serving: true,
                shard_healthy: Vec::new(),
            }),
        ))
        .unwrap();
        drop(tx);
        let started = Instant::now();
        while server.stats().completed < N as u64 {
            assert!(started.elapsed() < Duration::from_secs(10), "server stuck");
            std::thread::sleep(Duration::from_millis(1));
        }

        let stream = Script::reading(Vec::new(), true);
        let writes = Arc::clone(&stream.writes);
        let (inflight, dead, shared) = (
            AtomicUsize::new(N),
            AtomicBool::new(false),
            NetShared::default(),
        );
        Responder::new(Box::new(stream), &inflight, &dead, &shared).run(&rx);

        let writes = writes.lock().unwrap();
        assert!(writes.len() < N, "{} writes for {N} replies", writes.len());
        let got = replies(&writes.concat());
        assert_eq!(got.len(), N + 1);
        let mut direct = backend.prepare(&model).unwrap();
        for (i, (id, response)) in got.iter().take(N).enumerate() {
            assert_eq!(*id, i as u64 + 1);
            let want = direct.classify(&windows[i]).unwrap();
            assert!(
                matches!(response, Response::Verdict(v) if *v == want),
                "reply {id}"
            );
        }
        assert!(matches!(got[N], (id, Response::Health(_)) if id == N as u64 + 1));
        assert_eq!(inflight.load(Ordering::SeqCst), 0);
        assert_eq!(shared.snapshot().responses, N as u64 + 1);
        assert!(!dead.load(Ordering::SeqCst));
        let _ = server.shutdown();
    }

    /// A ready reply is written before the responder blocks on a ticket
    /// that is not answered yet: with the second request hung in the
    /// backend, the first one's verdict is already on the wire.
    #[test]
    #[cfg_attr(miri, ignore = "OS threads")]
    fn ready_reply_is_never_held_behind_a_pending_ticket() {
        let params = params();
        let model = HdModel::random(&params, 0x5E2);
        let plan = FaultPlan::new().fault_at(1, FaultKind::Hang);
        let release = plan.hang_release();
        let backend = FaultBackend::new(FastBackend::try_with_threads(1).unwrap(), plan);
        let server = Server::spawn(&backend, &model, ServeConfig::default()).unwrap();
        let client = server.client();

        let first = client.try_submit(window(4, params.channels, 1)).unwrap();
        let started = Instant::now();
        while server.stats().completed < 1 {
            assert!(started.elapsed() < Duration::from_secs(10), "server stuck");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Call 1 hangs until released.
        let second = client.try_submit(window(4, params.channels, 2)).unwrap();
        let (tx, rx) = sync_channel(4);
        tx.send(wait(1, first)).unwrap();
        tx.send(wait(2, second)).unwrap();

        let stream = Script::reading(Vec::new(), true);
        let writes = Arc::clone(&stream.writes);
        let (inflight, dead, shared) = (
            AtomicUsize::new(2),
            AtomicBool::new(false),
            NetShared::default(),
        );
        std::thread::scope(|s| {
            let responder = s.spawn({
                let (inflight, dead, shared) = (&inflight, &dead, &shared);
                move || Responder::new(Box::new(stream), inflight, dead, shared).run(&rx)
            });
            let started = Instant::now();
            while writes.lock().unwrap().is_empty() {
                assert!(
                    started.elapsed() < Duration::from_secs(10),
                    "ready reply held behind the hung ticket"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let written = replies(&writes.lock().unwrap().concat());
            assert_eq!(written.len(), 1);
            assert!(matches!(written[0], (1, Response::Verdict(_))));
            assert_eq!(inflight.load(Ordering::SeqCst), 1);

            release.release();
            drop(tx);
            responder.join().unwrap();
        });
        let written = replies(&writes.lock().unwrap().concat());
        let ids: Vec<u64> = written.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [1, 2]);
        assert!(matches!(written[1], (2, Response::Verdict(_))));
        assert_eq!(inflight.load(Ordering::SeqCst), 0);
        let _ = server.shutdown();
    }
}
