//! The serve loop: accept connections, decode request frames, dispatch
//! into a [`WireService`], and write back framed replies — on blocking
//! `std::net` sockets, one thread per connection.
//!
//! A `tbs-accept` thread blocks in `accept` and hands each connection to
//! its own `tbs-server` thread. Every verb except `SUBSCRIBE_EPOCH` runs
//! under one service lock. A subscription takes the service's
//! [`WireService::epoch_reader`] under the lock and then waits on it with
//! the lock released, in slices of at most 25 ms so it notices
//! shutdown.
//!
//! Connections are fully pipelined: every complete request frame in a
//! read burst is dispatched and the replies are coalesced into one
//! write, so a client that sends N requests back-to-back pays one
//! syscall round-trip, not N.
//!
//! Fault injection reuses the engine's [`FaultPlan`]: before each reply
//! frame is appended, the plan is consulted with this connection's
//! accept ordinal and the 1-based reply frame number. `DropConnection`
//! flushes the replies already batched, shuts the socket, and ends the
//! thread; `HalfOpen` flushes and then reads and discards until the
//! socket closes — the socket stays open but never speaks again, exactly
//! the half-open peer a client's read timeout must survive.
//!
//! Shutdown (a `SHUTDOWN` frame or [`ServerHandle::request_shutdown`])
//! sets a flag and unblocks `accept` with a loopback connection to the
//! server's own address. The accept thread then shuts down every live
//! socket and joins every connection thread, so nothing outlives
//! [`ServerHandle::join`].

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tbs_core::checkpoint::Wire;
use tbs_distributed::snapshot::EpochWait;
use tbs_distributed::{FaultPlan, WireAction};

use crate::proto::{encode_frame, EpochOutcome, FrameDecoder, ProtoError, Reply, Request};
use crate::service::WireService;

/// Longest a parked `SUBSCRIBE_EPOCH` waits before re-checking shutdown.
const WAIT_SLICE: Duration = Duration::from_millis(25);
/// Read buffer per connection.
const READ_BUF: usize = 64 * 1024;

/// The shutdown flag plus the address that unblocks `accept`.
#[derive(Clone)]
struct Stop {
    flag: Arc<AtomicBool>,
    wake: SocketAddr,
}

impl Stop {
    fn new(addr: SocketAddr) -> Self {
        let mut wake = addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Self {
            flag: Arc::new(AtomicBool::new(false)),
            wake,
        }
    }

    /// Set the flag, then connect once so a blocked `accept` returns and
    /// sees it. The connect fails harmlessly once the listener is gone.
    fn request(&self) {
        self.flag.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.wake);
    }

    fn requested(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// What every connection thread shares.
struct Shared<S> {
    service: Mutex<S>,
    fault_plan: Option<Arc<FaultPlan>>,
    stop: Stop,
}

/// A running server; dropping it requests shutdown and joins the serve
/// thread.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Stop,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to stop (idempotent); returns without waiting for
    /// it to exit.
    pub fn request_shutdown(&self) {
        self.stop.request();
    }

    /// Request shutdown and wait for the serve thread to exit.
    pub fn join(mut self) -> io::Result<()> {
        self.request_shutdown();
        self.join_inner()
    }

    /// Wait for the serve loop to exit on its own (a client `SHUTDOWN`
    /// verb) without requesting shutdown first.
    pub fn wait(mut self) -> io::Result<()> {
        self.join_inner()
    }

    fn join_inner(&mut self) -> io::Result<()> {
        match self.thread.take() {
            Some(t) => t
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("serve thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.request_shutdown();
            let _ = self.join_inner();
        }
    }
}

/// Bind `addr` and serve `service` on a dedicated thread.
///
/// `fault_plan` (usually `None`) injects wire faults at exact reply
/// frame boundaries — see the module docs.
pub fn serve<T, S>(
    addr: SocketAddr,
    service: S,
    fault_plan: Option<Arc<FaultPlan>>,
) -> io::Result<ServerHandle>
where
    T: Wire + Clone + Send + Sync + 'static,
    S: WireService<T>,
{
    let listener = TcpListener::bind(addr)?;
    serve_on(listener, service, fault_plan)
}

/// Serve on an already-bound listener (lets tests bind port 0 first).
pub fn serve_on<T, S>(
    listener: TcpListener,
    service: S,
    fault_plan: Option<Arc<FaultPlan>>,
) -> io::Result<ServerHandle>
where
    T: Wire + Clone + Send + Sync + 'static,
    S: WireService<T>,
{
    let addr = listener.local_addr()?;
    let stop = Stop::new(addr);
    let shared = Arc::new(Shared {
        service: Mutex::new(service),
        fault_plan,
        stop: stop.clone(),
    });
    let thread = std::thread::Builder::new()
        .name("tbs-accept".into())
        .spawn(move || accept_loop::<T, S>(listener, shared))?;
    Ok(ServerHandle {
        addr,
        stop,
        thread: Some(thread),
    })
}

fn accept_loop<T, S>(listener: TcpListener, shared: Arc<Shared<S>>) -> io::Result<()>
where
    T: Wire + Clone + Send + Sync + 'static,
    S: WireService<T>,
{
    // Live connections: a clone of each socket (to shut it down on exit)
    // and the thread serving it.
    let mut conns: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    // Accept ordinals are 1-based so fault plans can say "connection 1".
    let mut next_conn: u64 = 0;
    let mut panicked = false;
    let result = loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            // Transient accept errors (peer reset mid-handshake) should
            // not kill the server.
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => continue,
            Err(e) => break Err(e),
        };
        if shared.stop.requested() {
            break Ok(());
        }
        next_conn += 1;
        let (done, live) = conns.into_iter().partition(|(_, t)| t.is_finished());
        conns = live;
        panicked |= join_all(done);
        let conn = next_conn;
        let shared = Arc::clone(&shared);
        // A connection whose socket cannot be cloned or whose thread
        // cannot start is dropped (closed); the server keeps accepting.
        let Ok(control) = stream.try_clone() else {
            continue;
        };
        if let Ok(thread) = std::thread::Builder::new()
            .name("tbs-server".into())
            .spawn(move || connection::<T, S>(stream, &shared, conn))
        {
            conns.push((control, thread));
        }
    };
    for (control, _) in &conns {
        let _ = control.shutdown(Shutdown::Both);
    }
    if join_all(conns) | panicked {
        return Err(io::Error::other("a connection thread panicked"));
    }
    result
}

/// Join every connection thread; true if any of them panicked.
fn join_all(conns: Vec<(TcpStream, JoinHandle<()>)>) -> bool {
    conns
        .into_iter()
        .fold(false, |panicked, (_, t)| t.join().is_err() | panicked)
}

fn connection<T, S>(mut stream: TcpStream, shared: &Shared<S>, conn: u64)
where
    T: Wire + Clone + Send + Sync + 'static,
    S: WireService<T>,
{
    let _ = stream.set_nodelay(true);
    let mut decoder = FrameDecoder::new();
    let mut read_buf = vec![0u8; READ_BUF];
    let mut out: Vec<u8> = Vec::new();
    // 1-based ordinal of the next reply frame, the unit fault plans
    // target.
    let mut reply_frame: u64 = 0;

    loop {
        let n = match stream.read(&mut read_buf) {
            Ok(0) | Err(_) => return, // EOF or broken socket: done.
            Ok(n) => n,
        };
        decoder.push(&read_buf[..n]);

        out.clear();
        let mut stop_after_flush = false;
        loop {
            let payload = match decoder.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(_) => {
                    // Unrecoverable framing (oversized prefix): the
                    // stream offset is lost, drop the connection.
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            };
            let reply: Reply<T> = match Request::<T>::decode(payload) {
                Ok(Request::Shutdown) => {
                    stop_after_flush = true;
                    Reply::ShuttingDown
                }
                Ok(Request::SubscribeEpoch { epoch, timeout_ms }) => {
                    // Long poll: flush what we already owe, then wait.
                    if !out.is_empty() {
                        if stream.write_all(&out).is_err() {
                            return;
                        }
                        out.clear();
                    }
                    match subscribe(shared, epoch, timeout_ms) {
                        Some(reply) => reply,
                        None => return, // Server shutting down.
                    }
                }
                Ok(req) => dispatch(&shared.service, req),
                Err(e) => proto_error_reply(&e),
            };

            reply_frame += 1;
            let action = shared
                .fault_plan
                .as_ref()
                .map(|p| p.wire_action(conn, reply_frame))
                .unwrap_or(WireAction::Deliver);
            match action {
                WireAction::Deliver => out.extend_from_slice(&encode_frame(&reply.encode())),
                WireAction::DropConnection => {
                    // Deliver everything before the fault boundary,
                    // then cut the socket under the client.
                    let _ = stream.write_all(&out);
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
                WireAction::HalfOpen => {
                    // Keep the socket open but never answer again; the
                    // thread ends when the peer or shutdown closes it.
                    let _ = stream.write_all(&out);
                    while matches!(stream.read(&mut read_buf), Ok(n) if n > 0) {}
                    return;
                }
            }
        }

        if !out.is_empty() && stream.write_all(&out).is_err() {
            return;
        }
        if stop_after_flush {
            shared.stop.request();
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    }
}

/// Wait for `epoch` without holding the service lock. `None` means the
/// server is shutting down and the connection should close unanswered.
fn subscribe<T, S>(shared: &Shared<S>, epoch: u64, timeout_ms: u64) -> Option<Reply<T>>
where
    T: Wire + Clone + Send + Sync + 'static,
    S: WireService<T>,
{
    // `timeout_ms == 0`, or a deadline past the clock's range, waits
    // until published.
    let deadline = (timeout_ms > 0)
        .then(|| Instant::now().checked_add(Duration::from_millis(timeout_ms)))
        .flatten();
    let mut reader = shared.service.lock().epoch_reader();
    loop {
        let slice = deadline.map_or(WAIT_SLICE, |d| {
            d.saturating_duration_since(Instant::now()).min(WAIT_SLICE)
        });
        let (outcome, epoch, batches) = match reader.wait_for_epoch_timeout(epoch, slice) {
            EpochWait::Published(frozen) => (
                EpochOutcome::Published,
                frozen.epoch(),
                frozen.batches_observed(),
            ),
            EpochWait::TimedOut => {
                if shared.stop.requested() {
                    return None;
                }
                if deadline.is_none_or(|d| Instant::now() < d) {
                    continue;
                }
                (EpochOutcome::TimedOut, reader.published_epoch(), 0)
            }
            EpochWait::PublisherGone => {
                // A CHECKPOINT_PUSH on another connection replaces the
                // publisher: follow the new one if there is one.
                reader = shared.service.lock().epoch_reader();
                if !reader.is_publisher_gone() {
                    continue;
                }
                (EpochOutcome::PublisherGone, reader.published_epoch(), 0)
            }
        };
        return Some(Reply::Epoch {
            outcome,
            epoch,
            batches,
        });
    }
}

/// Handle every verb that resolves immediately under one service lock.
fn dispatch<T, S>(service: &Mutex<S>, req: Request<T>) -> Reply<T>
where
    T: Wire + Clone + Send + Sync + 'static,
    S: WireService<T>,
{
    let mut svc = service.lock();
    let result = match req {
        Request::GetSample => svc.latest().map(|(epoch, batches, items)| Reply::Sample {
            epoch,
            batches,
            items,
        }),
        Request::Ingest(items) => {
            svc.ingest(items)
                .map(|(batches, published_epoch)| Reply::IngestAck {
                    batches,
                    published_epoch,
                })
        }
        Request::CheckpointPull => svc.checkpoint().map(Reply::Checkpoint),
        Request::CheckpointPush(blob) => svc.restore(blob).map(|()| Reply::Pushed),
        Request::Predict(x) => svc.predict(x).map(Reply::Prediction),
        Request::Retrain => svc.retrain().map(Reply::Retrained),
        Request::Ping => Ok(Reply::Pong),
        // Handled by the connection loop before dispatch.
        Request::SubscribeEpoch { .. } | Request::Shutdown => {
            unreachable!("handled in connection")
        }
    };
    result.unwrap_or_else(|e| {
        let (code, detail) = e.to_wire();
        Reply::Error { code, detail }
    })
}

fn proto_error_reply<T: Wire>(e: &ProtoError) -> Reply<T> {
    Reply::Error {
        code: crate::proto::ErrorCode::Corrupt,
        detail: format!("bad request frame: {e}"),
    }
}
