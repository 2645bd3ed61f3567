//! The RPC server front end: TCP connections mapped onto
//! [`castor_service::Session`]s by one readiness-driven epoll event loop
//! (see [`crate::event_loop`]) that owns every connection.
//!
//! Request lifecycle:
//!
//! 1. client connects, sends `Hello { database, eval_budget, stream_credit }`;
//! 2. the server opens a session (admission-checked: unknown database and
//!    the server-wide session cap produce a typed error frame and close);
//! 3. requests are decoded and submitted; per-database in-flight caps
//!    reject overflow submissions with a typed error frame (the
//!    connection stays up);
//! 4. responses stream back in submission order as jobs finish, tagged
//!    with their request id; covered sets and learn progress go out as
//!    stream frames under the connection's flow-control credit;
//! 5. on disconnect the session's cancel token fires: queued jobs fail
//!    fast, the running job aborts within one candidate tuple, and the
//!    session (and its admission slot) is reclaimed.

use crate::fault::{register_fault_collector, FaultPlan, FaultStats};
use crate::frame::{ErrorCode, FrameError, DEFAULT_MAX_FRAME_BYTES};
use castor_service::{Deadline, Server};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The connection-handling core the server runs. There is one: the
/// variant and [`RpcConfig::with_core`] are kept because the benchmark
/// under `benchmark/` names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerCore {
    /// One readiness-driven epoll event loop owning every connection
    /// (see [`crate::event_loop`]): non-blocking sockets, per-connection
    /// state machines, completions delivered over an eventfd wake path.
    EventLoop,
}

/// RPC front-end knobs.
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// Cap on one frame's declared length; larger frames are rejected
    /// with [`ErrorCode::FrameTooLarge`] before any allocation.
    pub max_frame_bytes: usize,
    /// Deterministic fault schedule for chaos testing (`None` in
    /// production): accepted connections are wrapped in
    /// [`crate::FaultStream`]s armed from this plan by accept order, and
    /// every fired fault is counted in the server's
    /// `castor_fault_injected_total{kind=...}` metric family.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            fault_plan: None,
        }
    }
}

impl RpcConfig {
    /// Returns a copy with the given frame cap.
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> Self {
        self.max_frame_bytes = max_frame_bytes;
        self
    }

    /// Returns a copy with a fault schedule armed (chaos testing).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Returns the config unchanged: [`ServerCore::EventLoop`] is the only
    /// core. Kept because the benchmark under `benchmark/` calls it.
    pub fn with_core(self, _core: ServerCore) -> Self {
        self
    }
}

/// A running RPC front end over a [`castor_service::Server`].
///
/// Dropping the handle stops accepting new connections (established
/// connections keep running until their clients disconnect).
pub struct RpcServer {
    service: Arc<Server>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    event_loop: Option<JoinHandle<()>>,
    fault_stats: Arc<FaultStats>,
}

impl std::fmt::Debug for RpcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl RpcServer {
    /// Binds the RPC front end and starts accepting connections. Bind to
    /// port 0 to let the OS choose ([`RpcServer::local_addr`] reports it).
    pub fn bind(
        service: Arc<Server>,
        addr: impl ToSocketAddrs,
        config: RpcConfig,
    ) -> std::io::Result<RpcServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let fault_stats = Arc::new(FaultStats::default());
        if config.fault_plan.is_some() {
            // Fault counters only appear in the exposition when a plan is
            // armed — production scrapes stay free of chaos-only series.
            register_fault_collector(service.obs(), Arc::clone(&fault_stats));
        }
        let event_loop = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let fault_stats = Arc::clone(&fault_stats);
            std::thread::Builder::new()
                .name("castor-rpc-loop".to_string())
                .spawn(move || {
                    crate::event_loop::run(listener, service, config, shutdown, fault_stats)
                })
                .expect("failed to spawn event-loop thread")
        };
        Ok(RpcServer {
            service,
            addr,
            shutdown,
            event_loop: Some(event_loop),
            fault_stats,
        })
    }

    /// The address the front end is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind this front end (handy for in-process
    /// inspection: engine reports, server counters).
    pub fn service(&self) -> &Arc<Server> {
        &self.service
    }

    /// How often each fault kind of the armed [`FaultPlan`] actually
    /// fired (all zeros without a plan). Ground truth for chaos suites:
    /// must match the `castor_fault_injected_total` metric family.
    pub fn fault_stats(&self) -> &Arc<FaultStats> {
        &self.fault_stats
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Make the listener readable so the loop wakes and sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
    }
}

/// The typed error frame (if any) to send for a handshake/read failure.
/// Socket-level failures get no frame — there is no one to read it.
pub(crate) fn frame_error_response(error: &FrameError) -> Option<(ErrorCode, usize, String)> {
    match error {
        FrameError::Io(_) | FrameError::Closed => None,
        FrameError::TooLarge { declared: _, limit } => {
            Some((ErrorCode::FrameTooLarge, *limit, error.to_string()))
        }
        FrameError::Malformed(_) => Some((ErrorCode::Malformed, 0, error.to_string())),
        FrameError::Version { .. } => Some((ErrorCode::UnsupportedVersion, 0, error.to_string())),
    }
}

/// Applies a wire deadline to a job through its builder, when one rode
/// along on the frame.
pub(crate) fn with_wire_deadline<J>(
    job: J,
    deadline_ms: Option<u64>,
    attach: impl FnOnce(J, Deadline) -> J,
) -> J {
    match deadline_ms {
        Some(ms) => attach(job, Deadline::within(Duration::from_millis(ms))),
        None => job,
    }
}
