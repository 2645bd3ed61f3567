//! Deterministic fault injection for the RPC transport.
//!
//! A [`FaultPlan`] describes, per accepted connection, byte-exact points
//! at which the transport misbehaves: reads that return EOF mid-frame,
//! writes torn partway through a response, sockets closed hard, and
//! one-shot read/write stalls. The server wraps every accepted stream in
//! a [`FaultStream`]; with no plan armed the wrapper is a zero-cost
//! pass-through, so production and chaos builds share one code path.
//!
//! Determinism comes from two choices:
//!
//! * plans are generated from a seed by a private xorshift generator —
//!   the same seed always produces the same fault schedule, so a failing
//!   chaos run reproduces from the seed printed in its panic message;
//! * faults trigger on cumulative **byte offsets**, not call counts —
//!   `read_exact` is free to split a frame across any number of calls
//!   without moving the point at which the fault engages, because each
//!   call is truncated at the threshold.
//!
//! Every fault that actually fires is counted in [`FaultStats`] at
//! trigger time and exported as `castor_fault_injected_total{kind=...}`,
//! so a chaos suite can assert the metric accounting matches the injected
//! schedule exactly.
//!
//! Non-blocking streams (the event-loop server runs every accepted
//! socket non-blocking) add one rule: a `WouldBlock` or zero-byte
//! outcome moves no bytes, so it must neither advance the byte accounts
//! nor consume a one-shot delay fault. Delay faults are therefore
//! *confirmed* — marked fired and counted — only by the call that
//! actually delivers bytes; speculative reads the readiness loop issues
//! between wakeups cannot burn a scheduled fault.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a single injected fault does when its byte threshold is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The write is cut short at the threshold and the socket is shut
    /// down: the peer sees a torn frame followed by a reset/EOF.
    TearWrite,
    /// Reads return end-of-file at the threshold (the bytes up to it are
    /// delivered intact): the peer sees a clean close mid-stream.
    DropRead,
    /// One read is delayed by [`FaultAction::delay_ms`] at the threshold,
    /// then reads proceed normally (exercises client read timeouts).
    DelayRead,
    /// The socket is shut down in both directions at the read threshold
    /// and the read fails: an abrupt connection reset.
    Close,
    /// One write is delayed by [`FaultAction::delay_ms`] at the
    /// threshold, then writes proceed normally (a stalled writer thread).
    StallWrite,
}

impl FaultKind {
    /// The metric label this kind is counted under.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::TearWrite => "tear_write",
            FaultKind::DropRead => "drop_read",
            FaultKind::DelayRead => "delay_read",
            FaultKind::Close => "close",
            FaultKind::StallWrite => "stall_write",
        }
    }

    fn is_read_side(&self) -> bool {
        matches!(
            self,
            FaultKind::DropRead | FaultKind::DelayRead | FaultKind::Close
        )
    }
}

/// One scheduled fault on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultAction {
    /// What happens.
    pub kind: FaultKind,
    /// Cumulative bytes (read or written on this connection, per the
    /// kind's direction) after which the fault engages.
    pub after_bytes: u64,
    /// Sleep length for the delay/stall kinds; ignored by the others.
    pub delay_ms: u64,
}

/// A deterministic fault schedule, armed per accepted connection (in
/// accept order: the first connection is index 0).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// `faults[i]` applies to the i-th accepted connection; connections
    /// past the end run clean.
    faults: Vec<Vec<FaultAction>>,
}

impl FaultPlan {
    /// An empty plan: every connection runs clean.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with an explicit fault list per connection index.
    pub fn from_schedule(faults: Vec<Vec<FaultAction>>) -> FaultPlan {
        FaultPlan { faults }
    }

    /// A seeded plan against the **first** accepted connection (the
    /// victim); later connections — reconnects, observers — run clean.
    /// The same seed always yields the same schedule: one read-side or
    /// write-side fault (or one of each), thresholds inside the first few
    /// hundred transport bytes so handshakes and early frames are hit.
    pub fn seeded(seed: u64) -> FaultPlan {
        let mut rng = SplitMix(seed);
        let kinds = [
            FaultKind::TearWrite,
            FaultKind::DropRead,
            FaultKind::DelayRead,
            FaultKind::Close,
            FaultKind::StallWrite,
        ];
        let mut victim = Vec::new();
        let primary = kinds[(rng.next() % 5) as usize];
        victim.push(FaultAction {
            kind: primary,
            after_bytes: rng.next() % 192,
            delay_ms: 1 + rng.next() % 20,
        });
        // Half the seeds add a second fault on the opposite direction, so
        // schedules cover read+write interplay too.
        if rng.next().is_multiple_of(2) {
            let opposite: Vec<FaultKind> = kinds
                .iter()
                .copied()
                .filter(|k| k.is_read_side() != primary.is_read_side())
                .collect();
            victim.push(FaultAction {
                kind: opposite[(rng.next() as usize) % opposite.len()],
                after_bytes: rng.next() % 192,
                delay_ms: 1 + rng.next() % 20,
            });
        }
        FaultPlan {
            faults: vec![victim],
        }
    }

    /// The scheduled actions for connection `index` (empty = clean).
    pub fn actions_for(&self, index: u64) -> &[FaultAction] {
        self.faults
            .get(index as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether any connection has scheduled faults.
    pub fn is_empty(&self) -> bool {
        self.faults.iter().all(Vec::is_empty)
    }

    /// Builds the per-connection runtime state for connection `index`.
    pub(crate) fn arm(&self, index: u64, stats: &Arc<FaultStats>) -> Option<ConnFaultState> {
        let actions = self.actions_for(index);
        if actions.is_empty() {
            return None;
        }
        Some(ConnFaultState {
            actions: actions.iter().map(|&action| Armed::new(action)).collect(),
            bytes_read: 0,
            bytes_written: 0,
            write_broken: false,
            stats: Arc::clone(stats),
        })
    }
}

/// How often each fault kind actually fired, counted at trigger time —
/// scheduled faults a connection never reached (it died earlier) are not
/// counted, so these totals are the ground truth the metric exposition
/// must match.
#[derive(Debug, Default)]
pub struct FaultStats {
    tear_write: AtomicU64,
    drop_read: AtomicU64,
    delay_read: AtomicU64,
    close: AtomicU64,
    stall_write: AtomicU64,
}

impl FaultStats {
    fn counter(&self, kind: FaultKind) -> &AtomicU64 {
        match kind {
            FaultKind::TearWrite => &self.tear_write,
            FaultKind::DropRead => &self.drop_read,
            FaultKind::DelayRead => &self.delay_read,
            FaultKind::Close => &self.close,
            FaultKind::StallWrite => &self.stall_write,
        }
    }

    fn record(&self, kind: FaultKind) {
        self.counter(kind).fetch_add(1, Ordering::Relaxed);
    }

    /// The fire count for one kind.
    pub fn fired(&self, kind: FaultKind) -> u64 {
        self.counter(kind).load(Ordering::Relaxed)
    }

    /// `(label, count)` for every kind, including zero counts (the
    /// exposition renders all five series unconditionally, so scrapes are
    /// shape-stable across runs).
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        [
            FaultKind::TearWrite,
            FaultKind::DropRead,
            FaultKind::DelayRead,
            FaultKind::Close,
            FaultKind::StallWrite,
        ]
        .into_iter()
        .map(|kind| (kind.label(), self.fired(kind)))
        .collect()
    }

    /// Total faults fired across all kinds.
    pub fn total(&self) -> u64 {
        self.snapshot().into_iter().map(|(_, n)| n).sum()
    }
}

/// Registers the fault counters on an observability registry as a
/// `castor_fault_injected_total{kind=...}` counter family.
pub fn register_fault_collector(obs: &castor_obs::Obs, stats: Arc<FaultStats>) {
    struct FaultCollector(Arc<FaultStats>);
    impl castor_obs::Collect for FaultCollector {
        fn collect(&self, exp: &mut castor_obs::Exposition) {
            for (label, count) in self.0.snapshot() {
                exp.counter(
                    "castor_fault_injected_total",
                    "Transport faults injected by the chaos plan, by kind.",
                    &[("kind", label)],
                    count,
                );
            }
        }
    }
    obs.registry()
        .register_collector(Box::new(FaultCollector(stats)));
}

/// One action plus its one-shot trigger state.
#[derive(Debug)]
struct Armed {
    action: FaultAction,
    fired: bool,
}

impl Armed {
    fn new(action: FaultAction) -> Armed {
        Armed {
            action,
            fired: false,
        }
    }
}

/// Fault state of one connection: byte accounts for both directions and
/// the armed actions.
#[derive(Debug)]
pub(crate) struct ConnFaultState {
    actions: Vec<Armed>,
    bytes_read: u64,
    bytes_written: u64,
    /// Set once a TearWrite fired: every later write fails fast.
    write_broken: bool,
    stats: Arc<FaultStats>,
}

/// What the planner tells the I/O path to do.
enum ReadStep {
    /// Read up to this many bytes normally (capped so the next threshold
    /// lands exactly on a call boundary).
    Pass(usize),
    /// Sleep first (a DelayRead is pending), then read up to the cap.
    /// The fault stays armed until the I/O path *confirms* it with a
    /// byte-moving read (`action` indexes the armed slot), so
    /// `WouldBlock`/zero-byte attempts on non-blocking streams neither
    /// consume the one-shot nor count it as fired.
    DelayThen {
        delay: Duration,
        cap: usize,
        action: usize,
    },
    /// Deliver EOF (a DropRead fired).
    Eof,
    /// Shut the socket down and fail the read (a Close fired).
    Close,
}

enum WriteStep {
    Pass(usize),
    /// Same deferred-confirmation contract as [`ReadStep::DelayThen`].
    DelayThen {
        delay: Duration,
        cap: usize,
        action: usize,
    },
    /// Shut the socket down and fail the write (a TearWrite fired);
    /// later writes fail with `BrokenPipe`.
    Tear,
    Broken,
}

impl ConnFaultState {
    /// Decides what a read of `want` bytes should do. Reads are capped so
    /// the next threshold lands exactly on a call boundary; the account
    /// advances by the bytes *actually* read (see
    /// [`ConnFaultState::account_read`]) so short reads cannot smear the
    /// trigger point.
    fn plan_read(&mut self, want: usize) -> ReadStep {
        let at = self.bytes_read;
        let mut allowed = want as u64;
        let mut delay = None;
        for (idx, armed) in self.actions.iter_mut().enumerate() {
            if armed.fired || !armed.action.kind.is_read_side() {
                continue;
            }
            let threshold = armed.action.after_bytes;
            if at >= threshold {
                match armed.action.kind {
                    FaultKind::DropRead => {
                        armed.fired = true;
                        self.stats.record(armed.action.kind);
                        return ReadStep::Eof;
                    }
                    FaultKind::Close => {
                        armed.fired = true;
                        self.stats.record(armed.action.kind);
                        return ReadStep::Close;
                    }
                    // Delays stay armed: confirmed only by a byte-moving
                    // read, so a `WouldBlock` attempt cannot burn them.
                    FaultKind::DelayRead => {
                        delay = Some((idx, Duration::from_millis(armed.action.delay_ms)));
                    }
                    _ => unreachable!("read-side kinds only"),
                }
            } else {
                // Not there yet: cap this read so the threshold is hit on
                // a call boundary, regardless of how the caller chunks.
                allowed = allowed.min(threshold - at);
            }
        }
        match delay {
            Some((action, delay)) => ReadStep::DelayThen {
                delay,
                cap: allowed as usize,
                action,
            },
            None => ReadStep::Pass(allowed as usize),
        }
    }

    fn account_read(&mut self, n: usize) {
        self.bytes_read += n as u64;
    }

    fn plan_write(&mut self, want: usize) -> WriteStep {
        if self.write_broken {
            return WriteStep::Broken;
        }
        let at = self.bytes_written;
        let mut allowed = want as u64;
        let mut delay = None;
        for (idx, armed) in self.actions.iter_mut().enumerate() {
            if armed.fired || armed.action.kind.is_read_side() {
                continue;
            }
            let threshold = armed.action.after_bytes;
            if at >= threshold {
                match armed.action.kind {
                    FaultKind::TearWrite => {
                        armed.fired = true;
                        self.stats.record(armed.action.kind);
                        self.write_broken = true;
                        return WriteStep::Tear;
                    }
                    // Deferred confirmation, same as DelayRead.
                    FaultKind::StallWrite => {
                        delay = Some((idx, Duration::from_millis(armed.action.delay_ms)));
                    }
                    _ => unreachable!("write-side kinds only"),
                }
            } else {
                allowed = allowed.min(threshold - at);
            }
        }
        match delay {
            Some((action, delay)) => WriteStep::DelayThen {
                delay,
                cap: allowed as usize,
                action,
            },
            None => WriteStep::Pass(allowed as usize),
        }
    }

    fn account_write(&mut self, n: usize) {
        self.bytes_written += n as u64;
    }

    /// Marks a pending delay fault fired and counts it — called by the
    /// I/O path only after the delayed call actually moved bytes.
    fn confirm_delay(&mut self, action: usize) {
        let armed = &mut self.actions[action];
        if !armed.fired {
            armed.fired = true;
            self.stats.record(armed.action.kind);
        }
    }
}

/// A `TcpStream` with an optional fault schedule in front of it. With no
/// schedule (`state: None`) every call forwards directly — the clean path
/// adds one `Option` check, nothing else.
#[derive(Debug)]
pub struct FaultStream {
    inner: TcpStream,
    state: Option<ConnFaultState>,
}

impl FaultStream {
    pub(crate) fn new(inner: TcpStream, state: Option<ConnFaultState>) -> FaultStream {
        FaultStream { inner, state }
    }

    /// Switches the underlying socket's blocking mode (the event-loop
    /// server runs every accepted stream non-blocking).
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.inner.set_nonblocking(nonblocking)
    }
}

impl std::os::fd::AsRawFd for FaultStream {
    fn as_raw_fd(&self) -> std::os::fd::RawFd {
        self.inner.as_raw_fd()
    }
}

impl Read for FaultStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(state) = &mut self.state else {
            return self.inner.read(buf);
        };
        if buf.is_empty() {
            return Ok(0);
        }
        match state.plan_read(buf.len()) {
            ReadStep::Pass(cap) => {
                let take = cap.max(1).min(buf.len());
                let n = self.inner.read(&mut buf[..take])?;
                state.account_read(n);
                Ok(n)
            }
            ReadStep::DelayThen { delay, cap, action } => {
                std::thread::sleep(delay);
                let take = cap.max(1).min(buf.len());
                let n = self.inner.read(&mut buf[..take])?;
                // `WouldBlock` propagated above without confirming; a
                // zero-byte EOF likewise leaves the fault armed.
                if n > 0 {
                    state.confirm_delay(action);
                    state.account_read(n);
                }
                Ok(n)
            }
            ReadStep::Eof => {
                let _ = self.inner.shutdown(Shutdown::Both);
                Ok(0)
            }
            ReadStep::Close => {
                let _ = self.inner.shutdown(Shutdown::Both);
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "fault injection: connection closed",
                ))
            }
        }
    }
}

impl Write for FaultStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let Some(state) = &mut self.state else {
            return self.inner.write(buf);
        };
        if buf.is_empty() {
            return Ok(0);
        }
        match state.plan_write(buf.len()) {
            WriteStep::Pass(cap) => {
                let n = self.inner.write(&buf[..cap.max(1).min(buf.len())])?;
                state.account_write(n);
                Ok(n)
            }
            WriteStep::DelayThen { delay, cap, action } => {
                std::thread::sleep(delay);
                let n = self.inner.write(&buf[..cap.max(1).min(buf.len())])?;
                if n > 0 {
                    state.confirm_delay(action);
                    state.account_write(n);
                }
                Ok(n)
            }
            WriteStep::Tear => {
                let _ = self.inner.shutdown(Shutdown::Both);
                Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "fault injection: write torn",
                ))
            }
            WriteStep::Broken => Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "fault injection: connection torn earlier",
            )),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// SplitMix64: tiny, seed-robust (seed 0 included), and plenty for
/// schedule generation. Private so plans can only be built through the
/// seeded constructor — keeping "same seed, same schedule" an invariant
/// rather than a convention.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_varied() {
        for seed in 0..64 {
            assert_eq!(
                FaultPlan::seeded(seed).actions_for(0),
                FaultPlan::seeded(seed).actions_for(0),
                "seed {seed} must reproduce"
            );
            assert!(!FaultPlan::seeded(seed).is_empty());
            assert!(FaultPlan::seeded(seed).actions_for(1).is_empty());
        }
        // Different seeds must not collapse onto one schedule.
        let distinct: std::collections::HashSet<String> = (0..64)
            .map(|seed| format!("{:?}", FaultPlan::seeded(seed).actions_for(0)))
            .collect();
        assert!(
            distinct.len() > 8,
            "only {} distinct schedules",
            distinct.len()
        );
    }

    #[test]
    fn drop_read_is_byte_exact_regardless_of_chunking() {
        // A loopback socket carrying 64 bytes; the fault cuts reads at 10.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&[7u8; 64]).unwrap();
        });
        let (accepted, _) = listener.accept().unwrap();
        let stats = Arc::new(FaultStats::default());
        let plan = FaultPlan::from_schedule(vec![vec![FaultAction {
            kind: FaultKind::DropRead,
            after_bytes: 10,
            delay_ms: 0,
        }]]);
        let state = plan.arm(0, &stats);
        let mut stream = FaultStream::new(accepted, state);
        for chunk in [3usize, 4, 2] {
            let mut buf = vec![0u8; chunk];
            stream.read_exact(&mut buf).unwrap();
        }
        // 9 bytes delivered; the 10th read crosses the threshold next call.
        let mut rest = Vec::new();
        let n = stream.read_to_end(&mut rest).unwrap();
        assert_eq!(n, 1, "exactly one byte remains before the EOF");
        assert_eq!(stats.fired(FaultKind::DropRead), 1);
        sender.join().unwrap();
    }

    #[test]
    fn tear_write_breaks_the_pipe_permanently() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        drop(client);
        let stats = Arc::new(FaultStats::default());
        let plan = FaultPlan::from_schedule(vec![vec![FaultAction {
            kind: FaultKind::TearWrite,
            after_bytes: 5,
            delay_ms: 0,
        }]]);
        let mut stream = FaultStream::new(accepted, plan.arm(0, &stats));
        assert_eq!(stream.write(&[1u8; 16]).unwrap(), 5, "capped at threshold");
        assert!(stream.write(&[1u8; 16]).is_err(), "tear fires at the cap");
        assert!(stream.write(&[1u8; 1]).is_err(), "pipe stays broken");
        assert_eq!(stats.fired(FaultKind::TearWrite), 1);
    }

    #[test]
    fn delay_faults_ignore_would_block_attempts_on_nonblocking_streams() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let stats = Arc::new(FaultStats::default());
        let plan = FaultPlan::from_schedule(vec![vec![FaultAction {
            kind: FaultKind::DelayRead,
            after_bytes: 0,
            delay_ms: 1,
        }]]);
        let mut stream = FaultStream::new(accepted, plan.arm(0, &stats));
        stream.set_nonblocking(true).unwrap();

        // Speculative reads with nothing buffered: `WouldBlock` outcomes
        // must neither consume the one-shot delay nor count it as fired.
        for _ in 0..3 {
            let mut buf = [0u8; 8];
            let err = stream.read(&mut buf).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        }
        assert_eq!(
            stats.fired(FaultKind::DelayRead),
            0,
            "WouldBlock attempts must not burn the fault"
        );

        // The first byte-moving read confirms the delay exactly once.
        client.write_all(b"payload").unwrap();
        let mut buf = [0u8; 8];
        let n = loop {
            match stream.read(&mut buf) {
                Ok(n) => break n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("unexpected read error: {e}"),
            }
        };
        assert!(n > 0, "bytes must flow once buffered");
        assert_eq!(stats.fired(FaultKind::DelayRead), 1);

        // Later reads run clean: the one-shot is spent.
        client.write_all(b"more").unwrap();
        stream.set_nonblocking(false).unwrap();
        let mut rest = [0u8; 4];
        stream.read_exact(&mut rest).unwrap();
        assert_eq!(stats.fired(FaultKind::DelayRead), 1);
    }

    #[test]
    fn clean_streams_pass_bytes_through_untouched() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"hello").unwrap();
        });
        let (accepted, _) = listener.accept().unwrap();
        let mut stream = FaultStream::new(accepted, None);
        let mut buf = [0u8; 5];
        stream.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        sender.join().unwrap();
    }
}
