//! The concurrent TCP front-end: a bounded worker pool over the line
//! protocol.
//!
//! [`serve_tcp`] lifts the protocol's session loop onto
//! [`sablock_core::parallel::worker_pool`]: the accepting thread produces
//! connections into a bounded [`JobQueue`] and a fixed set of workers
//! serves them. Overload is handled at two gates, both explicit:
//!
//! 1. **Admission** — when every worker is busy and the queue is full, the
//!    connection is *shed*: it gets a one-line `RETRY <ms>` response (the
//!    suggested backoff) and is closed. Nothing queues unboundedly; shed
//!    counts surface in `STATS`.
//! 2. **Per-request budgets** — admitted requests run under the
//!    [`RequestLimits`] in the options: bounded line length, a ranked-query
//!    deadline, and a candidate budget, degrading (never silently failing)
//!    as described in [`crate::protocol`].
//!
//! Per-connection socket read/write timeouts bound how long a stalled or
//! dead peer can hold a worker: when the timeout fires the connection is
//! reaped (counted in `STATS`) and the worker moves on. One stuck client
//! therefore delays its own requests, never the service.
//!
//! [`JobQueue`]: sablock_core::parallel::JobQueue

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use sablock_core::parallel::worker_pool;

use crate::error::Result;
use crate::protocol::{serve_session, RequestLimits};
use crate::service::CandidateService;

/// Configuration for [`serve_tcp`].
#[derive(Debug, Clone)]
pub struct FrontendOptions {
    /// Worker threads serving admitted connections.
    pub workers: usize,
    /// Connections allowed to wait for a worker before shedding starts.
    pub queue_depth: usize,
    /// Per-connection socket read timeout — a peer silent for this long is
    /// reaped.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout — a peer not draining its
    /// responses for this long is reaped.
    pub write_timeout: Duration,
    /// The backoff hint sent with `RETRY` responses, in milliseconds.
    pub retry_after_ms: u64,
    /// Per-request limits threaded into every admitted request.
    pub limits: RequestLimits,
    /// Stop accepting after this many connections (tests and drains); `None`
    /// serves until the process ends.
    pub max_sessions: Option<u64>,
}

impl Default for FrontendOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            retry_after_ms: 100,
            limits: RequestLimits::default(),
            max_sessions: None,
        }
    }
}

/// Serves the line protocol on `listener` with a bounded worker pool (see
/// the module docs). Blocks until the accept loop ends — which it only does
/// when [`FrontendOptions::max_sessions`] is set — then drains the queued
/// connections and joins the workers. Returns the number of connections
/// accepted (admitted + shed).
pub fn serve_tcp(service: &CandidateService, listener: &TcpListener, options: &FrontendOptions) -> Result<u64> {
    worker_pool(
        options.workers.max(1),
        options.queue_depth.max(1),
        |queue| {
            let mut accepted: u64 = 0;
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                accepted += 1;
                if let Err(rejected) = queue.try_push(stream) {
                    shed(service, rejected, options);
                }
                if options.max_sessions.is_some_and(|limit| accepted >= limit) {
                    break;
                }
            }
            Ok(accepted)
        },
        |stream| serve_connection(service, stream, options),
    )
}

/// The shed path: best-effort `RETRY <ms>` so the peer knows to back off,
/// then drop. A peer that cannot even take that line is dropped silently —
/// shedding must never block the accept loop.
fn shed(service: &CandidateService, mut stream: TcpStream, options: &FrontendOptions) {
    service.metrics().record_shed();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(50)));
    let _ = stream.write_all(format!("RETRY {}\n", options.retry_after_ms).as_bytes());
}

/// Serves one admitted connection through [`serve_session`] until `QUIT`,
/// EOF or an overlong line. A socket timeout or transport failure reaps the
/// connection, and so does failing to set the timeouts: the socket is
/// already dead, and must not be served untimed.
fn serve_connection(service: &CandidateService, stream: TcpStream, options: &FrontendOptions) {
    let timed = stream
        .set_read_timeout(Some(options.read_timeout))
        .and_then(|()| stream.set_write_timeout(Some(options.write_timeout)))
        .and_then(|()| stream.try_clone());
    let served = match timed {
        Ok(writer) => serve_session(service, &options.limits, BufReader::new(stream), writer),
        Err(error) => Err(error.into()),
    };
    if served.is_err() {
        service.metrics().record_reaped();
    }
}
