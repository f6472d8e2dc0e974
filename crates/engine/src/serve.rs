//! JSONL batch serving: one request per input line, one response per
//! output line, in input order, **streamed** — each response is written
//! (and flushed) as soon as it and everything before it has resolved,
//! so a consumer sees each result while the input is still open, without
//! having to send anything more.
//!
//! Request lines are [`EngineRequest`] JSON objects; the only required
//! field is `instance`. Malformed lines produce an `"error"` response
//! instead of aborting the stream, so one bad record cannot poison a
//! batch. Blank lines are skipped. Lines longer than
//! [`ServeOptions::max_line_len`] are discarded without buffering and
//! answered with an inline error, so a single runaway record (or a
//! hostile network client) cannot balloon server memory.
//!
//! # Sessions
//!
//! A request carrying a `session` command (`{"session": {"op": "open"},
//! "instance": {...}}`, then `delta`/`solve`/`close` with the returned
//! `sid`) is executed synchronously in stream order against the engine's
//! incremental-session registry instead of the worker pool — session
//! state is ordered, so a staged delta is always visible to the next
//! `solve` on the stream. Session ids live in their own
//! [`crate::engine::SESSION_ID_BASE`] (`2^62`) namespace and never
//! collide with response ids. Over TCP (see [`crate::net`]) sessions are
//! additionally pinned to the connection that opened them.
//!
//! # Admin commands
//!
//! A line of the form `{"cmd": "shutdown"}` (optionally with an `id`)
//! initiates a graceful drain: no further input is read, every in-flight
//! request completes and is written in order, the shutdown line itself is
//! acknowledged with an `"ok"` response, and the stream ends. On the TCP
//! frontend this drains the whole server (stop accepting, drain every
//! connection, flush, exit).
//!
//! # Id contract
//!
//! Every response echoes an id. Explicit request ids must be below
//! [`FALLBACK_ID_BASE`] (`2^63`); ids at or above it are reserved for the
//! server and such a request gets an `"error"` response. Requests without
//! an id are assigned `FALLBACK_ID_BASE + line_number` (0-based), which
//! cannot collide with any valid explicit id — mixing explicit and
//! implicit ids in one stream is safe.
//!
//! # Reader, FIFO, writer
//!
//! Each stream runs on two threads. The caller's thread reads, parses and
//! submits lines, pushing each pending response into a FIFO of at most
//! [`ServeOptions::max_pending`] entries; a scoped writer thread waits on
//! the FIFO's entries in order and writes and flushes each. A full FIFO
//! blocks the reader, so a consumer that stops reading stops its stream's
//! input instead of growing a buffer. However reading stops, the FIFO is
//! closed and the writer joined, so every accepted request is answered.

use crate::engine::{
    status, Engine, EngineConfig, EngineRequest, EngineResponse, ResponseSlot, GLOBAL_SCOPE,
};
use crate::metrics::{inc, prometheus_text, MetricsSnapshot, NetMetrics};
use std::io::{BufRead, ErrorKind, Write};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::{Duration, Instant};

/// First id the server assigns to requests that omit `id`. Explicit ids
/// must be strictly below this; the range `[2^63, 2^64)` belongs to the
/// server.
pub const FALLBACK_ID_BASE: u64 = 1 << 63;

enum Pending {
    /// Submitted; the worker pool will fill the slot.
    InFlight(ResponseSlot),
    /// Failed before reaching the pool (parse error, reserved id,
    /// rejected submit) or resolved synchronously (session command,
    /// admin ack).
    Immediate(Box<EngineResponse>),
}

impl Pending {
    /// Block until the response is ready.
    fn wait(self) -> EngineResponse {
        match self {
            Pending::InFlight(slot) => slot.wait(),
            Pending::Immediate(r) => *r,
        }
    }
}

/// A pending response plus the instant it entered the FIFO, so the
/// network frontend can histogram how long it waited to be written.
struct Entry {
    pending: Pending,
    queued: Instant,
}

impl Entry {
    fn new(pending: Pending) -> Entry {
        Entry {
            pending,
            queued: Instant::now(),
        }
    }
}

/// How [`serve_with`] streams and reports.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Maximum responses queued behind the one being written; reading
    /// blocks while the queue is full.
    pub max_pending: usize,
    /// Maximum accepted request-line length in bytes. Longer lines are
    /// discarded (never buffered) and answered with an inline error.
    pub max_line_len: usize,
    /// Write engine metrics in the Prometheus text format to this path,
    /// periodically and at end of stream.
    pub metrics_out: Option<PathBuf>,
    /// Cadence of periodic metrics writes (checked between input lines).
    pub metrics_interval: Duration,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_pending: 1024,
            max_line_len: DEFAULT_MAX_LINE_LEN,
            metrics_out: None,
            metrics_interval: Duration::from_secs(1),
        }
    }
}

/// Default [`ServeOptions::max_line_len`]: 1 MiB comfortably fits any
/// realistic instance while bounding per-line memory.
pub const DEFAULT_MAX_LINE_LEN: usize = 1 << 20;

/// Outcome of one [`serve`] run.
pub struct ServeSummary {
    /// Responses written.
    pub responses: u64,
    /// Engine metrics at end of stream.
    pub metrics: MetricsSnapshot,
}

fn immediate_error(id: u64, message: String) -> Pending {
    Pending::Immediate(Box::new(EngineResponse {
        error: Some(message),
        ..EngineResponse::new(id, status::ERROR)
    }))
}

/// One line's worth of outcome from a bounded read.
pub(crate) enum LineRead {
    /// A complete line, newline (and any trailing `\r`) stripped.
    Line(String),
    /// The line exceeded the limit; its bytes through the next newline
    /// (or EOF) were consumed and discarded.
    TooLong,
    /// End of input with no pending bytes.
    Eof,
}

/// Read one newline-terminated line from `input`, buffering at most
/// `max_len` bytes. An over-limit line is *consumed* (streamed past in
/// buffer-sized chunks, never accumulated) and reported as
/// [`LineRead::TooLong`], so the reader stays line-synchronized with the
/// peer. Invalid UTF-8 is replaced rather than treated as an I/O error —
/// a garbage line should produce one inline parse error, not kill the
/// stream. A read error drops the partial line; it ends the stream anyway.
pub(crate) fn read_bounded_line<R: BufRead>(
    input: &mut R,
    max_len: usize,
) -> std::io::Result<LineRead> {
    let mut buf = Vec::new();
    let mut overlong = false;
    loop {
        let available = match input.fill_buf() {
            Ok(a) => a,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            // EOF. A partial unterminated line still counts as a line
            // (matching `BufRead::lines`); an overlong one is reported.
            return Ok(if overlong {
                LineRead::TooLong
            } else if buf.is_empty() {
                LineRead::Eof
            } else {
                finish_line(buf)
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                // A trailing `\r` is protocol framing, not payload: it is
                // stripped below, so it does not count against the limit.
                let ends_cr = if pos > 0 {
                    available[pos - 1] == b'\r'
                } else {
                    buf.last() == Some(&b'\r')
                };
                let overlong = overlong || buf.len() + pos - usize::from(ends_cr) > max_len;
                if !overlong {
                    buf.extend_from_slice(&available[..pos]);
                }
                input.consume(pos + 1);
                return Ok(if overlong {
                    LineRead::TooLong
                } else {
                    finish_line(buf)
                });
            }
            None => {
                let len = available.len();
                if !overlong {
                    // `+ 1` leaves room for a `\r` that may precede a
                    // newline in the next chunk; the exact check happens
                    // at the newline. Memory stays bounded by max + 1.
                    if buf.len() + len > max_len + 1 {
                        overlong = true;
                        buf.clear();
                    } else {
                        buf.extend_from_slice(available);
                    }
                }
                input.consume(len);
            }
        }
    }
}

fn finish_line(mut buf: Vec<u8>) -> LineRead {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
}

/// Write the engine metrics, plus the TCP-frontend series when `net` is
/// given, to `opts.metrics_out` (if set) in the Prometheus text format.
/// An error names the path.
pub(crate) fn write_metrics(
    engine: &Engine,
    net: Option<&NetMetrics>,
    opts: &ServeOptions,
) -> std::io::Result<()> {
    let Some(path) = &opts.metrics_out else {
        return Ok(());
    };
    let text = prometheus_text(&engine.metrics(), net.map(NetMetrics::snapshot).as_ref());
    std::fs::write(path, text).map_err(|e| {
        std::io::Error::new(
            e.kind(),
            format!("writing metrics to {}: {e}", path.display()),
        )
    })
}

/// Why [`serve_lines`] stopped reading.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LoopExit {
    /// Input ended (EOF or peer disconnect), or the writer stopped on an
    /// output error (which [`serve_lines`] then returns).
    Eof,
    /// A `{"cmd": "shutdown"}` admin line was processed.
    Shutdown,
    /// A read timed out (`WouldBlock`/`TimedOut`) — the stream's idle
    /// timeout fired. Only reachable when the input has a read deadline.
    IdleTimeout,
}

/// Which stream this loop serves: its session scope and, for network
/// connections, the shared net metrics.
pub(crate) struct StreamScope<'a> {
    /// Session scope commands on this stream run under
    /// ([`GLOBAL_SCOPE`] for stdin/file serving).
    pub scope: u64,
    /// Network counters, when this stream is a TCP connection.
    pub net: Option<&'a NetMetrics>,
}

impl StreamScope<'_> {
    pub(crate) fn global() -> StreamScope<'static> {
        StreamScope {
            scope: GLOBAL_SCOPE,
            net: None,
        }
    }
}

enum ParsedLine {
    Entry(Pending),
    /// The shutdown acknowledgment; the caller queues it and stops reading.
    Shutdown(Pending),
}

/// Classify and dispatch one non-blank input line: admin command,
/// session command (synchronous, scope-checked), or worker-pool submit.
fn parse_line(engine: &Engine, scope: u64, line: &str, lineno: usize) -> ParsedLine {
    let fallback_id = FALLBACK_ID_BASE + lineno as u64;
    // Admin commands carry a top-level `"cmd"` key. The substring check is
    // a fast path: a `"cmd"` that merely appears inside some value falls
    // through to the normal request parse below.
    if line.contains("\"cmd\"") {
        if let Ok(v) = serde_json::from_str::<serde_json::Value>(line) {
            if let Some(cmd) = v.get("cmd").and_then(|c| c.as_str()) {
                let id = v
                    .get("id")
                    .and_then(|i| i.as_u64())
                    .filter(|&i| i < FALLBACK_ID_BASE)
                    .unwrap_or(fallback_id);
                return match cmd {
                    "shutdown" => {
                        let ack = EngineResponse::new(id, status::OK);
                        ParsedLine::Shutdown(Pending::Immediate(Box::new(ack)))
                    }
                    other => ParsedLine::Entry(immediate_error(
                        id,
                        format!(
                            "line {}: unknown admin cmd `{other}` (expected shutdown)",
                            lineno + 1
                        ),
                    )),
                };
            }
        }
    }
    let entry = match serde_json::from_str::<EngineRequest>(line) {
        Ok(mut request) => match request.id {
            Some(explicit) if explicit >= FALLBACK_ID_BASE => immediate_error(
                explicit,
                format!(
                    "line {}: id {explicit} is in the server-reserved range \
                     (ids must be < {FALLBACK_ID_BASE})",
                    lineno + 1
                ),
            ),
            _ => {
                if request.id.is_none() {
                    request.id = Some(fallback_id);
                }
                let id = request.id.expect("id assigned above");
                if request.session.is_some() {
                    // Session commands are ordered stream state (a delta
                    // must be visible to the next solve), so they run
                    // synchronously here instead of on the worker pool.
                    Pending::Immediate(Box::new(engine.session_command_scoped(id, &request, scope)))
                } else {
                    match engine.submit(request) {
                        Ok(slot) => Pending::InFlight(slot),
                        Err(e) => immediate_error(id, e.to_string()),
                    }
                }
            }
        },
        Err(e) => immediate_error(fallback_id, format!("line {}: {e}", lineno + 1)),
    };
    ParsedLine::Entry(entry)
}

/// The reader half of [`serve_lines`]: read bounded lines, dispatch them
/// against `engine`, and queue each pending response for the writer.
/// Returns why reading stopped; `queue` closes when it returns.
fn read_requests<R: BufRead>(
    engine: &Engine,
    input: &mut R,
    queue: SyncSender<Entry>,
    opts: &ServeOptions,
    ctx: &StreamScope<'_>,
) -> std::io::Result<LoopExit> {
    let mut last_metrics = Instant::now();
    let mut lineno = 0usize;
    loop {
        let line = {
            let _span = ise_obs::Span::enter("net.read");
            read_bounded_line(input, opts.max_line_len)
        };
        let this_line = lineno;
        lineno += 1;
        let pending = match line {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(LoopExit::IdleTimeout)
            }
            Err(e) => return Err(e),
            Ok(LineRead::Eof) => return Ok(LoopExit::Eof),
            Ok(LineRead::TooLong) => {
                if let Some(net) = ctx.net {
                    inc(&net.oversize_lines);
                }
                immediate_error(
                    FALLBACK_ID_BASE + this_line as u64,
                    format!(
                        "line {}: exceeds the maximum line length ({} bytes)",
                        this_line + 1,
                        opts.max_line_len
                    ),
                )
            }
            Ok(LineRead::Line(text)) => {
                if text.trim().is_empty() {
                    continue;
                }
                match parse_line(engine, ctx.scope, &text, this_line) {
                    ParsedLine::Entry(pending) => pending,
                    ParsedLine::Shutdown(ack) => {
                        let _ = queue.send(Entry::new(ack));
                        return Ok(LoopExit::Shutdown);
                    }
                }
            }
        };
        if queue.send(Entry::new(pending)).is_err() {
            // The writer hung up on an output error; it reports that.
            return Ok(LoopExit::Eof);
        }
        // Periodic metrics are per-process state: the file/stdin path
        // writes them here; the TCP frontend's acceptor owns them instead
        // (it folds in the net series).
        if ctx.net.is_none() && last_metrics.elapsed() >= opts.metrics_interval {
            write_metrics(engine, None, opts)?;
            last_metrics = Instant::now();
        }
    }
}

/// The writer half of [`serve_lines`]: wait on each queued entry in
/// order, then serialize, write and flush it. Returns the number of
/// responses written once the reader has closed the queue.
fn write_responses<W: Write>(
    engine: &Engine,
    queue: Receiver<Entry>,
    output: &mut W,
    net: Option<&NetMetrics>,
) -> std::io::Result<u64> {
    let mut responses = 0;
    for entry in queue {
        let response = entry.pending.wait();
        let _span = ise_obs::Span::enter("net.write");
        if let Some(net) = net {
            net.write_queue_wait.record(entry.queued.elapsed());
            inc(&net.responses_total);
        }
        let started = Instant::now();
        let json = serde_json::to_string(&response).expect("response serialization is infallible");
        engine.record_serialize_time(started.elapsed());
        writeln!(output, "{json}")?;
        output.flush()?;
        responses += 1;
    }
    Ok(responses)
}

/// The serve loop shared by the stdin/file path and every TCP connection:
/// this thread reads and dispatches lines while a scoped writer thread
/// streams the ordered responses to `output`. Returns why reading stopped
/// and how many responses were written. Every accepted request is
/// answered before this returns, a read or metrics error included; an
/// output error ends the writer early and is returned.
pub(crate) fn serve_lines<R: BufRead, W: Write + Send>(
    engine: &Engine,
    input: &mut R,
    output: &mut W,
    opts: &ServeOptions,
    ctx: &StreamScope<'_>,
) -> std::io::Result<(LoopExit, u64)> {
    let (queue, queued) = sync_channel(opts.max_pending.max(1));
    // The writer's spans nest under this thread's current span (a no-op
    // without an active trace).
    let trace = ise_obs::SpanContext::current();
    let net = ctx.net;
    std::thread::scope(|s| {
        let writer = std::thread::Builder::new()
            .name("ise-serve-write".to_string())
            .spawn_scoped(s, move || {
                let _trace = trace.install();
                write_responses(engine, queued, output, net)
            })
            .expect("spawn writer thread");
        let exit = read_requests(engine, input, queue, opts, ctx);
        let written = writer
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        Ok((exit?, written?))
    })
}

/// [`serve_with`] under default [`ServeOptions`].
pub fn serve<R: BufRead, W: Write + Send>(
    input: R,
    output: &mut W,
    config: EngineConfig,
) -> std::io::Result<ServeSummary> {
    serve_with(input, output, config, &ServeOptions::default())
}

/// Read JSONL requests from `input`, solve them on `config`'s worker pool,
/// and stream JSONL responses to `output` in input order (see the module
/// docs for the id contract and backpressure behavior). `output` moves to
/// a writer thread for the run, hence `Send`.
///
/// I/O errors, including a failed `metrics_out` write, end the run with
/// an error once every request read so far has been answered;
/// per-request failures do not. A `{"cmd": "shutdown"}` line stops
/// reading early after a full drain.
pub fn serve_with<R: BufRead, W: Write + Send>(
    mut input: R,
    output: &mut W,
    config: EngineConfig,
    opts: &ServeOptions,
) -> std::io::Result<ServeSummary> {
    let engine = Engine::new(config);
    let (_, responses) = serve_lines(&engine, &mut input, output, opts, &StreamScope::global())?;
    let metrics = engine.metrics();
    write_metrics(&engine, None, opts)?;
    Ok(ServeSummary { responses, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor, Read};
    use std::sync::mpsc::{channel, Sender};

    fn request_line(id: u64, proc: i64) -> String {
        format!(
            "{{\"id\": {id}, \"instance\": {{\"jobs\": [{{\"id\": 0, \"release\": 0, \
             \"deadline\": 30, \"proc\": {proc}}}], \"machines\": 1, \"calib_len\": 10}}}}"
        )
    }

    fn anonymous_request_line(proc: i64) -> String {
        format!(
            "{{\"instance\": {{\"jobs\": [{{\"id\": 0, \"release\": 0, \
             \"deadline\": 30, \"proc\": {proc}}}], \"machines\": 1, \"calib_len\": 10}}}}"
        )
    }

    #[test]
    fn serves_in_order_with_errors_inline() {
        let input = format!(
            "{}\nnot json\n\n{}\n",
            request_line(7, 4),
            request_line(9, 5)
        );
        let mut out = Vec::new();
        let summary = serve(
            input.as_bytes(),
            &mut out,
            EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(summary.responses, 3);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["id"].as_u64(), Some(7));
        assert_eq!(first["status"].as_str(), Some("ok"));
        let second: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second["status"].as_str(), Some("error"));
        let third: serde_json::Value = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(third["id"].as_u64(), Some(9));
        // The malformed line never reached the engine: 2 solves, 0 errors.
        assert_eq!(summary.metrics.errors, 0);
        assert_eq!(summary.metrics.completed, 2);
        assert!(summary.metrics.serialize_time.count >= 3);
    }

    #[test]
    fn invalid_instances_get_inline_errors_and_the_stream_goes_on() {
        // Each line breaks one `Instance` invariant. Unvalidated, the first
        // two panicked the only worker and hung the stream; the others were
        // answered with solver failures or an `ok` schedule.
        // (job id, (release, deadline, proc), machines, calib_len, error)
        let bad = [
            (0, (0, 30, 4), 0, 10, "at least one machine"),
            (0, (0, 5, 8), 1, 10, "window cannot fit"),
            (0, (0, 30, 4), 1, 0, "T must be positive"),
            (0, (0, 30, 4), 1, -10, "T must be positive"),
            (0, (0, 30, 15), 1, 10, "exceeds calibration length"),
            (0, (0, 30, 0), 1, 10, "processing time must be positive"),
            (5, (0, 30, 4), 1, 10, "position 0 has id 5"),
        ];
        let mut input = String::new();
        for (i, (job, (r, d, p), m, t, _)) in bad.iter().enumerate() {
            input += &format!(
                "{{\"id\": {i}, \"instance\": {{\"jobs\": [{{\"id\": {job}, \"release\": {r}, \
                 \"deadline\": {d}, \"proc\": {p}}}], \"machines\": {m}, \"calib_len\": {t}}}}}\n"
            );
        }
        input += &request_line(7, 4);
        let (done, answered) = channel();
        std::thread::spawn(move || {
            let mut out = Vec::new();
            let config = EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            };
            serve(input.as_bytes(), &mut out, config).unwrap();
            let _ = done.send(out);
        });
        let out = answered
            .recv_timeout(Duration::from_secs(10))
            .expect("the stream must not hang");
        let lines: Vec<serde_json::Value> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 8);
        for (line, want) in lines.iter().zip(bad.map(|b| b.4)) {
            assert_eq!(line["status"].as_str(), Some("error"), "{line:?}");
            let error = line["error"].as_str().unwrap();
            assert!(error.contains(want), "{error} lacks {want}");
        }
        assert_eq!(lines[7]["id"].as_u64(), Some(7));
        assert_eq!(lines[7]["status"].as_str(), Some("ok"));
    }

    #[test]
    fn fallback_ids_do_not_collide_with_explicit_ids() {
        // Line 0 claims explicit id 1; line 1 omits its id. Before the ids
        // were namespaced, the second response also got id 1.
        let input = format!("{}\n{}\n", request_line(1, 4), anonymous_request_line(5));
        let mut out = Vec::new();
        serve(input.as_bytes(), &mut out, EngineConfig::default()).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        let second: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(first["id"].as_u64(), Some(1));
        assert_eq!(second["id"].as_u64(), Some(FALLBACK_ID_BASE + 1));
    }

    #[test]
    fn reserved_explicit_id_is_rejected() {
        let input = format!("{}\n", request_line(FALLBACK_ID_BASE + 5, 4));
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, EngineConfig::default()).unwrap();
        assert_eq!(summary.responses, 1);
        let resp: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&out).unwrap().lines().next().unwrap())
                .unwrap();
        assert_eq!(resp["status"].as_str(), Some("error"));
        assert!(
            resp["error"]
                .as_str()
                .unwrap()
                .contains("server-reserved range"),
            "{resp:?}"
        );
        // It never reached the engine.
        assert_eq!(summary.metrics.requests, 0);
    }

    #[test]
    fn bounded_line_reader_boundaries() {
        // Small BufReader capacity forces multi-chunk assembly.
        let text = "abcd\nefgh\r\nij\ntoolongline\nk";
        let mut r = BufReader::with_capacity(3, Cursor::new(text.as_bytes()));
        let max = 4;
        match read_bounded_line(&mut r, max).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "abcd"),
            _ => panic!("exact-limit line must pass"),
        }
        match read_bounded_line(&mut r, max).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "efgh"),
            _ => panic!("CRLF line of limit length must pass"),
        }
        match read_bounded_line(&mut r, max).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "ij"),
            _ => panic!("short line"),
        }
        assert!(matches!(
            read_bounded_line(&mut r, max).unwrap(),
            LineRead::TooLong
        ));
        // The reader resynchronized past the newline: the trailing
        // unterminated byte still comes through as a line.
        match read_bounded_line(&mut r, max).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "k"),
            _ => panic!("unterminated final line"),
        }
        assert!(matches!(
            read_bounded_line(&mut r, max).unwrap(),
            LineRead::Eof
        ));
    }

    #[test]
    fn oversize_line_gets_inline_error_and_stream_continues() {
        // The serve loop must answer the over-limit line inline (without
        // ever buffering it) and keep serving the rest of the stream.
        let huge = format!("{{\"id\": 1, \"instance\": \"{}\"}}", "x".repeat(4096));
        let input = format!("{huge}\n{}\n", request_line(2, 4));
        let mut out = Vec::new();
        let summary = serve_with(
            input.as_bytes(),
            &mut out,
            EngineConfig::default(),
            &ServeOptions {
                max_line_len: 256,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(summary.responses, 2);
        let lines: Vec<serde_json::Value> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines[0]["status"].as_str(), Some("error"));
        assert_eq!(lines[0]["id"].as_u64(), Some(FALLBACK_ID_BASE));
        assert!(
            lines[0]["error"]
                .as_str()
                .unwrap()
                .contains("maximum line length (256 bytes)"),
            "{:?}",
            lines[0]
        );
        assert_eq!(lines[1]["id"].as_u64(), Some(2));
        assert_eq!(lines[1]["status"].as_str(), Some("ok"));
        // The oversize line never reached the engine.
        assert_eq!(summary.metrics.requests, 1);
    }

    #[test]
    fn admin_shutdown_drains_and_stops_reading() {
        let input = format!(
            "{}\n{{\"id\": 5, \"cmd\": \"shutdown\"}}\n{}\n",
            request_line(1, 4),
            request_line(9, 5)
        );
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, EngineConfig::default()).unwrap();
        // The request before the shutdown resolves; the line after it is
        // never read.
        assert_eq!(summary.responses, 2);
        assert_eq!(summary.metrics.requests, 1);
        let lines: Vec<serde_json::Value> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines[0]["id"].as_u64(), Some(1));
        assert_eq!(lines[0]["status"].as_str(), Some("ok"));
        assert_eq!(lines[1]["id"].as_u64(), Some(5));
        assert_eq!(lines[1]["status"].as_str(), Some("ok"));
        assert!(lines[1]["schedule"].is_null());
    }

    #[test]
    fn unknown_admin_cmd_is_an_inline_error() {
        let input = "{\"cmd\": \"reboot\"}\n".to_string() + &request_line(3, 4) + "\n";
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, EngineConfig::default()).unwrap();
        assert_eq!(summary.responses, 2);
        let lines: Vec<serde_json::Value> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines[0]["status"].as_str(), Some("error"));
        assert!(
            lines[0]["error"]
                .as_str()
                .unwrap()
                .contains("unknown admin"),
            "{:?}",
            lines[0]
        );
        assert_eq!(lines[1]["status"].as_str(), Some("ok"));
    }

    #[test]
    fn cmd_inside_a_value_is_not_an_admin_command() {
        // `"cmd"` appears as a *value*, not a key: the line must go down
        // the normal request path (and fail on the unknown backend).
        let input = "{\"id\": 1, \"instance\": {\"jobs\": [{\"id\": 0, \"release\": 0, \
                     \"deadline\": 30, \"proc\": 4}], \"machines\": 1, \"calib_len\": 10}, \
                     \"mm\": \"cmd\"}\n";
        let mut out = Vec::new();
        serve(input.as_bytes(), &mut out, EngineConfig::default()).unwrap();
        let resp: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&out).unwrap().lines().next().unwrap())
                .unwrap();
        assert_eq!(resp["status"].as_str(), Some("error"));
        assert!(
            resp["error"].as_str().unwrap().contains("mm backend"),
            "{resp:?}"
        );
    }

    /// Input that blocks until the test hands it the next line, like a
    /// client that waits for each answer before sending more; EOF once
    /// the test hangs up.
    struct ClientInput(Receiver<String>);

    impl Read for ClientInput {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Ok(line) = self.0.recv() else {
                return Ok(0);
            };
            assert!(buf.len() >= line.len(), "test lines fit one read");
            buf[..line.len()].copy_from_slice(line.as_bytes());
            Ok(line.len())
        }
    }

    /// Output that hands each complete response line to the test.
    struct ClientOutput {
        buf: Vec<u8>,
        lines: Sender<String>,
    }

    impl Write for ClientOutput {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.buf.extend_from_slice(data);
            while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let _ = self.lines.send(String::from_utf8(line).unwrap());
            }
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn closed_loop_client_gets_each_answer_without_more_input() {
        let (to_server, input) = channel();
        let (output, from_server) = channel();
        let server = std::thread::spawn(move || {
            let mut out = ClientOutput {
                buf: Vec::new(),
                lines: output,
            };
            serve_with(
                BufReader::new(ClientInput(input)),
                &mut out,
                EngineConfig::default(),
                &ServeOptions::default(),
            )
        });
        // Each request is answered while the input stays open; nothing
        // but the request itself has to arrive first.
        for id in 0..3u64 {
            to_server
                .send(format!("{}\n", request_line(id, 4 + id as i64)))
                .unwrap();
            let line = from_server
                .recv_timeout(Duration::from_secs(10))
                .expect("no response while the input stayed open");
            let v: serde_json::Value = serde_json::from_str(&line).unwrap();
            assert_eq!(v["id"].as_u64(), Some(id));
            assert_eq!(v["status"].as_str(), Some("ok"));
        }
        drop(to_server);
        let summary = server.join().unwrap().unwrap();
        assert_eq!(summary.responses, 3);
    }

    #[test]
    fn bounded_pending_still_preserves_order() {
        let input: String = (0..20)
            .map(|i| format!("{}\n", request_line(i, 2 + (i as i64 % 7))))
            .collect();
        let mut out = Vec::new();
        let summary = serve_with(
            input.as_bytes(),
            &mut out,
            EngineConfig {
                workers: 4,
                ..EngineConfig::default()
            },
            &ServeOptions {
                max_pending: 2,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(summary.responses, 20);
        let ids: Vec<u64> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| {
                serde_json::from_str::<serde_json::Value>(l).unwrap()["id"]
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert_eq!(ids, (0..20).collect::<Vec<u64>>());
    }

    /// Output whose first write blocks until the test releases it, like a
    /// client that stops reading.
    struct StalledOutput {
        release: Receiver<()>,
        stalled: bool,
        buf: Vec<u8>,
    }

    impl Write for StalledOutput {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            if !std::mem::replace(&mut self.stalled, true) {
                let _ = self.release.recv();
            }
            self.buf.extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_stalled_writer_stops_the_reader_at_max_pending() {
        let engine = Engine::new(EngineConfig::default());
        let input: String = (0..20)
            .map(|i| format!("{}\n", request_line(i, 4)))
            .collect();
        let (release, stalled) = channel();
        let mut out = StalledOutput {
            release: stalled,
            stalled: false,
            buf: Vec::new(),
        };
        let opts = ServeOptions {
            max_pending: 3,
            ..ServeOptions::default()
        };
        let requests = || engine.metrics().requests;
        let (accepted, written) = std::thread::scope(|s| {
            let server = s.spawn(|| {
                serve_lines(
                    &engine,
                    &mut input.as_bytes(),
                    &mut out,
                    &opts,
                    &StreamScope::global(),
                )
            });
            // One response in the stalled writer's hands, `max_pending`
            // queued behind it, and one more submitted by the reader as
            // it waits for room: then reading stops.
            let deadline = Instant::now() + Duration::from_secs(10);
            while requests() < 5 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            std::thread::sleep(Duration::from_millis(200));
            let accepted = requests();
            release.send(()).unwrap();
            (accepted, server.join().unwrap().unwrap().1)
        });
        assert_eq!(accepted, 5, "requests accepted ahead of the stalled writer");
        assert_eq!(written, 20);
        let ids: Vec<u64> = std::str::from_utf8(&out.buf)
            .unwrap()
            .lines()
            .map(|l| {
                serde_json::from_str::<serde_json::Value>(l).unwrap()["id"]
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert_eq!(ids, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn session_protocol_round_trips_over_jsonl() {
        use crate::engine::SESSION_ID_BASE;
        // The sid is assigned by the server, but the first session on a
        // fresh engine always gets SESSION_ID_BASE, so the script can be
        // written ahead of time — exactly how `ise session` scripts work.
        let sid = SESSION_ID_BASE;
        let open = "{\"id\": 1, \"session\": {\"op\": \"open\"}, \"instance\": {\"jobs\": \
             [{\"id\": 0, \"release\": 0, \"deadline\": 40, \"proc\": 7}, \
              {\"id\": 1, \"release\": 0, \"deadline\": 12, \"proc\": 6}], \
             \"machines\": 1, \"calib_len\": 10}}"
            .to_string();
        let cmd = |id: u64, body: &str| format!("{{\"id\": {id}, \"session\": {{{body}}}}}");
        let input = [
            open,
            cmd(2, &format!("\"op\": \"solve\", \"sid\": {sid}")),
            cmd(
                3,
                &format!(
                    "\"op\": \"delta\", \"sid\": {sid}, \
                     \"delta\": {{\"op\": \"set_machines\", \"machines\": 2}}"
                ),
            ),
            cmd(4, &format!("\"op\": \"solve\", \"sid\": {sid}")),
            cmd(5, &format!("\"op\": \"close\", \"sid\": {sid}")),
            cmd(6, &format!("\"op\": \"solve\", \"sid\": {sid}")),
        ]
        .join("\n")
            + "\n";
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, EngineConfig::default()).unwrap();
        assert_eq!(summary.responses, 6);
        let lines: Vec<serde_json::Value> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines[0]["status"].as_str(), Some("ok"));
        assert_eq!(lines[0]["session"]["sid"].as_u64(), Some(sid));
        assert_eq!(
            lines[1]["session"]["telemetry"]["tier"].as_str(),
            Some("cold")
        );
        assert!(lines[1]["calibrations"].as_u64().is_some());
        assert_eq!(lines[2]["session"]["staged"].as_u64(), Some(1));
        assert_eq!(
            lines[3]["session"]["telemetry"]["tier"].as_str(),
            Some("basis")
        );
        assert_eq!(
            lines[3]["session"]["telemetry"]["warm_started"].as_bool(),
            Some(true)
        );
        assert_eq!(lines[4]["status"].as_str(), Some("ok"));
        // Solving a closed session is an inline error, not a stream abort.
        assert_eq!(lines[5]["status"].as_str(), Some("error"));
        assert!(
            lines[5]["error"]
                .as_str()
                .unwrap()
                .contains("unknown session id"),
            "{:?}",
            lines[5]
        );
        assert_eq!(summary.metrics.session_reuse_basis, 1);
        assert_eq!(summary.metrics.session_reuse_cold, 1);
    }

    #[test]
    fn metrics_out_writes_prometheus_text() {
        let path =
            std::env::temp_dir().join(format!("ise-serve-metrics-{}.prom", std::process::id()));
        let input = format!("{}\n{}\n", request_line(0, 4), request_line(1, 5));
        let mut out = Vec::new();
        serve_with(
            input.as_bytes(),
            &mut out,
            EngineConfig::default(),
            &ServeOptions {
                metrics_out: Some(path.clone()),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.contains("# TYPE ise_requests_total counter"), "{text}");
        assert!(text.contains("ise_requests_total 2"), "{text}");
        assert!(
            text.contains("# TYPE ise_solve_time_us histogram"),
            "{text}"
        );
    }

    #[test]
    fn metrics_write_error_still_answers_accepted_requests() {
        let path = std::env::temp_dir()
            .join(format!("ise-no-such-dir-{}", std::process::id()))
            .join("m.prom");
        let input = format!("{}\n{}\n", request_line(0, 4), request_line(1, 5));
        let mut out = Vec::new();
        let err = serve_with(
            input.as_bytes(),
            &mut out,
            EngineConfig::default(),
            &ServeOptions {
                metrics_out: Some(path.clone()),
                metrics_interval: Duration::ZERO,
                ..ServeOptions::default()
            },
        )
        .err()
        .expect("an unwritable metrics path is an error");
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "{err}"
        );
        // The failed write after line 0 stops reading, but line 0 was
        // already accepted, so it is answered before the error surfaces.
        let lines: Vec<serde_json::Value> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert_eq!(lines[0]["id"].as_u64(), Some(0));
        assert_eq!(lines[0]["status"].as_str(), Some("ok"));
    }
}
