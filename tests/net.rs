//! Loopback integration and chaos tests for the `--listen` TCP frontend
//! (`ise::engine::net`): concurrent mixed solve/session traffic with
//! per-connection ordering, cross-connection session isolation, abrupt
//! disconnects, slow-loris and oversize-line hostility, accept-time load
//! shedding, graceful drain shutdown, and the Prometheus series the
//! frontend exports — plus an end-to-end smoke of the `ise serve
//! --listen` binary.

use ise::engine::{EngineConfig, NetOptions, NetServer, ServeOptions, SESSION_ID_BASE};
use ise::model::{validate, Instance, Schedule};
use ise::workloads::{uniform, WorkloadParams};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn small_instance(seed: u64) -> Instance {
    uniform(
        &WorkloadParams {
            jobs: 8,
            machines: 2,
            calib_len: 10,
            horizon: 100,
        },
        seed,
    )
}

fn solve_line(id: u64, instance: &Instance) -> String {
    let inst = serde_json::to_string(instance).expect("instance serializes");
    format!("{{\"id\": {id}, \"instance\": {inst}}}\n")
}

fn session_open_line(id: u64, instance: &Instance) -> String {
    let inst = serde_json::to_string(instance).expect("instance serializes");
    format!("{{\"id\": {id}, \"session\": {{\"op\": \"open\"}}, \"instance\": {inst}}}\n")
}

fn session_line(id: u64, op: &str, sid: u64) -> String {
    format!("{{\"id\": {id}, \"session\": {{\"op\": \"{op}\", \"sid\": {sid}}}}}\n")
}

fn bind(config: EngineConfig, opts: NetOptions) -> NetServer {
    NetServer::bind("127.0.0.1:0", config, opts).expect("bind loopback")
}

fn connect(addr: SocketAddr) -> TcpStream {
    TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect loopback")
}

/// One client connection: a buffered reader over a clone plus the writer.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn open(addr: SocketAddr) -> Client {
        let writer = connect(addr);
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { reader, writer }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send line");
        self.writer.flush().expect("flush line");
    }

    /// Send a request one byte at a time so it crosses many TCP segments.
    fn send_trickled(&mut self, line: &str) {
        for b in line.as_bytes() {
            self.writer
                .write_all(std::slice::from_ref(b))
                .expect("send byte");
            self.writer.flush().expect("flush byte");
        }
    }

    fn read_response(&mut self) -> serde_json::Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "connection closed while a response was expected");
        serde_json::from_str(line.trim_end()).expect("response parses as JSON")
    }

    /// The next read must observe a clean EOF.
    fn expect_eof(&mut self) {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read at EOF");
        assert_eq!(n, 0, "expected EOF, got: {line}");
    }
}

fn response_schedule(v: &serde_json::Value) -> Schedule {
    let json = serde_json::to_string(&v["schedule"]).expect("schedule reserializes");
    serde_json::from_str(&json).expect("schedule parses")
}

fn wait_until<F: FnMut() -> bool>(what: &str, mut f: F) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The acceptance soak: ≥ 8 concurrent clients mixing plain solves,
/// session traffic, byte-at-a-time framing chaos, and abrupt mid-request
/// disconnects. Per-connection response order must match send order,
/// every schedule must validate, and afterwards the server must be fully
/// reaped: no open connections, no leaked sessions.
#[test]
fn loopback_soak_mixed_traffic() {
    const CLIENTS: u64 = 10;
    const REQUESTS: u64 = 12;
    let server = bind(
        EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        },
        NetOptions::default(),
    );
    let addr = server.local_addr();

    let workers: Vec<std::thread::JoinHandle<()>> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::open(addr);
                match c % 4 {
                    // Plain solves, whole-line writes.
                    0 => {
                        let mut sent = Vec::new();
                        for i in 0..REQUESTS {
                            let id = c * 1000 + i;
                            let instance = small_instance(c * 100 + i);
                            client.send(&solve_line(id, &instance));
                            sent.push((id, instance));
                        }
                        for (id, instance) in sent {
                            let v = client.read_response();
                            assert_eq!(v["id"].as_u64(), Some(id), "order on conn {c}");
                            assert_eq!(v["status"].as_str(), Some("ok"));
                            validate(&instance, &response_schedule(&v)).expect("valid schedule");
                        }
                    }
                    // Solves trickled byte-at-a-time across TCP segments.
                    1 => {
                        for i in 0..REQUESTS / 2 {
                            let id = c * 1000 + i;
                            let instance = small_instance(c * 100 + i);
                            client.send_trickled(&solve_line(id, &instance));
                            let v = client.read_response();
                            assert_eq!(v["id"].as_u64(), Some(id));
                            assert_eq!(v["status"].as_str(), Some("ok"));
                            validate(&instance, &response_schedule(&v)).expect("valid schedule");
                        }
                    }
                    // Session traffic: open, solve, close — in order.
                    2 => {
                        let instance = small_instance(c);
                        client.send(&session_open_line(1, &instance));
                        let open = client.read_response();
                        assert_eq!(open["status"].as_str(), Some("ok"));
                        let sid = open["session"]["sid"].as_u64().expect("sid assigned");
                        assert!(sid >= SESSION_ID_BASE);
                        client.send(&session_line(2, "solve", sid));
                        let solved = client.read_response();
                        assert_eq!(solved["id"].as_u64(), Some(2));
                        assert_eq!(solved["status"].as_str(), Some("ok"));
                        client.send(&session_line(3, "close", sid));
                        let closed = client.read_response();
                        assert_eq!(closed["id"].as_u64(), Some(3));
                        assert_eq!(closed["status"].as_str(), Some("ok"));
                    }
                    // Chaos: open a session, get one solve back, then
                    // vanish mid-request without closing anything.
                    _ => {
                        let instance = small_instance(c);
                        client.send(&session_open_line(1, &instance));
                        let open = client.read_response();
                        assert_eq!(open["status"].as_str(), Some("ok"));
                        let partial = solve_line(2, &instance);
                        let half = &partial[..partial.len() / 2];
                        client
                            .writer
                            .write_all(half.as_bytes())
                            .expect("half write");
                        client.writer.flush().expect("flush");
                        // Drop both halves of the socket mid-line.
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    // Every connection must be reaped and every session force-closed,
    // including the ones abandoned by the chaos clients.
    wait_until("connections and sessions to be reaped", || {
        let (engine, net) = server.snapshot();
        net.connections_open == 0 && engine.sessions_open == 0
    });
    let summary = server.shutdown();
    assert_eq!(summary.connections, CLIENTS);
    assert_eq!(summary.net.connections_open, 0);
    assert_eq!(summary.metrics.sessions_open, 0);
    assert_eq!(summary.net.shed_total, 0);
    assert!(summary.responses > 0);
    assert!(summary.net.bytes_in > 0 && summary.net.bytes_out > 0);
    // Connection threads recorded read/write spans into the merged
    // phase timings.
    assert!(summary.phases.total_us("net.read").is_some());
    assert!(summary.phases.total_us("net.write").is_some());
}

#[test]
fn sessions_are_pinned_to_their_connection() {
    let server = bind(EngineConfig::default(), NetOptions::default());
    let addr = server.local_addr();
    let mut alice = Client::open(addr);
    let mut bob = Client::open(addr);

    alice.send(&session_open_line(1, &small_instance(7)));
    let open = alice.read_response();
    assert_eq!(open["status"].as_str(), Some("ok"));
    let sid = open["session"]["sid"].as_u64().expect("sid");

    // Another connection touching the session is an inline error...
    bob.send(&session_line(1, "solve", sid));
    let stolen = bob.read_response();
    assert_eq!(stolen["status"].as_str(), Some("error"));
    assert!(
        stolen["error"]
            .as_str()
            .unwrap()
            .contains("pinned to another connection"),
        "{stolen:?}"
    );
    bob.send(&session_line(2, "close", sid));
    let closed = bob.read_response();
    assert_eq!(closed["status"].as_str(), Some("error"));

    // ...while the owner keeps full use of it.
    alice.send(&session_line(3, "solve", sid));
    let solved = alice.read_response();
    assert_eq!(solved["status"].as_str(), Some("ok"), "{solved:?}");
    drop(alice);
    drop(bob);
    let summary = server.shutdown();
    assert_eq!(summary.metrics.sessions_open, 0);
}

#[test]
fn disconnect_reaps_open_sessions() {
    let server = bind(EngineConfig::default(), NetOptions::default());
    let addr = server.local_addr();
    let mut client = Client::open(addr);
    client.send(&session_open_line(1, &small_instance(3)));
    assert_eq!(client.read_response()["status"].as_str(), Some("ok"));
    let (engine, _) = server.snapshot();
    assert_eq!(engine.sessions_open, 1);
    drop(client);
    wait_until("the dropped connection's session to be reaped", || {
        let (engine, net) = server.snapshot();
        engine.sessions_open == 0 && net.connections_open == 0
    });
}

/// Drain shutdown: with a single worker, queue slow work from one client,
/// send `{"cmd":"shutdown"}` from another, and verify every in-flight
/// request still completes in order before the streams close — then that
/// the listener is gone.
#[test]
fn drain_shutdown_completes_in_flight_and_refuses_late_connects() {
    let server = bind(
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        NetOptions::default(),
    );
    let addr = server.local_addr();
    let mut worker = Client::open(addr);
    for id in 0..4u64 {
        worker.send(&solve_line(id, &small_instance(40 + id)));
    }

    let mut admin = Client::open(addr);
    admin.send("{\"id\": 99, \"cmd\": \"shutdown\"}\n");
    let ack = admin.read_response();
    assert_eq!(ack["id"].as_u64(), Some(99));
    assert_eq!(ack["status"].as_str(), Some("ok"));
    admin.expect_eof();

    // The worker's queued requests all complete, in order, then EOF.
    for id in 0..4u64 {
        let v = worker.read_response();
        assert_eq!(v["id"].as_u64(), Some(id));
        assert_eq!(v["status"].as_str(), Some("ok"));
    }
    worker.expect_eof();

    let summary = server.shutdown();
    assert_eq!(summary.metrics.completed, 4);
    assert_eq!(summary.net.connections_open, 0);
    // The listener is closed: late connects are refused by the OS.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "connect after drain must be refused"
    );
}

#[test]
fn connection_cap_sheds_with_inline_error() {
    let server = bind(
        EngineConfig::default(),
        NetOptions {
            max_connections: 2,
            ..NetOptions::default()
        },
    );
    let addr = server.local_addr();
    let mut first = Client::open(addr);
    let mut second = Client::open(addr);
    // A round-trip each guarantees both are registered before the third
    // connect (accepting is asynchronous to `connect` returning).
    first.send(&solve_line(1, &small_instance(1)));
    assert_eq!(first.read_response()["status"].as_str(), Some("ok"));
    second.send(&solve_line(2, &small_instance(2)));
    assert_eq!(second.read_response()["status"].as_str(), Some("ok"));

    let mut shed = Client::open(addr);
    let refusal = shed.read_response();
    assert_eq!(refusal["status"].as_str(), Some("error"));
    assert!(
        refusal["error"]
            .as_str()
            .unwrap()
            .contains("connection capacity"),
        "{refusal:?}"
    );
    shed.expect_eof();

    // Capacity frees up once a client leaves.
    drop(first);
    wait_until("a slot to free", || {
        server.snapshot().1.connections_open < 2
    });
    let mut third = Client::open(addr);
    third.send(&solve_line(3, &small_instance(3)));
    assert_eq!(third.read_response()["status"].as_str(), Some("ok"));

    drop(second);
    drop(third);
    let summary = server.shutdown();
    assert_eq!(summary.net.shed_total, 1);
    assert_eq!(summary.connections, 4);
}

#[test]
fn slow_loris_hits_idle_timeout() {
    let server = bind(
        EngineConfig::default(),
        NetOptions {
            idle_timeout: Some(Duration::from_millis(200)),
            ..NetOptions::default()
        },
    );
    let addr = server.local_addr();
    let mut client = Client::open(addr);
    // Half a request, then silence: the server must cut the connection.
    client
        .writer
        .write_all(b"{\"id\": 1, \"insta")
        .expect("half write");
    client.writer.flush().expect("flush");
    let notice = client.read_response();
    assert_eq!(notice["status"].as_str(), Some("error"));
    assert!(
        notice["error"].as_str().unwrap().contains("idle timeout"),
        "{notice:?}"
    );
    client.expect_eof();
    wait_until("the timed-out connection to be reaped", || {
        server.snapshot().1.connections_open == 0
    });
    let summary = server.shutdown();
    assert_eq!(summary.net.idle_timeouts, 1);
}

/// A slow-loris that keeps trickling bytes of an unterminated line after
/// its last complete one: the idle budget runs from that last newline, so
/// the stray bytes must not keep restarting it.
#[test]
fn byte_trickling_slow_loris_times_out_from_its_last_complete_line() {
    const IDLE: Duration = Duration::from_millis(300);
    let server = bind(
        EngineConfig::default(),
        NetOptions {
            idle_timeout: Some(IDLE),
            ..NetOptions::default()
        },
    );
    let mut client = Client::open(server.local_addr());
    let last_line = Instant::now();
    client.send(&solve_line(1, &small_instance(1)));
    assert_eq!(client.read_response()["status"].as_str(), Some("ok"));
    // One byte every 75 ms for up to 3 s, until the server hangs up.
    let mut trickler = client.writer.try_clone().expect("clone stream");
    let trickle = std::thread::spawn(move || {
        for b in b"{\"id\": 2, \"instance\": ".iter().cycle().take(40) {
            if trickler.write_all(std::slice::from_ref(b)).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(75));
        }
    });
    let notice = client.read_response();
    let waited = last_line.elapsed();
    assert_eq!(notice["status"].as_str(), Some("error"));
    assert!(
        notice["error"].as_str().unwrap().contains("idle timeout"),
        "{notice:?}"
    );
    assert!(
        waited >= IDLE && waited < Duration::from_millis(1500),
        "idle notice {waited:?} after the last complete line"
    );
    trickle.join().expect("trickle thread");
    wait_until("the timed-out connection to be reaped", || {
        server.snapshot().1.connections_open == 0
    });
    let summary = server.shutdown();
    assert_eq!(summary.net.idle_timeouts, 1);
}

#[test]
fn oversized_line_is_rejected_inline_and_connection_survives() {
    let server = bind(
        EngineConfig::default(),
        NetOptions {
            serve: ServeOptions {
                max_line_len: 512,
                ..ServeOptions::default()
            },
            ..NetOptions::default()
        },
    );
    let addr = server.local_addr();
    let mut client = Client::open(addr);
    let huge = format!("{{\"id\": 1, \"note\": \"{}\"}}\n", "x".repeat(64 * 1024));
    client.send(&huge);
    let rejected = client.read_response();
    assert_eq!(rejected["status"].as_str(), Some("error"));
    assert!(
        rejected["error"]
            .as_str()
            .unwrap()
            .contains("maximum line length (512 bytes)"),
        "{rejected:?}"
    );
    // The connection is still line-synchronized and fully usable.
    let instance = small_instance(9);
    client.send(&solve_line(2, &instance));
    let v = client.read_response();
    assert_eq!(v["id"].as_u64(), Some(2));
    assert_eq!(v["status"].as_str(), Some("ok"));
    validate(&instance, &response_schedule(&v)).expect("valid schedule");
    drop(client);
    let summary = server.shutdown();
    assert_eq!(summary.net.oversize_lines, 1);
}

#[test]
fn metrics_out_exports_network_series() {
    let path = std::env::temp_dir().join(format!(
        "ise-net-metrics-{}-{:?}.prom",
        std::process::id(),
        std::thread::current().id()
    ));
    let server = bind(
        EngineConfig::default(),
        NetOptions {
            serve: ServeOptions {
                metrics_out: Some(path.clone()),
                metrics_interval: Duration::from_millis(50),
                ..ServeOptions::default()
            },
            ..NetOptions::default()
        },
    );
    let addr = server.local_addr();
    let mut client = Client::open(addr);
    client.send(&solve_line(1, &small_instance(5)));
    assert_eq!(client.read_response()["status"].as_str(), Some("ok"));
    drop(client);
    wait_until("the connection to close", || {
        server.snapshot().1.connections_open == 0
    });
    server.shutdown();

    let text = std::fs::read_to_string(&path).expect("metrics file written");
    std::fs::remove_file(&path).ok();
    for series in [
        "# TYPE ise_connections_total counter",
        "# TYPE ise_connections_open gauge",
        "# TYPE ise_shed_total counter",
        "# TYPE ise_bytes_in_total counter",
        "# TYPE ise_bytes_out_total counter",
        "# TYPE ise_net_queue_wait_us histogram",
        "# TYPE ise_requests_total counter",
    ] {
        assert!(text.contains(series), "missing `{series}` in:\n{text}");
    }
    assert!(text.contains("ise_connections_total 1"), "{text}");
    // The gauge must be back to zero after the client disconnected.
    assert!(text.contains("ise_connections_open 0"), "{text}");
    assert!(text.contains("ise_net_queue_wait_us_count"), "{text}");
}

/// End-to-end smoke of the shipped binary: `ise serve --listen` on an
/// ephemeral port, 200 requests piped through one TCP client, graceful
/// shutdown via the admin command, exit status 0, and the metrics file
/// carrying the network series. This is the CI `network` job's anchor.
#[test]
fn cli_listen_smoke_serves_200_requests() {
    let metrics_path = std::env::temp_dir().join(format!(
        "ise-cli-listen-metrics-{}.prom",
        std::process::id()
    ));
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ise"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--metrics-out",
            metrics_path.to_str().expect("utf8 temp path"),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn ise serve --listen");

    // The server prints `listening on ADDR` to stderr once bound.
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("read listen line");
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line}"))
        .parse()
        .expect("address parses");

    let mut client = Client::open(addr);
    let instances: Vec<Instance> = (0..8).map(small_instance).collect();
    for id in 0..200u64 {
        client.send(&solve_line(id, &instances[(id % 8) as usize]));
    }
    for id in 0..200u64 {
        let v = client.read_response();
        assert_eq!(v["id"].as_u64(), Some(id), "responses must arrive in order");
        assert_eq!(v["status"].as_str(), Some("ok"));
    }
    client.send("{\"id\": 200, \"cmd\": \"shutdown\"}\n");
    let ack = client.read_response();
    assert_eq!(ack["id"].as_u64(), Some(200));
    assert_eq!(ack["status"].as_str(), Some("ok"));
    client.expect_eof();

    // Drain the remaining stderr (summary + metrics JSON) so the child
    // cannot block on a full pipe, then reap it.
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("drain stderr");
    let status = child.wait().expect("wait for server exit");
    assert!(status.success(), "server exited {status}; stderr:\n{rest}");
    assert!(
        rest.contains("served 201 responses over 1 connections"),
        "stderr:\n{rest}"
    );

    let text = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    std::fs::remove_file(&metrics_path).ok();
    assert!(text.contains("ise_connections_total 1"), "{text}");
    assert!(text.contains("ise_net_responses_total 201"), "{text}");
    assert!(text.contains("ise_requests_total 200"), "{text}");
}
