//! The `campaign_server` daemon seen from outside: process lifecycle,
//! the line-delimited JSON protocol as a client speaks it, and the
//! `daemon_mixed` submit stream (plan, closed-loop clients, checks).

use crate::host::mix;
use robustify_engine::campaign::{CampaignSpec, JobSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stochastic_fpu::json::{self, JsonValue};

/// How long a submit may go without its terminal event before it counts
/// as failed.
pub const SUBMIT_DEADLINE: Duration = Duration::from_secs(30);
const START_DEADLINE: Duration = Duration::from_secs(30);

/// A running `campaign_server --listen 127.0.0.1:0` process. Dropping it
/// kills the process if [`stop`](Self::stop) was not reached.
pub struct Daemon {
    child: Option<Child>,
    addr: String,
    stderr: Option<JoinHandle<()>>,
    /// Spawn → first `pong`, in seconds.
    pub ready_s: f64,
}

impl Daemon {
    /// Spawns the daemon (with `--cache-dir` when given), reads its
    /// listening address from its log line, and waits for a `pong`.
    pub fn start(server_bin: &Path, cache_dir: Option<&Path>) -> Result<Daemon, String> {
        let started = Instant::now();
        let mut cmd = Command::new(server_bin);
        cmd.args(["--listen", "127.0.0.1:0"]);
        if let Some(dir) = cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", server_bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drain the log for the daemon's whole life, so it can never block
        // on a full pipe; the first "listening on" line carries the port.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split(';').next().unwrap_or("").trim().to_string();
                    let _ = tx.send(addr);
                }
            }
        });
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            stderr: Some(reader),
            ready_s: 0.0,
        };
        daemon.addr = rx
            .recv_timeout(START_DEADLINE)
            .map_err(|_| "campaign_server never reported its address".to_string())?;
        daemon.connect()?;
        daemon.ready_s = started.elapsed().as_secs_f64();
        Ok(daemon)
    }

    /// A new client connection, accepted by the daemon (a `ping` has
    /// been answered on it).
    pub fn connect(&self) -> Result<Conn, String> {
        let mut conn = Conn::open(&self.addr)?;
        conn.request("{\"op\":\"ping\"}", "pong")?;
        Ok(conn)
    }

    /// The daemon's peak resident set size so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::host::peak_rss_mb(self.child.as_ref()?.id())
    }

    /// Asks the daemon to shut down and waits for it to exit. Every
    /// client connection must be closed first: the daemon joins its
    /// connection handlers before exiting.
    pub fn stop(mut self) -> Result<(), String> {
        let bye = self
            .connect()
            .and_then(|mut c| c.request("{\"op\":\"shutdown\"}", "bye"));
        let deadline = Instant::now() + START_DEADLINE;
        let mut child = self.child.take().expect("stopped once");
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
            }
        };
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        bye?;
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("campaign_server exited with {s}")),
            None => Err("campaign_server did not exit after shutdown".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// One client connection: requests out, event lines in.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(SUBMIT_DEADLINE))
            .map_err(|e| format!("set timeout: {e}"))?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))
    }

    fn request(&mut self, line: &str, expect_event: &str) -> Result<(), String> {
        self.send(line)?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("read failed: {e}"))?;
        if reply.contains(&format!("\"event\":\"{expect_event}\"")) {
            Ok(())
        } else {
            Err(format!("expected {expect_event}, got {:?}", reply.trim()))
        }
    }

    /// Submits `spec` and reads its events to the terminal one.
    pub fn submit(&mut self, spec: &CampaignSpec) -> Result<Reply, String> {
        let line = format!("{{\"op\":\"submit\",\"campaign\":{}}}", spec.to_json());
        let sent = Instant::now();
        self.send(&line)?;
        read_reply(&mut self.reader, sent)
    }
}

/// What one submit came back with, timed from the moment it was sent.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// When the submit was sent.
    pub sent: Instant,
    /// Submit → `accepted`, seconds.
    pub accepted_s: f64,
    /// Per `cell` event: (seconds since submit, replayed from cache).
    pub cells: Vec<(f64, bool)>,
    /// Submit → `done`, seconds.
    pub done_s: f64,
    /// Bytes of the `done` line (both documents, escaped).
    pub done_bytes: usize,
    /// Cells in the grid, and how many were replayed from the cache.
    pub cells_total: usize,
    /// Cells the daemon reported as cache replays.
    pub cached: usize,
    /// The CSV document.
    pub csv: String,
    /// The JSON document.
    pub json: String,
}

impl Reply {
    /// Last `cell` event → `done`, seconds: document assembly, escaping
    /// and transfer.
    pub fn done_gap_s(&self) -> f64 {
        self.done_s - self.cells.last().map_or(self.accepted_s, |c| c.0)
    }
}

/// Reads one submit's events up to its terminal event. An `error` event,
/// a malformed line, end of stream or a read past the deadline is an
/// `Err`.
pub fn read_reply(reader: &mut impl BufRead, sent: Instant) -> Result<Reply, String> {
    let mut reply = Reply {
        sent,
        accepted_s: 0.0,
        cells: Vec::new(),
        done_s: 0.0,
        done_bytes: 0,
        cells_total: 0,
        cached: 0,
        csv: String::new(),
        json: String::new(),
    };
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(|e| {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                "no terminal event within the deadline".to_string()
            } else {
                format!("read failed: {e}")
            }
        })?;
        let at = sent.elapsed().as_secs_f64();
        if n == 0 {
            return Err("connection closed before done".to_string());
        }
        let event = json::parse(line.trim()).map_err(|e| format!("bad event line: {e}"))?;
        let field = |key: &str| event.get(key).and_then(JsonValue::as_usize).unwrap_or(0);
        match event.get("event").and_then(JsonValue::as_str) {
            Some("accepted") => reply.accepted_s = at,
            Some("cell") => {
                let cached = event.get("cached").and_then(JsonValue::as_bool);
                reply.cells.push((at, cached.unwrap_or(false)));
            }
            Some("done") => {
                let doc = |key: &str| {
                    event
                        .get(key)
                        .and_then(JsonValue::as_str)
                        .map(str::to_string)
                        .ok_or(format!("done event lacks \"{key}\""))
                };
                reply.done_s = at;
                reply.done_bytes = n;
                reply.cells_total = field("cells");
                reply.cached = field("cached");
                reply.csv = doc("csv")?;
                reply.json = doc("json")?;
                return Ok(reply);
            }
            Some("error") => {
                let message = event.get("message").and_then(JsonValue::as_str);
                return Err(format!("error event: {}", message.unwrap_or("?")));
            }
            _ => return Err(format!("unexpected event line: {}", line.trim())),
        }
    }
}

/// Closed-loop clients in the `daemon_mixed` stream (bounded by `nproc`
/// where the stream runs).
pub const CLIENTS: usize = 2;
/// Rounds per stream; each client submits once per round.
pub const ROUNDS: usize = 24;

/// The fresh-campaign templates: `(workload, rates_pct, trials)`. Each is
/// used equally often, so every seed's stream carries the same amount of
/// work.
pub const TEMPLATES: [(&str, [f64; 2], usize); 4] = [
    ("sorting", [1.0, 5.0], 8),
    ("sorting", [5.0, 10.0], 8),
    ("matching", [1.0, 5.0], 8),
    ("least_squares", [1.0, 5.0], 4),
];

/// One submit of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The client that sends it.
    pub client: usize,
    /// Its round; a client sends its rounds in order.
    pub round: usize,
    /// Index into [`StreamPlan::specs`].
    pub spec: usize,
    /// For a repeat, the earlier entry whose campaign it repeats. A repeat
    /// is sent only after that entry's `done`, so it is a full cache hit.
    pub repeat_of: Option<usize>,
}

/// A seeded request stream: distinct campaigns, and the order in which
/// the clients submit them.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamPlan {
    /// The distinct campaigns, each first sent by a fresh entry.
    pub specs: Vec<CampaignSpec>,
    /// Entries, indexed `round * CLIENTS + client`.
    pub entries: Vec<Entry>,
}

struct Rng(u64, u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.1 += 1;
        mix(self.0, self.1)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `daemon_mixed` stream for `seed`. Half the entries are repeats of
/// a campaign first sent in an earlier round by either client (one pool
/// shared by both); the other half are fresh campaigns with seeds of
/// their own. Round 0 is all fresh.
pub fn plan(seed: u64) -> StreamPlan {
    let mut rng = Rng(seed, 0);
    let n = ROUNDS * CLIENTS;
    let mut repeat_slots: Vec<usize> = (CLIENTS..n).collect();
    rng.shuffle(&mut repeat_slots);
    let repeats = &repeat_slots[..n / 2];
    let mut templates: Vec<usize> = (0..n / 2).map(|i| i % TEMPLATES.len()).collect();
    rng.shuffle(&mut templates);

    let mut specs = Vec::new();
    let mut entries: Vec<Entry> = Vec::with_capacity(n);
    for index in 0..n {
        let (round, client) = (index / CLIENTS, index % CLIENTS);
        if repeats.contains(&index) {
            let earlier: Vec<usize> = (0..round * CLIENTS)
                .filter(|&e| entries[e].repeat_of.is_none())
                .collect();
            let of = earlier[rng.below(earlier.len())];
            entries.push(Entry {
                client,
                round,
                spec: entries[of].spec,
                repeat_of: Some(of),
            });
        } else {
            let (workload, rates, trials) = TEMPLATES[templates[specs.len()]];
            let id = specs.len();
            specs.push(
                CampaignSpec::new(&format!("daemon_mixed_{id}"))
                    .rates(rates.to_vec())
                    .trials(trials)
                    .seed(rng.next() >> 1)
                    .job(JobSpec::new(workload, workload).per_trial()),
            );
            entries.push(Entry {
                client,
                round,
                spec: id,
                repeat_of: None,
            });
        }
    }
    StreamPlan { specs, entries }
}

/// One stream's outcome.
#[derive(Debug)]
pub struct StreamRun {
    /// Per entry, its reply or why it failed.
    pub replies: Vec<Result<Reply, String>>,
    /// First submit → last terminal event, seconds.
    pub wall_s: f64,
}

#[derive(Clone, Copy, PartialEq)]
enum Progress {
    Pending,
    Finished,
}

/// Runs the stream against `daemon` with [`CLIENTS`] closed-loop clients:
/// each sends its next submit only after the previous one's terminal
/// event, and a repeat waits for the entry it repeats.
pub fn run_stream(daemon: &Daemon, plan: &StreamPlan) -> Result<StreamRun, String> {
    let mut conns: Vec<Conn> = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()?;
    let progress = Mutex::new(vec![Progress::Pending; plan.entries.len()]);
    let changed = Condvar::new();
    let replies: Mutex<Vec<Option<Result<Reply, String>>>> =
        Mutex::new(vec![None; plan.entries.len()]);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (client, conn) in conns.iter_mut().enumerate() {
            let (progress, changed, replies) = (&progress, &changed, &replies);
            scope.spawn(move || {
                for (index, entry) in plan.entries.iter().enumerate() {
                    if entry.client != client {
                        continue;
                    }
                    if let Some(of) = entry.repeat_of {
                        let guard = progress.lock().expect("stream progress");
                        // A stalled predecessor counts against the submit
                        // that waits for it, through its own checks.
                        let _ = changed
                            .wait_timeout_while(guard, SUBMIT_DEADLINE, |p| {
                                p[of] == Progress::Pending
                            })
                            .expect("stream progress");
                    }
                    let reply = conn.submit(&plan.specs[entry.spec]);
                    let broken = reply.is_err();
                    replies.lock().expect("stream replies")[index] = Some(reply);
                    progress.lock().expect("stream progress")[index] = Progress::Finished;
                    changed.notify_all();
                    if broken {
                        // The connection's state is unknown after a failed
                        // submit; the client's remaining entries fail.
                        for (rest, e) in plan.entries.iter().enumerate().skip(index + 1) {
                            if e.client == client {
                                replies.lock().expect("stream replies")[rest] =
                                    Some(Err("client stopped after an earlier failure".into()));
                                progress.lock().expect("stream progress")[rest] =
                                    Progress::Finished;
                            }
                        }
                        changed.notify_all();
                        return;
                    }
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    drop(conns);
    let replies = replies
        .into_inner()
        .expect("stream replies")
        .into_iter()
        .map(|r| r.unwrap_or_else(|| Err("never sent".to_string())))
        .collect();
    Ok(StreamRun { replies, wall_s })
}

/// The correctness gate for one stream: returns one failure message per
/// failed entry (empty when every entry passed). An entry fails when its
/// submit failed (an `error` event, a dropped `done`, the deadline), when
/// its hit or miss differs from the plan, when a repeat's documents
/// differ from the cold execution they replay (equivalence 3), or when
/// its documents differ from `reference` — the same campaign's documents
/// from an earlier stream of this run.
pub fn check_stream(
    plan: &StreamPlan,
    run: &StreamRun,
    reference: Option<&[(String, String)]>,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (index, (entry, reply)) in plan.entries.iter().zip(&run.replies).enumerate() {
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("submit {index}: {e}"));
                continue;
            }
        };
        let planned_hit = entry.repeat_of.is_some();
        let observed_hit = reply.cells_total > 0 && reply.cached == reply.cells_total;
        let observed_miss = reply.cached == 0;
        if (planned_hit && !observed_hit) || (!planned_hit && !observed_miss) {
            failures.push(format!(
                "submit {index}: planned {}, daemon replayed {} of {} cells",
                if planned_hit { "hit" } else { "miss" },
                reply.cached,
                reply.cells_total
            ));
            continue;
        }
        if let Some(Ok(cold)) = entry.repeat_of.map(|of| &run.replies[of]) {
            if (&cold.csv, &cold.json) != (&reply.csv, &reply.json) {
                failures.push(format!(
                    "submit {index}: cache replay differs from its cold run"
                ));
                continue;
            }
        }
        if let Some(docs) = reference {
            let (csv, json) = &docs[entry.spec];
            if (csv, json) != (&reply.csv, &reply.json) {
                failures.push(format!(
                    "submit {index}: documents differ from an earlier stream"
                ));
            }
        }
    }
    failures
}

/// Each distinct campaign's documents, taken from its fresh entry.
pub fn documents(plan: &StreamPlan, run: &StreamRun) -> Vec<(String, String)> {
    let mut docs = vec![(String::new(), String::new()); plan.specs.len()];
    for (entry, reply) in plan.entries.iter().zip(&run.replies) {
        if let (None, Ok(r)) = (entry.repeat_of, reply) {
            docs[entry.spec] = (r.csv.clone(), r.json.clone());
        }
    }
    docs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn the_same_seed_gives_the_same_stream_and_hit_schedule() {
        let a = plan(7);
        assert_eq!(a, plan(7));
        assert_ne!(a, plan(8));
        let n = ROUNDS * CLIENTS;
        assert_eq!(a.entries.len(), n);
        let repeats: Vec<&Entry> = a.entries.iter().filter(|e| e.repeat_of.is_some()).collect();
        assert_eq!(repeats.len(), n / 2);
        assert_eq!(a.specs.len(), n / 2);
        for (index, entry) in a.entries.iter().enumerate() {
            assert_eq!(
                (entry.round, entry.client),
                (index / CLIENTS, index % CLIENTS)
            );
            if let Some(of) = entry.repeat_of {
                // Repeats replay a fresh campaign from an earlier round,
                // sent by either client.
                assert!(a.entries[of].round < entry.round);
                assert!(a.entries[of].repeat_of.is_none());
                assert_eq!(a.entries[of].spec, entry.spec);
            }
        }
        // Every template carries the same share of the fresh work, and
        // the campaigns are distinct.
        for (workload, _, _) in TEMPLATES {
            let uses = a
                .specs
                .iter()
                .filter(|s| s.jobs()[0].workload() == workload)
                .count();
            assert!(uses >= n / 2 / TEMPLATES.len());
        }
        let seeds: std::collections::BTreeSet<u64> =
            a.specs.iter().map(CampaignSpec::base_seed).collect();
        assert_eq!(seeds.len(), a.specs.len());
        // Both clients draw repeats from the shared pool.
        assert!(repeats
            .iter()
            .any(|e| a.entries[e.repeat_of.unwrap()].client != e.client));
    }

    fn reply(cached: usize, csv: &str) -> Result<Reply, String> {
        Ok(Reply {
            sent: Instant::now(),
            accepted_s: 0.001,
            cells: vec![(0.002, cached > 0), (0.003, cached > 1)],
            done_s: 0.004,
            done_bytes: 100,
            cells_total: 2,
            cached,
            csv: csv.to_string(),
            json: "{}".to_string(),
        })
    }

    fn two_entry_plan() -> StreamPlan {
        let spec = CampaignSpec::new("t")
            .rates(vec![1.0, 5.0])
            .trials(2)
            .job(JobSpec::new("sorting", "sorting"));
        StreamPlan {
            specs: vec![spec],
            entries: vec![
                Entry {
                    client: 0,
                    round: 0,
                    spec: 0,
                    repeat_of: None,
                },
                Entry {
                    client: 1,
                    round: 1,
                    spec: 0,
                    repeat_of: Some(0),
                },
            ],
        }
    }

    #[test]
    fn a_clean_stream_passes() {
        let run = StreamRun {
            replies: vec![reply(0, "a"), reply(2, "a")],
            wall_s: 1.0,
        };
        assert!(check_stream(&two_entry_plan(), &run, None).is_empty());
    }

    #[test]
    fn an_altered_document_or_a_dropped_done_is_counted() {
        let plan = two_entry_plan();
        // A hit replay that differs from its cold execution.
        let altered = StreamRun {
            replies: vec![reply(0, "a"), reply(2, "b")],
            wall_s: 1.0,
        };
        assert_eq!(check_stream(&plan, &altered, None).len(), 1);
        // A document that differs from an earlier stream of the run.
        let clean = StreamRun {
            replies: vec![reply(0, "a"), reply(2, "a")],
            wall_s: 1.0,
        };
        let earlier = vec![("a-prime".to_string(), "{}".to_string())];
        assert_eq!(check_stream(&plan, &clean, Some(&earlier)).len(), 2);
        // A hit that the daemon executed instead.
        let missed = StreamRun {
            replies: vec![reply(0, "a"), reply(0, "a")],
            wall_s: 1.0,
        };
        assert_eq!(check_stream(&plan, &missed, None).len(), 1);

        // A `done` that never arrives: the connection ends after the
        // cell events, or an error event arrives instead.
        let dropped = "{\"event\":\"accepted\",\"name\":\"t\",\"cells\":2}\n\
                       {\"event\":\"cell\",\"job\":0,\"rate\":0,\"cached\":false}\n";
        let err = read_reply(&mut Cursor::new(dropped), Instant::now()).unwrap_err();
        assert!(err.contains("closed before done"), "{err}");
        let error = "{\"event\":\"error\",\"message\":\"boom\"}\n";
        let err = read_reply(&mut Cursor::new(error), Instant::now()).unwrap_err();
        assert!(err.contains("boom"));
        let run = StreamRun {
            replies: vec![reply(0, "a"), Err(err)],
            wall_s: 1.0,
        };
        assert_eq!(check_stream(&plan, &run, None).len(), 1);
    }

    #[test]
    fn replies_are_parsed_with_their_timestamps() {
        let lines = "{\"event\":\"accepted\",\"name\":\"t\",\"cells\":2}\n\
                     {\"event\":\"cell\",\"cached\":true}\n\
                     {\"event\":\"cell\",\"cached\":true}\n\
                     {\"event\":\"done\",\"name\":\"t\",\"cells\":2,\"cached\":2,\"csv\":\"a\\nb\",\"json\":\"{}\"}\n";
        let r = read_reply(&mut Cursor::new(lines), Instant::now()).expect("complete reply");
        assert_eq!((r.cells_total, r.cached, r.csv.as_str()), (2, 2, "a\nb"));
        assert_eq!(r.cells.len(), 2);
        assert!(r.cells.iter().all(|c| c.1));
        assert!(r.done_gap_s() >= 0.0 && r.done_s >= r.accepted_s);
    }
}
