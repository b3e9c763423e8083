//! `good-loadbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path loadbench/Cargo.toml -- \
//!     --workload <commit|query|mixed|paths> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process starts the real stack (a `Store` on the filesystem,
//! `Server`, `NetServer` on loopback, default configs), drives one
//! seeded workload through `good_server::client::Client`, checks every
//! output, and prints a metrics table followed by one JSON result line.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, times each layer's public calls
//! on the same inputs, and prints the per-layer metrics. See README.md.

mod check;
mod drive;
mod layers;
mod report;
mod stack;
mod stats;
mod workload;

use check::Findings;
use drive::{ReadOutcome, WireConn, WriteOutcome};
use good_core::instance::Instance;
use good_server::client::Client;
use report::{result_line, Metrics, END_TO_END, PER_LAYER};
use stack::{peak_rss_mb, timed_open, Stack};
use stats::{mean, median, percentile, schedule, Timing, WallClock};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{ReadGen, Workload, WriteGen, WriteReq};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// A traced run re-opens the final journal until `RECOVERY_BUDGET_S`
/// seconds were spent on it (at least once, at most
/// `RECOVERY_MAX_REPEATS` times); `recovery_s` is the mean. A small
/// journal opens in a millisecond, and a time average over seconds is
/// steadier than any single open on a host whose speed shifts from
/// second to second. An untraced run opens it once, for the checks.
const RECOVERY_BUDGET_S: f64 = 3.0;
const RECOVERY_MAX_REPEATS: usize = 10_000;
/// Unmeasured requests per connection at the end of set-up.
const WARM_REQUESTS: usize = 16;
/// The seed of the warm-up reads: one fixed stream, so that every
/// `--seed` sets up with the same work.
const WARM_SEED: u64 = 0;
/// Reads a closed-loop run keeps going for, past `--seconds` if need
/// be, so that its p99 has ten samples beyond it.
const MIN_SAMPLES: usize = 1_000;
/// Acknowledged writes per second of `--seconds` in `commit`: the run
/// is a fixed number of writes, not a fixed time, so a faster commit
/// path writes the same journal.
const COMMIT_WRITES_PER_S: usize = 1_000;
/// Open-loop rates of `mixed`, requests per second.
const MIXED_READ_RATE: f64 = 100.0;
const MIXED_WRITE_RATE: f64 = 100.0;
/// Where runs keep journals (deleted at exit) and span files.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("loadbench: {err}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(OUT_DIR).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = if args.trace {
        layers::traced_run(&args, &dir)
    } else {
        untraced_run(&args, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(Outcome {
            metrics,
            findings,
            attempted,
        }) => {
            let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            let rendered = match metrics.render(declared) {
                Ok(rendered) => rendered,
                Err(err) => {
                    eprintln!("loadbench: {err}");
                    return ExitCode::from(2);
                }
            };
            for note in &findings.notes {
                eprintln!("loadbench: check failed: {note}");
            }
            let correct = findings.failed == 0;
            print!("{}", metrics.table(declared));
            println!(
                "{}",
                result_line(correct, attempted, findings.failed, &rendered)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(err) => {
            eprintln!("loadbench: {err}");
            ExitCode::from(2)
        }
    }
}

/// What a run hands back to `main`.
pub(crate) struct Outcome {
    metrics: Metrics,
    findings: Findings,
    attempted: usize,
}

/// A stack seeded, served, connected and warmed up, with its inputs.
pub(crate) struct Prepared {
    /// The instance the store was seeded with.
    db: Instance,
    stack: Stack,
    /// Read connections and their streams.
    readers: Vec<(Client, ReadGen)>,
    /// Pipelined write connections (`commit`).
    writers: Vec<Client>,
    /// The open-loop write connection (`mixed`).
    wire: Option<WireConn>,
    /// Every connection's write stream: warm-up first, then the window.
    write_reqs: Vec<Vec<WriteReq>>,
    /// Unmeasured warm-up replies, checked with the rest.
    warm_reads: Vec<ReadOutcome>,
    warm_writes: Vec<Vec<WriteOutcome>>,
}

/// Writes each connection sends in the measured window.
fn window_writes(workload: Workload, seconds: u64) -> usize {
    match workload {
        Workload::Commit => {
            COMMIT_WRITES_PER_S * seconds as usize / workload::write_lanes(workload)
        }
        Workload::Mixed => (MIXED_WRITE_RATE * seconds as f64) as usize,
        Workload::Query | Workload::Paths => 0,
    }
}

impl Prepared {
    /// Everything before the measured window: generate the instance
    /// and the request streams, seed the journal, open the store,
    /// start the servers, connect, and warm up. `extra_writes` more
    /// writes per connection are generated for a traced second phase.
    pub(crate) fn new(args: &Args, dir: &Path, extra_writes: usize) -> Result<Prepared, String> {
        let workload = args.workload;
        let db = workload::instance(workload);
        let lanes = workload::write_lanes(workload);
        let per_lane = WARM_REQUESTS + window_writes(workload, args.seconds) + extra_writes;
        let write_reqs: Vec<Vec<WriteReq>> = (0..lanes)
            .map(|lane| {
                let mut gen = WriteGen::new(&db, args.seed, lane, lanes);
                (0..per_lane).map(|_| gen.next_req()).collect()
            })
            .collect();
        let stack = Stack::start(dir, &db)?;
        let mut readers = Vec::new();
        let mut warm_reads = Vec::new();
        for lane in 0..workload::read_lanes(workload) {
            let mut client = stack.connect()?;
            let mut warm = ReadGen::new(workload, WARM_SEED, lane as u64);
            warm_reads.extend(drive::warm_reads(&mut client, &mut warm, WARM_REQUESTS));
            readers.push((client, ReadGen::new(workload, args.seed, lane as u64)));
        }
        let mut writers = Vec::new();
        let mut wire = None;
        let mut warm_writes = Vec::new();
        for reqs in &write_reqs {
            let warm = &reqs[..WARM_REQUESTS];
            if workload == Workload::Mixed {
                let mut conn = WireConn::connect(stack.addr())?;
                let outcomes = warm
                    .iter()
                    .enumerate()
                    .map(|(index, req)| WriteOutcome {
                        index,
                        latency_ns: 0,
                        ack: conn.submit_wait(req),
                    })
                    .collect();
                warm_writes.push(outcomes);
                wire = Some(conn);
            } else {
                let mut client = stack.connect()?;
                warm_writes.push(drive::closed_writes(&mut client, warm, 1));
                writers.push(client);
            }
        }
        Ok(Prepared {
            db,
            stack,
            readers,
            writers,
            wire,
            write_reqs,
            warm_reads,
            warm_writes,
        })
    }

    /// Close every connection; returns the seeded instance and the
    /// still-running stack.
    pub fn close(self) -> (Instance, Stack) {
        for (client, _) in self.readers {
            let _ = client.goodbye();
        }
        for client in self.writers {
            let _ = client.goodbye();
        }
        if let Some(conn) = self.wire {
            conn.close();
        }
        (self.db, self.stack)
    }
}

/// Set up `SETUP_REPEATS` times and keep the last stack; returns it
/// with the median set-up time in seconds.
pub(crate) fn set_up(args: &Args, dir: &Path) -> Result<(Prepared, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for repeat in 0..SETUP_REPEATS {
        let started = Instant::now();
        let prepared = Prepared::new(args, &dir.join(format!("setup-{repeat}")), 0)?;
        times.push(started.elapsed().as_secs_f64());
        if let Some(previous) = kept.replace(prepared) {
            previous.close().1.discard()?;
        }
    }
    let prepared = kept.ok_or("no set-up ran")?;
    Ok((prepared, median(&times)))
}

/// The measured window of one phase.
pub(crate) struct Window {
    /// Reads answered (or failed) in the window.
    pub reads: Vec<ReadOutcome>,
    /// Writes per connection, in the order they completed.
    pub writes: Vec<Vec<WriteOutcome>>,
    /// Open-loop send timings (empty for closed loops).
    pub timings: Vec<Timing>,
    /// Length of the window in seconds.
    pub seconds: f64,
}

impl Window {
    /// Every request latency in milliseconds.
    pub fn latencies_ms(&self, reads: bool, writes: bool) -> Vec<f64> {
        let mut out = Vec::new();
        if reads {
            out.extend(self.reads.iter().map(|o| o.latency_ns as f64 / 1e6));
        }
        if writes {
            for lane in &self.writes {
                out.extend(lane.iter().map(|o| o.latency_ns as f64 / 1e6));
            }
        }
        out
    }

    /// Requests completed in the window.
    pub fn completed(&self) -> usize {
        self.reads.iter().filter(|o| o.reply.is_ok()).count()
            + self
                .writes
                .iter()
                .flatten()
                .filter(|o| o.ack.is_ok())
                .count()
    }
}

/// Run one measured window on `prepared`, sending `writes[lane]` from
/// each write connection.
pub(crate) fn measure(
    prepared: &mut Prepared,
    workload: Workload,
    seconds: u64,
    writes: &[&[WriteReq]],
) -> Result<Window, String> {
    let started = Instant::now();
    let until = started + Duration::from_secs(seconds);
    let hard_stop = started + Duration::from_secs(seconds * 4 + 20);
    let stack = &prepared.stack;
    let mut window = Window {
        reads: Vec::new(),
        writes: Vec::new(),
        timings: Vec::new(),
        seconds: 0.0,
    };
    match workload {
        Workload::Commit => {
            let results = std::thread::scope(|scope| {
                let handles: Vec<_> = prepared
                    .writers
                    .iter_mut()
                    .zip(writes)
                    .map(|(client, reqs)| {
                        scope
                            .spawn(move || drive::closed_writes(client, reqs, drive::COMMIT_WINDOW))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("writer thread panicked"))
                    .collect::<Vec<_>>()
            });
            window.writes = results;
        }
        Workload::Query | Workload::Paths => {
            let lanes = prepared.readers.len();
            let results = std::thread::scope(|scope| {
                let handles: Vec<_> = prepared
                    .readers
                    .iter_mut()
                    .map(|(client, gen)| {
                        scope.spawn(move || {
                            drive::closed_reads(
                                client,
                                gen,
                                until,
                                MIN_SAMPLES.div_ceil(lanes),
                                hard_stop,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("reader thread panicked"))
                    .collect::<Vec<_>>()
            });
            window.reads = results.into_iter().flatten().collect();
        }
        Workload::Mixed => {
            let clock = WallClock(started);
            let start_ns = 1_000_000;
            let read_count = (MIXED_READ_RATE * seconds as f64) as usize;
            let write_due = schedule(start_ns, MIXED_WRITE_RATE, writes[0].len());
            let (client, gen) = prepared.readers.first_mut().ok_or("no read connection")?;
            let conn = prepared.wire.as_mut().ok_or("no write connection")?;
            let server = stack.net.server();
            let ((reads, read_timings), (acks, write_timings)) = std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    drive::open_reads(
                        client,
                        gen,
                        &clock,
                        start_ns,
                        MIXED_READ_RATE,
                        read_count,
                        |epoch| server.snapshot_at(epoch),
                    )
                });
                let written = conn.open_writes(writes[0], &clock, &write_due);
                (reader.join().expect("reader thread panicked"), written)
            });
            window.reads = reads;
            window.writes = vec![acks];
            window.timings = read_timings.into_iter().chain(write_timings).collect();
        }
    }
    window.seconds = started.elapsed().as_secs_f64();
    Ok(window)
}

/// What re-opening the journal a run left found.
pub(crate) struct Recovered {
    /// The instance the server held when it stopped.
    pub served: Instance,
    /// The instance the first re-open recovered.
    pub reopened: Instance,
    /// The journal's record count.
    pub records: usize,
    /// Mean re-open time in seconds.
    pub seconds: f64,
}

/// Shut the stack down and re-open its journal until `budget_s`
/// seconds were spent on it, at least once.
pub(crate) fn stop_and_recover(stack: Stack, budget_s: f64) -> Result<Recovered, String> {
    let journal = stack.journal.clone();
    let served = stack.shutdown()?.instance().clone();
    let mut times = Vec::new();
    let mut reopened = None;
    while times.len() < RECOVERY_MAX_REPEATS
        && (times.is_empty() || times.iter().sum::<f64>() < budget_s)
    {
        let (store, seconds) = timed_open(&journal)?;
        times.push(seconds);
        reopened.get_or_insert_with(|| (store.instance().clone(), store.record_count()));
    }
    let (reopened, records) = reopened.ok_or("no re-open ran")?;
    Ok(Recovered {
        served,
        reopened,
        records,
        seconds: mean(&times),
    })
}

/// Check every output of a finished run: reads against the oracle and
/// the lanes, writes against acks, the journal and a serial replay.
pub(crate) fn check_outputs(
    workload: Workload,
    initial: &Instance,
    reads: &[ReadOutcome],
    lanes: &[(Vec<WriteReq>, Vec<WriteOutcome>)],
    served: &Instance,
    reopened: &Instance,
) -> Findings {
    let mut findings = Findings::default();
    match workload {
        Workload::Query | Workload::Paths => {
            let differential = if workload == Workload::Paths { 8 } else { 2 };
            findings = check::fixed_reads(initial, reads, differential);
        }
        Workload::Mixed => {
            let wrong = reads.iter().filter(|o| o.wrong || o.reply.is_err()).count();
            if wrong > 0 {
                findings.failed += wrong;
                findings.notes.push(format!(
                    "{wrong} read(s) disagree with their epoch's snapshot"
                ));
            }
        }
        Workload::Commit => {}
    }
    if workload.writes() {
        let written = check::writes(initial, lanes, served, reopened);
        findings.failed += written.failed;
        findings.notes.extend(written.notes);
    }
    findings
}

/// Pair each connection's sent writes with their outcomes: the
/// warm-up, then each measured phase with the number of writes per
/// connection it sent.
pub(crate) fn write_lanes(
    reqs: &[Vec<WriteReq>],
    warm: &[Vec<WriteOutcome>],
    phases: &[(&Vec<Vec<WriteOutcome>>, usize)],
) -> Vec<(Vec<WriteReq>, Vec<WriteOutcome>)> {
    reqs.iter()
        .enumerate()
        .map(|(lane, reqs)| {
            let mut outcomes = warm[lane].clone();
            let mut offset = WARM_REQUESTS;
            for (phase, sent) in phases {
                outcomes.extend(phase[lane].iter().cloned().map(|mut o| {
                    o.index += offset;
                    o
                }));
                offset += sent;
            }
            (reqs[..offset].to_vec(), outcomes)
        })
        .collect()
}

fn untraced_run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let workload = args.workload;
    let (mut prepared, setup_s) = set_up(args, dir)?;
    let per_lane = window_writes(workload, args.seconds);
    let reqs: Vec<Vec<WriteReq>> = prepared.write_reqs.clone();
    let slices: Vec<&[WriteReq]> = reqs.iter().map(|r| &r[WARM_REQUESTS..]).collect();
    let window = measure(&mut prepared, workload, args.seconds, &slices)?;
    let journal_bytes = prepared.stack.journal_bytes();
    let warm_reads = std::mem::take(&mut prepared.warm_reads);
    let warm_writes = std::mem::take(&mut prepared.warm_writes);
    let (initial, stack) = prepared.close();
    let recovered = stop_and_recover(stack, 0.0)?;
    let lanes = write_lanes(&reqs, &warm_writes, &[(&window.writes, per_lane)]);
    let mut reads = warm_reads;
    reads.extend(window.reads.iter().cloned());
    let findings = check_outputs(
        workload,
        &initial,
        &reads,
        &lanes,
        &recovered.served,
        &recovered.reopened,
    );
    let latencies = window.latencies_ms(true, true);
    let p50 = percentile(&latencies, 0.5).ok_or("too few requests for a median")?;
    let p99 = percentile(&latencies, 0.99)
        .ok_or_else(|| format!("{} requests are too few for a p99", latencies.len()))?;
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_s);
    metrics.set("ops_per_s", window.completed() as f64 / window.seconds);
    metrics.set("p50_ms", p50);
    metrics.set("p99_ms", p99);
    metrics.set("journal_mb", journal_bytes as f64 / 1e6);
    metrics.set("peak_rss_mb", peak_rss_mb());
    let attempted = reads.len() + lanes.iter().map(|(_, o)| o.len()).sum::<usize>();
    Ok(Outcome {
        metrics,
        findings,
        attempted,
    })
}
