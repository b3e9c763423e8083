//! The traced run: the workload runs once untraced and once with the
//! `good_trace` collector installed, then the benchmark times the
//! public calls of each layer on the run's own inputs, wrapping each in
//! a `bench` span. Every span goes to one file per workload.

use crate::drive::{self, ReadOutcome};
use crate::report::{Metrics, PER_LAYER};
use crate::stack::{timed_open, write_seed_journal};
use crate::stats::{median, percentile, Hist};
use crate::workload::{ReadClass, Workload, WriteGen, WriteReq};
use crate::{Args, Outcome, Prepared, Window, OUT_DIR, RECOVERY_BUDGET_S, WARM_REQUESTS};
use good_core::instance::Instance;
use good_core::matching::{explain_plan_profiled, find_matchings_with, MatchConfig};
use good_core::planner::{plan, JoinStrategy};
use good_core::program::Env;
use good_core::snapshot::{RetentionPolicy, SnapshotCell};
use good_query::compile::Step;
use good_query::{compile, execute, parse_query, Backend};
use good_server::proto::{decode, encode, encode_submit, Frame};
use good_server::{Server, ServerConfig};
use good_trace::{Collector, Recorder, Span};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Writes per connection applied in-process after the run, for the
/// per-class `Program::apply` timings.
const LAYER_WRITES: usize = 400;
/// Writes per connection replayed through an in-process `Server`.
const INPROC_WRITES: usize = 1_000;
/// Publishes and loads timed on a `SnapshotCell`.
const SNAPSHOT_OPS: usize = 2_000;
/// Writes per connection whose frames are encoded and decoded.
const CODEC_WRITES: usize = 100;

/// The benchmark's own spans around each layer call. Tracing is off
/// while layers are timed, so no timing carries the program's span
/// cost; each call is recorded straight into the collector instead, on
/// a track of its own, on the trace clock.
struct BenchSpans {
    collector: Arc<Collector>,
    origin: Instant,
    origin_ns: u64,
    seq: Cell<u64>,
}

/// The `tid` of the benchmark's track in the span file.
const BENCH_TRACK: u64 = 1_000_000;

impl BenchSpans {
    fn new(collector: Arc<Collector>) -> BenchSpans {
        // One real span anchors this clock to the trace clock.
        good_trace::install(collector.clone());
        let origin = Instant::now();
        drop(good_trace::span("bench", "bench/layers"));
        good_trace::uninstall();
        let origin_ns = collector
            .snapshot()
            .iter()
            .rev()
            .find(|span| span.name == "bench/layers")
            .map_or(0, |span| span.start_ns);
        BenchSpans {
            collector,
            origin,
            origin_ns,
            seq: Cell::new(0),
        }
    }

    /// Run `f`, record it as span `name`, and return its result with
    /// its duration in microseconds.
    fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let started = Instant::now();
        let out = f();
        let dur = started.elapsed();
        self.collector.record(Span {
            cat: "bench",
            name: name.to_string(),
            start_ns: self.origin_ns + started.duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            thread: BENCH_TRACK,
            seq: self.seq.replace(self.seq.get() + 1),
            depth: 0,
            args: Vec::new(),
        });
        (out, dur.as_nanos() as f64 / 1e3)
    }
}

/// Timings and counts by name; a metric reports their median.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// The server histograms a phase moved, from two `Stats` replies.
struct ServerDelta {
    stats: serde_json::Value,
    before: serde_json::Value,
}

impl ServerDelta {
    fn hist(&self, name: &str) -> Hist {
        Hist::from_stats(&self.stats, name).since(&Hist::from_stats(&self.before, name))
    }
}

fn stats_of(client: &mut good_server::client::Client) -> Result<serde_json::Value, String> {
    let json = client.stats().map_err(|e| format!("stats: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("stats reply: {e}"))
}

/// Run the workload untraced, then traced, and time each layer. The
/// traced window lasts a third of the untraced one: it only has to
/// show the tracing overhead and fill the span file.
pub fn traced_run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let workload = args.workload;
    let traced_seconds = (args.seconds / 3).max(1);
    let per_lane = crate::window_writes(workload, args.seconds);
    let traced_per_lane = crate::window_writes(workload, traced_seconds);
    let mut prepared = Prepared::new(args, &dir.join("setup"), traced_per_lane + LAYER_WRITES)?;
    let mut stats_client = prepared.stack.connect()?;
    let reqs = prepared.write_reqs.clone();
    let slice = |start: usize, len: usize| -> Vec<&[WriteReq]> {
        reqs.iter().map(|r| &r[start..start + len]).collect()
    };

    let before = stats_of(&mut stats_client)?;
    let journal_before = prepared.stack.journal_bytes();
    let untraced = crate::measure(
        &mut prepared,
        workload,
        args.seconds,
        &slice(WARM_REQUESTS, per_lane),
    )?;
    let delta = ServerDelta {
        stats: stats_of(&mut stats_client)?,
        before,
    };
    let journal_growth = prepared.stack.journal_bytes() - journal_before;

    let collector = Arc::new(Collector::new());
    good_trace::install(collector.clone());
    let traced = crate::measure(
        &mut prepared,
        workload,
        traced_seconds,
        &slice(WARM_REQUESTS + per_lane, traced_per_lane),
    );
    good_trace::uninstall();
    let traced = traced?;
    let spans = BenchSpans::new(Arc::clone(&collector));
    let current = prepared.stack.net.server().snapshot();
    let mut metrics = Metrics::default();
    end_to_end_split(&mut metrics, &untraced, &traced, &delta, journal_growth);
    time_layers(
        &mut metrics,
        &spans,
        workload,
        args.seed,
        dir,
        &prepared,
        current.instance,
        &untraced,
        &delta,
    )?;
    let _ = stats_client.goodbye();
    let warm_reads = std::mem::take(&mut prepared.warm_reads);
    let warm_writes = std::mem::take(&mut prepared.warm_writes);
    let (initial, stack) = prepared.close();
    let recovered = crate::stop_and_recover(stack, RECOVERY_BUDGET_S)?;
    metrics.set("recovery_s", recovered.seconds);
    let lanes = crate::write_lanes(
        &reqs,
        &warm_writes,
        &[
            (&untraced.writes, per_lane),
            (&traced.writes, traced_per_lane),
        ],
    );
    let mut reads = warm_reads;
    reads.extend(untraced.reads.iter().cloned());
    reads.extend(traced.reads.iter().cloned());
    let findings = crate::check_outputs(
        workload,
        &initial,
        &reads,
        &lanes,
        &recovered.served,
        &recovered.reopened,
    );
    replay_cost(&mut metrics, &spans, dir, &initial, &recovered)?;
    let attempted = reads.len() + lanes.iter().map(|(_, o)| o.len()).sum::<usize>();
    metrics.set(
        "failed_frac",
        findings.failed as f64 / attempted.max(1) as f64,
    );
    drop(spans);
    write_spans(&collector, workload, args.seed)?;
    Ok(Outcome {
        metrics,
        findings,
        attempted,
    })
}

/// Write every captured span to `spans-<workload>-seed<n>.json`, in
/// Chrome `trace_event` form.
fn write_spans(collector: &Collector, workload: Workload, seed: u64) -> Result<(), String> {
    let spans = collector.take();
    let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{seed}.json", workload.name()));
    std::fs::write(&path, good_trace::chrome_trace_json(&spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "loadbench: wrote {} spans to {}",
        spans.len(),
        path.display()
    );
    Ok(())
}

/// Reads and writes of the untraced phase, split; the server stages
/// its histograms saw; the tracing overhead.
fn end_to_end_split(
    metrics: &mut Metrics,
    untraced: &Window,
    traced: &Window,
    delta: &ServerDelta,
    journal_growth: u64,
) {
    let reads = untraced.latencies_ms(true, false);
    let writes = untraced.latencies_ms(false, true);
    metrics.set("read_p50_ms", percentile(&reads, 0.5).unwrap_or(0.0));
    metrics.set("read_p99_ms", percentile(&reads, 0.99).unwrap_or(0.0));
    metrics.set("write_p50_ms", percentile(&writes, 0.5).unwrap_or(0.0));
    metrics.set("write_p99_ms", percentile(&writes, 0.99).unwrap_or(0.0));
    for class in ReadClass::ALL {
        let latencies: Vec<f64> = untraced
            .reads
            .iter()
            .filter(|o| o.req.class == class)
            .map(|o| o.latency_ns as f64 / 1e6)
            .collect();
        metrics.set(
            format!("read.{}.p50_ms", class.name()),
            percentile(&latencies, 0.5).unwrap_or(0.0),
        );
    }
    let acked = acked_writes(untraced);
    if acked > 0 {
        metrics.set(
            "journal_bytes_per_write",
            journal_growth as f64 / acked as f64,
        );
        let fsync = delta.hist("store/fsync_ns");
        metrics.set("store.fsync_p50_us", fsync.quantile(0.5) / 1e3);
        metrics.set("store.fsyncs_per_write", fsync.count as f64 / acked as f64);
    }
    let batches = delta.hist("server/batch_size");
    metrics.set("server.batch_size_mean", batches.mean());
    let queue_wait = delta.hist("server/queue_wait_ns");
    metrics.set("server.queue_wait_p50_us", queue_wait.quantile(0.5) / 1e3);
    metrics.set("server.queue_wait_p99_us", queue_wait.quantile(0.99) / 1e3);
    metrics.set(
        "server.exec_p50_us",
        delta.hist("server/exec_ns").quantile(0.5) / 1e3,
    );
    metrics.set(
        "server.publish_p50_us",
        delta.hist("server/publish_ns").quantile(0.5) / 1e3,
    );
    metrics.set(
        "server.commit_p50_us",
        delta.hist("server/commit_ns").quantile(0.5) / 1e3,
    );
    let late: Vec<f64> = untraced
        .timings
        .iter()
        .map(|t| t.late_ns() as f64 / 1e6)
        .collect();
    metrics.set(
        "bench.gen_late_p99_ms",
        percentile(&late, 0.99).unwrap_or(0.0),
    );
    let all = untraced.latencies_ms(true, true);
    let traced_all = traced.latencies_ms(true, true);
    if let (Some(plain), Some(with_spans)) = (percentile(&all, 0.5), percentile(&traced_all, 0.5)) {
        metrics.set(
            "bench.trace_overhead_pct",
            (with_spans - plain) / plain * 100.0,
        );
    }
}

fn acked_writes(window: &Window) -> usize {
    window
        .writes
        .iter()
        .flatten()
        .filter(|o| o.ack.is_ok())
        .count()
}

/// `Store::open` of a seed-only journal against the journal the run
/// left: the replay cost of each appended record.
fn replay_cost(
    metrics: &mut Metrics,
    spans: &BenchSpans,
    dir: &Path,
    initial: &Instance,
    recovered: &crate::Recovered,
) -> Result<(), String> {
    let seed_only = dir.join("replay").join("seed.journal");
    std::fs::create_dir_all(seed_only.parent().expect("has a parent"))
        .map_err(|e| e.to_string())?;
    write_seed_journal(&seed_only, initial)?;
    let (seed_store, seed_us) = spans.time("bench/store.open_seed", || timed_open(&seed_only));
    seed_store?;
    if recovered.records > 1 {
        metrics.set(
            "store.replay_us_per_record",
            (recovered.seconds * 1e6 - seed_us) / (recovered.records - 1) as f64,
        );
    }
    Ok(())
}

/// Time every layer's public calls on the run's inputs.
#[allow(clippy::too_many_arguments)]
fn time_layers(
    metrics: &mut Metrics,
    spans: &BenchSpans,
    workload: Workload,
    seed: u64,
    dir: &Path,
    prepared: &Prepared,
    current: Arc<Instance>,
    untraced: &Window,
    delta: &ServerDelta,
) -> Result<(), String> {
    let mut samples = Samples::default();
    let kept: Vec<&ReadOutcome> = untraced.reads.iter().filter(|o| o.rows.is_some()).collect();
    codec(&mut samples, spans, &kept, untraced, &prepared.write_reqs);
    queries(&mut samples, spans, metrics, &current, &kept)?;
    snapshots(&mut samples, spans, &current);
    // The write path's layers are timed on every workload: on the
    // writes the run generated, or, on a read-only workload, on the
    // `commit` write stream of the same seed over the same instance.
    let (lanes, after_run): (Vec<Vec<WriteReq>>, Vec<WriteReq>) = if workload.writes() {
        let lanes = &prepared.write_reqs;
        // The writes generated past the ones the run sent continue from
        // the served state.
        let after_run = (0..LAYER_WRITES)
            .flat_map(|i| {
                lanes
                    .iter()
                    .map(move |r| r[r.len() - LAYER_WRITES + i].clone())
            })
            .collect();
        (lanes.clone(), after_run)
    } else {
        let mut gen = WriteGen::new(&prepared.db, seed, 0, 1);
        let stream: Vec<WriteReq> = (0..LAYER_WRITES + 2 * INPROC_WRITES)
            .map(|_| gen.next_req())
            .collect();
        let after_run = stream[..LAYER_WRITES].to_vec();
        (vec![stream], after_run)
    };
    programs(&mut samples, spans, metrics, &current, &after_run)?;
    in_process_server(
        &mut samples,
        spans,
        workload,
        dir,
        &prepared.db,
        &lanes,
        delta,
    )?;
    let bytes: Vec<f64> = lanes
        .iter()
        .flatten()
        .map(|req| record_bytes(req) as f64)
        .collect();
    metrics.set("store.record_bytes_per_write", crate::stats::mean(&bytes));
    for (name, _) in PER_LAYER {
        if let Some(values) = samples.0.get(name) {
            metrics.set(name, median(values));
        }
    }
    balance(metrics, &samples, untraced);
    Ok(())
}

/// Set the two rows that relate the layers to the end-to-end time,
/// class by class and weighted by each class's share of the untraced
/// phase's requests:
///
/// * `net.rtt_minus_inproc_us`: the TCP p50 minus the same requests
///   served in-process (`good_query::run`, or `Server::submit`+`wait`);
/// * `bench.unexplained_frac`: the share of the TCP p50 that the layer
///   medians leave uncovered. A read is covered by its frame codec, the
///   in-process query and a snapshot load; a write by its frame codec,
///   its queue wait, its batch's execution (journal and fsync included)
///   and the publish.
fn balance(metrics: &mut Metrics, samples: &Samples, untraced: &Window) {
    let mut classes: Vec<(f64, f64, f64, f64)> = Vec::new();
    for class in ReadClass::ALL {
        let latencies: Vec<f64> = untraced
            .reads
            .iter()
            .filter(|o| o.req.class == class)
            .map(|o| o.latency_ns as f64 / 1e3)
            .collect();
        if let Some(p50) = percentile(&latencies, 0.5) {
            let inproc = samples.median(&format!("bench.inproc_us.{}", class.name()));
            let codec = samples.median(&format!("bench.codec_us.{}", class.name()));
            let load = samples.median("core.snapshot.load_us");
            classes.push((latencies.len() as f64, p50, inproc, codec + inproc + load));
        }
    }
    let writes: Vec<f64> = untraced
        .latencies_ms(false, true)
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    if let Some(p50) = percentile(&writes, 0.5) {
        let explained = samples.median("bench.codec_us.write")
            + metrics.get("server.queue_wait_p50_us")
            + metrics.get("server.exec_p50_us")
            + metrics.get("server.publish_p50_us");
        let inproc = samples.median("server.submit_wait_us");
        classes.push((writes.len() as f64, p50, inproc, explained));
    }
    let total: f64 = classes.iter().map(|c| c.0).sum();
    let e2e: f64 = classes.iter().map(|c| c.0 * c.1).sum();
    if total > 0.0 && e2e > 0.0 {
        let gap: f64 = classes.iter().map(|c| c.0 * (c.1 - c.2)).sum();
        let explained: f64 = classes.iter().map(|c| c.0 * c.3).sum();
        metrics.set("net.rtt_minus_inproc_us", gap / total);
        metrics.set("bench.unexplained_frac", 1.0 - explained / e2e);
    }
}

/// Encode and decode each kept read and the first writes of the run,
/// with their replies, as the client and the server do.
fn codec(
    samples: &mut Samples,
    spans: &BenchSpans,
    kept: &[&ReadOutcome],
    untraced: &Window,
    reqs: &[Vec<WriteReq>],
) {
    const REPEATS: u32 = 8;
    let mut time_pair = |kind: &str, request: &dyn Fn() -> Vec<u8>, reply: &Frame| {
        let (bytes, encode_us) = spans.time("bench/net.encode", || {
            let mut bytes = (Vec::new(), Vec::new());
            for _ in 0..REPEATS {
                bytes = (request(), encode(reply));
            }
            bytes
        });
        let (_, decode_us) = spans.time("bench/net.decode", || {
            for _ in 0..REPEATS {
                decode(&bytes.0).expect("own frame decodes");
                decode(&bytes.1).expect("own frame decodes");
            }
        });
        let (encode_us, decode_us) = (
            encode_us / f64::from(REPEATS),
            decode_us / f64::from(REPEATS),
        );
        samples.push("net.encode_us", encode_us);
        samples.push("net.decode_us", decode_us);
        samples.push("net.bytes_per_op", (bytes.0.len() + bytes.1.len()) as f64);
        samples.push(format!("bench.codec_us.{kind}"), encode_us + decode_us);
    };
    for (i, outcome) in kept.iter().enumerate() {
        let (columns, rows) = outcome.rows.clone().expect("kept rows");
        let request = i as u64 + 1;
        let query = Frame::Query {
            request,
            at: None,
            pattern: outcome.req.text.clone(),
            trace: None,
        };
        let reply = Frame::Rows {
            request,
            epoch: outcome.reply.as_ref().map_or(0, |r| r.0),
            columns,
            rows,
        };
        time_pair(outcome.req.class.name(), &|| encode(&query), &reply);
    }
    for (lane, outcomes) in untraced.writes.iter().enumerate() {
        for outcome in outcomes.iter().take(CODEC_WRITES) {
            let Ok(ack) = &outcome.ack else { continue };
            let program = &reqs[lane][WARM_REQUESTS + outcome.index].program;
            let reply = Frame::Ack {
                request: ack.request,
                epoch: ack.epoch,
                commit_seq: ack.commit_seq,
                outcome: ack.outcome.clone(),
            };
            time_pair(
                "write",
                &|| encode_submit(ack.request, program, None),
                &reply,
            );
        }
    }
}

/// Parse, compile, execute and each core-lane stage of the kept reads.
fn queries(
    samples: &mut Samples,
    spans: &BenchSpans,
    metrics: &mut Metrics,
    db: &Instance,
    kept: &[&ReadOutcome],
) -> Result<(), String> {
    let mut generic_join = Vec::new();
    for outcome in kept {
        let req = &outcome.req;
        let class = req.class.name();
        let (query, parse_us) = spans.time("bench/query.parse", || parse_query(&req.text));
        let query = query.map_err(|e| e.to_string())?;
        let (compiled, compile_us) =
            spans.time("bench/query.compile", || compile(&query, db.scheme()));
        let compiled = compiled.map_err(|e| e.to_string())?;
        let (output, execute_us) = spans.time("bench/query.execute", || {
            execute(db, &compiled, Backend::Core)
        });
        let output = output.map_err(|e| e.to_string())?;
        samples.push(format!("query.parse_us.{class}"), parse_us);
        samples.push(format!("query.compile_us.{class}"), compile_us);
        samples.push(format!("query.execute_us.{class}"), execute_us);
        samples.push(
            format!("query.rows_per_query.{class}"),
            output.rows.len() as f64,
        );
        samples.push(
            format!("bench.inproc_us.{class}"),
            parse_us + compile_us + execute_us,
        );

        // The core lane, stage by stage: materialize the derived path
        // labels on a scratch clone, then plan and match.
        let started = Instant::now();
        let mut scratch = db.clone();
        for (class_label, label) in compiled.derived_triples() {
            scratch
                .extend_multivalued(class_label.clone(), label, class_label)
                .map_err(|e| e.to_string())?;
        }
        let mut env = Env::new();
        for step in compiled.core_steps() {
            match step {
                Step::Op(op) => {
                    let (report, us) =
                        spans.time("bench/core.ops.ea", || op.apply(&mut scratch, &mut env));
                    report.map_err(|e| e.to_string())?;
                    samples.push("core.ops.ea_us", us);
                }
                Step::Star(star) => {
                    let fuel = env.fuel_left();
                    let (report, us) = spans.time("bench/core.macros.star", || {
                        star.apply(&mut scratch, &mut env)
                    });
                    let report = report.map_err(|e| e.to_string())?;
                    samples.push("core.macros.star_us", us);
                    samples.push("core.macros.rounds", (fuel - env.fuel_left()) as f64);
                    samples.push(
                        "core.macros.useful_frac",
                        report.edges_added as f64 / report.matchings.max(1) as f64,
                    );
                }
            }
        }
        let materialize_us = started.elapsed().as_nanos() as f64 / 1e3;
        samples.push("query.materialize_us", materialize_us);
        let (pattern, _) = compiled.pattern(true);
        let (choice, plan_us) = spans.time("bench/core.planner.plan", || plan(&pattern, &scratch));
        samples.push("core.planner.plan_us", plan_us);
        generic_join.push(f64::from(u8::from(
            choice.strategy == JoinStrategy::GenericJoin,
        )));
        let (matchings, find_us) = spans.time("bench/core.matching.find", || {
            find_matchings_with(&pattern, &scratch, MatchConfig::default())
        });
        let matchings = matchings.map_err(|e| e.to_string())?;
        samples.push("core.matching.find_us", find_us);
        samples.push("query.project_us", execute_us - materialize_us - find_us);
        let (profiled, _) = spans.time("bench/core.matching.profile", || {
            explain_plan_profiled(&pattern, &scratch, MatchConfig::default())
        });
        let examined: u64 = profiled
            .map_err(|e| e.to_string())?
            .steps
            .iter()
            .filter_map(|step| step.actual_rows)
            .sum();
        samples.push(
            "core.matching.examined_per_row",
            examined as f64 / matchings.len().max(1) as f64,
        );
    }
    metrics.set(
        "core.planner.generic_join_frac",
        crate::stats::mean(&generic_join),
    );
    Ok(())
}

/// Publish and load on a `SnapshotCell` holding the served instance,
/// with the server's default retention.
fn snapshots(samples: &mut Samples, spans: &BenchSpans, current: &Arc<Instance>) {
    let cell = SnapshotCell::new_shared(
        Arc::clone(current),
        RetentionPolicy::versions(ServerConfig::default().retain_versions),
    );
    for _ in 0..SNAPSHOT_OPS {
        let (_, publish_us) = spans.time("bench/core.snapshot.publish", || {
            cell.publish_arc(Arc::clone(current))
        });
        let (_, load_us) = spans.time("bench/core.snapshot.load", || cell.load());
        samples.push("core.snapshot.publish_us", publish_us);
        samples.push("core.snapshot.load_us", load_us);
    }
}

/// `Program::apply` of `writes`, in order, on a clone of the served
/// instance.
fn programs(
    samples: &mut Samples,
    spans: &BenchSpans,
    metrics: &mut Metrics,
    current: &Instance,
    writes: &[WriteReq],
) -> Result<(), String> {
    let mut db = current.clone();
    let mut env = Env::new();
    let mut matchings = Vec::new();
    for req in writes {
        env.refuel();
        let (report, us) = spans.time("bench/core.program.apply", || {
            req.program.apply(&mut db, &mut env)
        });
        let report = report.map_err(|e| e.to_string())?;
        samples.push(format!("core.program.apply_us.{}", req.class.name()), us);
        matchings.push(report.matchings as f64);
    }
    metrics.set(
        "core.ops.matchings_per_write",
        crate::stats::mean(&matchings),
    );
    Ok(())
}

/// The bytes one write adds to the journal as part of a group commit.
fn record_bytes(req: &WriteReq) -> usize {
    serde_json::to_string(&good_store::LogRecord::BatchApply(req.program.clone()))
        .map_or(0, |line| line.len() + 1)
}

/// The first writes of `lanes` through an in-process `Server` over a
/// store seeded with `initial` (the run's programs and window, no
/// sockets), then `Store::execute_group` on the next ones, in batches
/// of the size the run's server formed (its `max_batch` on a read-only
/// workload).
#[allow(clippy::too_many_arguments)]
fn in_process_server(
    samples: &mut Samples,
    spans: &BenchSpans,
    workload: Workload,
    dir: &Path,
    initial: &Instance,
    lanes: &[Vec<WriteReq>],
    delta: &ServerDelta,
) -> Result<(), String> {
    let journal = dir.join("inproc").join("db.journal");
    std::fs::create_dir_all(journal.parent().expect("has a parent")).map_err(|e| e.to_string())?;
    write_seed_journal(&journal, initial)?;
    let (store, _) = timed_open(&journal)?;
    let server = Server::start(store, ServerConfig::default());
    let window = if workload == Workload::Mixed {
        1
    } else {
        drive::COMMIT_WINDOW
    };
    let count = INPROC_WRITES.min(lanes[0].len() - LAYER_WRITES);
    let latencies: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|reqs| {
                let server = &server;
                scope.spawn(move || {
                    let session = server.open_session();
                    let mut inflight = std::collections::VecDeque::new();
                    let mut out = Vec::new();
                    for req in &reqs[..count] {
                        let sent = Instant::now();
                        match server.submit(session, req.program.clone()) {
                            Ok(ticket) => inflight.push_back((ticket, sent)),
                            Err(_) => continue,
                        }
                        if inflight.len() >= window {
                            let (ticket, sent) = inflight.pop_front().expect("non-empty");
                            let _ = server.wait(ticket);
                            out.push(sent.elapsed().as_nanos() as f64 / 1e3);
                        }
                    }
                    for (ticket, sent) in inflight {
                        let _ = server.wait(ticket);
                        out.push(sent.elapsed().as_nanos() as f64 / 1e3);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("in-process writer panicked"))
            .collect()
    });
    for latency in latencies.into_iter().flatten() {
        samples.push("server.submit_wait_us", latency);
    }
    let mut store = server.shutdown().map_err(|e| e.to_string())?;

    let observed = delta.hist("server/batch_size");
    let batch = if observed.count == 0 {
        ServerConfig::default().max_batch
    } else {
        (observed.mean().round() as usize).clamp(1, 64)
    };
    let rest = lanes[0].len() - LAYER_WRITES - count;
    let mut programs = Vec::new();
    for i in 0..rest.min(INPROC_WRITES) {
        for reqs in lanes {
            programs.push(reqs[count + i].program.clone());
        }
    }
    for group in programs.chunks(batch) {
        let (outcomes, us) = spans.time("bench/store.execute_group", || store.execute_group(group));
        let outcomes = outcomes.map_err(|e| e.to_string())?;
        if outcomes.iter().any(|o| o.is_err()) {
            return Err("a replayed write failed in execute_group".into());
        }
        samples.push("store.execute_group_us_per_write", us / group.len() as f64);
    }
    Ok(())
}
