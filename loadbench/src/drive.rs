//! The load generators: closed-loop readers and pipelined writers on
//! `Client`, and the open-loop schedules of `mixed`.

use crate::stats::{open_loop, schedule, Clock, Timing, WallClock};
use crate::workload::{ReadGen, ReadReq, WriteReq};
use good_core::snapshot::Snapshot;
use good_server::client::{Client, WireAck};
use good_server::proto::{encode_submit, read_frame, write_frame, Frame};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Pipelined submits the `commit` connection keeps in flight: the
/// server's default per-session quota of 64. The server releases a
/// submit's quota slot before it sends the ack, so the next submit,
/// sent when an ack arrives, always finds a free slot.
pub const COMMIT_WINDOW: usize = 64;

/// A hash of a reply's columns and rows, so the full rows need not be
/// kept for checking.
pub fn rows_hash(columns: &[String], rows: &[Vec<String>]) -> u64 {
    let mut hasher = DefaultHasher::new();
    columns.hash(&mut hasher);
    rows.hash(&mut hasher);
    hasher.finish()
}

/// One answered (or failed) read.
#[derive(Debug, Clone)]
pub struct ReadOutcome {
    /// What was asked.
    pub req: ReadReq,
    /// Latency in nanoseconds: from sending in a closed loop, from the
    /// due time in an open loop.
    pub latency_ns: u64,
    /// `(epoch, hash of columns and rows, row count)`, or the failure.
    pub reply: Result<(u64, u64, usize), String>,
    /// The full reply, kept for the first few reads of each class.
    pub rows: Option<(Vec<String>, Vec<Vec<String>>)>,
    /// Set by the open loop's inline check: the reply disagreed with
    /// the oracle on the snapshot at its epoch.
    pub wrong: bool,
}

/// One acknowledged (or failed) write.
#[derive(Debug, Clone)]
pub struct WriteOutcome {
    /// Its position in its connection's stream.
    pub index: usize,
    /// Latency in nanoseconds (from the due time in an open loop).
    pub latency_ns: u64,
    /// The ack, or the failure.
    pub ack: Result<WireAck, String>,
}

/// Replies kept in full per class, for the differential check and the
/// traced run's codec timings.
pub const KEEP_ROWS: usize = 24;

fn keep(kept: &mut [usize; 5], req: &ReadReq) -> bool {
    let slot = &mut kept[req.class as usize];
    *slot += 1;
    *slot <= KEEP_ROWS
}

fn read_once(client: &mut Client, req: &ReadReq, keep_rows: bool) -> ReadOutcome {
    let started = Instant::now();
    let result = client.query(&req.text, None);
    outcome_of(
        req.clone(),
        started.elapsed().as_nanos() as u64,
        result,
        keep_rows,
    )
}

fn outcome_of(
    req: ReadReq,
    latency_ns: u64,
    result: Result<good_server::client::QueryRows, good_server::client::ClientError>,
    keep_rows: bool,
) -> ReadOutcome {
    match result {
        Ok((epoch, columns, rows)) => ReadOutcome {
            req,
            latency_ns,
            reply: Ok((epoch, rows_hash(&columns, &rows), rows.len())),
            rows: keep_rows.then_some((columns, rows)),
            wrong: false,
        },
        Err(err) => ReadOutcome {
            req,
            latency_ns,
            reply: Err(err.to_string()),
            rows: None,
            wrong: false,
        },
    }
}

/// Send `count` reads from `gen` one at a time, unmeasured.
pub fn warm_reads(client: &mut Client, gen: &mut ReadGen, count: usize) -> Vec<ReadOutcome> {
    (0..count)
        .map(|_| read_once(client, &gen.next_req(), false))
        .collect()
}

/// Closed loop: one read outstanding, the next sent when the reply
/// arrives, until `until` has passed and at least `min_reads` were
/// answered (or `hard_stop` passes).
pub fn closed_reads(
    client: &mut Client,
    gen: &mut ReadGen,
    until: Instant,
    min_reads: usize,
    hard_stop: Instant,
) -> Vec<ReadOutcome> {
    let mut outcomes = Vec::new();
    let mut kept = [0usize; 5];
    loop {
        let now = Instant::now();
        if now >= hard_stop || (now >= until && outcomes.len() >= min_reads) {
            return outcomes;
        }
        let req = gen.next_req();
        let keep_rows = keep(&mut kept, &req);
        outcomes.push(read_once(client, &req, keep_rows));
    }
}

/// Closed loop of pipelined writes: keep `window` submits in flight,
/// sending the next one as each ack arrives.
pub fn closed_writes(client: &mut Client, reqs: &[WriteReq], window: usize) -> Vec<WriteOutcome> {
    let mut outcomes = Vec::with_capacity(reqs.len());
    let mut inflight: VecDeque<(usize, u64, Instant)> = VecDeque::new();
    let mut next = 0;
    while next < reqs.len() || !inflight.is_empty() {
        while inflight.len() < window && next < reqs.len() {
            let sent = Instant::now();
            match client.submit(&reqs[next].program) {
                Ok(id) => inflight.push_back((next, id, sent)),
                Err(err) => outcomes.push(WriteOutcome {
                    index: next,
                    latency_ns: 0,
                    ack: Err(err.to_string()),
                }),
            }
            next += 1;
        }
        // A failed flush means the connection is gone; the wait below
        // reports it.
        let _ = client.flush();
        let Some((index, id, sent)) = inflight.pop_front() else {
            continue;
        };
        let ack = client.wait_ack(id).map_err(|e| e.to_string());
        outcomes.push(WriteOutcome {
            index,
            latency_ns: sent.elapsed().as_nanos() as u64,
            ack,
        });
    }
    outcomes
}

// ---- open loop -------------------------------------------------------------

/// Open-loop reads: one connection, one read in flight, each sent at
/// its due time or as soon as the previous reply arrives. Every reply
/// is checked at once against the oracle on the snapshot of its epoch
/// (outside the timed interval).
pub fn open_reads(
    client: &mut Client,
    gen: &mut ReadGen,
    clock: &WallClock,
    start_ns: u64,
    rate: f64,
    count: usize,
    snapshot_at: impl Fn(u64) -> Option<Snapshot>,
) -> (Vec<ReadOutcome>, Vec<Timing>) {
    let due = schedule(start_ns, rate, count);
    let reqs: Vec<ReadReq> = (0..count).map(|_| gen.next_req()).collect();
    let outcomes = RefCell::new(Vec::with_capacity(count));
    let mut kept = [0usize; 5];
    let mut timings = open_loop(
        clock,
        &due,
        |i| {
            let keep_rows = keep(&mut kept, &reqs[i]);
            let result = client.query(&reqs[i].text, None);
            outcomes
                .borrow_mut()
                .push(outcome_of(reqs[i].clone(), 0, result, keep_rows));
            true
        },
        |i| {
            let mut outcomes = outcomes.borrow_mut();
            let outcome = &mut outcomes[i];
            outcome.wrong = match outcome.reply {
                Ok((epoch, hash, _)) => match snapshot_at(epoch) {
                    Some(snapshot) => {
                        let expected =
                            crate::workload::expected_rows(snapshot.instance(), &outcome.req);
                        hash != rows_hash(&outcome.req.columns(), &expected)
                    }
                    None => true,
                },
                Err(_) => false,
            };
        },
    );
    let mut outcomes = outcomes.into_inner();
    for (outcome, timing) in outcomes.iter_mut().zip(&mut timings) {
        outcome.latency_ns = timing.latency_ns();
    }
    (outcomes, timings)
}

/// A raw protocol connection for the open-loop writer: the sender must
/// never wait on replies, so sending and receiving run on two threads
/// over the two halves of one socket (`Client` is single-threaded).
pub struct WireConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_request: u64,
}

impl WireConn {
    /// Connect and shake hands.
    pub fn connect(addr: SocketAddr) -> Result<WireConn, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        write_frame(&mut stream, &Frame::Hello { session: 0 }).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut conn = WireConn {
            stream,
            reader,
            next_request: 1,
        };
        match conn.recv()? {
            Frame::Hello { .. } => Ok(conn),
            other => Err(format!("expected Hello, got {}", other.type_name())),
        }
    }

    fn recv(&mut self) -> Result<Frame, String> {
        match read_frame(&mut self.reader) {
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err("server closed the connection".into()),
            Err(err) => Err(err.to_string()),
        }
    }

    /// Submit one write and wait for its ack (warm-up).
    pub fn submit_wait(&mut self, req: &WriteReq) -> Result<WireAck, String> {
        let request = self.next_request;
        self.next_request += 1;
        self.stream
            .write_all(&encode_submit(request, &req.program, None))
            .map_err(|e| e.to_string())?;
        ack_of(self.recv()?)
    }

    /// Open loop: send `reqs[i]` at `due[i]` on this thread while a
    /// second thread collects acks. Latency counts from the due time.
    pub fn open_writes(
        &mut self,
        reqs: &[WriteReq],
        clock: &WallClock,
        due: &[u64],
    ) -> (Vec<WriteOutcome>, Vec<Timing>) {
        let first = self.next_request;
        self.next_request += reqs.len() as u64;
        let frames: Vec<Vec<u8>> = reqs
            .iter()
            .enumerate()
            .map(|(i, req)| encode_submit(first + i as u64, &req.program, None))
            .collect();
        let stream = &mut self.stream;
        let reader = &mut self.reader;
        let (mut timings, acks) = std::thread::scope(|scope| {
            let receiver = scope.spawn(|| {
                let mut acks: Vec<Option<(u64, Result<WireAck, String>)>> = vec![None; reqs.len()];
                let mut pending = reqs.len();
                while pending > 0 {
                    let frame = match read_frame(&mut *reader) {
                        Ok(Some(frame)) => frame,
                        _ => break,
                    };
                    let request = match &frame {
                        Frame::Ack { request, .. } | Frame::Err { request, .. } => *request,
                        _ => continue,
                    };
                    let done_ns = clock.now_ns();
                    let Some(slot) = request
                        .checked_sub(first)
                        .and_then(|i| acks.get_mut(i as usize))
                    else {
                        continue;
                    };
                    if slot.is_none() {
                        pending -= 1;
                    }
                    *slot = Some((done_ns, ack_of(frame)));
                }
                acks
            });
            let timings = open_loop(
                clock,
                due,
                |i| {
                    let _ = stream.write_all(&frames[i]);
                    false
                },
                |_| {},
            );
            (timings, receiver.join().expect("ack receiver panicked"))
        });
        let mut outcomes = Vec::with_capacity(reqs.len());
        for (index, (timing, ack)) in timings.iter_mut().zip(acks).enumerate() {
            let ack = match ack {
                Some((done_ns, ack)) => {
                    timing.done_ns = done_ns;
                    ack
                }
                None => Err("no ack before the connection closed".into()),
            };
            outcomes.push(WriteOutcome {
                index,
                latency_ns: timing.latency_ns(),
                ack,
            });
        }
        (outcomes, timings)
    }

    /// Say goodbye and drain the close.
    pub fn close(mut self) {
        let _ = write_frame(
            &mut self.stream,
            &Frame::Goodbye {
                reason: "done".into(),
            },
        );
        while let Ok(Some(frame)) = read_frame(&mut self.reader) {
            if matches!(frame, Frame::Goodbye { .. }) {
                break;
            }
        }
    }
}

fn ack_of(frame: Frame) -> Result<WireAck, String> {
    match frame {
        Frame::Ack {
            request,
            epoch,
            commit_seq,
            outcome,
        } => Ok(WireAck {
            request,
            epoch,
            commit_seq,
            outcome,
        }),
        Frame::Err { code, detail, .. } => Err(format!("refused ({code}): {detail}")),
        other => Err(format!("expected Ack, got {}", other.type_name())),
    }
}
