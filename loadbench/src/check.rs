//! Output checks. Each counts the requests it found wrong; any count
//! above zero fails the run.

use crate::drive::{rows_hash, ReadOutcome, WriteOutcome};
use crate::workload::{expected_rows, ReadClass, WriteReq};
use good_core::instance::Instance;
use good_core::program::Env;
use good_query::{execute, Backend};
use std::collections::HashMap;

/// Failures found, with a note for each kind.
#[derive(Debug, Default)]
pub struct Findings {
    /// Requests that failed, were refused or answered wrongly.
    pub failed: usize,
    /// What went wrong, one line per kind.
    pub notes: Vec<String>,
}

impl Findings {
    fn fail(&mut self, count: usize, note: String) {
        if count > 0 {
            self.failed += count;
            self.notes.push(note);
        }
    }
}

/// Check reads of an instance no write changes: every reply against
/// the adjacency-walk oracle, and the first `differential` kept replies
/// of each class against the agreed output of the GOODQL lanes.
pub fn fixed_reads(db: &Instance, outcomes: &[ReadOutcome], differential: usize) -> Findings {
    let mut findings = Findings::default();
    let mut expected: HashMap<(ReadClass, usize), u64> = HashMap::new();
    let (mut refused, mut wrong) = (0, 0);
    let mut first_refusal = String::new();
    for outcome in outcomes {
        match &outcome.reply {
            Err(err) => {
                refused += 1;
                if first_refusal.is_empty() {
                    first_refusal = err.clone();
                }
            }
            Ok((_, hash, _)) => {
                let want = *expected
                    .entry((outcome.req.class, outcome.req.param))
                    .or_insert_with(|| {
                        rows_hash(&outcome.req.columns(), &expected_rows(db, &outcome.req))
                    });
                if *hash != want {
                    wrong += 1;
                }
            }
        }
    }
    findings.fail(
        refused,
        format!("{refused} read(s) failed: {first_refusal}"),
    );
    findings.fail(wrong, format!("{wrong} read(s) disagree with the oracle"));
    let mut checked: HashMap<ReadClass, usize> = HashMap::new();
    for outcome in outcomes {
        let Some((columns, rows)) = &outcome.rows else {
            continue;
        };
        let seen = checked.entry(outcome.req.class).or_default();
        if *seen >= differential {
            continue;
        }
        *seen += 1;
        match agreed(db, &outcome.req.text, outcome.req.class) {
            Ok(output) if output.columns == *columns && output.rows == *rows => {}
            Ok(_) => findings.fail(
                1,
                format!("TCP rows differ from the lanes' rows: {}", outcome.req.text),
            ),
            Err(err) => findings.fail(1, format!("lanes disagree: {err}")),
        }
    }
    findings
}

/// The rows every GOODQL lane agrees on. `hop2` over the 10k-Info
/// store is checked on the core and relational lanes only: the Tarski
/// lane's predicate-free join of that pattern exhausts memory there
/// (it ran out of a 3 GB address-space limit when tried).
fn agreed(db: &Instance, text: &str, class: ReadClass) -> Result<good_query::QueryOutput, String> {
    if class != ReadClass::Hop2 || db.node_count() < 1_000 {
        return good_query::run_differential(db, text).map_err(|e| e.to_string());
    }
    let query = good_query::parse_query(text).map_err(|e| e.to_string())?;
    let compiled = good_query::compile(&query, db.scheme()).map_err(|e| e.to_string())?;
    let core = execute(db, &compiled, Backend::Core).map_err(|e| e.to_string())?;
    let relational = execute(db, &compiled, Backend::Relational).map_err(|e| e.to_string())?;
    if core != relational {
        return Err(format!("core and relational lanes differ on `{text}`"));
    }
    Ok(core)
}

/// Check the writes of one run.
///
/// * every write is acknowledged as committed, with the report its
///   generator predicted;
/// * commit sequence numbers are dense from 1 and increase along each
///   connection;
/// * the store reopened from the journal, the server's final snapshot,
///   and an in-process serial replay of the acknowledged programs in
///   commit order from `initial` are one and the same instance.
pub fn writes(
    initial: &Instance,
    lanes: &[(Vec<WriteReq>, Vec<WriteOutcome>)],
    served: &Instance,
    reopened: &Instance,
) -> Findings {
    let mut findings = Findings::default();
    let mut committed: Vec<(u64, &WriteReq)> = Vec::new();
    let (mut refused, mut unordered) = (0, 0);
    let mut first_refusal = String::new();
    for (reqs, outcomes) in lanes {
        let mut last_seq = 0;
        let mut ordered: Vec<&WriteOutcome> = outcomes.iter().collect();
        ordered.sort_by_key(|o| o.index);
        for outcome in ordered {
            let seq = match &outcome.ack {
                Ok(ack) => match (&ack.outcome, ack.commit_seq) {
                    (Ok(_), Some(seq)) => seq,
                    (Err(err), _) => {
                        refused += 1;
                        first_refusal.clone_from(err);
                        continue;
                    }
                    (Ok(_), None) => {
                        refused += 1;
                        continue;
                    }
                },
                Err(err) => {
                    refused += 1;
                    first_refusal.clone_from(err);
                    continue;
                }
            };
            if seq <= last_seq {
                unordered += 1;
            }
            last_seq = seq;
            committed.push((seq, &reqs[outcome.index]));
        }
    }
    findings.fail(
        refused,
        format!("{refused} write(s) not committed: {first_refusal}"),
    );
    findings.fail(
        unordered,
        format!("{unordered} ack(s) out of commit order on their connection"),
    );
    committed.sort_by_key(|(seq, _)| *seq);
    let dense = committed
        .iter()
        .enumerate()
        .all(|(i, (seq, _))| *seq == i as u64 + 1);
    if !dense {
        findings.fail(1, "commit sequence numbers are not dense from 1".into());
    }
    let mut replay = initial.clone();
    let mut env = Env::new();
    let mut surprising = 0;
    for (_, req) in &committed {
        env.refuel();
        match req.program.apply(&mut replay, &mut env) {
            Ok(report) if req.expect.matches(&report) => {}
            _ => surprising += 1,
        }
    }
    findings.fail(
        surprising,
        format!("{surprising} write(s) replayed with an unexpected report"),
    );
    let canonical = |db: &Instance| serde_json::to_string(db).unwrap_or_default();
    let served = canonical(served);
    if canonical(reopened) != served {
        findings.fail(
            1,
            "the reopened store differs from the served snapshot".into(),
        );
    }
    if canonical(&replay) != served {
        findings.fail(
            1,
            "the serial replay differs from the served snapshot".into(),
        );
    }
    findings
}
