//! Delta-driven (semi-naive) repeated edge additions against the naive
//! round loop.
//!
//! `RecursiveEdgeAddition::apply_rounds` re-matches, after its first
//! round, only the matchings that touch the previous round's new edges.
//! The reference here is the plain loop it replaced: apply the edge
//! addition in full until a round adds no edge (or `k` times for a
//! capped run). Both must reach the same serialized instance after the
//! same number of rounds with the same number of added edges, and fail
//! with the same error on the same partially evaluated instance.
//!
//! Tier-1 runs 96 generated cases; the nightly cron runs the 10 000-case
//! `--ignored` sweep (see `.github/workflows/ci.yml`).

use good::model::gen::{random_instance, GenConfig};
use good::model::instance::Instance;
use good::model::label::Label;
use good::model::macros::recursion::{transitive_closure_star, RecursiveEdgeAddition};
use good::model::ops::EdgeAddition;
use good::model::pattern::{Pattern, ValuePredicate};
use good::model::program::Env;
use good::model::scheme::SchemeBuilder;
use good::model::value::Value;
use good_graph::NodeId;
use proptest::prelude::*;

/// The multivalued output label of the generated edge additions
/// (registered by the bench scheme).
const ACC: &str = "rec-links-to";
/// The functional output label (registered by the case's seed edges).
const NEXT: &str = "next";
/// A multivalued Info → String output label (registered by the case's
/// seed edges).
const TAG: &str = "tag";

/// The generated edge-addition shapes.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `x -acc→ y -links-to→ z ⇒ x -acc→ z` (Figure 28's star).
    Extend,
    /// `x -acc→ x, x -links-to→ z ⇒ z -acc→ z`: the output label on a
    /// self-loop pattern edge.
    SelfLoop,
    /// `x -acc→ y -acc→ z ⇒ x -acc→ z`: two output-label edges in one
    /// pattern.
    Square,
    /// `x -acc→ y ←acc- z ⇒ x -acc→ z`: two output-label edges with no
    /// second decomposition of a derived edge, so a delta search that
    /// seeded only one of them would miss edges.
    Join,
    /// Extend with a crossed part: the edge `x -acc→ z` (Figure 29's
    /// stopping condition), or a crossed `z -acc→ w` ("z has no acc
    /// successor yet"), which drops matchings as the rounds go on.
    Crossed,
    /// Extend restricted by value predicates: `z`'s creation date in a
    /// range, optionally `x`'s name in a list.
    Predicate,
    /// `x -tag→ t, x -name→ n, x -links-to→ y ⇒ y -tag→ n` with value
    /// predicates on `t` and `n`: an added tag edge is matched by the
    /// tag pattern edge only if its printable end passes `t`'s
    /// predicate.
    Tags,
    /// `x -next→ x, x -links-to→ z ⇒ z -next→ z` over a functional
    /// label, with one planted non-loop `next` edge the propagation may
    /// run into (a functional conflict in a later round).
    Functional,
}

const SHAPES: [Shape; 8] = [
    Shape::Extend,
    Shape::SelfLoop,
    Shape::Square,
    Shape::Join,
    Shape::Crossed,
    Shape::Predicate,
    Shape::Tags,
    Shape::Functional,
];

#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    shape: Shape,
    /// Output edges planted before the run, as Info indexes.
    plants: Vec<(usize, usize)>,
    /// Round cap: `None` runs to fixpoint.
    cap: Option<usize>,
    /// Predicate knobs: date range start and width, name list toggle.
    lo: u8,
    width: u8,
    flag: bool,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        0u64..1000,
        0usize..SHAPES.len(),
        proptest::collection::vec((0usize..64, 0usize..64), 1..4),
        proptest::option::of(1usize..5),
        (0u8..4, 0u8..3, any::<bool>()),
    )
        .prop_map(|(seed, shape, plants, cap, (lo, width, flag))| Case {
            seed,
            shape: SHAPES[shape],
            plants,
            cap,
            lo,
            width,
            flag,
        })
}

fn name_of(index: usize) -> Value {
    Value::from(format!("info-{index}"))
}

fn date(offset: u8) -> Value {
    Value::date(1990, 1, 1 + offset)
}

/// The case's instance (output edges planted) and edge addition.
/// `None` when planting the functional seed edges already conflicts.
fn setup(case: &Case) -> Option<(Instance, EdgeAddition)> {
    let mut db = random_instance(&GenConfig {
        infos: 12,
        avg_links: 1.5,
        distinct_dates: 4,
        seed: case.seed,
    });
    let infos: Vec<NodeId> = db.nodes_with_label(&Label::new("Info")).collect();
    let pick = |index: usize| infos[index % infos.len()];
    let mut p = Pattern::new();
    let x = p.node("Info");
    let ea = match case.shape {
        Shape::Extend | Shape::Crossed | Shape::Predicate => {
            for &(a, b) in &case.plants {
                db.add_edge(pick(a), ACC, pick(b)).unwrap();
            }
            let y = p.node("Info");
            let z = p.node("Info");
            p.edge(x, ACC, y);
            p.edge(y, "links-to", z);
            if let Shape::Crossed = case.shape {
                if case.flag {
                    let w = p.negated_node("Info");
                    p.negated_edge(z, ACC, w);
                } else {
                    p.negated_edge(x, ACC, z);
                }
            }
            if let Shape::Predicate = case.shape {
                let created = p.predicate_node(
                    "Date",
                    ValuePredicate::Between(date(case.lo), date(case.lo + case.width)),
                );
                p.edge(z, "created", created);
                if case.flag {
                    let names = case
                        .plants
                        .iter()
                        .map(|&(a, _)| name_of(a % infos.len()))
                        .collect();
                    let name = p.predicate_node("String", ValuePredicate::OneOf(names));
                    p.edge(x, "name", name);
                }
            }
            EdgeAddition::multivalued(p, x, ACC, z)
        }
        Shape::SelfLoop => {
            for &(a, _) in &case.plants {
                db.add_edge(pick(a), ACC, pick(a)).unwrap();
            }
            let z = p.node("Info");
            p.edge(x, ACC, x);
            p.edge(x, "links-to", z);
            EdgeAddition::multivalued(p, z, ACC, z)
        }
        Shape::Square | Shape::Join => {
            for &(a, b) in &case.plants {
                db.add_edge(pick(a), ACC, pick(b)).unwrap();
            }
            // A copy of links-to as acc edges, so the shape has
            // something to compose.
            let links: Vec<(NodeId, NodeId)> = db
                .graph()
                .edges()
                .filter(|e| e.payload.label.as_str() == "links-to")
                .map(|e| (e.src, e.dst))
                .collect();
            for (src, dst) in links {
                db.add_edge(src, ACC, dst).unwrap();
            }
            let y = p.node("Info");
            let z = p.node("Info");
            p.edge(x, ACC, y);
            match case.shape {
                Shape::Join => p.edge(z, ACC, y),
                _ => p.edge(y, ACC, z),
            }
            EdgeAddition::multivalued(p, x, ACC, z)
        }
        Shape::Tags => {
            // Seed: tag `info-a` with the name of `info-b`.
            for &(a, b) in &case.plants {
                let mut seed = Pattern::new();
                let info = seed.node("Info");
                let name = seed.printable("String", name_of(a % infos.len()));
                let tag = seed.printable("String", name_of(b % infos.len()));
                seed.edge(info, "name", name);
                EdgeAddition::multivalued(seed, info, TAG, tag)
                    .apply(&mut db)
                    .unwrap();
            }
            // Only tags in `required` pass a name on; a new tag edge
            // may carry a name outside it.
            let required = case
                .plants
                .iter()
                .flat_map(|&(a, b)| [a, b + usize::from(case.width)])
                .map(|index| name_of(index % infos.len()))
                .collect();
            let t = p.predicate_node("String", ValuePredicate::OneOf(required));
            let n = p.predicate_node("String", ValuePredicate::Ne(name_of(usize::from(case.lo))));
            let y = p.node("Info");
            p.edge(x, TAG, t);
            p.edge(x, "name", n);
            p.edge(x, "links-to", y);
            EdgeAddition::multivalued(p, y, TAG, n)
        }
        Shape::Functional => {
            let (start, planted) = case.plants[0];
            let (start, planted) = (start % infos.len(), planted % infos.len());
            // Seed: the start node's `next` loop, and one planted
            // `next` edge away from the loop the propagation would add.
            let mut seed = Pattern::new();
            let s = seed.node("Info");
            let name = seed.printable("String", name_of(start));
            seed.edge(s, "name", name);
            EdgeAddition::functional(seed, s, NEXT, s)
                .apply(&mut db)
                .ok()?;
            if planted != start {
                let mut seed = Pattern::new();
                let a = seed.node("Info");
                let b = seed.node("Info");
                let a_name = seed.printable("String", name_of(planted));
                let b_name = seed.printable("String", name_of((planted + 1) % infos.len()));
                seed.edge(a, "name", a_name);
                seed.edge(b, "name", b_name);
                EdgeAddition::functional(seed, a, NEXT, b)
                    .apply(&mut db)
                    .ok()?;
            }
            let z = p.node("Info");
            p.edge(x, NEXT, x);
            p.edge(x, "links-to", z);
            EdgeAddition::functional(p, z, NEXT, z)
        }
    };
    Some((db, ea))
}

/// What a run of repeated edge additions did.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    rounds: u64,
    edges_added: usize,
    error: Option<String>,
    instance: String,
}

fn outcome(db: &Instance, rounds: u64, edges_added: usize, error: Option<String>) -> Outcome {
    Outcome {
        rounds,
        edges_added,
        error,
        instance: serde_json::to_string(db).unwrap(),
    }
}

/// The delta-driven loop under test. Rounds are the fuel it burned.
fn delta_run(mut db: Instance, ea: &EdgeAddition, cap: Option<usize>) -> Outcome {
    let mut env = Env::new();
    let fuel = env.fuel_left();
    let star = RecursiveEdgeAddition::new(ea.clone());
    let result = star.apply_rounds(&mut db, &mut env, cap);
    let rounds = fuel - env.fuel_left();
    match result {
        Ok(report) => {
            db.validate().unwrap();
            outcome(&db, rounds, report.edges_added, None)
        }
        Err(err) => outcome(&db, rounds, 0, Some(err.to_string())),
    }
}

/// The reference: plain applications in full until one adds no edge,
/// at most `cap` of them.
fn naive_run(mut db: Instance, ea: &EdgeAddition, cap: Option<usize>) -> Outcome {
    let mut rounds = 0;
    let mut edges_added = 0;
    for _ in 0..cap.unwrap_or(usize::MAX) {
        rounds += 1;
        match ea.apply(&mut db) {
            Ok(report) if report.edges_added == 0 => break,
            Ok(report) => edges_added += report.edges_added,
            Err(err) => return outcome(&db, rounds, 0, Some(err.to_string())),
        }
    }
    outcome(&db, rounds, edges_added, None)
}

/// `k` plain applications in a row, stopping at the first error: what
/// GOODQL's unrolled `*m..k` program means.
fn plain_applies(mut db: Instance, ea: &EdgeAddition, k: usize) -> String {
    for _ in 0..k {
        if ea.apply(&mut db).is_err() {
            break;
        }
    }
    serde_json::to_string(&db).unwrap()
}

fn check(case: &Case) -> Result<(), TestCaseError> {
    let Some((db, ea)) = setup(case) else {
        return Ok(());
    };
    let delta = delta_run(db.clone(), &ea, case.cap);
    let naive = naive_run(db.clone(), &ea, case.cap);
    prop_assert_eq!(&delta, &naive, "case {:?}", case);
    if let Some(k) = case.cap {
        prop_assert_eq!(
            &plain_applies(db, &ea, k),
            &naive.instance,
            "case {:?}",
            case
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn delta_rounds_match_the_naive_loop(case in arb_case()) {
        check(&case)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// The nightly 10k-case sweep (`cargo test --release --
    /// --ignored`).
    #[test]
    #[ignore = "10k-case semi-naive differential sweep; run by the nightly cron"]
    fn delta_rounds_match_the_naive_loop_10k(case in arb_case()) {
        check(&case)?;
    }
}

/// Every shape is reached, and the functional shape really produces
/// conflicts — in a later round than the first for some seeds.
#[test]
fn generated_shapes_cover_late_conflicts() {
    let mut late_conflicts = 0;
    for seed in 0..40 {
        let case = Case {
            seed,
            shape: Shape::Functional,
            plants: vec![(seed as usize, seed as usize + 5)],
            cap: None,
            lo: 0,
            width: 0,
            flag: false,
        };
        let Some((db, ea)) = setup(&case) else {
            continue;
        };
        let run = delta_run(db, &ea, None);
        if run.error.is_some() && run.rounds > 1 {
            late_conflicts += 1;
        }
        check(&case).unwrap();
    }
    assert!(late_conflicts > 0, "no functional conflict after round 1");
}

fn chain(n: usize) -> Instance {
    let scheme = SchemeBuilder::new()
        .object("Info")
        .multivalued("Info", "links-to", "Info")
        .multivalued("Info", "rec-links-to", "Info")
        .build();
    let mut db = Instance::new(scheme);
    let nodes: Vec<NodeId> = (0..n).map(|_| db.add_object("Info").unwrap()).collect();
    for pair in nodes.windows(2) {
        db.add_edge(pair[0], "links-to", pair[1]).unwrap();
    }
    db
}

/// The work bound of the delta rounds, in matchings (machine
/// independent). On `chain(n)` the Figure 28 star runs `n − 1` rounds
/// and each delta matching adds exactly one edge: `(n−2)(n−1)/2`
/// matchings. The naive loop re-matches every derived edge each round.
#[test]
fn figure28_star_matches_each_derived_edge_once() {
    for (n, delta_matchings, rounds, naive_matchings) in
        [(8, 21, 7, 112), (16, 105, 15, 1_120), (32, 465, 31, 9_920)]
    {
        let (seed, star) = transitive_closure_star("Info", "links-to", "rec-links-to");
        let mut db = chain(n);
        seed.apply(&mut db).unwrap();
        let mut naive_db = db.clone();

        let mut env = Env::new();
        let fuel = env.fuel_left();
        let report = star.apply(&mut db, &mut env).unwrap();
        assert_eq!(report.matchings, delta_matchings, "chain({n})");
        assert_eq!(report.edges_added, delta_matchings, "chain({n})");
        assert_eq!(fuel - env.fuel_left(), rounds, "chain({n})");

        let mut naive = 0;
        loop {
            let round = star.base.apply(&mut naive_db).unwrap();
            naive += round.matchings;
            if round.edges_added == 0 {
                break;
            }
        }
        assert_eq!(naive, naive_matchings, "chain({n})");
        assert_eq!(
            serde_json::to_string(&naive_db).unwrap(),
            serde_json::to_string(&db).unwrap()
        );
    }
}
