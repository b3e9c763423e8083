//! Differential property tests for the matching engine.
//!
//! Random instances (via the deterministic generator in `good_core::gen`)
//! and random small patterns are thrown at five independent engines —
//! the sequential planned search, the morsel-parallel planned search
//! (forced onto the parallel path with `parallel_threshold: 0`), the
//! naive cross-product enumerator, the worst-case-optimal generic
//! join, and the materializing binary join — which must agree bit for
//! bit. A second suite drives random GOOD operations and audits every
//! instance invariant (including adjacency-index/graph agreement and
//! incremental-planner-statistics/rebuild agreement) afterwards. A third
//! suite pins a node with `=`, `IN` or a conjunction containing one and
//! checks every engine against the same pattern rewritten to print
//! values.

use good_core::gen::{random_instance, GenConfig};
use good_core::instance::Instance;
use good_core::matching::{find_matchings_naive, find_matchings_with, MatchConfig, Matching};
use good_core::ops::{EdgeDeletion, NodeDeletion};
use good_core::pattern::{Pattern, ValuePredicate};
use good_core::planner::find_matchings_binary;
use good_core::value::Value;
use good_core::wcoj::find_matchings_wcoj;
use good_graph::NodeId;
use proptest::prelude::*;

/// Blueprint for a random pattern over `bench_scheme`: up to three Info
/// nodes, random `links-to` edges among them (some negated), optional
/// exact-name anchors, optional `created`-date nodes, and optionally a
/// negated satellite node.
#[derive(Debug, Clone)]
struct PatternSpec {
    info_nodes: usize,
    links: Vec<(usize, usize, bool)>,
    name_anchor: Option<(usize, u8)>,
    date_probe: Option<usize>,
    negated_satellite: bool,
}

fn arb_pattern_spec() -> impl Strategy<Value = PatternSpec> {
    (
        1usize..=3,
        proptest::collection::vec((any::<usize>(), any::<usize>(), any::<bool>()), 0..3),
        any::<bool>(),
        (any::<usize>(), 0u8..30),
        any::<bool>(),
        any::<usize>(),
        any::<bool>(),
    )
        .prop_map(
            |(info_nodes, links, has_name, name, has_date, date_node, negated_satellite)| {
                PatternSpec {
                    info_nodes,
                    links,
                    name_anchor: has_name.then_some((name.0, name.1)),
                    date_probe: has_date.then_some(date_node),
                    negated_satellite,
                }
            },
        )
}

fn build_pattern(spec: &PatternSpec) -> Pattern {
    let mut pattern = Pattern::new();
    let infos: Vec<NodeId> = (0..spec.info_nodes).map(|_| pattern.node("Info")).collect();
    for (src, dst, negated) in &spec.links {
        let src = infos[src % infos.len()];
        let dst = infos[dst % infos.len()];
        if *negated {
            pattern.negated_edge(src, "links-to", dst);
        } else {
            pattern.edge(src, "links-to", dst);
        }
    }
    if let Some((node, index)) = &spec.name_anchor {
        let name = pattern.printable("String", Value::str(format!("info-{index}")));
        pattern.edge(infos[node % infos.len()], "name", name);
    }
    if let Some(node) = &spec.date_probe {
        let date = pattern.node("Date");
        pattern.edge(infos[node % infos.len()], "created", date);
    }
    if spec.negated_satellite {
        let satellite = pattern.negated_node("Info");
        pattern.edge(infos[0], "links-to", satellite);
    }
    pattern
}

/// Blueprint for a pattern with one value-pinned printable node: an
/// Info chain (or, `cyclic`, a `links-to` triangle) whose first node
/// has a `name` (or, `on_date`, a `created`) edge to a node carrying a
/// predicate of shape `kind` over the values `picks` selects.
#[derive(Debug, Clone)]
struct PinSpec {
    on_date: bool,
    cyclic: bool,
    kind: u8,
    picks: Vec<u8>,
}

fn arb_pin_spec() -> impl Strategy<Value = PinSpec> {
    (
        any::<bool>(),
        any::<bool>(),
        0u8..4,
        proptest::collection::vec(0u8..32, 1..5),
    )
        .prop_map(|(on_date, cyclic, kind, picks)| PinSpec {
            on_date,
            cyclic,
            kind,
            picks,
        })
}

/// The value pool: names `info-0..30` and the first eight days of
/// 1990 (instances hold at most 24 names and 5 days, so some are
/// absent), and at pick 31 one value of the wrong type.
fn pool_value(on_date: bool, pick: u8) -> Value {
    match (on_date, pick) {
        (false, 31) => Value::int(31),
        (true, 31) => Value::str("info-1"),
        (false, index) => Value::str(format!("info-{index}")),
        (true, index) => Value::date(1990, 1, 1 + index % 8),
    }
}

/// Kind 0: `Eq`; 1: `OneOf` (duplicates allowed); 2: `Eq` plus a
/// filter that does not pin; 3: a conjunction of `Eq`s (empty unless
/// all equal).
fn pin_predicate(spec: &PinSpec) -> ValuePredicate {
    let values: Vec<Value> = spec
        .picks
        .iter()
        .map(|&pick| pool_value(spec.on_date, pick))
        .collect();
    match spec.kind {
        0 => ValuePredicate::Eq(values[0].clone()),
        1 => ValuePredicate::OneOf(values),
        2 => ValuePredicate::All(vec![
            ValuePredicate::Eq(values[0].clone()),
            if spec.on_date {
                ValuePredicate::Le(Value::date(1990, 1, 3))
            } else {
                ValuePredicate::StartsWith("info-1".into())
            },
        ]),
        _ => ValuePredicate::All(values.into_iter().map(ValuePredicate::Eq).collect()),
    }
}

/// The pinned pattern, with the pinned node built by `pinned` last so
/// every variant shares node ids.
fn build_pinned(spec: &PinSpec, pinned: impl FnOnce(&mut Pattern, &str) -> NodeId) -> Pattern {
    let mut pattern = Pattern::new();
    let a = pattern.node("Info");
    let b = pattern.node("Info");
    pattern.edge(a, "links-to", b);
    if spec.cyclic {
        let c = pattern.node("Info");
        pattern.edge(b, "links-to", c);
        pattern.edge(c, "links-to", a);
    }
    let (label, edge) = if spec.on_date {
        ("Date", "created")
    } else {
        ("String", "name")
    };
    let node = pinned(&mut pattern, label);
    pattern.edge(a, edge, node);
    pattern
}

/// Matchings of the pinned pattern from every engine, asserted equal
/// and free of duplicates.
fn pinned_matchings(db: &Instance, pattern: &Pattern) -> Vec<Matching> {
    let sequential = find_matchings_with(pattern, db, MatchConfig::sequential()).expect("valid");
    let two_threads = find_matchings_with(
        pattern,
        db,
        MatchConfig {
            threads: 2,
            parallel_threshold: 0,
        },
    )
    .expect("valid");
    assert_eq!(sequential, two_threads, "1 vs 2 threads");
    assert_eq!(
        sequential,
        find_matchings_naive(pattern, db).expect("valid"),
        "vs naive"
    );
    assert_eq!(
        sequential,
        find_matchings_wcoj(pattern, db).expect("valid"),
        "vs generic join"
    );
    assert_eq!(
        sequential,
        find_matchings_binary(pattern, db).expect("valid"),
        "vs binary join"
    );
    assert!(
        sequential.windows(2).all(|pair| pair[0] < pair[1]),
        "duplicate matchings"
    );
    sequential
}

/// The print-value rewrite: the union, over every value the predicate
/// mentions, accepts and can hold, of the matchings with that value as
/// the node's print label.
fn print_rewrite(db: &Instance, spec: &PinSpec) -> Vec<Matching> {
    let predicate = pin_predicate(spec);
    let mut values: Vec<Value> = spec
        .picks
        .iter()
        .map(|&pick| pool_value(spec.on_date, pick))
        .filter(|value| predicate.matches(value) && pick_is_well_typed(spec.on_date, value))
        .collect();
    values.sort();
    values.dedup();
    let mut union = Vec::new();
    for value in values {
        let pattern = build_pinned(spec, |p, label| p.printable(label, value.clone()));
        union.extend(pinned_matchings(db, &pattern));
    }
    union.sort();
    union.dedup();
    union
}

fn pick_is_well_typed(on_date: bool, value: &Value) -> bool {
    matches!(
        (on_date, value),
        (true, Value::Date(_)) | (false, Value::Str(_))
    )
}

fn arb_gen_config() -> impl Strategy<Value = GenConfig> {
    (1usize..=24, 0u64..1_000_000, 1usize..=5).prop_map(|(infos, seed, distinct_dates)| GenConfig {
        infos,
        avg_links: 2.0,
        distinct_dates,
        seed,
    })
}

proptest! {
    /// Sequential ≡ parallel ≡ naive on random instances and patterns.
    #[test]
    fn engines_agree(config in arb_gen_config(), spec in arb_pattern_spec()) {
        let db = random_instance(&config);
        let pattern = build_pattern(&spec);
        let sequential =
            find_matchings_with(&pattern, &db, MatchConfig::sequential()).expect("valid pattern");
        let parallel = find_matchings_with(
            &pattern,
            &db,
            MatchConfig { threads: 4, parallel_threshold: 0 },
        )
        .expect("valid pattern");
        let naive = find_matchings_naive(&pattern, &db).expect("valid pattern");
        let wcoj = find_matchings_wcoj(&pattern, &db).expect("valid pattern");
        let binary = find_matchings_binary(&pattern, &db).expect("valid pattern");
        prop_assert_eq!(&sequential, &parallel, "sequential vs parallel");
        prop_assert_eq!(&sequential, &naive, "planned vs naive");
        prop_assert_eq!(&sequential, &wcoj, "planned vs generic join");
        prop_assert_eq!(&sequential, &binary, "planned vs binary join");
    }

    /// Deleting random nodes and edges through the batched operation
    /// paths preserves every instance invariant, including exact
    /// agreement of the incrementally maintained adjacency index with a
    /// fresh rebuild (checked inside `validate`).
    #[test]
    fn batched_deletions_preserve_invariants(
        config in arb_gen_config(),
        name_index in 0u8..30,
        delete_sources in any::<bool>(),
    ) {
        let mut db = random_instance(&config);

        // ED: unlink every links-to edge matched by a 2-node pattern.
        let mut p = Pattern::new();
        let src = p.node("Info");
        let dst = p.node("Info");
        p.edge(src, "links-to", dst);
        let target = if delete_sources { src } else { dst };
        EdgeDeletion::single(p.clone(), src, "links-to", dst)
            .apply(&mut db)
            .expect("edge deletion applies");
        db.validate().expect("invariants after edge deletion");

        // ND: delete one named info (if the name exists) with all
        // incident edges.
        let mut p2 = Pattern::new();
        let info = p2.node("Info");
        let name = p2.printable("String", Value::str(format!("info-{name_index}")));
        p2.edge(info, "name", name);
        NodeDeletion::new(p2, info).apply(&mut db).expect("node deletion applies");
        db.validate().expect("invariants after node deletion");

        // ND over the (now edgeless) links pattern is a no-op but must
        // still keep every index coherent.
        NodeDeletion::new(p, target).apply(&mut db).expect("no-op deletion applies");
        db.validate().expect("invariants after no-op deletion");
    }

    /// A node pinned by `=`, `IN` or `All(=, …)` matches exactly like
    /// its print-value rewrite, on every engine at 1 and 2 threads,
    /// acyclic and cyclic (generic-join base set) alike.
    #[test]
    fn pinned_predicates_match_their_print_rewrite(
        config in arb_gen_config(),
        spec in arb_pin_spec(),
    ) {
        let db = random_instance(&config);
        let predicate = pin_predicate(&spec);
        let pattern = build_pinned(&spec, |p, label| p.predicate_node(label, predicate));
        prop_assert_eq!(pinned_matchings(&db, &pattern), print_rewrite(&db, &spec));
    }
}

fn pinned_case(
    on_date: bool,
    cyclic: bool,
    kind: u8,
    picks: &[u8],
) -> (Vec<Matching>, Vec<Matching>) {
    let db = random_instance(&GenConfig {
        infos: 24,
        avg_links: 2.0,
        distinct_dates: 3,
        seed: 1990,
    });
    let spec = PinSpec {
        on_date,
        cyclic,
        kind,
        picks: picks.to_vec(),
    };
    let pattern = build_pinned(&spec, |p, label| {
        p.predicate_node(label, pin_predicate(&spec))
    });
    (pinned_matchings(&db, &pattern), print_rewrite(&db, &spec))
}

#[test]
fn pinned_value_absent_from_the_instance_matches_nothing() {
    for cyclic in [false, true] {
        // info-30 and 1990-01-08 are beyond the generated names and days.
        assert_eq!(pinned_case(false, cyclic, 0, &[30]), (vec![], vec![]));
        assert_eq!(pinned_case(true, cyclic, 0, &[7]), (vec![], vec![]));
    }
}

#[test]
fn pinned_value_of_the_wrong_type_matches_nothing() {
    for (on_date, cyclic) in [(false, false), (true, false), (false, true), (true, true)] {
        assert_eq!(pinned_case(on_date, cyclic, 0, &[31]), (vec![], vec![]));
        assert_eq!(pinned_case(on_date, cyclic, 1, &[31, 31]), (vec![], vec![]));
    }
}

#[test]
fn one_of_with_duplicate_and_absent_entries_has_no_duplicate_matchings() {
    for cyclic in [false, true] {
        let (listed, rewrite) = pinned_case(false, cyclic, 1, &[3, 30, 3, 31, 5, 5]);
        assert_eq!(listed, rewrite);
        let (three, _) = pinned_case(false, cyclic, 0, &[3]);
        let (five, _) = pinned_case(false, cyclic, 0, &[5]);
        assert_eq!(listed.len(), three.len() + five.len());
    }
}

#[test]
fn conjunction_of_different_equalities_is_empty() {
    for cyclic in [false, true] {
        assert_eq!(pinned_case(false, cyclic, 3, &[3, 5]), (vec![], vec![]));
        assert_eq!(pinned_case(true, cyclic, 3, &[0, 1]), (vec![], vec![]));
        // Equal members pin like a single `Eq`.
        let (same, rewrite) = pinned_case(false, cyclic, 3, &[3, 3]);
        assert_eq!(same, rewrite);
        assert_eq!(same, pinned_case(false, cyclic, 0, &[3]).0);
    }
}
