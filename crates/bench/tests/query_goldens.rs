//! GOODQL end-to-end golden tests: for a fixed deterministic instance,
//! each hand-written query is pinned from text through the compiled
//! GOOD program and the matcher's explain plan down to the final
//! answer rows — all byte-identical to the checked-in files under
//! `tests/goldens/`.
//!
//! The rows section is produced by the three-way differential runner,
//! so every golden also certifies that the core matcher, the
//! relational encoding, and the Tarski algebra agree on that query.
//!
//! When an intentional compiler, planner, or rendering change lands,
//! regenerate with
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p good-bench --test query_goldens
//! ```
//!
//! and commit the diff.

use good_core::gen::{random_instance, GenConfig};
use good_core::instance::Instance;
use std::fmt::Write as _;
use std::path::PathBuf;

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

/// The pinned instance: small enough that the goldens stay readable,
/// dense enough that the transitive-closure queries reach real cycles.
fn golden_instance() -> Instance {
    random_instance(&GenConfig {
        infos: 12,
        avg_links: 1.5,
        distinct_dates: 4,
        seed: 7,
    })
}

/// The hand-written query set: every grammar production, predicates of
/// each type, negation, and four property-path queries (`*`, bounded,
/// `*0..`, and a path over an edge label with no instances — the
/// empty-seed case the compiler must pre-register).
const QUERIES: &[(&str, &str)] = &[
    ("all-infos", "MATCH (a:Info) RETURN a"),
    ("names", "MATCH (a:Info)-[:name]->(n:String) RETURN a, n LIMIT 6"),
    (
        "eq-literal",
        "MATCH (a:Info)-[:name]->(n:String = \"info-3\") RETURN a",
    ),
    (
        "where-eq",
        "MATCH (a:Info)-[:name]->(n:String) WHERE n = \"info-3\" RETURN a",
    ),
    (
        "links",
        "MATCH (a:Info)-[:links-to]->(b:Info) RETURN a, b LIMIT 5",
    ),
    (
        "date-lt",
        "MATCH (a:Info)-[:created]->(d:Date) WHERE d < date(1990-01-03) RETURN a, d",
    ),
    (
        "contains",
        "MATCH (a:Info)-[:name]->(n:String) WHERE n CONTAINS \"o-1\" RETURN n",
    ),
    (
        "starts-with",
        "MATCH (a:Info)-[:name]->(n:String) WHERE n STARTS WITH \"info-1\" RETURN DISTINCT n",
    ),
    (
        "date-between",
        "MATCH (a:Info)-[:created]->(d:Date) WHERE d BETWEEN date(1990-01-02) AND date(1990-01-04) RETURN DISTINCT d",
    ),
    (
        "in-list",
        "MATCH (a:Info)-[:name]->(n:String) WHERE n IN [\"info-1\", \"info-5\"] RETURN a, n",
    ),
    (
        "negation",
        "MATCH (a:Info)-[:name]->(n:String = \"info-0\"), (b:Info) WHERE NOT (a)-[:links-to]->(b) RETURN b LIMIT 4",
    ),
    (
        "join-chain",
        "MATCH (a:Info)-[:links-to]->(b:Info), (b)-[:name]->(n:String) RETURN a, n LIMIT 6",
    ),
    (
        "path-star",
        "MATCH (a:Info)-[:name]->(n:String = \"info-0\"), (a)-[:links-to*]->(b:Info) RETURN DISTINCT b",
    ),
    (
        "path-bounded",
        "MATCH (a:Info)-[:links-to*2..3]->(b:Info) RETURN a, b LIMIT 8",
    ),
    (
        "path-zero",
        "MATCH (a:Info)-[:name]->(n:String = \"info-2\"), (a)-[:links-to*0..2]->(b:Info) RETURN DISTINCT b",
    ),
    (
        "path-empty-seed",
        "MATCH (a:Info)-[:rec-links-to*]->(b:Info) RETURN a, b",
    ),
];

/// One golden: the query text, the compiled program + profiled plan
/// (`good_query::explain`), and the differential answer rows.
fn golden_for(db: &Instance, text: &str) -> String {
    let mut out = String::new();
    writeln!(out, "query: {text}").expect("write");
    writeln!(out, "\n== compiled program and plan ==").expect("write");
    let explained = good_query::explain(db, text)
        .unwrap_or_else(|err| panic!("explain failed:\n{}", err.render(text)));
    out.push_str(&explained);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    writeln!(out, "\n== rows (core = relational = tarski) ==").expect("write");
    let output = good_query::run_differential(db, text)
        .unwrap_or_else(|err| panic!("differential failed:\n{}", err.render(text)));
    writeln!(out, "{}", output.columns.join(" | ")).expect("write");
    for row in &output.rows {
        writeln!(out, "{}", row.join(" | ")).expect("write");
    }
    writeln!(out, "({} rows)", output.rows.len()).expect("write");
    out
}

fn query_renderings() -> Vec<(String, String)> {
    let db = golden_instance();
    QUERIES
        .iter()
        .map(|(name, text)| (format!("query-{name}.txt"), golden_for(&db, text)))
        .collect()
}

#[test]
fn query_pipelines_match_the_checked_in_goldens() {
    let update = std::env::var_os("UPDATE_GOLDENS").is_some();
    let dir = goldens_dir();
    if update {
        std::fs::create_dir_all(&dir).expect("create goldens dir");
    }
    for (name, contents) in query_renderings() {
        let path = dir.join(&name);
        if update {
            std::fs::write(&path, &contents).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|err| {
            panic!(
                "missing golden {name}: {err}\n\
                 regenerate with UPDATE_GOLDENS=1 cargo test -p good-bench --test query_goldens"
            )
        });
        assert!(
            golden == contents,
            "query pipeline {name} drifted from its golden.\n\
             If the change is intentional, regenerate with\n\
             UPDATE_GOLDENS=1 cargo test -p good-bench --test query_goldens\n\
             --- golden ---\n{golden}\n--- current ---\n{contents}"
        );
    }
}

#[test]
fn query_renderings_are_deterministic() {
    // Goldens are only meaningful if regeneration is byte-stable.
    assert_eq!(query_renderings(), query_renderings());
}

#[test]
fn the_path_goldens_actually_reach_rows() {
    // Goldens with zero rows would silently pin nothing about path
    // evaluation; keep the closure queries honest (the deliberate
    // exception is `path-empty-seed`, which pins the zero-instance
    // derivation).
    let db = golden_instance();
    for (name, text) in QUERIES {
        let rows = good_query::run_differential(&db, text)
            .unwrap_or_else(|err| panic!("{name}: {}", err.render(text)))
            .rows;
        if name.starts_with("path-") && *name != "path-empty-seed" {
            assert!(!rows.is_empty(), "{name} pins an empty answer");
        }
        if *name == "path-empty-seed" {
            assert!(rows.is_empty(), "{name} is supposed to have no seed edges");
        }
    }
}

#[test]
fn where_eq_probes_first_on_the_10k_store() {
    // The benchmark's `point` shape on its 10k-Info data set: a value
    // pinned by WHERE must be answered like an inline print label, with
    // one printable probe at step 1 instead of a scan of every String.
    let db = random_instance(&GenConfig {
        infos: 10_000,
        avg_links: 2.0,
        distinct_dates: 16,
        seed: 1990,
    });
    let text = "MATCH (a:Info)-[:name]->(n:String) WHERE n = \"info-42\" RETURN a";
    let explained = good_query::explain(&db, text)
        .unwrap_or_else(|err| panic!("explain failed:\n{}", err.render(text)));
    assert!(
        explained.contains("  1. bind n [String] via printable probe (String = info-42)  (est. 1,"),
        "{explained}"
    );
}
