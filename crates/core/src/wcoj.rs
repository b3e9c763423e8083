//! Generic (worst-case-optimal) join evaluation for cyclic patterns.
//!
//! Binary edge-at-a-time plans are doomed on cyclic patterns: whatever
//! the join order, some prefix materializes an *open* version of the
//! cycle (all wedges of a triangle, say) before the closing edge can
//! filter it, and that intermediate can be asymptotically larger than
//! the final result (the AGM bound — see "Foundations of Modern Query
//! Languages for Graph Databases" in PAPERS.md). The generic-join
//! discipline avoids this by joining one *variable* at a time instead:
//! each pattern node binds to the sorted intersection of **all** its
//! candidate sets under the current partial assignment — every
//! bound-neighbour posting list, the support sets of its still-unbound
//! edges, and its printable/predicate constraints (a node pinned to
//! finitely many values starts from their printable-index probes) —
//! so no partial assignment survives that violates any
//! already-decidable edge.
//!
//! The intersection is evaluated the classic way: materialize the
//! smallest candidate set, then membership-probe the rest (postings
//! probes and `has_edge` are O(1)-ish through the adjacency index).
//! The variable order comes from the cost-based planner
//! ([`crate::planner::plan`]), which routes patterns here when their
//! costed estimate predicts a binary blow-up.
//!
//! Results are canonical — sorted, deduplicated, negation
//! post-filtered — and bit-identical to every other engine; the
//! differential proptest suite (`tests/differential.rs`) enforces this.

use crate::error::{GoodError, Result};
use crate::instance::Instance;
use crate::label::Label;
use crate::matching::{extends_to_full, node_compatible, pinned_candidates, Matching, SCAN_LIMIT};
use crate::pattern::{Pattern, PatternNodeKind};
use crate::persist::PSet;
use good_graph::NodeId;

/// One variable of the generic join: the pattern node plus its edges
/// into earlier (already bound at candidate time) and later variables,
/// resolved once per enumeration.
struct Variable {
    node: NodeId,
    /// `(earlier variable's arena slot, edge label index, direction)`
    /// for every positive edge between this node and an earlier one.
    /// Direction is from the perspective of *this* node: `Out` means
    /// `this -λ-> earlier`.
    earlier: Vec<(usize, usize, Direction)>,
    /// Edge label indexes of positive self-loops on this node.
    self_loops: Vec<usize>,
    /// `(edge label index, direction)` of positive edges to later
    /// variables — used as support-set filters, the generic join's
    /// "every relation containing the variable" discipline.
    later: Vec<(usize, Direction)>,
}

#[derive(Clone, Copy, PartialEq)]
enum Direction {
    Out,
    In,
}

/// Enumerate all matchings of `pattern` (its positive part must equal
/// `pattern` — callers pass `pattern.positive_part()`) by generic join
/// in the given variable `order`. When `actuals` is provided, slot `d`
/// receives the number of partial assignments that survived depth `d`
/// (the per-step actual row counts `explain` reports).
pub(crate) fn enumerate_generic(
    pattern: &Pattern,
    instance: &Instance,
    order: &[NodeId],
    mut actuals: Option<&mut [u64]>,
) -> Vec<Matching> {
    let graph = pattern.graph();
    let capacity = graph.node_index_bound();
    if order.is_empty() {
        return vec![Matching::from_pairs([])];
    }

    // Resolve the pattern's edge labels once; candidates reference them
    // by index so the inner loop never clones a label.
    let labels: Vec<_> = graph
        .edges()
        .filter(|edge| !edge.payload.negated)
        .map(|edge| (edge.src, edge.dst, edge.payload.label.clone()))
        .collect();

    let mut depth_of: Vec<usize> = vec![usize::MAX; capacity];
    for (depth, node) in order.iter().enumerate() {
        depth_of[node.index()] = depth;
    }
    let variables: Vec<Variable> = order
        .iter()
        .enumerate()
        .map(|(depth, &node)| {
            let mut earlier = Vec::new();
            let mut self_loops = Vec::new();
            let mut later = Vec::new();
            for (index, (src, dst, _)) in labels.iter().enumerate() {
                if *src == node && *dst == node {
                    self_loops.push(index);
                } else if *src == node {
                    if depth_of[dst.index()] < depth {
                        earlier.push((dst.index(), index, Direction::Out));
                    } else {
                        later.push((index, Direction::Out));
                    }
                } else if *dst == node {
                    if depth_of[src.index()] < depth {
                        earlier.push((src.index(), index, Direction::In));
                    } else {
                        later.push((index, Direction::In));
                    }
                }
            }
            Variable {
                node,
                earlier,
                self_loops,
                later,
            }
        })
        .collect();

    let mut frame: Vec<Option<NodeId>> = vec![None; capacity];
    let mut results = Vec::new();
    let mut scratch: Vec<Vec<NodeId>> = vec![Vec::new(); order.len()];

    // Iterative depth-first enumeration over the fixed variable order.
    let mut cursors: Vec<usize> = vec![0; order.len()];
    let mut depth = 0usize;
    candidates(
        instance,
        pattern,
        &variables[0],
        &labels,
        &frame,
        &mut scratch[0],
    );
    cursors[0] = 0;
    loop {
        if cursors[depth] < scratch[depth].len() {
            let image = scratch[depth][cursors[depth]];
            cursors[depth] += 1;
            frame[variables[depth].node.index()] = Some(image);
            if let Some(actuals) = actuals.as_deref_mut() {
                actuals[depth] += 1;
            }
            if depth + 1 == order.len() {
                results.push(Matching::from_pairs(
                    order.iter().map(|&n| (n, frame[n.index()].expect("bound"))),
                ));
                frame[variables[depth].node.index()] = None;
            } else {
                depth += 1;
                let (_, rest) = scratch.split_at_mut(depth);
                candidates(
                    instance,
                    pattern,
                    &variables[depth],
                    &labels,
                    &frame,
                    &mut rest[0],
                );
                cursors[depth] = 0;
            }
        } else {
            frame[variables[depth].node.index()] = None;
            if depth == 0 {
                break;
            }
            depth -= 1;
            frame[variables[depth].node.index()] = None;
        }
    }
    results
}

/// Fill `out` with the sorted intersection of every candidate set of
/// `variable` under the partial assignment in `frame`.
fn candidates(
    instance: &Instance,
    pattern: &Pattern,
    variable: &Variable,
    labels: &[(NodeId, NodeId, Label)],
    frame: &[Option<NodeId>],
    out: &mut Vec<NodeId>,
) {
    out.clear();
    let data = pattern.graph().node(variable.node).expect("live");
    let PatternNodeKind::Class(label) = &data.kind else {
        return;
    };

    // Survives every decidable constraint except the base enumeration?
    let passes = |candidate: NodeId, skip: Option<usize>| -> bool {
        if !node_compatible(instance, data, candidate) {
            return false;
        }
        for &(slot, edge_index, direction) in &variable.earlier {
            if Some(edge_index) == skip {
                continue;
            }
            let bound = frame[slot].expect("earlier variable is bound");
            let elabel = &labels[edge_index].2;
            let present = match direction {
                Direction::Out => instance.has_edge(candidate, elabel, bound),
                Direction::In => instance.has_edge(bound, elabel, candidate),
            };
            if !present {
                return false;
            }
        }
        for &edge_index in &variable.self_loops {
            let elabel = &labels[edge_index].2;
            if !instance.has_edge(candidate, elabel, candidate) {
                return false;
            }
        }
        // Support sets of edges to later variables: a complete
        // over-approximation, so pruning here is sound and keeps dead
        // branches from ever being entered.
        for &(edge_index, direction) in &variable.later {
            let elabel = &labels[edge_index].2;
            let supported = match direction {
                Direction::Out => instance
                    .out_support(label, elabel)
                    .is_some_and(|set| set.contains(&candidate)),
                Direction::In => instance
                    .in_support(label, elabel)
                    .is_some_and(|set| set.contains(&candidate)),
            };
            if !supported {
                return false;
            }
        }
        true
    };

    // Pinned values (print, `=`, `IN`): the printable-index probes are
    // the whole base set.
    if let Some(pinned) = pinned_candidates(instance, data) {
        out.extend(pinned.into_iter().filter(|&c| passes(c, None)));
        return;
    }

    // Base set: the smallest bound-neighbour posting list (generic
    // join iterates the smallest relation and probes the others).
    let mut best: Option<(usize, usize)> = None; // (size, earlier index)
    for (position, &(slot, edge_index, direction)) in variable.earlier.iter().enumerate() {
        let bound = frame[slot].expect("earlier variable is bound");
        let elabel = &labels[edge_index].2;
        let size = match direction {
            Direction::Out => {
                let degree = instance.in_degree(bound);
                if degree <= SCAN_LIMIT {
                    degree
                } else {
                    instance
                        .indexed_sources(label, elabel, bound)
                        .map_or(0, PSet::len)
                }
            }
            Direction::In => {
                let degree = instance.out_degree(bound);
                if degree <= SCAN_LIMIT {
                    degree
                } else {
                    instance
                        .indexed_targets(label, elabel, bound)
                        .map_or(0, PSet::len)
                }
            }
        };
        if best.is_none_or(|(len, _)| size < len) {
            best = Some((size, position));
        }
    }
    if let Some((_, position)) = best {
        let (slot, edge_index, direction) = variable.earlier[position];
        let bound = frame[slot].expect("earlier variable is bound");
        let elabel = &labels[edge_index].2;
        match direction {
            Direction::Out => {
                if instance.in_degree(bound) <= SCAN_LIMIT {
                    out.extend(instance.sources(bound, elabel));
                } else if let Some(set) = instance.indexed_sources(label, elabel, bound) {
                    out.extend(set.iter().copied());
                }
            }
            Direction::In => {
                if instance.out_degree(bound) <= SCAN_LIMIT {
                    out.extend(instance.targets(bound, elabel));
                } else if let Some(set) = instance.indexed_targets(label, elabel, bound) {
                    out.extend(set.iter().copied());
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&c| passes(c, Some(edge_index)));
        return;
    }

    // No bound neighbour (the root of the order, or a fresh
    // component): intersect the support sets of the incident edge
    // labels, smallest first; fall back to the label extent.
    let mut supports: Vec<&PSet<NodeId>> = Vec::new();
    for &(edge_index, direction) in &variable.later {
        let elabel = &labels[edge_index].2;
        let set = match direction {
            Direction::Out => instance.out_support(label, elabel),
            Direction::In => instance.in_support(label, elabel),
        };
        match set {
            Some(set) => supports.push(set),
            None => return,
        }
    }
    // `passes` re-checks membership in every support, so iterating the
    // smallest one is a true multi-way intersection.
    if let Some(first) = supports.iter().min_by_key(|set| set.len()) {
        out.extend(first.iter().copied().filter(|&c| passes(c, None)));
    } else {
        out.extend(
            instance
                .nodes_with_label(label)
                .filter(|&c| passes(c, None)),
        );
    }
}

/// Find all matchings of `pattern` with the generic-join engine,
/// regardless of what strategy the planner would pick. Results are
/// bit-identical to [`crate::matching::find_matchings`].
pub fn find_matchings_wcoj(pattern: &Pattern, instance: &Instance) -> Result<Vec<Matching>> {
    if pattern.has_method_head() {
        return Err(GoodError::InvalidPattern(
            "patterns with method-head nodes must be rewritten before matching".into(),
        ));
    }
    pattern.validate(instance.scheme())?;
    let positive = pattern.positive_part();
    let choice = crate::planner::plan(&positive, instance);
    let mut results = enumerate_generic(&positive, instance, &choice.order, None);
    results.sort();
    results.dedup();
    if pattern.has_negation() {
        results.retain(|m| !extends_to_full(pattern, instance, m));
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::{find_matchings, find_matchings_naive};
    use crate::scheme::{Scheme, SchemeBuilder};
    use crate::value::ValueType;

    fn scheme() -> Scheme {
        SchemeBuilder::new()
            .object("Info")
            .printable("String", ValueType::Str)
            .functional("Info", "name", "String")
            .multivalued("Info", "links-to", "Info")
            .build()
    }

    fn cyclic_instance() -> Instance {
        let mut db = Instance::new(scheme());
        let nodes: Vec<_> = (0..8).map(|_| db.add_object("Info").unwrap()).collect();
        // A 4-cycle, a triangle sharing a node with it, a self-loop,
        // and a pendant.
        for k in 0..4 {
            db.add_edge(nodes[k], "links-to", nodes[(k + 1) % 4])
                .unwrap();
        }
        db.add_edge(nodes[3], "links-to", nodes[4]).unwrap();
        db.add_edge(nodes[4], "links-to", nodes[5]).unwrap();
        db.add_edge(nodes[5], "links-to", nodes[3]).unwrap();
        db.add_edge(nodes[6], "links-to", nodes[6]).unwrap();
        db.add_edge(nodes[6], "links-to", nodes[7]).unwrap();
        let name = db.add_printable("String", "hub").unwrap();
        db.add_edge(nodes[3], "name", name).unwrap();
        db
    }

    fn assert_engines_agree(pattern: &Pattern, db: &Instance) {
        let planned = find_matchings(pattern, db).unwrap();
        let naive = find_matchings_naive(pattern, db).unwrap();
        let wcoj = find_matchings_wcoj(pattern, db).unwrap();
        assert_eq!(planned, naive);
        assert_eq!(planned, wcoj);
    }

    #[test]
    fn triangle_matches_agree_with_all_engines() {
        let db = cyclic_instance();
        let mut p = Pattern::new();
        let a = p.node("Info");
        let b = p.node("Info");
        let c = p.node("Info");
        p.edge(a, "links-to", b);
        p.edge(b, "links-to", c);
        p.edge(c, "links-to", a);
        assert_engines_agree(&p, &db);
        // Three rotations of the {3,4,5} triangle, plus the self-loop
        // node matching all three variables at once (homomorphisms are
        // not injective).
        assert_eq!(find_matchings(&p, &db).unwrap().len(), 4);
    }

    #[test]
    fn four_cycle_and_chains_agree() {
        let db = cyclic_instance();
        let mut square = Pattern::new();
        let n: Vec<_> = (0..4).map(|_| square.node("Info")).collect();
        for k in 0..4 {
            square.edge(n[k], "links-to", n[(k + 1) % 4]);
        }
        assert_engines_agree(&square, &db);

        let mut chain = Pattern::new();
        let a = chain.node("Info");
        let b = chain.node("Info");
        let c = chain.node("Info");
        chain.edge(a, "links-to", b);
        chain.edge(b, "links-to", c);
        assert_engines_agree(&chain, &db);
    }

    #[test]
    fn self_loops_and_printables_agree() {
        let db = cyclic_instance();
        let mut p = Pattern::new();
        let x = p.node("Info");
        p.edge(x, "links-to", x);
        assert_engines_agree(&p, &db);

        let mut anchored = Pattern::new();
        let info = anchored.node("Info");
        let name = anchored.printable("String", "hub");
        let other = anchored.node("Info");
        anchored.edge(info, "name", name);
        anchored.edge(info, "links-to", other);
        assert_engines_agree(&anchored, &db);
    }

    #[test]
    fn negation_and_empty_pattern_agree() {
        let db = cyclic_instance();
        let mut p = Pattern::new();
        let info = p.node("Info");
        let other = p.negated_node("Info");
        p.edge(info, "links-to", other);
        assert_engines_agree(&p, &db);
        assert_engines_agree(&Pattern::new(), &db);
    }

    #[test]
    fn disconnected_pattern_cross_product_agrees() {
        let db = cyclic_instance();
        let mut p = Pattern::new();
        let a = p.node("Info");
        let b = p.node("Info");
        let c = p.node("Info");
        p.edge(a, "links-to", b);
        let _ = c; // isolated third node
        assert_engines_agree(&p, &db);
    }

    #[test]
    fn per_depth_actuals_are_recorded() {
        let db = cyclic_instance();
        let mut p = Pattern::new();
        let a = p.node("Info");
        let b = p.node("Info");
        p.edge(a, "links-to", b);
        let positive = p.positive_part();
        let choice = crate::planner::plan(&positive, &db);
        let mut actuals = vec![0u64; choice.order.len()];
        let results = enumerate_generic(&positive, &db, &choice.order, Some(&mut actuals));
        assert_eq!(actuals[choice.order.len() - 1], results.len() as u64);
        assert!(actuals[0] >= 1);
    }
}
