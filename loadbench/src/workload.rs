//! Seeded inputs: the instance each workload serves, the write and
//! read request streams, and an oracle that answers every read by
//! walking the instance's adjacency directly.
//!
//! Everything here is a pure function of the workload seed, so the
//! same seed gives a byte-identical request stream.

use good_core::gen::{random_instance, GenConfig};
use good_core::instance::Instance;
use good_core::label::Label;
use good_core::ops::{EdgeAddition, EdgeDeletion, NodeAddition, NodeDeletion, OpReport};
use good_core::pattern::Pattern;
use good_core::program::{Operation, Program};
use good_core::value::Value;
use good_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Infos in the store that `commit`, `query` and `mixed` serve.
pub const LARGE_INFOS: usize = 10_000;
/// Distinct creation dates in the large store: a `scan` returns about
/// `LARGE_INFOS / LARGE_DATES` rows.
pub const LARGE_DATES: usize = 16;
/// Infos in the `paths` store: small enough that every starred query
/// finishes in tens of milliseconds and a run gets at least 1000 reads.
pub const SMALL_INFOS: usize = 36;
/// Distinct creation dates in the small store.
pub const SMALL_DATES: usize = 4;
/// The generator seed of every workload's instance. The instance is the
/// benchmark's fixed data set; `--seed` varies the requests sent to it,
/// so runs with different seeds measure the same data.
pub const INSTANCE_SEED: u64 = 1990;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop pipelined point writes.
    Commit,
    /// Closed-loop GOODQL point, two-hop and scan reads.
    Query,
    /// Open-loop reads beside writes at fixed rates.
    Mixed,
    /// Closed-loop GOODQL property-path reads on a small store.
    Paths,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Commit,
        Workload::Query,
        Workload::Mixed,
        Workload::Paths,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Commit => "commit",
            Workload::Query => "query",
            Workload::Mixed => "mixed",
            Workload::Paths => "paths",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generator config of the instance this workload serves.
    pub fn instance_config(self) -> GenConfig {
        let (infos, distinct_dates) = match self {
            Workload::Paths => (SMALL_INFOS, SMALL_DATES),
            _ => (LARGE_INFOS, LARGE_DATES),
        };
        GenConfig {
            infos,
            avg_links: 2.0,
            distinct_dates,
            seed: INSTANCE_SEED,
        }
    }

    /// The read classes this workload draws from, with their weights
    /// in percent.
    pub fn read_mix(self) -> &'static [(ReadClass, u32)] {
        match self {
            Workload::Commit => &[],
            Workload::Query | Workload::Mixed => &[
                (ReadClass::Point, 50),
                (ReadClass::Hop2, 30),
                (ReadClass::Scan, 20),
            ],
            Workload::Paths => &[(ReadClass::Reach, 40), (ReadClass::Bounded, 60)],
        }
    }

    /// True if the workload sends writes.
    pub fn writes(self) -> bool {
        matches!(self, Workload::Commit | Workload::Mixed)
    }
}

/// The instance a workload serves.
pub fn instance(workload: Workload) -> Instance {
    random_instance(&workload.instance_config())
}

/// One seeded RNG per (seed, stream) pair, so that adding a stream
/// never shifts another.
fn stream_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(1),
    )
}

// ---- reads ---------------------------------------------------------------

/// A read query class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReadClass {
    /// One Info by name.
    Point,
    /// The names an Info links to.
    Hop2,
    /// Every Info created on one date.
    Scan,
    /// Every Info reachable over `links-to*` from a named Info.
    Reach,
    /// Every Info reachable over one to three `links-to` steps.
    Bounded,
}

impl ReadClass {
    /// Every class.
    pub const ALL: [ReadClass; 5] = [
        ReadClass::Point,
        ReadClass::Hop2,
        ReadClass::Scan,
        ReadClass::Reach,
        ReadClass::Bounded,
    ];

    /// The metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            ReadClass::Point => "point",
            ReadClass::Hop2 => "hop2",
            ReadClass::Scan => "scan",
            ReadClass::Reach => "reach",
            ReadClass::Bounded => "bounded",
        }
    }
}

/// One generated read: its class, its parameter and its GOODQL text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadReq {
    /// The query class.
    pub class: ReadClass,
    /// The Info index named by the anchor, or for `scan` the day of
    /// January 1990 minus one (the generator draws creation dates from
    /// the first `distinct_dates` days of 1990).
    pub param: usize,
    /// The query text sent in the `Query` frame.
    pub text: String,
}

impl ReadReq {
    fn new(class: ReadClass, param: usize) -> ReadReq {
        let text = match class {
            ReadClass::Point => {
                format!("MATCH (a:Info)-[:name]->(n:String) WHERE n = \"info-{param}\" RETURN a")
            }
            ReadClass::Hop2 => format!(
                "MATCH (a:Info)-[:name]->(n:String), (a)-[:links-to]->(b:Info), \
                 (b)-[:name]->(m:String) WHERE n = \"info-{param}\" RETURN m"
            ),
            ReadClass::Scan => format!(
                "MATCH (a:Info)-[:created]->(d:Date) WHERE d = date(1990-01-{:02}) RETURN a",
                1 + param
            ),
            ReadClass::Reach => format!(
                "MATCH (a:Info)-[:name]->(n:String), (a)-[:links-to*]->(b:Info) \
                 WHERE n = \"info-{param}\" RETURN DISTINCT b"
            ),
            ReadClass::Bounded => format!(
                "MATCH (a:Info)-[:name]->(n:String), (a)-[:links-to*1..3]->(b:Info) \
                 WHERE n = \"info-{param}\" RETURN DISTINCT b"
            ),
        };
        ReadReq { class, param, text }
    }

    /// The RETURN columns every answer must carry.
    pub fn columns(&self) -> Vec<String> {
        let column = match self.class {
            ReadClass::Hop2 => "m",
            ReadClass::Point | ReadClass::Scan => "a",
            ReadClass::Reach | ReadClass::Bounded => "b",
        };
        vec![column.to_string()]
    }
}

/// An endless seeded stream of reads for one connection.
pub struct ReadGen {
    rng: StdRng,
    mix: &'static [(ReadClass, u32)],
    infos: usize,
    dates: usize,
}

impl ReadGen {
    /// The read stream of connection `lane` of `workload`.
    pub fn new(workload: Workload, seed: u64, lane: u64) -> ReadGen {
        let config = workload.instance_config();
        ReadGen {
            rng: stream_rng(seed, 100 + lane),
            mix: workload.read_mix(),
            infos: config.infos,
            dates: config.distinct_dates,
        }
    }

    /// The next read.
    pub fn next_req(&mut self) -> ReadReq {
        let mut pick = self.rng.gen_range(0u32..100);
        let mut class = self.mix[0].0;
        for &(candidate, weight) in self.mix {
            if pick < weight {
                class = candidate;
                break;
            }
            pick -= weight;
        }
        let param = match class {
            ReadClass::Scan => self.rng.gen_range(0..self.dates),
            _ => self.rng.gen_range(0..self.infos),
        };
        ReadReq::new(class, param)
    }
}

// ---- the reference oracle --------------------------------------------------

/// The answer to `req` on `db`, computed by walking the adjacency
/// lists directly: no parser, compiler, planner or matcher. Rows are
/// canonical as GOODQL renders them (sorted; `DISTINCT` deduplicated).
pub fn expected_rows(db: &Instance, req: &ReadReq) -> Vec<Vec<String>> {
    let name = Label::new("name");
    let links = Label::new("links-to");
    let info = Label::new("Info");
    let is_info = |node: NodeId| db.node_label(node) == Some(&info);
    let anchors = || -> Vec<NodeId> {
        db.find_printable(
            &Label::new("String"),
            &Value::str(format!("info-{}", req.param)),
        )
        .map(|printable| {
            db.sources(printable, &name)
                .filter(|&a| is_info(a))
                .collect()
        })
        .unwrap_or_default()
    };
    let object = |node: NodeId| vec![format!("Info#{}", node.index())];
    let mut rows: Vec<Vec<String>> = match req.class {
        ReadClass::Point => anchors().into_iter().map(object).collect(),
        ReadClass::Hop2 => {
            let mut rows = Vec::new();
            for a in anchors() {
                for b in db.targets(a, &links).filter(|&b| is_info(b)) {
                    for m in db.targets(b, &name) {
                        if let Some(value) = db.print_value(m) {
                            rows.push(vec![good_query::ast::render_value(value)]);
                        }
                    }
                }
            }
            rows
        }
        ReadClass::Scan => {
            let date = Value::date(1990, 1, 1 + req.param as u8);
            db.find_printable(&Label::new("Date"), &date)
                .map(|d| {
                    db.sources(d, &Label::new("created"))
                        .filter(|&a| is_info(a))
                        .map(object)
                        .collect()
                })
                .unwrap_or_default()
        }
        ReadClass::Reach | ReadClass::Bounded => {
            let max_depth = if req.class == ReadClass::Bounded {
                3
            } else {
                usize::MAX
            };
            let mut reached = BTreeSet::new();
            for a in anchors() {
                let mut seen = HashSet::new();
                let mut frontier = vec![a];
                let mut depth = 0;
                while !frontier.is_empty() && depth < max_depth {
                    depth += 1;
                    let mut next = Vec::new();
                    for node in frontier {
                        for b in db.targets(node, &links).filter(|&b| is_info(b)) {
                            if seen.insert(b) {
                                next.push(b);
                            }
                        }
                    }
                    frontier = next;
                }
                reached.extend(seen);
            }
            reached.into_iter().map(object).collect()
        }
    };
    rows.sort();
    if matches!(req.class, ReadClass::Reach | ReadClass::Bounded) {
        rows.dedup();
    }
    rows
}

// ---- writes ----------------------------------------------------------------

/// A write class of the balanced point-write mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WriteClass {
    /// NA: tag a named Info.
    Tag,
    /// EA: link two named Infos.
    Link,
    /// ED: unlink an existing link.
    Unlink,
    /// ND: delete a node the run created (a tag or a new Info).
    Delete,
    /// NA: a new Info derived from a named Info.
    NewInfo,
}

impl WriteClass {
    /// The metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            WriteClass::Tag => "tag",
            WriteClass::Link => "link",
            WriteClass::Unlink => "unlink",
            WriteClass::Delete => "delete",
            WriteClass::NewInfo => "new_info",
        }
    }
}

/// One generated write and the report it must produce.
#[derive(Debug, Clone)]
pub struct WriteReq {
    /// The write class.
    pub class: WriteClass,
    /// The program sent in the `Submit` frame.
    pub program: Program,
    /// What applying it must report.
    pub expect: Expect,
}

/// The effect a write must report: every write matches exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Nodes created.
    pub created: usize,
    /// Edges added.
    pub edges_added: usize,
    /// Nodes deleted.
    pub nodes_deleted: usize,
    /// Edges deleted.
    pub edges_deleted: usize,
}

impl Expect {
    /// True if `report` is this effect with exactly one matching.
    pub fn matches(&self, report: &OpReport) -> bool {
        report.matchings == 1
            && report.created_nodes.len() == self.created
            && report.edges_added == self.edges_added
            && report.nodes_deleted == self.nodes_deleted
            && report.edges_deleted == self.edges_deleted
    }
}

/// A node the run created, so `Delete` can remove it again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Created {
    Tag(usize),
    Info(usize),
}

/// An endless seeded stream of point writes for one connection.
///
/// Connection `lane` of `lanes` only writes at Infos whose index is
/// `lane` modulo `lanes`, and only removes links leaving such Infos,
/// so the streams of different connections commute: the committed
/// state after every write is acknowledged does not depend on how the
/// server interleaved the connections. The generator keeps its own
/// model of the links and created nodes, so every write matches
/// exactly once and its effect is known in advance.
pub struct WriteGen {
    rng: StdRng,
    lane: usize,
    lanes: usize,
    infos: usize,
    /// Links leaving this lane's Infos, for uniform picks.
    links: Vec<(usize, usize)>,
    link_slot: HashMap<(usize, usize), usize>,
    /// Nodes this stream created and has not deleted yet.
    created: Vec<Created>,
    created_slot: HashMap<Created, usize>,
    /// How many of `created` are tags and how many are Infos.
    tags: usize,
    derived: usize,
}

impl WriteGen {
    /// The write stream of connection `lane` of `lanes` over `db`, the
    /// instance the workload starts from.
    pub fn new(db: &Instance, seed: u64, lane: usize, lanes: usize) -> WriteGen {
        let index = info_indices(db);
        let links_to = Label::new("links-to");
        let mut gen = WriteGen {
            rng: stream_rng(seed, 200 + lane as u64),
            lane,
            lanes,
            infos: index.len(),
            links: Vec::new(),
            link_slot: HashMap::new(),
            created: Vec::new(),
            created_slot: HashMap::new(),
            tags: 0,
            derived: 0,
        };
        let mut owned: Vec<(usize, usize)> = Vec::new();
        for (&node, &src) in &index {
            if src % lanes != lane {
                continue;
            }
            for dst in db.targets(node, &links_to) {
                if let Some(&dst) = index.get(&dst) {
                    owned.push((src, dst));
                }
            }
        }
        owned.sort_unstable();
        for link in owned {
            gen.add_link(link);
        }
        gen
    }

    fn add_link(&mut self, link: (usize, usize)) {
        self.link_slot.insert(link, self.links.len());
        self.links.push(link);
    }

    fn remove_link(&mut self, slot: usize) -> (usize, usize) {
        let link = self.links.swap_remove(slot);
        self.link_slot.remove(&link);
        if let Some(&moved) = self.links.get(slot) {
            self.link_slot.insert(moved, slot);
        }
        link
    }

    fn add_created(&mut self, node: Created) {
        self.created_slot.insert(node, self.created.len());
        self.created.push(node);
        *self.created_count(node) += 1;
    }

    fn remove_created(&mut self, slot: usize) -> Created {
        let node = self.created.swap_remove(slot);
        self.created_slot.remove(&node);
        if let Some(&moved) = self.created.get(slot) {
            self.created_slot.insert(moved, slot);
        }
        *self.created_count(node) -= 1;
        node
    }

    fn created_count(&mut self, node: Created) -> &mut usize {
        match node {
            Created::Tag(_) => &mut self.tags,
            Created::Info(_) => &mut self.derived,
        }
    }

    /// How many Infos this lane owns.
    fn owned(&self) -> usize {
        (self.infos - self.lane).div_ceil(self.lanes)
    }

    /// A uniformly drawn Info index owned by this lane.
    fn own_info(&mut self) -> usize {
        let owned = self.owned();
        self.rng.gen_range(0..owned) * self.lanes + self.lane
    }

    /// The next write. The mix is 20% tag, 20% link, 20% unlink, 30%
    /// delete and 10% new Info, so node and link additions balance
    /// their deletions and the working set does not drift. On a small
    /// instance an addition can run out of free places (every owned
    /// Info tagged, or linked to every other Info); it then turns into
    /// another write, so the stream never stalls.
    pub fn next_req(&mut self) -> WriteReq {
        let roll = self.rng.gen_range(0u32..100);
        let class = match roll {
            0..=19 => WriteClass::Tag,
            20..=39 => WriteClass::Link,
            40..=59 => WriteClass::Unlink,
            60..=89 => WriteClass::Delete,
            _ => WriteClass::NewInfo,
        };
        let owned = self.owned();
        match class {
            WriteClass::Unlink if !self.links.is_empty() => self.unlink(),
            WriteClass::Delete if !self.created.is_empty() => self.delete(),
            WriteClass::Link if self.links.len() < owned * (self.infos - 1) => self.link(),
            WriteClass::NewInfo if self.derived < owned => self.add_node(true),
            _ if self.tags < owned => self.add_node(false),
            _ => self.delete(),
        }
    }

    /// NA: a tag (or, with `info`, a derived Info) at an owned Info
    /// that has none yet.
    fn add_node(&mut self, info: bool) -> WriteReq {
        let (node, k) = loop {
            let k = self.own_info();
            let node = if info {
                Created::Info(k)
            } else {
                Created::Tag(k)
            };
            if !self.created_slot.contains_key(&node) {
                break (node, k);
            }
        };
        self.add_created(node);
        let mut pattern = Pattern::new();
        let anchor = named_info(&mut pattern, k);
        let (class, label, edge) = if info {
            (WriteClass::NewInfo, "Info", "derived-from")
        } else {
            (WriteClass::Tag, "Tag", "of")
        };
        let op = NodeAddition::new(pattern, label, [(Label::new(edge), anchor)]);
        WriteReq {
            class,
            program: Program::from_ops([Operation::NodeAdd(op)]),
            expect: Expect {
                created: 1,
                edges_added: 1,
                nodes_deleted: 0,
                edges_deleted: 0,
            },
        }
    }

    /// ND: remove a node this stream created.
    fn delete(&mut self) -> WriteReq {
        let slot = self.rng.gen_range(0..self.created.len());
        let node = self.remove_created(slot);
        let mut pattern = Pattern::new();
        let target = match node {
            Created::Tag(k) => {
                let anchor = named_info(&mut pattern, k);
                let tag = pattern.node("Tag");
                pattern.edge(tag, "of", anchor);
                tag
            }
            Created::Info(k) => {
                let anchor = named_info(&mut pattern, k);
                let derived = pattern.node("Info");
                pattern.edge(derived, "derived-from", anchor);
                derived
            }
        };
        WriteReq {
            class: WriteClass::Delete,
            program: Program::from_ops([Operation::NodeDel(NodeDeletion::new(pattern, target))]),
            expect: Expect {
                created: 0,
                edges_added: 0,
                nodes_deleted: 1,
                edges_deleted: 0,
            },
        }
    }

    /// EA: link an owned Info to another Info it does not link to yet.
    fn link(&mut self) -> WriteReq {
        let link = loop {
            let src = self.own_info();
            let dst = self.rng.gen_range(0..self.infos);
            if src != dst && !self.link_slot.contains_key(&(src, dst)) {
                break (src, dst);
            }
        };
        self.add_link(link);
        let mut pattern = Pattern::new();
        let a = named_info(&mut pattern, link.0);
        let b = named_info(&mut pattern, link.1);
        let op = EdgeAddition::multivalued(pattern, a, "links-to", b);
        WriteReq {
            class: WriteClass::Link,
            program: Program::from_ops([Operation::EdgeAdd(op)]),
            expect: Expect {
                created: 0,
                edges_added: 1,
                nodes_deleted: 0,
                edges_deleted: 0,
            },
        }
    }

    /// ED: remove an existing link leaving an owned Info.
    fn unlink(&mut self) -> WriteReq {
        let slot = self.rng.gen_range(0..self.links.len());
        let (src, dst) = self.remove_link(slot);
        let mut pattern = Pattern::new();
        let a = named_info(&mut pattern, src);
        let b = named_info(&mut pattern, dst);
        pattern.edge(a, "links-to", b);
        let op = EdgeDeletion::single(pattern, a, "links-to", b);
        WriteReq {
            class: WriteClass::Unlink,
            program: Program::from_ops([Operation::EdgeDel(op)]),
            expect: Expect {
                created: 0,
                edges_added: 0,
                nodes_deleted: 0,
                edges_deleted: 1,
            },
        }
    }
}

/// Add `(i:Info)-[:name]->("info-k")` to `pattern` and return `i`: the
/// printable anchor every point write starts from.
fn named_info(pattern: &mut Pattern, k: usize) -> NodeId {
    let info = pattern.node("Info");
    let name = pattern.printable("String", Value::str(format!("info-{k}")));
    pattern.edge(info, "name", name);
    info
}

/// Map every named Info node to the `k` of its `info-k` name.
fn info_indices(db: &Instance) -> HashMap<NodeId, usize> {
    let name = Label::new("name");
    db.nodes_with_label(&Label::new("Info"))
        .filter_map(|node| {
            let printable = db.functional_target(node, &name)?;
            match db.print_value(printable)? {
                Value::Str(text) => Some((node, text.strip_prefix("info-")?.parse().ok()?)),
                _ => None,
            }
        })
        .collect()
}

/// The first `count` frames of every connection's request stream for
/// `workload`, as the bytes sent on the wire: the input the program
/// receives, and nothing else.
#[cfg(test)]
fn request_stream(workload: Workload, seed: u64, count: usize) -> Vec<Vec<u8>> {
    use good_server::proto::{encode, encode_submit, Frame};
    let mut frames = Vec::new();
    if workload.writes() {
        let db = instance(workload);
        let lanes = write_lanes(workload);
        for lane in 0..lanes {
            let mut gen = WriteGen::new(&db, seed, lane, lanes);
            for request in 1..=count as u64 {
                frames.push(encode_submit(request, &gen.next_req().program, None));
            }
        }
    }
    for lane in 0..read_lanes(workload) {
        let mut gen = ReadGen::new(workload, seed, lane as u64);
        for request in 1..=count as u64 {
            frames.push(encode(&Frame::Query {
                request,
                at: None,
                pattern: gen.next_req().text,
                trace: None,
            }));
        }
    }
    frames
}

/// Connections that send writes.
pub fn write_lanes(workload: Workload) -> usize {
    match workload {
        Workload::Commit => 1,
        Workload::Mixed => 1,
        Workload::Query | Workload::Paths => 0,
    }
}

/// Connections that send reads.
pub fn read_lanes(workload: Workload) -> usize {
    match workload {
        Workload::Commit => 0,
        Workload::Mixed => 1,
        Workload::Query | Workload::Paths => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use good_core::program::Env;

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        for workload in Workload::ALL {
            let a = request_stream(workload, 7, 200);
            let b = request_stream(workload, 7, 200);
            assert_eq!(a, b, "{}", workload.name());
            assert_ne!(a, request_stream(workload, 8, 200), "{}", workload.name());
        }
    }

    #[test]
    fn every_generated_write_matches_once_with_the_predicted_effect() {
        let db = instance(Workload::Mixed);
        for lanes in [1, 2] {
            let mut db = db.clone();
            let mut gens: Vec<WriteGen> = (0..lanes)
                .map(|l| WriteGen::new(&db, 3, l, lanes))
                .collect();
            let mut env = Env::new();
            for step in 0..600 {
                let req = gens[step % lanes].next_req();
                env.refuel();
                let report = req.program.apply(&mut db, &mut env).expect("write applies");
                assert!(req.expect.matches(&report), "{:?}: {report:?}", req.class);
            }
        }
    }

    #[test]
    fn the_write_stream_on_the_small_store_never_stalls() {
        // 36 Infos: the tags saturate within a few thousand writes.
        let mut db = instance(Workload::Paths);
        let mut gen = WriteGen::new(&db, 7, 0, 1);
        let mut env = Env::new();
        let mut saturated = false;
        for _ in 0..3_000 {
            let req = gen.next_req();
            env.refuel();
            let report = req.program.apply(&mut db, &mut env).expect("write applies");
            assert!(req.expect.matches(&report), "{:?}: {report:?}", req.class);
            saturated |= gen.tags == gen.owned();
        }
        assert!(saturated, "the stream never ran out of untagged Infos");
    }

    #[test]
    fn the_oracle_agrees_with_all_three_query_lanes_on_the_small_store() {
        let db = instance(Workload::Paths);
        let mut gen = ReadGen::new(Workload::Paths, 5, 0);
        for _ in 0..12 {
            let req = gen.next_req();
            let agreed = good_query::run_differential(&db, &req.text).expect("lanes agree");
            assert_eq!(agreed.columns, req.columns());
            assert_eq!(agreed.rows, expected_rows(&db, &req), "{}", req.text);
        }
        let db = instance(Workload::Query);
        let mut gen = ReadGen::new(Workload::Query, 5, 0);
        for _ in 0..6 {
            let req = gen.next_req();
            let core = good_query::run(&db, &req.text, good_query::Backend::Core).unwrap();
            assert_eq!(core.columns, req.columns());
            assert_eq!(core.rows, expected_rows(&db, &req), "{}", req.text);
        }
    }
}
