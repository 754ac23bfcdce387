//! Workloads, the dataset, and the seeded op scripts.
//!
//! A script is a pure function of `(workload, seed, op count)`: the same
//! ops in the same order on every run and every commit. Op counts are
//! fixed (not "whatever fits in N seconds") because DOEM grows with every
//! write, and a faster build must not be handed a bigger database.

use crate::rng::{Rng, Zipf};
use oem::{ChangeOp, ChangeSet, NodeId, OemDatabase, Timestamp, Value};
use std::collections::{HashSet, VecDeque};

/// The one database every workload uses (`doem-serve --create bench`).
pub const DB: &str = "bench";

/// Distinct query texts of the hot set — an eighth of the cache's 256.
pub const HOT_TEXTS: usize = 32;
/// Distinct query texts of the cold set — 16x the cache's 256.
pub const COLD_TEXTS: usize = 4096;
/// `AS OF` *near*: this many versions behind the newest ack at most —
/// inside the ring of 64 even with both connections writing.
pub const NEAR_MAX_BACK: u32 = 32;
/// `AS OF` *far*: at least this many versions behind the newest ack —
/// always below the ring's horizon, so always the replay fallback.
pub const FAR_MIN_BACK: u32 = 256;
/// A `remArc` only targets an arc whose `addArc` was issued at least this
/// many ops earlier. At most 16 ops are ever in flight (2 connections x
/// depth 8), so the creating write is acked before the removing one is
/// sent and no op can fail on reordering.
const REMOVE_AFTER_OPS: usize = 64;
/// Ids the measured-phase writes create start here, clear of every id
/// `bench::evolving_history` hands out.
const FRESH_ID_BASE: u64 = 1_000_000;

/// The four workloads. Names are normative (ISSUE 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// 32 zipf-skewed texts, one growth write per 200 reads.
    ReadHot,
    /// 4,096 distinct texts, uniform, no writes.
    ReadCold,
    /// WAL + group commit + checkpoints; 90 % writes, pipelined.
    WriteDurable,
    /// `AS OF` near / far, current reads and writes against a ring of 64.
    TimeTravel,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ReadHot,
        Workload::ReadCold,
        Workload::WriteDurable,
        Workload::TimeTravel,
    ];

    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read_hot",
            Workload::ReadCold => "read_cold",
            Workload::WriteDurable => "write_durable",
            Workload::TimeTravel => "time_travel",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tagged requests each connection keeps in flight (1 = serial,
    /// untagged round trips).
    pub fn pipeline_depth(self) -> usize {
        match self {
            Workload::WriteDurable => 8,
            _ => 1,
        }
    }

    /// Result-cache capacity the server runs with (entries; FIFO).
    ///
    /// `time_travel` runs without the cache. With it on, nine tenths of
    /// that workload's time went to carrying the ~50 cold entries in the
    /// cache across each write (`chorel.delta`) — which `read_hot` and
    /// `write_durable` already price — instead of to the version store it
    /// exists to measure; and the cache's equilibrium size there is one
    /// over the share of entries each write drops, so a 0.3-point change
    /// in that share between seeds moved throughput by a fifth.
    pub fn cache_capacity(self) -> usize {
        match self {
            Workload::TimeTravel => 0,
            _ => 256,
        }
    }

    /// Whether the server runs with a WAL directory.
    pub fn durable(self) -> bool {
        self == Workload::WriteDurable
    }

    /// Ops the measured phase issues per second of `--seconds`, calibrated
    /// on the reference box (2 cores) so a run measures for about that
    /// long. The count — not the duration — is what is held fixed.
    pub fn ops_per_second(self) -> usize {
        match self {
            Workload::ReadHot => 7_700,
            Workload::ReadCold => 5_300,
            Workload::WriteDurable => 345,
            Workload::TimeTravel => 1_900,
        }
    }
}

/// One scripted request.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// `QUERY bench <texts[text]>` against the current version.
    Read {
        /// Index into [`Script::texts`].
        text: u32,
    },
    /// `QUERY bench AS OF <lsn> <texts[text]>` where `<lsn>` is the
    /// `back`-th version behind the newest acknowledged write.
    AsOf {
        /// Index into [`Script::texts`].
        text: u32,
        /// Versions behind the newest ack.
        back: u32,
    },
    /// `UPDATE bench AT now ; <changes>`.
    Write {
        /// The change set in the paper's notation, braces included.
        changes: String,
    },
}

/// Which latency series an op belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Current-version `QUERY`.
    Read,
    /// `UPDATE` acknowledgement.
    Write,
    /// `AS OF` inside the ring.
    AsOfNear,
    /// `AS OF` below the ring's horizon (replay fallback).
    AsOfFar,
}

impl Op {
    /// The latency series this op reports into.
    pub fn class(&self) -> Class {
        match self {
            Op::Read { .. } => Class::Read,
            Op::Write { .. } => Class::Write,
            Op::AsOf { back, .. } if *back <= NEAR_MAX_BACK => Class::AsOfNear,
            Op::AsOf { .. } => Class::AsOfFar,
        }
    }
}

/// The dataset every workload starts from: `bench::evolving_history`
/// rendered as wire-loadable change sets with explicit hourly timestamps.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// The base image (one change set creating every node and arc of the
    /// synthetic guide) followed by every history step, oldest first.
    pub load: Vec<(Timestamp, ChangeSet)>,
    /// Restaurants still reachable after the whole load. The measured
    /// phase never unlinks one, so ops that name them cannot fail.
    pub restaurants: Vec<NodeId>,
    /// Their atomic children (names, prices, comments, …) with the value
    /// each holds after the load: the `updNode` targets.
    pub atoms: Vec<(NodeId, Value)>,
    /// First and last history timestamps (for time-bounded templates).
    pub span: (Timestamp, Timestamp),
}

/// The dataset is one fixed fixture: `--seed` drives the *traffic*
/// (constants in the texts, op order, write targets), not the database.
/// `bench::evolving_history` grows and closes restaurants at random, so
/// its size — and with it the cost of every query — differs by several
/// percent from seed to seed, which alone would swamp the bounds.
pub const DATASET_SEED: u64 = 1998;
/// Synthetic-guide size: restaurants.
pub const RESTAURANTS: usize = 60;
/// History steps requested (steps whose edit is a no-op are skipped, so
/// fewer LSNs come back; [`Dataset::generate`] asserts more than 512 do).
pub const STEPS: usize = 720;
/// Random edits per history step.
pub const CHURN: usize = 1;

impl Dataset {
    /// Generate the fixture.
    pub fn generate() -> Dataset {
        let (initial, history) = bench::evolving_history(DATASET_SEED, RESTAURANTS, STEPS, CHURN);
        let root = initial.root();
        assert_eq!(
            root,
            OemDatabase::new(DB).root(),
            "CREATE's root id must match the synthetic guide's"
        );
        let mut base: Vec<ChangeOp> = Vec::new();
        for n in initial.node_ids().filter(|n| *n != root) {
            base.push(ChangeOp::CreNode(
                n,
                initial.value(n).expect("own id").clone(),
            ));
        }
        base.extend(initial.arcs().map(ChangeOp::AddArc));
        let first = history.entries().first().expect("non-empty history").at;
        let last = history.entries().last().expect("non-empty history").at;
        let mut load = vec![(
            first.plus_minutes(-24 * 60),
            ChangeSet::from_ops(base).expect("a database's own nodes and arcs are distinct"),
        )];
        let mut current = initial;
        for e in history.entries() {
            e.changes
                .apply_to(&mut current)
                .expect("valid by construction");
            load.push((e.at, e.changes.clone()));
        }
        assert!(load.len() > 512, "history only {} LSNs deep", load.len());
        let restaurants: Vec<NodeId> = current
            .children_labeled(root, oem::Label::new("restaurant"))
            .collect();
        let atoms = restaurants
            .iter()
            .flat_map(|r| current.children(*r))
            .filter(|(_, c)| !current.is_complex(*c))
            .map(|(_, c)| (*c, current.value(*c).expect("own id").clone()))
            .collect();
        Dataset {
            load,
            restaurants,
            atoms,
            span: (first, last),
        }
    }

    /// The request lines that load the dataset, in order.
    pub fn load_lines(&self) -> Vec<String> {
        self.load
            .iter()
            .map(|(at, changes)| format!("UPDATE {DB} AT {at} ; {changes}"))
            .collect()
    }
}

/// A workload's op script plus the query texts it indexes into.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Script {
    /// Distinct query texts.
    pub texts: Vec<String>,
    /// Unmeasured ops run once on one connection before the clock starts
    /// (fills the cache on `read_hot`, faults code and allocator in
    /// elsewhere).
    pub warmup: Vec<Op>,
    /// The measured ops, pulled in order through one shared index.
    pub ops: Vec<Op>,
}

impl Script {
    /// Bytes of change-set text the measured ops send.
    pub fn user_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Write { changes } => changes.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// A stable 64-bit digest of the whole script (FNV-1a over its debug
    /// rendering) — what "two generations hash equal" compares, and what
    /// the result JSON records so two runs can prove they ran the same ops.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |s: &str| {
            for b in s.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            h = (h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
        };
        for t in &self.texts {
            eat(t);
        }
        for op in self.warmup.iter().chain(&self.ops) {
            eat(&format!("{op:?}"));
        }
        h
    }
}

/// Render a timestamp for use *inside query text*: bare when it falls on
/// midnight, a quoted string when it carries a time of day.
fn query_time(t: Timestamp) -> String {
    let s = t.to_string();
    if s.contains(' ') {
        format!("\"{s}\"")
    } else {
        s
    }
}

/// A random hourly point inside the loaded history.
fn time_in(rng: &mut Rng, span: (Timestamp, Timestamp)) -> Timestamp {
    let hours = ((span.1.raw_minutes() - span.0.raw_minutes()) / 60).max(1) as u64;
    span.0.plus_minutes(60 * rng.below(hours + 1) as i64)
}

/// The hot set: 32 fixed shapes covering plain Lorel, wildcards and
/// annotated Chorel, so cache maintenance sees both entries it can carry
/// across a growth write (monotone fragment) and entries it must drop
/// (closure `#`, which `lorel::delta` refuses).
fn hot_texts(rng: &mut Rng, data: &Dataset) -> Vec<String> {
    let mut texts = vec![
        format!("select {DB}.restaurant.name"),
        format!("select {DB}.restaurant.price"),
        format!("select {DB}.restaurant.(price|cuisine)"),
        format!("select {DB}.restaurant.address.city"),
        format!("select R.name from {DB}.restaurant R where R.cuisine = \"Thai\""),
        format!("select R.name from {DB}.restaurant R where R.cuisine = \"Indian\""),
        format!("select N from {DB}.restaurant.name N where N like \"New place%\""),
        format!("select {DB}.restaurant.review"),
        format!("select {DB}.restaurant.comment"),
        format!("select R, T from {DB}.<add at T>restaurant R"),
        format!("select T, NV from {DB}.restaurant.price<upd at T to NV>"),
        format!("select OV from {DB}.#.price<upd from OV>"),
        format!("select X.price from {DB}.% X where X.name like \"Restaurant 1%\""),
        format!("select {DB}.restaurant.<add at T>review"),
        format!("select R from {DB}.restaurant R where R.<rem at T>comment"),
        format!("select {DB}.#.city"),
    ];
    while texts.len() < HOT_TEXTS {
        let k = rng.range(5, 60);
        let t = query_time(time_in(rng, data.span));
        let text = match texts.len() % 4 {
            0 => format!("select R.name from {DB}.restaurant R where R.price < {k}"),
            1 => format!("select {DB}.restaurant.name<cre at T> where T < {t}"),
            2 => format!(
                "select R.name from {DB}.restaurant R where R.<add at T>review and T >= {t}"
            ),
            _ => format!("select T, NV from {DB}.restaurant.price<upd at T to NV> where NV > {k}"),
        };
        if !texts.contains(&text) {
            texts.push(text);
        }
    }
    texts
}

/// The cold set: 4,096 distinct texts from templates x seeded constants
/// — 40 % plain paths, 20 % `#`/`%` wildcards, 30 % time-bounded Chorel
/// annotations, 10 % two-variable joins.
fn cold_texts(rng: &mut Rng, data: &Dataset, count: usize) -> Vec<String> {
    let mut seen: HashSet<String> = HashSet::new();
    let mut texts = Vec::with_capacity(count);
    while texts.len() < count {
        let a = rng.range(0, 70);
        let b = rng.range(a, 90);
        let k = rng.below(4 * RESTAURANTS as u64);
        let d = rng.below(1000);
        let t1 = time_in(rng, data.span);
        let t2 = t1.plus_minutes(60 * rng.range(1, 200) as i64);
        let (t1, t2) = (query_time(t1), query_time(t2));
        let variant = rng.below(3);
        let text = match rng.below(10) {
            0..=3 => match variant {
                0 => format!("select R.name from {DB}.restaurant R where R.price >= {a} and R.price < {b}"),
                1 => format!("select R.price from {DB}.restaurant R where R.name = \"Restaurant {k}\" or R.price = {a}"),
                _ => format!("select N from {DB}.restaurant.name N where N like \"%{d}%\" or N like \"%{k}\""),
            },
            4..=5 => match variant {
                0 => format!("select X.price from {DB}.% X where X.price > {a} and X.name like \"%{k}%\""),
                1 => format!("select X from {DB}.#.price X where X >= {a} and X < {b}"),
                _ => format!("select {DB}.#.price<upd at T> where T >= {t1} and T < {t2}"),
            },
            6..=8 => match variant {
                0 => format!("select R, T from {DB}.<add at T>restaurant R where T >= {t1} and T < {t2}"),
                1 => format!("select T, OV, NV from {DB}.restaurant.price<upd at T from OV to NV> where T >= {t1} and NV > {a}"),
                _ => format!("select N, T from {DB}.restaurant R, R.name<cre at T> N where T >= {t1} and T < {t2}"),
            },
            _ => match variant {
                0 => format!("select R.name, P from {DB}.restaurant R, R.price P where P >= {a} and P < {b}"),
                1 => format!("select R.name, C from {DB}.restaurant R, R.comment C where R.name like \"%{d}%\" or R.price = {a}"),
                _ => format!("select N, T from {DB}.restaurant R, R.<add at T>comment N where T >= {t1} and T < {t2}"),
            },
        };
        if seen.insert(text.clone()) {
            texts.push(text);
        }
    }
    texts
}

/// Seeded writes that stay valid under any interleaving of the two
/// connections: `updNode` on price atoms of restaurants the script never
/// removes, `creNode`+`addArc` of a fresh review under such a restaurant,
/// and `remArc` of a review whose creation is long since acknowledged.
/// Restaurants are never unlinked, so nothing a later op names can be
/// garbage-collected from under it.
struct WriteGen<'a> {
    data: &'a Dataset,
    next_id: u64,
    removable: VecDeque<(usize, NodeId, NodeId)>,
}

impl<'a> WriteGen<'a> {
    fn new(data: &'a Dataset) -> WriteGen<'a> {
        WriteGen {
            data,
            next_id: FRESH_ID_BASE,
            removable: VecDeque::new(),
        }
    }

    fn restaurant(&self, rng: &mut Rng) -> NodeId {
        self.data.restaurants[rng.below(self.data.restaurants.len() as u64) as usize]
    }

    /// Overwrite a random atom with a fresh value of the type it holds.
    fn churn(&self, rng: &mut Rng) -> Op {
        let (atom, held) = &self.data.atoms[rng.below(self.data.atoms.len() as u64) as usize];
        let value = match held {
            Value::Int(_) => Value::Int(rng.range(5, 60) as i64),
            _ => Value::str(format!("text {}", rng.below(1000))),
        };
        let op = ChangeOp::UpdNode(*atom, value);
        Op::Write {
            changes: format!("{{{op}}}"),
        }
    }

    fn growth(&mut self, rng: &mut Rng, at_op: usize) -> Op {
        let r = self.restaurant(rng);
        let review = NodeId::from_raw(self.next_id);
        self.next_id += 1;
        self.removable.push_back((at_op, r, review));
        let text = Value::str(format!("review {} stars {}", self.next_id, rng.range(1, 6)));
        let cre = ChangeOp::CreNode(review, text);
        let add = ChangeOp::add_arc(r, "review", review);
        Op::Write {
            changes: format!("{{{cre}, {add}}}"),
        }
    }

    /// 60 % churn, 30 % growth, 10 % removal (growth while nothing is yet
    /// safely removable).
    fn mixed(&mut self, rng: &mut Rng, at_op: usize) -> Op {
        match rng.below(10) {
            0..=5 => self.churn(rng),
            6..=8 => self.growth(rng, at_op),
            _ => match self.removable.front() {
                Some(&(born, r, review)) if born + REMOVE_AFTER_OPS <= at_op => {
                    self.removable.pop_front();
                    let rem = ChangeOp::rem_arc(r, "review", review);
                    Op::Write {
                        changes: format!("{{{rem}}}"),
                    }
                }
                _ => self.growth(rng, at_op),
            },
        }
    }
}

/// Generate `workload`'s script: `ops` measured ops for `seed` over `data`.
pub fn generate(workload: Workload, seed: u64, data: &Dataset, ops: usize) -> Script {
    // One stream per concern, so changing how many draws one consumer
    // makes cannot shift another's sequence.
    let mut text_rng = Rng::new(seed, 1);
    let mut op_rng = Rng::new(seed, 2 + workload as u64);
    let mut writes = WriteGen::new(data);
    let hot = hot_texts(&mut text_rng, data);
    let zipf = Zipf::new(HOT_TEXTS);
    let far_span = u64::from(FAR_MIN_BACK)..(data.load.len() as u64 - 1);
    assert!(
        far_span.start < far_span.end,
        "history too shallow for far AS OF"
    );
    match workload {
        Workload::ReadHot => {
            let warmup = (0..HOT_TEXTS as u32)
                .map(|text| Op::Read { text })
                .collect();
            let ops = (0..ops)
                .map(|i| {
                    if i % 200 == 199 {
                        writes.growth(&mut op_rng, i)
                    } else {
                        Op::Read {
                            text: zipf.sample(&mut op_rng) as u32,
                        }
                    }
                })
                .collect();
            Script {
                texts: hot,
                warmup,
                ops,
            }
        }
        Workload::ReadCold => {
            let texts = cold_texts(&mut text_rng, data, COLD_TEXTS);
            let uniform = |rng: &mut Rng| Op::Read {
                text: rng.below(COLD_TEXTS as u64) as u32,
            };
            let warmup = (0..256).map(|_| uniform(&mut op_rng)).collect();
            let ops = (0..ops).map(|_| uniform(&mut op_rng)).collect();
            Script { texts, warmup, ops }
        }
        Workload::WriteDurable => {
            let mut warmup: Vec<Op> = (0..HOT_TEXTS as u32)
                .map(|text| Op::Read { text })
                .collect();
            warmup.extend((0..32).map(|_| writes.churn(&mut op_rng)));
            let ops = (0..ops)
                .map(|i| {
                    if op_rng.below(10) == 0 {
                        Op::Read {
                            text: zipf.sample(&mut op_rng) as u32,
                        }
                    } else {
                        writes.mixed(&mut op_rng, i)
                    }
                })
                .collect();
            Script {
                texts: hot,
                warmup,
                ops,
            }
        }
        Workload::TimeTravel => {
            let texts = cold_texts(&mut text_rng, data, COLD_TEXTS);
            let any_text = |rng: &mut Rng| rng.below(COLD_TEXTS as u64) as u32;
            // Warm-up writes fill the ring (64) so the first measured
            // `AS OF near` already finds its version pinned there.
            let mut warmup: Vec<Op> = (0..96).map(|_| writes.churn(&mut op_rng)).collect();
            warmup.extend((0..64).map(|_| Op::Read {
                text: any_text(&mut op_rng),
            }));
            let ops = (0..ops)
                .map(|i| match op_rng.below(10) {
                    0..=3 => Op::AsOf {
                        text: any_text(&mut op_rng),
                        back: op_rng.range(1, u64::from(NEAR_MAX_BACK) + 1) as u32,
                    },
                    4..=5 => Op::AsOf {
                        text: any_text(&mut op_rng),
                        back: op_rng.range(far_span.start, far_span.end) as u32,
                    },
                    6..=7 => Op::Read {
                        text: any_text(&mut op_rng),
                    },
                    _ => writes.mixed(&mut op_rng, i),
                })
                .collect();
            Script { texts, warmup, ops }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_workload_and_seed() {
        let data = Dataset::generate();
        for w in Workload::ALL {
            let a = generate(w, 11, &data, 500);
            let b = generate(w, 11, &Dataset::generate(), 500);
            assert_eq!(
                a.digest(),
                b.digest(),
                "{} must regenerate identically",
                w.name()
            );
            assert_eq!(a, b);
            let c = generate(w, 12, &data, 500);
            assert_ne!(
                a.digest(),
                c.digest(),
                "{} must depend on the seed",
                w.name()
            );
        }
    }

    #[test]
    fn text_sets_have_the_advertised_sizes_and_every_text_parses() {
        let data = Dataset::generate();
        let hot = generate(Workload::ReadHot, 3, &data, 10);
        assert_eq!(hot.texts.len(), HOT_TEXTS);
        let cold = generate(Workload::ReadCold, 3, &data, 10);
        assert_eq!(cold.texts.len(), COLD_TEXTS);
        let distinct: HashSet<&String> = cold.texts.iter().collect();
        assert_eq!(distinct.len(), COLD_TEXTS);
        for t in hot.texts.iter().chain(&cold.texts) {
            lorel::parse_query(t).unwrap_or_else(|e| panic!("{t:?}: {e}"));
        }
    }

    #[test]
    fn history_is_deep_enough_and_classes_split_at_the_ring() {
        let data = Dataset::generate();
        assert!(data.load.len() > 512, "only {} LSNs", data.load.len());
        let s = generate(Workload::TimeTravel, 5, &data, 4000);
        let count = |c: Class| s.ops.iter().filter(|op| op.class() == c).count();
        assert!(count(Class::AsOfNear) > 1400 && count(Class::AsOfNear) < 1800);
        assert!(count(Class::AsOfFar) > 650 && count(Class::AsOfFar) < 950);
        assert!(count(Class::Read) > 650 && count(Class::Write) > 650);
    }
}
