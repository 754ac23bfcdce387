//! Property-based tests over the whole stack: random databases and random
//! valid histories drive the paper's core invariants end to end.

mod common;

use common::{random_db, random_history};
use doem::{
    current_snapshot, decode_doem, doem_from_history, encode_doem, extract_history, is_feasible,
    original_snapshot, same_doem, snapshot_at,
};
use oem::{same_database, ArcTriple, ChangeOp, ChangeSet, NodeId, OemDatabase, Timestamp, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small rooted graph of arbitrary shape: shared children, self loops,
/// cycles, arcs back into the root.
fn tangled_db(rng: &mut StdRng, n: usize) -> OemDatabase {
    let mut db = OemDatabase::new("g");
    let mut nodes = vec![db.root()];
    for i in 0..n {
        let value = if rng.gen_bool(0.7) {
            Value::Complex
        } else {
            Value::Int(i as i64)
        };
        nodes.push(db.create_node(value));
    }
    for _ in 0..3 * n {
        let p = nodes[rng.gen_range(0..nodes.len())];
        let c = nodes[rng.gen_range(0..nodes.len())];
        if db.is_complex(p) {
            let _ = db.insert_arc(ArcTriple::new(p, ["a", "b"][rng.gen_range(0..2)], c));
        }
    }
    db.collect_garbage();
    db
}

/// Add `ops` to `set` if the set stays conflict-free and valid for `db`.
fn push_if_valid(set: &mut ChangeSet, db: &OemDatabase, ops: Vec<ChangeOp>) {
    let mut probe = set.clone();
    if ops.into_iter().all(|op| probe.push(op).is_ok()) && probe.validate_for(db).is_ok() {
        *set = probe;
    }
}

/// A random change set valid for `db`, drawn from the shapes that stress
/// boundary collection: arc removals (subtrees, cycles and shared children
/// come loose), a removed arc's child re-attached elsewhere in the same
/// set, an arc an earlier set removed (`removed`) added back, new arcs
/// into the root, linked and orphan `creNode`s, and orphans that point at
/// surviving nodes.
fn tangling_set(rng: &mut StdRng, db: &OemDatabase, removed: &[ArcTriple]) -> ChangeSet {
    let mut set = ChangeSet::new();
    let mut scratch = db.clone();
    let try_push = |set: &mut ChangeSet, ops| push_if_valid(set, db, ops);
    let nodes: Vec<NodeId> = db.node_ids().collect();
    let complex: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| db.is_complex(*n))
        .collect();
    let arcs: Vec<ArcTriple> = db.arcs().collect();
    let any = |rng: &mut StdRng, of: &[NodeId]| of[rng.gen_range(0..of.len())];
    for _ in 0..rng.gen_range(1..7) {
        match rng.gen_range(0..9) {
            // Rejected by `validate_for` if an endpoint is gone by now.
            8 if !removed.is_empty() => try_push(
                &mut set,
                vec![ChangeOp::AddArc(removed[rng.gen_range(0..removed.len())])],
            ),
            0..=2 if !arcs.is_empty() => {
                let arc = arcs[rng.gen_range(0..arcs.len())];
                let mut ops = vec![ChangeOp::RemArc(arc)];
                if rng.gen_bool(0.3) {
                    ops.push(ChangeOp::add_arc(any(rng, &complex), "moved", arc.child));
                }
                try_push(&mut set, ops);
            }
            3 => try_push(
                &mut set,
                vec![ChangeOp::add_arc(
                    any(rng, &complex),
                    "link",
                    any(rng, &nodes),
                )],
            ),
            4 => try_push(
                &mut set,
                vec![ChangeOp::add_arc(any(rng, &complex), "up", db.root())],
            ),
            5 => {
                let c = scratch.alloc_id();
                let value = if rng.gen_bool(0.5) {
                    Value::Complex
                } else {
                    Value::Int(7)
                };
                try_push(
                    &mut set,
                    vec![
                        ChangeOp::CreNode(c, value),
                        ChangeOp::add_arc(any(rng, &complex), "new", c),
                    ],
                );
            }
            6 => {
                // Never linked; half the time it holds an arc to a survivor.
                let c = scratch.alloc_id();
                let mut ops = vec![ChangeOp::CreNode(c, Value::Complex)];
                if rng.gen_bool(0.5) {
                    ops.push(ChangeOp::add_arc(c, "sees", any(rng, &nodes)));
                }
                try_push(&mut set, ops);
            }
            _ => {
                let n = any(rng, &nodes);
                if n != db.root() {
                    try_push(
                        &mut set,
                        vec![ChangeOp::UpdNode(n, Value::Int(rng.gen_range(0..9)))],
                    );
                }
            }
        }
    }
    set
}

/// Every `(child, label, parent)` the reverse lists of `db` hold, sorted.
fn reverse_lists(db: &OemDatabase) -> Vec<(NodeId, oem::Label, NodeId)> {
    let mut listed: Vec<_> = db
        .node_ids()
        .flat_map(|c| db.parents(c).into_iter().map(move |(p, l)| (c, l, p)))
        .collect();
    listed.sort_unstable();
    listed
}

/// Every arc of `db` as `(child, label, parent)`, sorted.
fn turned_arcs(db: &OemDatabase) -> Vec<(NodeId, oem::Label, NodeId)> {
    let mut arcs: Vec<_> = db.arcs().map(|a| (a.child, a.label, a.parent)).collect();
    arcs.sort_unstable();
    arcs
}

proptest! {
    // Cheap per case, and the interesting shapes (a cycle cut loose, an
    // orphan holding a survivor) are rare draws: run many.
    #![proptest_config(ProptestConfig {
        cases: 300, ..ProptestConfig::default()
    })]

    /// Change-set-local garbage collection is the Section 2.1 definition:
    /// after every set of a random tangled history, `ChangeSet::apply_to`
    /// and `doem::apply_set` (suspect-closure trial deletion) leave exactly
    /// what applying the ops and scanning the whole graph leaves — dead
    /// set, retired ids, arc count, annotations — and in both graphs the
    /// reverse lists are exactly the arcs, turned around.
    #[test]
    fn local_gc_agrees_with_full_scan(seed in 0u64..2_000, n in 1usize..9, steps in 1usize..7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = tangled_db(&mut rng, n);
        let mut d = doem::DoemDatabase::from_snapshot(&db);
        let mut at: Timestamp = "1Jan97".parse().unwrap();
        let mut removed: Vec<ArcTriple> = Vec::new();
        for _ in 0..steps {
            let set = tangling_set(&mut rng, &db, &removed);
            let mut gone: Vec<ArcTriple> = set.removed_arcs().iter().copied().collect();
            gone.sort();
            removed.extend(gone);

            let mut local = db.clone();
            let dead = set.apply_to(&mut local).unwrap();
            let mut full = db.clone();
            for op in set.canonical_order() {
                op.apply(&mut full).unwrap();
            }
            prop_assert_eq!(&dead, &full.collect_garbage(), "dead set after {}", set);
            prop_assert!(same_database(&local, &full));
            prop_assert_eq!(local.arc_count(), full.arc_count());
            prop_assert_eq!(reverse_lists(&local), turned_arcs(&local), "after {}", set);
            prop_assert_eq!(reverse_lists(&full), turned_arcs(&full), "full scan after {}", set);
            prop_assert!(dead.iter().all(|x| !local.is_fresh(*x)), "retired ids");
            local.check_invariants().unwrap();

            // The annotated graph: only never-linked creations may go.
            let mut replica = db.clone();
            let mut d_full = d.clone();
            doem::apply_set(&mut d, &mut replica, &set, at).unwrap();
            for op in set.canonical_order() {
                match op {
                    ChangeOp::CreNode(x, v) => d_full.record_create(*x, v.clone(), at).unwrap(),
                    ChangeOp::UpdNode(x, v) => d_full.record_update(*x, v.clone(), at).unwrap(),
                    ChangeOp::AddArc(a) => d_full.record_add(*a, at).unwrap(),
                    ChangeOp::RemArc(a) => d_full.record_remove(*a, at).unwrap(),
                }
            }
            d_full.collect_garbage();
            prop_assert!(same_database(&replica, &local));
            prop_assert!(same_doem(&d, &d_full), "annotated graphs diverge after {}", set);
            prop_assert_eq!(d.annotation_count(), d_full.annotation_count());
            d.check_invariants().unwrap();
            // Not `graph().check_invariants()`: the annotated graph keeps
            // removed arcs, also under nodes since retyped to atomic.
            prop_assert_eq!(reverse_lists(d.graph()), turned_arcs(d.graph()), "annotated, after {}", set);
            prop_assert_eq!(d.graph().reachable().len(), d.graph().node_count());
            prop_assert!(same_database(&current_snapshot(&d), &local));
            db = local;

            // A set rejected at its last operation leaves no trace, so the
            // next round's collection starts from a reachable graph again.
            let nowhere = oem::NodeId::from_raw(u64::MAX / 2);
            let bad = ChangeSet::from_ops(
                tangling_set(&mut rng, &db, &removed)
                    .canonical_order()
                    .into_iter()
                    .cloned()
                    .chain([ChangeOp::add_arc(nowhere, "nowhere", db.root())]),
            )
            .unwrap();
            let d_before = d.clone();
            prop_assert!(doem::apply_set(&mut d, &mut replica, &bad, at.plus_minutes(1)).is_err());
            prop_assert!(same_doem(&d, &d_before), "rejected {} left a trace", bad);
            prop_assert_eq!(d.graph().node_count(), d_before.graph().node_count());
            prop_assert!(same_database(&replica, &db));
            prop_assert_eq!(replica.node_count(), db.node_count());

            at = at.plus_minutes(rng.gen_range(1..500));
        }
    }
}

/// One change set over a guide-shaped `db` (see `random_db`), drawn from
/// the shapes that stress change-set seeding (DESIGN.md §11.1): a comment
/// added three arcs below the root, under a review that may itself be new
/// in this set; value updates on comments, names and prices; a review
/// shared with a second restaurant (a second parent on the query path) or
/// hung off the root as `featured` (a parent off it); a review moved to
/// another restaurant within the set; a comment arc removed; a new
/// restaurant. Without `removals` the set removes no arc, so every plan
/// that reads no current value stays inside the monotonic fragment.
fn seeding_set(rng: &mut StdRng, db: &OemDatabase, removals: bool) -> ChangeSet {
    let mut set = ChangeSet::new();
    let mut scratch = db.clone();
    let try_push = |set: &mut ChangeSet, ops| push_if_valid(set, db, ops);
    let labeled = |of: &[NodeId], label: &str| -> Vec<(NodeId, NodeId)> {
        let l = oem::Label::new(label);
        of.iter()
            .flat_map(|&p| db.children_labeled(p, l).map(move |c| (p, c)))
            .collect()
    };
    let restaurants: Vec<NodeId> = labeled(&[db.root()], "restaurant")
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    let reviews = labeled(&restaurants, "review");
    let review_ids: Vec<NodeId> = reviews.iter().map(|&(_, v)| v).collect();
    let comments = labeled(&review_ids, "comment");
    let mut atoms = comments.clone();
    atoms.extend(labeled(&restaurants, "name"));
    atoms.extend(labeled(&restaurants, "price"));
    let any = |rng: &mut StdRng, of: &[NodeId]| of[rng.gen_range(0..of.len())];
    let comment = |rng: &mut StdRng| Value::str(format!("c{}", rng.gen_range(0..3)));
    for _ in 0..rng.gen_range(1..5) {
        match rng.gen_range(0..9) {
            0..=2 if !restaurants.is_empty() => {
                let c = scratch.alloc_id();
                let mut ops = vec![ChangeOp::CreNode(c, comment(rng))];
                let under = if reviews.is_empty() || rng.gen_bool(0.4) {
                    let v = scratch.alloc_id();
                    ops.push(ChangeOp::CreNode(v, Value::Complex));
                    ops.push(ChangeOp::add_arc(any(rng, &restaurants), "review", v));
                    v
                } else {
                    any(rng, &review_ids)
                };
                ops.push(ChangeOp::add_arc(under, "comment", c));
                try_push(&mut set, ops);
            }
            3 if !atoms.is_empty() => {
                let (_, n) = atoms[rng.gen_range(0..atoms.len())];
                try_push(&mut set, vec![ChangeOp::UpdNode(n, comment(rng))]);
            }
            4 if !reviews.is_empty() => {
                let v = any(rng, &review_ids);
                try_push(&mut set, vec![ChangeOp::add_arc(any(rng, &restaurants), "review", v)]);
            }
            5 if !reviews.is_empty() => {
                let v = any(rng, &review_ids);
                try_push(&mut set, vec![ChangeOp::add_arc(db.root(), "featured", v)]);
            }
            6 if removals && !reviews.is_empty() => {
                let (r, v) = reviews[rng.gen_range(0..reviews.len())];
                try_push(
                    &mut set,
                    vec![
                        ChangeOp::rem_arc(r, "review", v),
                        ChangeOp::add_arc(any(rng, &restaurants), "review", v),
                    ],
                );
            }
            7 if removals && !comments.is_empty() => {
                let (v, c) = comments[rng.gen_range(0..comments.len())];
                try_push(&mut set, vec![ChangeOp::rem_arc(v, "comment", c)]);
            }
            _ => {
                let (r, n) = (scratch.alloc_id(), scratch.alloc_id());
                try_push(
                    &mut set,
                    vec![
                        ChangeOp::CreNode(r, Value::Complex),
                        ChangeOp::CreNode(n, Value::str("Rnew")),
                        ChangeOp::add_arc(db.root(), "restaurant", r),
                        ChangeOp::add_arc(r, "name", n),
                    ],
                );
            }
        }
    }
    set
}

/// Queries whose delta variants lean on change-set seeding: the
/// restricted constraint at the end of a four-step chain; a join that
/// enumerates it last; `<upd>`/`<cre>` under labels most deltas' nodes do
/// not hang from; steps a shared or moved review reaches through more
/// than one parent.
const SEEDING_POOL: [&str; 9] = [
    "select C, T from guide.restaurant.review.<add at T>comment C",
    "select guide.restaurant.review.comment",
    "select R, C from guide.restaurant R, guide.restaurant.review.<add>comment C",
    "select T, NV from guide.restaurant.name<upd at T to NV>",
    "select OV, C from guide.restaurant.review.comment<upd from OV> C",
    "select C, T from guide.restaurant.review.comment<cre at T> C",
    "select V, T from guide.restaurant.<add at T>review V",
    "select V from guide.restaurant.<rem>review V",
    "select X from guide.featured.<add>comment X",
];

/// More of the same, with `or` over existential slots. Kept apart because
/// the translated strategy loses rows when a multi-step `where` path sits
/// under `or` and an inner step has no binding (also without annotations,
/// also before these tests existed): these are checked against the direct
/// strategy alone.
const SEEDING_POOL_OR: [&str; 2] = [
    "select R from guide.restaurant R where R.review.<add at T>comment or R.<add>review",
    "select R from guide.restaurant R where R.review.<add>comment = \"c1\" or R.name like \"R%\"",
];

/// Grow a DOEM database from `random_db(seed, n)` through
/// `random_history`'s sets and then `extra` [`seeding_set`]s (the last one
/// free of removals), calling `step` with the database, the set and its
/// timestamp after each one is applied.
fn evolve(
    seed: u64,
    n: usize,
    steps: usize,
    extra: usize,
    mut step: impl FnMut(&doem::DoemDatabase, &ChangeSet, Timestamp),
) {
    let db = random_db(seed, n);
    let h = random_history(&db, seed.wrapping_add(41), steps, 4);
    let mut replica = db.clone();
    let mut d = doem::DoemDatabase::from_snapshot(&db);
    let mut at: Timestamp = "1Jan97".parse().unwrap();
    for entry in h.entries() {
        at = entry.at;
        doem::apply_set(&mut d, &mut replica, &entry.changes, at).unwrap();
        step(&d, &entry.changes, at);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    for i in 0..extra {
        let set = seeding_set(&mut rng, &replica, i + 1 < extra);
        at = at.plus_minutes(rng.gen_range(1..2000));
        doem::apply_set(&mut d, &mut replica, &set, at).unwrap();
        step(&d, &set, at);
    }
}

/// `S` with [`lorel::DataSource::parents`] left at its default: the source
/// cannot name parents, so delta variants over it enumerate without
/// parent-derived allow-sets — the reference the seeded variants are held
/// to.
struct NoParents<S>(S);

impl<S: lorel::DataSource> lorel::DataSource for NoParents<S> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn root(&self) -> NodeId {
        self.0.root()
    }
    fn value(&self, n: NodeId) -> Option<Value> {
        self.0.value(n)
    }
    fn children(&self, n: NodeId) -> Vec<(oem::Label, NodeId)> {
        self.0.children(n)
    }
    fn children_labeled(&self, n: NodeId, l: oem::Label) -> Vec<NodeId> {
        self.0.children_labeled(n, l)
    }
    fn cre_fun(&self, n: NodeId) -> Vec<Timestamp> {
        self.0.cre_fun(n)
    }
    fn upd_fun(&self, n: NodeId) -> Vec<(Timestamp, Value, Value)> {
        self.0.upd_fun(n)
    }
    fn add_fun(&self, n: NodeId, l: oem::Label) -> Vec<(Timestamp, NodeId)> {
        self.0.add_fun(n, l)
    }
    fn rem_fun(&self, n: NodeId, l: oem::Label) -> Vec<(Timestamp, NodeId)> {
        self.0.rem_fun(n, l)
    }
    fn add_fun_any(&self, n: NodeId) -> Vec<(oem::Label, Timestamp, NodeId)> {
        self.0.add_fun_any(n)
    }
    fn rem_fun_any(&self, n: NodeId) -> Vec<(oem::Label, Timestamp, NodeId)> {
        self.0.rem_fun_any(n)
    }
    fn children_at(&self, n: NodeId, t: Timestamp) -> Vec<(oem::Label, NodeId)> {
        self.0.children_at(n, t)
    }
    fn wildcard_children(&self, n: NodeId) -> Vec<(oem::Label, NodeId)> {
        self.0.wildcard_children(n)
    }
    fn children_labeled_at(&self, n: NodeId, l: oem::Label, t: Timestamp) -> Vec<NodeId> {
        self.0.children_labeled_at(n, l, t)
    }
    fn value_at(&self, n: NodeId, t: Timestamp) -> Option<Value> {
        self.0.value_at(n, t)
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    /// Section 3.2's headline property: a constructed DOEM database is
    /// feasible, and the unique `(O0(D), H(D))` pair it encodes is the one
    /// it was built from.
    #[test]
    fn doem_feasibility_round_trip(seed in 0u64..1_000, n in 2usize..10, steps in 1usize..6) {
        let db = random_db(seed, n);
        let h = random_history(&db, seed, steps, 5);
        let d = doem_from_history(&db, &h).unwrap();
        d.check_invariants().unwrap();
        prop_assert!(is_feasible(&d));
        prop_assert!(same_database(&original_snapshot(&d), &db));
        // The extracted history replays to the current snapshot.
        let mut replay = db.clone();
        extract_history(&d).unwrap().apply_to(&mut replay).unwrap();
        prop_assert!(same_database(&replay, &current_snapshot(&d)));
    }

    /// Snapshot extraction agrees with direct replay at *every* prefix of
    /// the history, not just the endpoints.
    #[test]
    fn snapshots_match_prefix_replay(seed in 0u64..1_000, n in 2usize..8, steps in 1usize..6) {
        let db = random_db(seed, n);
        let h = random_history(&db, seed.wrapping_add(7), steps, 4);
        let d = doem_from_history(&db, &h).unwrap();
        for entry in h.entries() {
            let mut replayed = db.clone();
            h.prefix_through(entry.at).apply_to(&mut replayed).unwrap();
            let snap = snapshot_at(&d, entry.at);
            prop_assert!(
                same_database(&snap, &replayed),
                "divergence at {}",
                entry.at
            );
            // And just before the entry: the previous state.
            let before = Timestamp::from_raw_minutes(entry.at.raw_minutes() - 1);
            let mut prev = db.clone();
            h.prefix_through(before).apply_to(&mut prev).unwrap();
            prop_assert!(same_database(&snapshot_at(&d, before), &prev));
        }
    }

    /// `O_t(D)` as a lazy view answers what `snapshot_at` materialises:
    /// for random histories, at a point before the base, at every recorded
    /// LSN, between LSNs and past the last one, `run_chorel_at` returns the
    /// canonical rows of evaluating over the materialised snapshot (both
    /// strategies vouching for that side) — for plain paths, wildcards,
    /// joins, and annotation expressions, which a past *state* answers
    /// with nothing.
    #[test]
    fn as_of_view_agrees_with_snapshot_at(seed in 0u64..1_000, n in 2usize..8, steps in 1usize..6) {
        let db = random_db(seed, n);
        let h = random_history(&db, seed.wrapping_add(67), steps, 5);
        let d = doem_from_history(&db, &h).unwrap();
        let mut points = vec![Timestamp::NEG_INFINITY, Timestamp::INFINITY];
        for entry in h.entries() {
            points.extend([entry.at.plus_minutes(-1), entry.at, entry.at.plus_minutes(1)]);
        }
        let plain = [
            "select guide.restaurant",
            "select guide.restaurant.price",
            "select guide.restaurant where guide.restaurant.price < 50",
            "select X from guide.% X where X.name",
            "select guide.#.name",
            "select guide.restaurant where guide.restaurant.# like \"%Main%\"",
            "select R.name, P from guide.restaurant R, R.parking P",
            "select R, S from guide.restaurant R, guide.restaurant S where R.parking = S.parking",
            "select R.link*.name from guide.restaurant R",
            "select guide.restaurant.(price|note|tag)",
        ];
        let annotated = [
            "select guide.<add>note",
            "select guide.restaurant.<add at T>note where T >= 1Jan97",
            "select T, NV from guide.restaurant.price<upd at T to NV>",
            "select R from guide.restaurant R where R.<rem at T>parking and T > 1Jan97",
            "select guide.restaurant.name<cre at T> where T < 1Feb97",
        ];
        // `<at T>` inside a past state reads that state; direct-only.
        let virtual_at = ["select guide.restaurant.price<at 5Jan97>"];
        for &t in &points {
            let snap = doem::DoemDatabase::from_snapshot(&snapshot_at(&d, t));
            for (i, text) in plain.iter().chain(&annotated).chain(&virtual_at).enumerate() {
                let query = lorel::parse_query(text).unwrap();
                let direct_only = i >= plain.len() + annotated.len();
                let expected = if direct_only {
                    chorel::run_chorel(&snap, text, chorel::Strategy::Direct).unwrap()
                } else {
                    chorel::run_both_checked(&snap, text).unwrap()
                };
                let expected = chorel::canonical_row_strings(&snap, &expected);
                let view = chorel::run_chorel_at(&d, t, &query, chorel::Strategy::Direct).unwrap();
                prop_assert_eq!(&view, &expected, "{} at {}", text, t);
                if annotated.contains(text) {
                    prop_assert!(view.is_empty(), "{} saw history at {}", text, t);
                }
                if !direct_only {
                    let translated =
                        chorel::run_chorel_at(&d, t, &query, chorel::Strategy::Translated).unwrap();
                    prop_assert_eq!(&translated, &expected, "{} at {} (translated)", text, t);
                }
            }
        }
    }

    /// The Section 5.1 encoding decodes back to the identical DOEM
    /// database.
    #[test]
    fn encode_decode_is_identity(seed in 0u64..1_000, n in 2usize..8, steps in 0usize..5) {
        let db = random_db(seed, n);
        let h = random_history(&db, seed.wrapping_add(13), steps, 4);
        let d = doem_from_history(&db, &h).unwrap();
        let enc = encode_doem(&d);
        enc.oem.check_invariants().unwrap();
        let back = decode_doem(&enc.oem).unwrap();
        prop_assert!(same_doem(&d, &back));
    }

    /// The storage codec is lossless.
    #[test]
    fn codec_round_trips(seed in 0u64..1_000, n in 1usize..12) {
        let db = random_db(seed, n);
        let back = lore::codec::decode_database(lore::codec::encode_database(&db)).unwrap();
        prop_assert!(same_database(&db, &back));
    }

    /// The textual OEM format round-trips (isomorphically in the default
    /// mode, identically with `always_ids`).
    #[test]
    fn text_format_round_trips(seed in 0u64..1_000, n in 1usize..10) {
        let db = random_db(seed, n);
        let text = oem::write_text(&db, oem::TextOptions { always_ids: true });
        let back = oem::parse_text(&text).unwrap();
        prop_assert!(same_database(&db, &back), "text was:\n{text}");
        let loose = oem::parse_text(&oem::write_text(&db, oem::TextOptions::default())).unwrap();
        prop_assert!(oem::isomorphic(&db, &loose));
    }

    /// OEMdiff's contract: for any two random snapshots (related or not),
    /// the generated change set transforms one into the other.
    #[test]
    fn diff_transforms_old_into_new(
        seed_a in 0u64..500, seed_b in 0u64..500, n in 1usize..8, m in 1usize..8
    ) {
        let old = random_db(seed_a, n);
        let new = random_db(seed_b, m);
        for mode in [oemdiff::MatchMode::ById, oemdiff::MatchMode::Structural] {
            let r = oemdiff::diff(&old, &new, mode).unwrap();
            let mut db = old.clone();
            r.changes.apply_to(&mut db).unwrap();
            prop_assert!(oem::isomorphic(&db, &new), "mode {mode:?} failed");
        }
    }

    /// Evolved snapshots (the realistic QSS case): diff the states before
    /// and after a random history.
    #[test]
    fn diff_recovers_histories(seed in 0u64..1_000, n in 2usize..8, steps in 1usize..6) {
        let old = random_db(seed, n);
        let h = random_history(&old, seed.wrapping_add(23), steps, 5);
        let mut new = old.clone();
        h.apply_to(&mut new).unwrap();
        let r = oemdiff::diff(&old, &new, oemdiff::MatchMode::ById).unwrap();
        let exact = oemdiff::verify_diff(&old, &new, &r.changes);
        let isomorphic = {
            let mut db = old.clone();
            r.changes.apply_to(&mut db).unwrap();
            oem::isomorphic(&db, &new)
        };
        prop_assert!(exact || isomorphic);
    }

    /// Timestamps survive display/parse round trips at minute granularity
    /// across a wide range of dates.
    #[test]
    fn timestamps_round_trip(minutes in -20_000_000i64..40_000_000) {
        let t = Timestamp::from_raw_minutes(minutes);
        let text = t.to_string();
        let back: Timestamp = text.parse().unwrap();
        prop_assert_eq!(t, back, "via {}", text);
    }

    /// Update statements compile to change sets that apply cleanly, and
    /// the resulting database state matches a direct query check.
    #[test]
    fn update_statements_apply_cleanly(seed in 0u64..500, n in 1usize..8, price in 0i64..500) {
        let db = random_db(seed, n);
        let stmt = format!("update guide.restaurant.price := {price}");
        let compiled = lorel::run_update(&db, &stmt).unwrap();
        let mut after = db.clone();
        compiled.changes.apply_to(&mut after).unwrap();
        after.check_invariants().unwrap();
        // Every restaurant that had a price now has the new one.
        let r = lorel::run_query(
            &after,
            &format!("select guide.restaurant.price where guide.restaurant.price = {price}"),
        )
        .unwrap();
        let had_price = lorel::run_query(&db, "select guide.restaurant.price").unwrap();
        // Every price object was updated; rows dedup per object.
        prop_assert_eq!(r.len(), had_price.len());
    }

    /// Inserting a structure then removing its arc restores the original
    /// (after garbage collection) — a write-path inverse property.
    #[test]
    fn insert_then_remove_is_identity(seed in 0u64..500, n in 1usize..8) {
        let db = random_db(seed, n);
        let ins = lorel::run_update(
            &db,
            "insert guide.special := (name \"pop-up\", price 1)",
        )
        .unwrap();
        let mut mid = db.clone();
        ins.changes.apply_to(&mut mid).unwrap();
        let rem = lorel::run_update(&mid, "remove guide.special").unwrap();
        let mut back = mid.clone();
        rem.changes.apply_to(&mut back).unwrap();
        prop_assert!(oem::isomorphic(&back, &db));
    }

    /// The two Chorel strategies agree on a pool of representative change
    /// queries over arbitrary DOEM databases.
    #[test]
    fn chorel_strategies_agree(seed in 0u64..400, n in 2usize..8, steps in 1usize..5) {
        let db = random_db(seed, n);
        let h = random_history(&db, seed.wrapping_add(31), steps, 5);
        let d = doem_from_history(&db, &h).unwrap();
        for query in [
            "select guide.restaurant",
            "select guide.<add>note",
            "select guide.restaurant.<add at T>note where T >= 1Jan97",
            "select guide.restaurant.<rem>link",
            "select T, NV from guide.restaurant.price<upd at T to NV>",
            "select OV from guide.#.price<upd from OV>",
            "select guide.restaurant where guide.restaurant.price < 50",
            "select R from guide.restaurant R where R.<rem at T>parking and T > 1Jan97",
            "select guide.restaurant.name<cre at T> where T < 1Feb97",
            "select X from guide.% X where X.name",
            "select guide.restaurant.(price|cuisine)",
            "select R.link*.name from guide.restaurant R",
            "select X, T from guide.restaurant.<add at T>(note|tag) X",
            "select R.name from guide.restaurant R where R.name like \"R%\"",
            "select N from guide.restaurant.name N where N like \"%1%\"",
            "select R from guide.restaurant R where R.<add at T>note and R.name like \"R_\"",
            "select X.price from guide.% X where X.name like \"_ot\" or X.name like \"R0\"",
            // Monotonic-fragment shapes the incremental paths lean on
            // (DESIGN.md §11): anchored top-level conjuncts on annotation
            // timestamps, and multi-variable annotated chains.
            "select R, T from guide.<add at T>restaurant R where T >= 1Jan97",
            "select N, T from guide.restaurant R, R.name<cre at T> N where T > 31Dec96",
            "select guide.#.price<upd at T> where T >= 1Jan97",
        ] {
            // Skip the ones the translator cannot express if any arise;
            // run_both_checked errors on mismatch, which is the assertion.
            chorel::run_both_checked(&d, query).unwrap();
        }
    }

    /// DESIGN.md §11's incremental identity: semi-naive maintenance of a
    /// prior result through every step of a random history equals full
    /// re-evaluation at that step — and `run_both_checked` makes the full
    /// side itself agree across both execution strategies. Steps outside
    /// the monotonic fragment take the documented fallback (full
    /// re-evaluation) and keep stepping, exactly as serve's cache and the
    /// QSS filters do.
    #[test]
    fn incremental_agrees_with_full(seed in 0u64..400, n in 2usize..8, steps in 1usize..6) {
        let queries: Vec<&str> = [
            "select guide.restaurant",
            "select guide.<add>note",
            "select guide.restaurant.<add at T>note where T >= 1Jan97",
            "select T, NV from guide.restaurant.price<upd at T to NV>",
            "select guide.restaurant.name<cre at T> where T < 1Feb97",
            "select R from guide.restaurant R where R.<rem at T>parking and T > 1Jan97",
            "select X, T from guide.restaurant.<add at T>(note|tag) X",
        ]
        .into_iter()
        .chain(SEEDING_POOL)
        .collect();
        let both_strategies = queries.len();
        let queries: Vec<&str> = queries.into_iter().chain(SEEDING_POOL_OR).collect();
        let parsed: Vec<_> = queries
            .iter()
            .map(|q| lorel::parse_query(q).unwrap())
            .collect();
        let mut prior: Vec<Option<Vec<lorel::Row>>> = vec![None; queries.len()];
        let mut maintained_steps = 0usize;
        evolve(seed, n, steps, 3, |d, changes, at| {
            for (i, q) in parsed.iter().enumerate() {
                let full = if i < both_strategies {
                    chorel::run_both_checked(d, queries[i]).unwrap()
                } else {
                    chorel::run_chorel_parsed(d, q, chorel::Strategy::Direct).unwrap()
                };
                // The first step only primes: there is no prior result yet.
                let maintained = match &prior[i] {
                    Some(rows) => chorel::delta::maintain_rows(d, q, changes, at, rows).unwrap(),
                    None => None,
                };
                match maintained {
                    Some(rows) => {
                        prop_assert_eq!(
                            chorel::delta::canonical_strings_for_rows(d, &rows),
                            chorel::canonical_row_strings(d, &full),
                            "query {:?} diverged at {}", queries[i], at
                        );
                        maintained_steps += 1;
                        prior[i] = Some(rows.rows);
                    }
                    None => prior[i] = Some(full.rows),
                }
            }
        });
        // The pool is chosen so maintenance actually fires (annotated
        // plans survive any delta); an all-fallback run would make the
        // identity above vacuous.
        prop_assert!(maintained_steps > 0, "every step fell back to full re-evaluation");
    }

    /// Change-set seeding prunes and never decides (DESIGN.md §11.1): over
    /// every supported plan × delta of an evolving database, the seeded
    /// variants return no row the unpruned variants do not, the two find
    /// exactly the same rows beyond the prior result, and with the prior
    /// result those are the full evaluation. (An unpruned variant also
    /// re-derives prior rows wherever a `Missing` binding satisfies an
    /// `or`; seeding skips those, so the raw variant outputs may differ by
    /// rows the union absorbs.)
    #[test]
    fn seeded_variants_agree_with_unpruned(seed in 0u64..400, n in 2usize..8, steps in 1usize..5) {
        use std::collections::HashSet;
        let pool: Vec<&str> = SEEDING_POOL.into_iter().chain(SEEDING_POOL_OR).collect();
        let parsed: Vec<_> = pool.iter().map(|q| lorel::parse_query(q).unwrap()).collect();
        let mut prior: Vec<Option<HashSet<lorel::Row>>> = vec![None; parsed.len()];
        let mut compared = 0usize;
        evolve(seed, n, steps, 4, |d, changes, at| {
            let seeded = chorel::DirectSource::new(d);
            let unpruned = NoParents(seeded);
            let spec = lorel::DeltaSpec::new(changes, at);
            for (i, q) in parsed.iter().enumerate() {
                let plan = lorel::plan(q, d.name()).unwrap();
                let full: HashSet<lorel::Row> =
                    lorel::execute(&seeded, &plan).unwrap().rows.into_iter().collect();
                if let (Some(prior), Ok(())) = (&prior[i], lorel::delta_supported(&plan, &spec)) {
                    let a = lorel::delta_execute(&seeded, &plan, &spec).unwrap().rows;
                    let b = lorel::delta_execute(&unpruned, &plan, &spec).unwrap().rows;
                    let a: HashSet<_> = a.into_iter().collect();
                    let b: HashSet<_> = b.into_iter().collect();
                    prop_assert!(a.is_subset(&b), "{:?} at {}: seeding invented a row", pool[i], at);
                    let new_a: HashSet<_> = a.difference(prior).cloned().collect();
                    let new_b: HashSet<_> = b.difference(prior).cloned().collect();
                    prop_assert_eq!(&new_a, &new_b, "{:?} at {}", pool[i], at);
                    let maintained: HashSet<_> = prior.union(&new_a).cloned().collect();
                    prop_assert_eq!(&maintained, &full, "{:?} at {}", pool[i], at);
                    compared += 1;
                }
                prior[i] = Some(full);
            }
        });
        prop_assert!(compared > 0, "no plan × delta was inside the monotonic fragment");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, ..ProptestConfig::default()
    })]

    /// The serve path is a third execution strategy: rows coming back
    /// through the service's parse → queue → worker → cache pipeline must
    /// equal the canonical rows of `run_both_checked` (which itself
    /// asserts direct and translated agree) for the same query pool.
    #[test]
    fn chorel_strategies_agree_through_serve(seed in 0u64..400, n in 2usize..8, steps in 1usize..5) {
        let db = random_db(seed, n);
        let h = random_history(&db, seed.wrapping_add(31), steps, 5);
        let d = doem_from_history(&db, &h).unwrap();

        let svc = serve::Service::start(serve::ServeConfig::default()).unwrap();
        svc.install(&db, &h).unwrap();
        let client = svc.client();
        for query in [
            "select guide.restaurant",
            "select guide.<add>note",
            "select guide.restaurant.<add at T>note where T >= 1Jan97",
            "select T, NV from guide.restaurant.price<upd at T to NV>",
            "select guide.restaurant where guide.restaurant.price < 50",
            "select R from guide.restaurant R where R.<rem at T>parking and T > 1Jan97",
            "select guide.restaurant.name<cre at T> where T < 1Feb97",
            "select X from guide.% X where X.name",
            "select guide.restaurant.(price|cuisine)",
            "select R.name from guide.restaurant R where R.name like \"R%\"",
            "select R from guide.restaurant R where R.<add at T>note and R.name like \"R_\"",
        ] {
            let expected =
                chorel::canonical_row_strings(&d, &chorel::run_both_checked(&d, query).unwrap());
            // Twice: the second answer comes from the result cache and
            // must be byte-identical.
            for round in 0..2 {
                let served = client.query("guide", query).unwrap_or_else(|e| {
                    panic!("serve rejected {query:?}: {e:?}")
                });
                prop_assert_eq!(&served, &expected, "query {} round {}", query, round);
            }
        }
        svc.shutdown();
    }

    /// MVCC equivalence (DESIGN.md §14): `QUERY … AS OF t` through the
    /// service must answer exactly what a direct `doem::snapshot_at(t)`
    /// replay evaluates — with `run_both_checked` making both Chorel
    /// strategies vouch for the replay side — at every recorded timestamp
    /// of a random history plus every post-install write, and at a point
    /// before all of them. `retain_lsns` is randomized down to 1: the lazy
    /// `O_t(D)` view answers every point whatever the in-memory retention
    /// horizon.
    #[test]
    fn as_of_through_serve_matches_snapshot_at_replay(
        seed in 0u64..400, n in 2usize..8, steps in 1usize..5, retain in 1usize..4
    ) {
        let db = random_db(seed, n);
        let h = random_history(&db, seed.wrapping_add(59), steps, 5);

        let svc = serve::Service::start(serve::ServeConfig {
            retain_lsns: retain,
            ..serve::ServeConfig::default()
        })
        .unwrap();
        svc.install(&db, &h).unwrap();
        let client = svc.client();

        // Points of interest: just before the history, every history
        // timestamp, and every post-install write committed through the
        // service.
        let mut points: Vec<Timestamp> = h.entries().iter().map(|e| e.at).collect();
        if let Some(first) = points.first() {
            points.insert(0, Timestamp::from_raw_minutes(first.raw_minutes() - 1));
        }
        let serve::Response::Ok(lsn_line) = client.request_line("LSN guide") else {
            panic!("LSN guide failed")
        };
        let head: i64 = lsn_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .expect("installed database has a numeric LSN");
        for i in 0..4usize {
            let at = Timestamp::from_raw_minutes(head + 1 + i as i64);
            let resp = client.request_line(&format!(
                "UPDATE guide AT {at} ; {{creNode(n{0}, {1}), addArc(n1, item, n{0})}}",
                900 + i, i
            ));
            assert!(!resp.is_error(), "write {i}: {resp:?}");
            points.push(at);
        }

        let full = svc.doem_snapshot("guide").unwrap();
        for at in &points {
            let replayed = doem::DoemDatabase::from_snapshot(&snapshot_at(&full, *at));
            for query in [
                "select guide.restaurant",
                "select guide.restaurant.price",
                "select guide.item",
                "select X from guide.% X where X.name",
                "select guide.#.name",
                "select R.name, P from guide.restaurant R, R.parking P",
                "select guide.<add>item",
            ] {
                let expected = chorel::canonical_row_strings(
                    &replayed,
                    &chorel::run_both_checked(&replayed, query).unwrap(),
                );
                let resp = client.request_line(&format!(
                    "QUERY guide AS OF {} {query}",
                    at.raw_minutes()
                ));
                let serve::Response::Rows(served) = resp else {
                    panic!("AS OF {at} rejected {query:?}: {resp:?}")
                };
                prop_assert_eq!(&served, &expected, "AS OF {} query {}", at, query);
            }
        }
        svc.shutdown();
    }

    /// Snapshot isolation through the service: with a writer appending
    /// change sets to one shard while readers query it, every observed
    /// result equals the rows of *some* serial prefix of the write
    /// sequence — never a torn in-between state — and each session's
    /// observations advance monotonically through the prefixes.
    #[test]
    fn snapshot_isolation_reads_are_serial_prefixes(k in 3usize..10, readers in 1usize..4) {
        let q = "select iso.item";
        // Reference: replay every prefix single-threaded and render with
        // the same canonical row printer (via run_both_checked, which
        // also asserts the two Chorel strategies agree on each prefix).
        let mut expected: Vec<Vec<String>> = Vec::with_capacity(k + 1);
        let change_line = |i: usize| format!("{{creNode(n{}, {i}), addArc(n1, item, n{})}}", 100 + i, 100 + i);
        let at = |i: usize| format!("2Jan97 {}:{:02}pm", 1 + i / 60, i % 60);
        {
            let mut replica = oem::OemDatabase::new("iso");
            let mut d = doem::DoemDatabase::from_snapshot(&replica);
            let rows = |d: &doem::DoemDatabase| {
                chorel::canonical_row_strings(d, &chorel::run_both_checked(d, q).unwrap())
            };
            expected.push(rows(&d));
            for i in 0..k {
                let changes = oem::parse_change_set(&change_line(i)).unwrap();
                doem::apply_set(&mut d, &mut replica, &changes, at(i).parse().unwrap()).unwrap();
                expected.push(rows(&d));
            }
        }

        let svc = serve::Service::start(serve::ServeConfig {
            workers: 4,
            ..serve::ServeConfig::default()
        })
        .unwrap();
        let setup = svc.client();
        prop_assert!(!setup.request_line("CREATE iso").is_error());
        let done = std::sync::atomic::AtomicBool::new(false);
        let observations: Vec<Vec<Vec<String>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    let client = svc.client();
                    let done = &done;
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        while !done.load(std::sync::atomic::Ordering::SeqCst) {
                            seen.push(client.query("iso", q).unwrap());
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                        seen
                    })
                })
                .collect();
            let writer = svc.client();
            for i in 0..k {
                let resp = writer
                    .request_line(&format!("UPDATE iso AT {} ; {}", at(i), change_line(i)));
                assert!(!resp.is_error(), "write {i}: {resp:?}");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (r, seen) in observations.iter().enumerate() {
            let mut last_prefix = 0usize;
            for rows in seen {
                let prefix = expected
                    .iter()
                    .position(|e| e == rows)
                    .unwrap_or_else(|| panic!("reader {r} observed a non-prefix state: {rows:?}"));
                prop_assert!(
                    prefix >= last_prefix,
                    "reader {} went backwards: prefix {} after {}",
                    r, prefix, last_prefix
                );
                last_prefix = prefix;
            }
        }
        // The final state must have been reachable: a last read sees all k.
        prop_assert_eq!(&setup.query("iso", q).unwrap(), &expected[k]);
        svc.shutdown();
    }
}

mod native_apply {
    //! The DOEM graph judges its own change sets: `DoemDatabase::apply`, run
    //! against the paper's OEM semantics — `ChangeSet::apply_to` on a plain
    //! database that starts as the same snapshot — over generated histories
    //! with invalid operations mixed in. Every set must get the same verdict
    //! and the same error, and after every accepted set the DOEM graph's
    //! current snapshot must be the plain database.

    use super::common::random_db;
    use doem::{current_snapshot, same_doem, DoemDatabase};
    use oem::{same_database, ArcTriple, ChangeOp, ChangeSet, NodeId, OemDatabase, OemError};
    use oem::{Timestamp, Value};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// What a generated set sets out to do. A history cycles through all of
    /// them, in this order, so every one has something to work on: by the
    /// time a `ReAdd` or a `Collected` set is drawn, a `Move` has removed an
    /// arc and a `DeleteSubtree` has usually cut a subtree loose.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        /// `remArc` plus `addArc` of the same child under another parent.
        Move,
        /// Cut an arc and remove an arc inside the subtree it led to.
        DeleteSubtree,
        /// Add back an arc an earlier set removed.
        ReAdd,
        /// Remove every out-arc of a complex node and make it atomic.
        Retype,
        /// Use an id an earlier set boundary collected, or an arc that went
        /// with it.
        Collected,
        /// Create a node, linked or (sometimes) orphaned.
        Create,
        /// An operation whose precondition fails outright.
        Invalid,
    }

    const SHAPES: [Shape; 7] = [
        Shape::Move,
        Shape::DeleteSubtree,
        Shape::ReAdd,
        Shape::Retype,
        Shape::Collected,
        Shape::Create,
        Shape::Invalid,
    ];

    /// A uniformly drawn element of `xs`.
    fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> Option<T> {
        (!xs.is_empty()).then(|| xs[rng.gen_range(0..xs.len())])
    }

    /// What earlier sets did that a later one can refer back to.
    #[derive(Default)]
    struct Past {
        /// Arcs removed.
        removed: Vec<ArcTriple>,
        /// Nodes collected at a set boundary.
        collected: Vec<NodeId>,
        /// Arcs out of collected nodes, gone with them.
        lost: Vec<ArcTriple>,
    }

    /// The operations of one `shape` set over the plain database `db`.
    fn shaped_ops(rng: &mut StdRng, db: &OemDatabase, past: &Past, shape: Shape) -> Vec<ChangeOp> {
        let arcs: Vec<ArcTriple> = db.arcs().collect();
        let complex: Vec<NodeId> = db.node_ids().filter(|&n| db.is_complex(n)).collect();
        let root = db.root();
        let some_complex = |rng: &mut StdRng| pick(rng, &complex).unwrap_or(root);
        match shape {
            Shape::Move => match pick(rng, &arcs) {
                Some(a) => {
                    let to = some_complex(rng);
                    vec![ChangeOp::RemArc(a), ChangeOp::add_arc(to, "moved", a.child)]
                }
                None => Vec::new(),
            },
            Shape::DeleteSubtree => match pick(rng, &arcs) {
                Some(a) => {
                    let mut ops = vec![ChangeOp::RemArc(a)];
                    if let Some((l, c)) = pick(rng, db.children(a.child)) {
                        ops.push(ChangeOp::rem_arc(a.child, l, c));
                    }
                    ops
                }
                None => Vec::new(),
            },
            Shape::ReAdd => pick(rng, &past.removed).into_iter().map(ChangeOp::AddArc).collect(),
            Shape::Retype => {
                let n = some_complex(rng);
                if n == root {
                    return Vec::new();
                }
                let mut ops: Vec<ChangeOp> =
                    db.children(n).iter().map(|&(l, c)| ChangeOp::rem_arc(n, l, c)).collect();
                ops.push(ChangeOp::UpdNode(n, Value::Int(rng.gen_range(0..9))));
                ops
            }
            Shape::Collected => match pick(rng, &past.collected) {
                Some(x) => match rng.gen_range(0..5) {
                    0 => vec![ChangeOp::add_arc(root, "ghost", x)],
                    1 => vec![ChangeOp::UpdNode(x, Value::Int(1))],
                    2 => vec![
                        ChangeOp::CreNode(x, Value::str("again")),
                        ChangeOp::add_arc(root, "again", x),
                    ],
                    3 => pick(rng, &past.lost).into_iter().map(ChangeOp::RemArc).collect(),
                    _ => vec![ChangeOp::rem_arc(x, "name", root)],
                },
                None => Vec::new(),
            },
            Shape::Create => {
                let fresh = db.clone().alloc_id();
                let value = if rng.gen_bool(0.5) { Value::Complex } else { Value::str("new") };
                let mut ops = vec![ChangeOp::CreNode(fresh, value)];
                if rng.gen_bool(0.8) {
                    ops.push(ChangeOp::add_arc(some_complex(rng), "new", fresh));
                }
                ops
            }
            Shape::Invalid => {
                let nowhere = NodeId::from_raw(u64::MAX / 2);
                let atomic = db.node_ids().find(|&n| !db.is_complex(n)).unwrap_or(nowhere);
                let any = pick(rng, &arcs).unwrap_or(ArcTriple::new(root, "x", nowhere));
                vec![match rng.gen_range(0..5) {
                    0 => ChangeOp::rem_arc(root, "no-such", any.child),
                    1 => ChangeOp::AddArc(any),
                    2 => ChangeOp::UpdNode(root, Value::Int(0)),
                    3 => ChangeOp::add_arc(atomic, "under-an-atom", root),
                    _ => ChangeOp::CreNode(any.child, Value::Int(0)),
                }]
            }
        }
    }

    /// The error a plain database reports for a set, as `DoemDatabase::apply`
    /// reports it: the failing operation's own error.
    fn op_error(e: OemError) -> String {
        match e {
            OemError::NoValidOrdering(op) => op.to_string(),
            e => e.to_string(),
        }
    }

    /// Drive one generated history through both paths, checking each set.
    /// Returns, per shape, how many non-empty sets were drawn and how many of
    /// them both paths accepted.
    fn run_history(seed: u64, n: usize, steps: usize) -> [(usize, usize); 7] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference = random_db(seed, n);
        let mut d = DoemDatabase::from_snapshot(&reference);
        let mut at: Timestamp = "1Jan97".parse().unwrap();
        let mut past = Past::default();
        let mut drawn = [(0, 0); 7];
        for step in 0..steps {
            let shape = step % SHAPES.len();
            let mut set = ChangeSet::new();
            let extra = pick(&mut rng, &SHAPES).unwrap();
            let mut ops = shaped_ops(&mut rng, &reference, &past, SHAPES[shape]);
            if rng.gen_bool(0.3) {
                ops.extend(shaped_ops(&mut rng, &reference, &past, extra));
            }
            for op in ops {
                // A structural conflict with an op already in the set: drop it.
                let _ = set.push(op);
            }
            if set.is_empty() {
                continue;
            }
            drawn[shape].0 += 1;
            at = at.plus_minutes(rng.gen_range(1..500));
            let mut native = d.clone();
            let mut plain = reference.clone();
            match (native.apply(&set, at), set.apply_to(&mut plain)) {
                (Ok(()), Ok(dead)) => {
                    drawn[shape].1 += 1;
                    prop_assert!(
                        same_database(&current_snapshot(&native), &plain),
                        "current snapshot diverges after {set}"
                    );
                    native.check_invariants().unwrap();
                    past.removed.extend(set.removed_arcs().iter().copied());
                    for &x in &dead {
                        let arcs = reference.children(x).iter().map(|&(l, c)| ArcTriple::new(x, l, c));
                        past.lost.extend(arcs);
                    }
                    past.collected.extend(dead);
                    d = native;
                    reference = plain;
                }
                (Err(native_err), Err(plain_err)) => {
                    prop_assert_eq!(native_err.to_string(), op_error(plain_err), "{}", set);
                    prop_assert!(same_doem(&native, &d), "rejected {} left a trace", set);
                }
                (native_verdict, plain_verdict) => panic!(
                    "verdicts differ on {set}: native {native_verdict:?}, plain {:?}",
                    plain_verdict.map(drop)
                ),
            }
        }
        drawn
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

        #[test]
        fn native_apply_agrees_with_the_oem_reference(
            seed in 0u64..5_000,
            n in 1usize..6,
            steps in 7usize..22,
        ) {
            run_history(seed, n, steps);
        }
    }

    /// Over a fixed batch of histories, the generator draws every shape, and
    /// each shape is both accepted and rejected somewhere (`Collected` and
    /// `Invalid` sets only ever draw rejections, unless an extra shape rides
    /// along).
    #[test]
    fn every_shape_is_drawn_and_judged_both_ways() {
        let mut total = [(0, 0); 7];
        for seed in 0..60 {
            let drawn = run_history(seed, 3, 21);
            for (t, d) in total.iter_mut().zip(drawn) {
                t.0 += d.0;
                t.1 += d.1;
            }
        }
        for (shape, (drawn, accepted)) in SHAPES.iter().zip(total) {
            assert!(drawn > 0, "{shape:?} never drawn");
            assert!(accepted < drawn, "{shape:?} never rejected");
            if !matches!(shape, Shape::Collected | Shape::Invalid) {
                assert!(accepted > 0, "{shape:?} never accepted");
            }
        }
    }
}
