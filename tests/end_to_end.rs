//! Whole-stack pipelines: high-level updates → basic ops → DOEM histories →
//! persistence → change queries → diffs, crossing every crate boundary.

mod common;

use chorel::{run_both_checked, run_chorel, Strategy};
use doem::{apply_set, current_snapshot, DoemDatabase};
use lorel::run_update;
use oem::{guide::guide_figure2, OemDatabase, Timestamp, Value};

fn ts(s: &str) -> Timestamp {
    s.parse().unwrap()
}

/// A session of Lorel update statements, recorded as a DOEM history,
/// persisted, reloaded, and queried with Chorel — the complete life of a
/// changing database.
#[test]
fn update_statements_to_doem_to_store_to_chorel() {
    let initial = guide_figure2();
    let mut doem = DoemDatabase::from_snapshot(&initial);
    let mut replica = initial.clone();

    let timeline = [
        (
            "1Jan97",
            "update guide.restaurant.price := 20 \
             where guide.restaurant.name = \"Bangkok Cuisine\"",
        ),
        ("2Jan97", "insert guide.restaurant := (name \"Hakata\")"),
        (
            "5Jan97",
            "insert guide.restaurant.comment := \"need info\" \
             where guide.restaurant.name = \"Hakata\"",
        ),
        (
            "8Jan97",
            "remove guide.restaurant.parking where guide.restaurant.name = \"Janta\"",
        ),
    ];
    for (when, stmt) in timeline {
        let compiled = run_update(&replica, stmt).expect("statement compiles");
        apply_set(&mut doem, &mut replica, &compiled.changes, ts(when)).expect("applies");
    }

    // The resulting DOEM database is feasible and answers the paper's
    // change queries correctly through both engines.
    assert!(doem::is_feasible(&doem));
    let r = run_both_checked(&doem, "select guide.<add at T>restaurant where T < 4Jan97")
        .unwrap();
    assert_eq!(r.len(), 1, "Hakata was added 2Jan97");
    let r = run_both_checked(
        &doem,
        "select OV, NV from guide.restaurant.price<upd from OV to NV>",
    )
    .unwrap();
    assert_eq!(r.rows[0].cols[0].1, lorel::Binding::Val(Value::Int(10)));
    assert_eq!(r.rows[0].cols[1].1, lorel::Binding::Val(Value::Int(20)));

    // Persist through the store; the reload answers identically.
    let dir = std::env::temp_dir().join(format!("e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = lore::LoreStore::open(&dir).unwrap();
    store.save_doem("session", &doem).unwrap();
    let reloaded = store.load_doem("session").unwrap();
    assert!(doem::same_doem(&doem, &reloaded));

    // The current snapshot diffs empty against the replica…
    let diff = oemdiff::diff(
        &current_snapshot(&reloaded),
        &replica,
        oemdiff::MatchMode::ById,
    )
    .unwrap();
    assert!(diff.is_empty());

    // …and the htmldiff markup against the original shows all three kinds
    // of change.
    let marked = oemdiff::markup(&initial, &replica, oemdiff::MatchMode::ById).unwrap();
    assert!(marked.contains("10 => 20"));
    assert!(marked.lines().any(|l| l.starts_with('+')));
    assert!(marked.lines().any(|l| l.starts_with('-')));
}

/// Virtual annotations answer "as of" questions that match independent
/// prefix replays, across a generated history.
#[test]
fn virtual_annotations_match_prefix_replay() {
    let db = common::random_db(123, 5);
    let h = common::random_history(&db, 123, 6, 4);
    let d = doem::doem_from_history(&db, &h).unwrap();

    for entry in h.entries() {
        // `R.price<at T>` means: the *current* price arcs, with each
        // object's value as of T (objects created after T drop out). The
        // replay-side mirror walks the same current arcs and reads the
        // bound object's value in the replayed state.
        let at = entry.at;
        let q = format!("select R.price<at \"{at}\"> from guide.restaurant R");
        let via_virtual = run_chorel(&d, &q, Strategy::Direct).unwrap();
        let mut replayed: OemDatabase = db.clone();
        h.prefix_through(at).apply_to(&mut replayed).unwrap();

        let current = current_snapshot(&d);
        let mut mirror: Vec<String> = Vec::new();
        for r in current.children_labeled(current.root(), oem::Label::new("restaurant")) {
            for p in current.children_labeled(r, oem::Label::new("price")) {
                if let Ok(v) = replayed.value(p) {
                    mirror.push(v.to_string());
                }
            }
        }
        let mut virt: Vec<String> = via_virtual
            .rows
            .iter()
            .filter_map(|row| match &row.cols[0].1 {
                lorel::Binding::Val(v) => Some(v.to_string()),
                _ => None,
            })
            .collect();
        virt.sort();
        virt.dedup();
        mirror.sort();
        mirror.dedup();
        assert_eq!(virt, mirror, "divergence as of {at}");
    }
}

/// DataGuides built over evolving snapshots always cover exactly the label
/// paths the engine can traverse.
#[test]
fn dataguide_agrees_with_path_evaluation() {
    let db = common::random_db(7, 8);
    let guide = lore::DataGuide::build(&db, Some(10_000)).expect("within budget");
    for path in guide.paths(3) {
        let targets = guide.target_set(&path).expect("enumerated path exists");
        let walked = oem::follow_path(&db, db.root(), &path);
        let mut a: Vec<_> = targets.to_vec();
        let mut b: Vec<_> = walked;
        a.sort();
        b.sort();
        b.dedup();
        assert_eq!(a, b, "path {path:?}");
    }
}
