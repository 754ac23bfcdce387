//! End-to-end QSS scenarios, including the paper's Example 6.1 / Figure 6
//! trace, the library motivating example, structural-matching sources, and
//! persistence through the Lore store.

use lorel::{Binding, QueryRegistry};
use oem::{Timestamp, Value};
use qss::{
    library_source, EvolvingSource, PreviousResult, QssServer, ScrambledSource, ScriptedSource,
    Subscription,
};

fn ts(s: &str) -> Timestamp {
    s.parse().unwrap()
}

fn example_6_1_subscription() -> Subscription {
    let mut reg = QueryRegistry::new();
    reg.load(
        "define polling query Restaurants as select guide.restaurant \
         define filter query NewRestaurants as \
         select Restaurants.restaurant<cre at T> where T > t[-1]",
    )
    .unwrap();
    Subscription::from_registry(
        "S",
        "every night at 11:30pm".parse().unwrap(),
        &reg,
        "Restaurants",
        "NewRestaurants",
    )
    .unwrap()
}

/// The full Example 6.1 trace: t1 notifies both initial restaurants, t2 is
/// silent, t3 notifies exactly the new Hakata object.
#[test]
fn example_6_1_full_trace() {
    let mut server = QssServer::new(ScriptedSource::paper_guide());
    let client = server.attach_client();
    server.subscribe(example_6_1_subscription(), ts("30Dec96 10:00am"));
    let executed = server.run_until(ts("1Jan97 11:30pm")).unwrap();
    assert_eq!(executed, 3, "three polls: 30Dec, 31Dec, 1Jan");

    let polls = server.polls();
    assert_eq!(polls.len(), 3);
    // t1: everything is created; filter returns the two initial objects.
    assert_eq!(polls[0].at, ts("30Dec96 11:30pm"));
    assert_eq!(polls[0].filter_rows, 2);
    // t2: source unchanged; empty diff; no notification.
    assert_eq!(polls[1].at, ts("31Dec96 11:30pm"));
    assert_eq!(polls[1].changes, 0);
    assert_eq!(polls[1].filter_rows, 0);
    // t3: Hakata was added on 1Jan97 (before the 11:30pm poll).
    assert_eq!(polls[2].at, ts("1Jan97 11:30pm"));
    assert!(polls[2].changes > 0);
    assert_eq!(polls[2].filter_rows, 1);

    // Notifications: only t1 and t3.
    let notes = server.notifications();
    assert_eq!(notes.len(), 2);
    assert_eq!(notes[0].rows(), 2);
    assert_eq!(notes[1].rows(), 1);

    // The t3 notification's result contains the Hakata restaurant with its
    // name subobject packaged along.
    let hakata = &notes[1].result;
    assert!(hakata
        .db
        .node_ids()
        .any(|n| hakata.db.value(n).ok() == Some(&Value::str("Hakata"))));

    // The attached client received the same two notifications.
    let received: Vec<_> = client.try_iter().collect();
    assert_eq!(received.len(), 2);
    assert_eq!(received[1].at, ts("1Jan97 11:30pm"));
}

/// Running one more poll past the paper's trace: 2Jan97 was quiet, so no
/// notification; 5Jan97's comment does not create a new *restaurant*.
#[test]
fn polls_after_the_trace_stay_silent_for_new_restaurants() {
    let mut server = QssServer::new(ScriptedSource::paper_guide());
    server.subscribe(example_6_1_subscription(), ts("30Dec96 10:00am"));
    server.run_until(ts("9Jan97 11:30pm")).unwrap();
    // Polls: 30,31 Dec; 1..9 Jan = 11 polls; notifications still 2.
    assert_eq!(server.polls().len(), 11);
    assert_eq!(server.notifications().len(), 2);
    // But the DOEM database keeps accumulating history: the comment added
    // on 5Jan97 and the parking arc removed on 8Jan97 are all recorded.
    let d = server.doem_of("S").unwrap();
    let t5 = d
        .annotated_nodes()
        .filter_map(|n| d.created_at(n))
        .filter(|t| *t == ts("5Jan97 11:30pm"))
        .count();
    assert!(t5 >= 1, "comment creation recorded at the 5Jan97 poll");
}

/// A filter query over removals: notify when a restaurant loses parking.
#[test]
fn removal_subscription_fires_on_the_parking_removal() {
    let mut reg = QueryRegistry::new();
    reg.load(
        "define polling query Guide as select guide.restaurant \
         define filter query LostParking as \
         select R.name from Guide.restaurant R \
         where R.<rem at T>parking and T > t[-1]",
    )
    .unwrap();
    let sub = Subscription::from_registry(
        "P",
        "every day at 11:30pm".parse().unwrap(),
        &reg,
        "Guide",
        "LostParking",
    )
    .unwrap();
    let mut server = QssServer::new(ScriptedSource::paper_guide());
    server.subscribe(sub, ts("30Dec96 10:00am"));
    server.run_until(ts("9Jan97 11:30pm")).unwrap();
    let notes = server.notifications();
    assert_eq!(notes.len(), 1, "exactly the 8Jan97 removal fires");
    assert_eq!(notes[0].at, ts("8Jan97 11:30pm"));
    let row = &notes[0].result.rows[0];
    let Binding::Node(n) = row.cols[0].1 else { panic!() };
    assert_eq!(
        notes[0].result.db.value(n).unwrap(),
        &Value::str("Janta")
    );
}

/// The library motivating example: "notify me when a popular book becomes
/// available" — popular means checked out twice recently; Dune is returned
/// on 2Jan97.
#[test]
fn library_popular_book_becomes_available() {
    let mut reg = QueryRegistry::new();
    reg.load(
        "define polling query Books as \
         select library.book \
         define filter query PopularAvailable as \
         select B.title from Books.book B \
         where B.available<upd at T to NV> and NV = true and T > t[-1] \
           and exists C1 in B.circulation.checkout : C1 >= 1Dec96",
    )
    .unwrap();
    let sub = Subscription::from_registry(
        "L",
        "every day at 6:00am".parse().unwrap(),
        &reg,
        "Books",
        "PopularAvailable",
    )
    .unwrap();
    let mut server = QssServer::new(library_source());
    server.subscribe(sub, ts("30Nov96 9:00pm"));
    server.run_until(ts("5Jan97")).unwrap();
    let notes = server.notifications();
    assert_eq!(notes.len(), 1);
    assert_eq!(notes[0].at, ts("2Jan97 6:00am"));
    let row = &notes[0].result.rows[0];
    let Binding::Node(n) = row.cols[0].1 else { panic!() };
    assert_eq!(notes[0].result.db.value(n).unwrap(), &Value::str("Dune"));
}

/// Sources that do not preserve ids across polls force the structural
/// matcher; the trace must come out the same.
#[test]
fn scrambled_source_with_structural_matching_reproduces_the_trace() {
    let source = ScrambledSource::new(ScriptedSource::paper_guide(), 17);
    let mut server = QssServer::new(source);
    server.subscribe(
        example_6_1_subscription().with_structural_matching(),
        ts("30Dec96 10:00am"),
    );
    server.run_until(ts("1Jan97 11:30pm")).unwrap();
    let polls = server.polls();
    assert_eq!(polls.len(), 3);
    assert_eq!(polls[0].filter_rows, 2);
    assert_eq!(polls[1].changes, 0, "structural diff sees no change");
    assert_eq!(polls[2].filter_rows, 1, "only Hakata is new");
}

/// Both Chorel strategies and both previous-result modes produce the same
/// notifications.
#[test]
fn strategies_and_space_modes_agree() {
    let run = |strategy, mode| {
        let mut server = QssServer::new(ScriptedSource::paper_guide())
            .with_strategy(strategy)
            .with_previous_mode(mode);
        server.subscribe(example_6_1_subscription(), ts("30Dec96 10:00am"));
        server.run_until(ts("9Jan97 11:30pm")).unwrap();
        server
            .polls()
            .iter()
            .map(|p| (p.at, p.changes, p.filter_rows))
            .collect::<Vec<_>>()
    };
    let base = run(chorel::Strategy::Direct, PreviousResult::Keep);
    assert_eq!(base, run(chorel::Strategy::Translated, PreviousResult::Keep));
    assert_eq!(
        base,
        run(chorel::Strategy::Direct, PreviousResult::RecomputeFromDoem)
    );
}

/// The incremental filter paths (DESIGN.md §11) carry the Example 6.1
/// trace: the idiomatic `T > t[-1]` filter is answered by the anchored
/// O(delta) evaluator on change-carrying polls and proven empty from the
/// group's change clock on quiet ones — never by a full evaluation.
#[test]
fn example_6_1_filters_run_incrementally() {
    let mut server = QssServer::new(ScriptedSource::paper_guide());
    server.subscribe(example_6_1_subscription(), ts("30Dec96 10:00am"));
    server.run_until(ts("1Jan97 11:30pm")).unwrap();
    let stats = server.stats();
    // t1 (everything new) and t3 (Hakata) evaluate in the anchored window;
    // t2's window is provably empty: the last fold predates t[-1].
    assert_eq!(stats.filters_anchored, 2);
    assert_eq!(stats.filters_proven_empty, 1);
    assert_eq!(stats.filters_full, 0);
    assert_eq!(stats.polls_elided, 0, "ScriptedSource exposes no version");
}

/// A translated-strategy server takes the full-evaluation path for every
/// filter (restriction sets do not map onto the Section 5.1 encoding) and
/// still produces the identical trace — `strategies_and_space_modes_agree`
/// checks row equality, this checks the accounting.
#[test]
fn translated_strategy_counts_full_evaluations() {
    let mut server =
        QssServer::new(ScriptedSource::paper_guide()).with_strategy(chorel::Strategy::Translated);
    server.subscribe(example_6_1_subscription(), ts("30Dec96 10:00am"));
    server.run_until(ts("1Jan97 11:30pm")).unwrap();
    let stats = server.stats();
    assert_eq!(stats.filters_full, 3);
    assert_eq!(stats.filters_anchored, 0);
    assert_eq!(stats.filters_proven_empty, 0);
}

/// A source that can report a version lets the server elide the polling
/// query, OEMdiff, and history append on unchanged polls — the trace and
/// notifications are identical to the blind-polling run.
#[test]
fn version_gate_elides_unchanged_polls() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct VersionedSource {
        inner: ScriptedSource,
        version: Arc<AtomicU64>,
    }
    impl qss::Source for VersionedSource {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn state_at(&self, t: Timestamp) -> oem::OemDatabase {
            self.inner.state_at(t)
        }
        fn version(&self) -> Option<u64> {
            Some(self.version.load(Ordering::SeqCst))
        }
    }

    let version = Arc::new(AtomicU64::new(1));
    let mut server = QssServer::new(VersionedSource {
        inner: ScriptedSource::paper_guide(),
        version: version.clone(),
    });
    server.subscribe(example_6_1_subscription(), ts("30Dec96 10:00am"));

    // t1: first poll always pays the pipeline (no version on record yet).
    server.poll("S", ts("30Dec96 11:30pm")).unwrap();
    assert_eq!(server.stats().polls_elided, 0);
    // t2: version unchanged — polling query, diff, and append all elided,
    // but the poll is still recorded and the filter still answered.
    server.poll("S", ts("31Dec96 11:30pm")).unwrap();
    assert_eq!(server.stats().polls_elided, 1);
    // t3: the source changed (Hakata); the wrapper bumps its version and
    // the full pipeline runs again.
    version.fetch_add(1, Ordering::SeqCst);
    let t3 = server.poll("S", ts("1Jan97 11:30pm")).unwrap();
    assert_eq!(server.stats().polls_elided, 1);

    // The trace matches the blind-polling Example 6.1 run exactly.
    let polls: Vec<_> = server
        .polls()
        .iter()
        .map(|p| (p.at, p.changes, p.filter_rows))
        .collect();
    assert_eq!(
        polls,
        vec![
            (ts("30Dec96 11:30pm"), 30, 2),
            (ts("31Dec96 11:30pm"), 0, 0),
            (ts("1Jan97 11:30pm"), 5, 1),
        ]
    );
    assert_eq!(t3.unwrap().rows(), 1);
    assert_eq!(server.notifications().len(), 2);
}

/// DOEM databases persist through the Lore store and reload faithfully.
#[test]
fn subscription_doem_persists_and_reloads() {
    let dir = std::env::temp_dir().join(format!("qss-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = lore::LoreStore::open(&dir).unwrap();
    let mut server =
        QssServer::new(ScriptedSource::paper_guide()).with_store(lore::LoreStore::open(&dir).unwrap());
    server.subscribe(example_6_1_subscription(), ts("30Dec96 10:00am"));
    server.run_until(ts("1Jan97 11:30pm")).unwrap();

    let reloaded = store.load_doem("S").unwrap();
    assert!(doem::same_doem(server.doem_of("S").unwrap(), &reloaded));
    // The reloaded database answers the filter query identically.
    let r = chorel::run_both_checked(
        &reloaded,
        "select Restaurants.restaurant<cre at T> where T > 31Dec96",
    )
    .unwrap();
    assert_eq!(r.len(), 1);
}

/// Multiple subscriptions with different frequencies interleave in global
/// time order.
#[test]
fn multiple_subscriptions_interleave() {
    let mut reg = QueryRegistry::new();
    reg.load(
        "define polling query Guide as select guide.restaurant \
         define filter query Everything as select Guide.restaurant",
    )
    .unwrap();
    let hourly = Subscription::from_registry(
        "hourly",
        "every 6 hours".parse().unwrap(),
        &reg,
        "Guide",
        "Everything",
    )
    .unwrap();
    let nightly = Subscription::from_registry(
        "nightly",
        "every night at 11:30pm".parse().unwrap(),
        &reg,
        "Guide",
        "Everything",
    )
    .unwrap();
    let mut server = QssServer::new(ScriptedSource::paper_guide());
    server.subscribe(hourly, ts("30Dec96"));
    server.subscribe(nightly, ts("30Dec96"));
    server.run_until(ts("31Dec96")).unwrap();
    // hourly fires at 6:00, 12:00, 18:00, 24:00(=31Dec 0:00); nightly at 23:30.
    let order: Vec<(Timestamp, String)> = server
        .polls()
        .iter()
        .map(|p| (p.at, p.subscription.clone()))
        .collect();
    let mut sorted = order.clone();
    sorted.sort();
    assert_eq!(order, sorted, "polls must run in global time order");
    assert_eq!(order.len(), 5);
    assert_eq!(server.subscription_ids(), vec!["hourly", "nightly"]);
}

/// A churning synthetic source: every poll's diff must replay exactly, and
/// the DOEM database must stay feasible throughout.
#[test]
fn evolving_source_keeps_doem_feasible() {
    let source = EvolvingSource::new("gen", 7, ts("1Jan97"), 60, 12, 4);
    let mut reg = QueryRegistry::new();
    reg.load(
        "define polling query Gen as select guide.restaurant \
         define filter query News as \
         select Gen.restaurant<cre at T> where T > t[-1]",
    )
    .unwrap();
    let sub =
        Subscription::from_registry("G", "every 2 hours".parse().unwrap(), &reg, "Gen", "News")
            .unwrap();
    let mut server = QssServer::new(source);
    server.subscribe(sub, ts("1Jan97"));
    server.run_until(ts("1Jan97 11:00pm")).unwrap();
    assert!(server.polls().len() >= 10);
    let d = server.doem_of("G").unwrap();
    d.check_invariants().unwrap();
    assert!(doem::is_feasible(d), "accumulated DOEM must stay feasible");
    // History extraction matches the polls that saw changes.
    let h = doem::extract_history(d).unwrap();
    let changed_polls = server.polls().iter().filter(|p| p.changes > 0).count();
    assert_eq!(h.len(), changed_polls);
}

/// Unsubscribing stops future polls.
#[test]
fn unsubscribe_stops_polling() {
    let mut server = QssServer::new(ScriptedSource::paper_guide());
    server.subscribe(example_6_1_subscription(), ts("30Dec96 10:00am"));
    server.run_until(ts("30Dec96 11:30pm")).unwrap();
    assert_eq!(server.polls().len(), 1);
    server.unsubscribe("S");
    server.run_until(ts("9Jan97")).unwrap();
    assert_eq!(server.polls().len(), 1);
    assert!(server.subscription_ids().is_empty());
}

/// ECA triggers (the Section 7 extension): fire on events within the
/// latest polling window, with conditions over bound variables.
#[test]
fn eca_triggers_fire_through_the_poll_cycle() {
    use qss::{Trigger, TriggerEvent};

    let mut server = QssServer::new(ScriptedSource::paper_guide());
    let client = server.attach_client();
    server.subscribe(example_6_1_subscription(), ts("30Dec96 10:00am"));
    assert!(server.add_trigger(
        "S",
        Trigger::new("price-hike", TriggerEvent::Updated("price".into())).when("NV > OV"),
    ));
    assert!(server.add_trigger(
        "S",
        Trigger::new("parking-lost", TriggerEvent::Removed("parking".into())).record_only(),
    ));
    assert!(!server.add_trigger("nope", Trigger::new("x", TriggerEvent::Created("y".into()))));

    server.run_until(ts("9Jan97 11:30pm")).unwrap();

    // The price hike fired once, at the 1Jan97 poll.
    let hikes: Vec<_> = server
        .trigger_log()
        .iter()
        .filter(|f| f.trigger == "price-hike")
        .collect();
    assert_eq!(hikes.len(), 1);
    assert_eq!(hikes[0].at, ts("1Jan97 11:30pm"));

    // The parking removal fired once, at the 8Jan97 poll — recorded but
    // NOT notified (record-only action).
    let lost: Vec<_> = server
        .trigger_log()
        .iter()
        .filter(|f| f.trigger == "parking-lost")
        .collect();
    assert_eq!(lost.len(), 1);
    assert_eq!(lost[0].at, ts("8Jan97 11:30pm"));

    let notes: Vec<_> = client.try_iter().collect();
    assert!(notes.iter().any(|n| n.subscription == "S/price-hike"));
    assert!(!notes.iter().any(|n| n.subscription.contains("parking-lost")));
}

/// Disabled triggers stay silent; re-enabling resumes them.
#[test]
fn triggers_can_be_disabled() {
    use qss::{Trigger, TriggerEvent};

    let mut server = QssServer::new(ScriptedSource::paper_guide());
    server.subscribe(example_6_1_subscription(), ts("30Dec96 10:00am"));
    server.add_trigger(
        "S",
        Trigger::new("any-update", TriggerEvent::Updated("price".into())),
    );
    assert!(server.set_trigger_enabled("S", "any-update", false));
    server.run_until(ts("9Jan97 11:30pm")).unwrap();
    assert!(server.trigger_log().is_empty());
    assert!(!server.set_trigger_enabled("S", "no-such", true));
}

/// Section 6 space optimization: subscriptions with the same polling query
/// share one DOEM database when merging is enabled.
#[test]
fn merged_subscriptions_share_one_doem() {
    let mut reg = QueryRegistry::new();
    reg.load(
        "define polling query Guide as select guide.restaurant \
         define filter query News as \
           select Guide.restaurant<cre at T> where T > t[-1] \
         define filter query Removals as \
           select R.name from Guide.restaurant R where R.<rem at T>parking and T > t[-1]",
    )
    .unwrap();
    let nightly = Subscription::from_registry(
        "nightly",
        "every night at 11:30pm".parse().unwrap(),
        &reg,
        "Guide",
        "News",
    )
    .unwrap();
    let hourly = Subscription::from_registry(
        "hourly",
        "every 6 hours".parse().unwrap(),
        &reg,
        "Guide",
        "Removals",
    )
    .unwrap();

    let mut merged = QssServer::new(ScriptedSource::paper_guide()).with_merged_subscriptions();
    merged.subscribe(nightly.clone(), ts("30Dec96 10:00am"));
    merged.subscribe(hourly.clone(), ts("30Dec96 10:00am"));
    assert_eq!(merged.group_count(), 1, "same polling query shares state");
    merged.run_until(ts("9Jan97 11:30pm")).unwrap();

    // Unmerged baseline for comparison.
    let mut split = QssServer::new(ScriptedSource::paper_guide());
    split.subscribe(nightly, ts("30Dec96 10:00am"));
    split.subscribe(hourly, ts("30Dec96 10:00am"));
    assert_eq!(split.group_count(), 2);
    split.run_until(ts("9Jan97 11:30pm")).unwrap();

    // Both servers produce the same notifications per subscription.
    let summarize = |s: &QssServer<ScriptedSource>| {
        let mut v: Vec<(String, Timestamp, usize)> = s
            .notifications()
            .iter()
            .map(|n| (n.subscription.clone(), n.at, n.rows()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(summarize(&merged), summarize(&split));
    assert!(!merged.notifications().is_empty());

    // The shared DOEM is one object: both ids resolve to identical state.
    let a = merged.doem_of("nightly").unwrap();
    let b = merged.doem_of("hourly").unwrap();
    assert!(doem::same_doem(a, b));
}

/// The paper's trigger-driven snapshot mode: a cooperating source reports
/// its change times, so QSS polls exactly when something happened.
#[test]
fn event_driven_polling_hits_every_change() {
    let mut server = QssServer::new(ScriptedSource::paper_guide());
    server.subscribe(example_6_1_subscription(), ts("30Dec96 10:00am"));
    let executed = server
        .run_event_driven("S", ts("30Dec96"), ts("9Jan97"))
        .unwrap();
    // Three source changes (1, 5, 8 Jan) plus the closing poll.
    assert_eq!(executed, 4);
    let changed: Vec<_> = server
        .polls()
        .iter()
        .filter(|p| p.changes > 0)
        .map(|p| p.at)
        .collect();
    assert_eq!(changed, vec![ts("1Jan97"), ts("5Jan97"), ts("8Jan97")]);
    // No wasted empty polls besides the closing one.
    assert_eq!(
        server.polls().iter().filter(|p| p.changes == 0).count(),
        1
    );
}

/// Server restarts: persist mid-trace, restore into a fresh server, and
/// the remainder of the Example 6.1 trace plays out exactly as if the
/// server had never stopped.
#[test]
fn server_state_survives_restarts() {
    use qss::{Trigger, TriggerEvent};
    let dir = std::env::temp_dir().join(format!("qss-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = lore::LoreStore::open(&dir).unwrap();

    // Uninterrupted reference run.
    let mut reference = QssServer::new(ScriptedSource::paper_guide());
    reference.subscribe(example_6_1_subscription(), ts("30Dec96 10:00am"));
    reference.add_trigger(
        "S",
        Trigger::new("hike", TriggerEvent::Updated("price".into())).when("NV > OV"),
    );
    reference.run_until(ts("9Jan97 11:30pm")).unwrap();

    // Interrupted run: stop after the second poll, persist, restore, finish.
    let mut first_half = QssServer::new(ScriptedSource::paper_guide());
    first_half.subscribe(example_6_1_subscription(), ts("30Dec96 10:00am"));
    first_half.add_trigger(
        "S",
        Trigger::new("hike", TriggerEvent::Updated("price".into())).when("NV > OV"),
    );
    first_half.run_until(ts("31Dec96 11:30pm")).unwrap();
    assert_eq!(first_half.polls().len(), 2);
    first_half.persist_state(&store).unwrap();
    drop(first_half);

    let mut restored =
        QssServer::restore_state(ScriptedSource::paper_guide(), &store).unwrap();
    assert_eq!(restored.subscription_ids(), vec!["S"]);
    restored.run_until(ts("9Jan97 11:30pm")).unwrap();

    // The post-restart polls mirror the reference run's tail: same change
    // counts and filter rows at the same times.
    let tail = |polls: &[qss::PollRecord]| -> Vec<(Timestamp, usize, usize)> {
        polls
            .iter()
            .filter(|p| p.at > ts("31Dec96 11:30pm"))
            .map(|p| (p.at, p.changes, p.filter_rows))
            .collect()
    };
    assert_eq!(tail(reference.polls()), tail(restored.polls()));
    // Including the trigger firing on 1Jan97 and the accumulated DOEM.
    assert_eq!(restored.trigger_log().len(), 1);
    assert!(doem::same_doem(
        reference.doem_of("S").unwrap(),
        restored.doem_of("S").unwrap()
    ));
}
