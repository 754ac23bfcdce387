//! The QSS server (Section 6.1, Figure 7).
//!
//! One [`QssServer`] hosts many subscriptions over one source, wiring the
//! paper's five modules together:
//!
//! * **Subscription Manager** — subscription records, polling schedules,
//!   per-subscription DOEM database identity;
//! * **Query Manager** — sends the polling Lorel query to the wrapper and
//!   collects the OEM result;
//! * **OEMdiff** — infers the change set between consecutive results;
//! * **DOEM Manager** — folds the change set into the subscription's DOEM
//!   database (persisting through the Lore store when configured);
//! * **Chorel Engine** — preprocesses `t[i]`, evaluates the filter query,
//!   and pushes non-empty results to clients.
//!
//! Time is simulated: polls run at the timestamps implied by each
//! subscription's frequency specification, against the source's state *at
//! that timestamp* — no wall clock anywhere, so every scenario is
//! deterministic and replayable.
//!
//! Three incremental paths (DESIGN.md §11) bound the per-poll cost by the
//! *changes* rather than the database, which is what lets one server carry
//! very large subscription populations: a [`Source::version`] gate elides
//! the polling query and OEMdiff when the source provably did not change;
//! a filter whose `where` clause anchors an annotation timestamp (the
//! idiomatic `T > t[-1]`) is answered exactly by
//! [`chorel::delta::anchored_eval`] over the annotations in the anchored
//! window; and when the group's change clock proves that window empty, the
//! filter is answered without evaluating anything. [`QssServer::stats`]
//! counts each path.

use crate::{Notification, PollRecord, Source, Subscription, Trigger, TriggerAction, TriggerFiring};
use chorel::{resolve_poll_times, run_chorel_parsed, Strategy};
use crossbeam::channel::{unbounded, Receiver, Sender};
use doem::DoemDatabase;
use lorel::{LorelError, QueryResult};
use lore::LoreStore;
use oem::{OemDatabase, Timestamp};
use oemdiff::diff;
use std::collections::HashMap;

/// Space/time trade-off for the previous polling result (end of
/// Section 6: "the DOEM Manager could store the previous result in
/// addition to the DOEM database, thereby trading space for time").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PreviousResult {
    /// Keep the plain previous result materialized (time-optimal).
    #[default]
    Keep,
    /// Recompute it from the DOEM database's current snapshot each poll
    /// (space-optimal — the paper's default formulation).
    RecomputeFromDoem,
}

struct SubState {
    sub: Subscription,
    poll_times: Vec<Timestamp>,
    /// ECA triggers attached to this subscription (Section 7 extension).
    triggers: Vec<Trigger>,
    /// Index into the server's poll groups (subscriptions with the same
    /// polling query may share one DOEM database — the first space
    /// optimization at the end of Section 6).
    group: usize,
    next_due: Timestamp,
}

/// One shared DOEM state: the accumulated database plus the previous
/// polling result, keyed by the polling query.
struct PollGroup {
    /// `(polling name, polling query text)` — the sharing key.
    key: (String, String),
    doem: DoemDatabase,
    /// The previous polling result — the current snapshot of `doem` —
    /// that OEMdiff compares the next result against. Kept only in
    /// [`PreviousResult::Keep`] mode, and rebuilt from `doem` when absent.
    previous: Option<OemDatabase>,
    /// The source version observed by this group's last poll, when the
    /// source exposes one ([`Source::version`]). An unchanged version lets
    /// the next poll elide the polling query, OEMdiff, and history append.
    last_version: Option<u64>,
    /// The latest timestamp at which a non-empty change set was folded
    /// into `doem` — the upper bound of every annotation timestamp in it.
    /// `None` means provably no change was ever folded; a restored group
    /// uses [`Timestamp::INFINITY`] (change times unknown, never skip).
    last_change_at: Option<Timestamp>,
}

/// Counters for the incremental evaluation paths (DESIGN.md §11): how much
/// of the per-poll pipeline the server managed to elide.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QssStats {
    /// Polls that skipped the polling query, OEMdiff, and history append
    /// because the source version was unchanged.
    pub polls_elided: u64,
    /// Filter evaluations answered by the anchored O(delta) path
    /// (`chorel::delta::anchored_eval`).
    pub filters_anchored: u64,
    /// Filter evaluations proven empty from the group's change clock
    /// without touching the engine at all.
    pub filters_proven_empty: u64,
    /// Filter evaluations that paid a full evaluation (no usable anchor,
    /// or a non-direct strategy).
    pub filters_full: u64,
}

/// The QSS server.
pub struct QssServer<S: Source> {
    source: S,
    subs: HashMap<String, SubState>,
    groups: Vec<PollGroup>,
    /// When true, subscriptions with identical polling queries share one
    /// DOEM database.
    merge_similar: bool,
    clients: Vec<Sender<Notification>>,
    /// All notifications ever produced (non-empty filter results).
    notifications: Vec<Notification>,
    /// One record per poll, empty or not (diagnostics/experiments).
    polls: Vec<PollRecord>,
    /// Every trigger firing (Section 7 ECA extension).
    trigger_log: Vec<TriggerFiring>,
    strategy: Strategy,
    previous_mode: PreviousResult,
    store: Option<LoreStore>,
    stats: QssStats,
}

impl<S: Source> QssServer<S> {
    /// Create a server over `source`.
    pub fn new(source: S) -> QssServer<S> {
        QssServer {
            source,
            subs: HashMap::new(),
            groups: Vec::new(),
            merge_similar: false,
            clients: Vec::new(),
            notifications: Vec::new(),
            polls: Vec::new(),
            trigger_log: Vec::new(),
            strategy: Strategy::Direct,
            previous_mode: PreviousResult::Keep,
            store: None,
            stats: QssStats::default(),
        }
    }

    /// Counters for the incremental paths: elided polls, anchored filter
    /// evaluations, proven-empty skips, and full-evaluation fallbacks.
    pub fn stats(&self) -> QssStats {
        self.stats
    }

    /// Share one DOEM database among subscriptions whose polling queries
    /// are identical (the paper's first space-saving idea in Section 6).
    pub fn with_merged_subscriptions(mut self) -> QssServer<S> {
        self.merge_similar = true;
        self
    }

    /// Choose the Chorel execution strategy for filter queries.
    pub fn with_strategy(mut self, strategy: Strategy) -> QssServer<S> {
        self.strategy = strategy;
        self
    }

    /// Choose the previous-result space/time trade-off.
    pub fn with_previous_mode(mut self, mode: PreviousResult) -> QssServer<S> {
        self.previous_mode = mode;
        self
    }

    /// Persist each subscription's DOEM database (as its OEM encoding)
    /// into a Lore store after every poll.
    pub fn with_store(mut self, store: LoreStore) -> QssServer<S> {
        self.store = Some(store);
        self
    }

    /// Attach a client; it receives every future non-empty notification.
    pub fn attach_client(&mut self) -> Receiver<Notification> {
        let (tx, rx) = unbounded();
        self.clients.push(tx);
        rx
    }

    /// Register a subscription created at `created_at`. The first poll
    /// happens at the first frequency-implied time after creation.
    pub fn subscribe(&mut self, sub: Subscription, created_at: Timestamp) {
        let key = (sub.polling_name.clone(), sub.polling.to_string());
        let group = if self.merge_similar {
            self.groups.iter().position(|g| g.key == key)
        } else {
            None
        };
        let group = group.unwrap_or_else(|| {
            // R0 is the empty OEM database (Section 6), named after the
            // polling query so filter paths resolve. Its root uses the
            // shared result-root id so consecutive polling results diff
            // by identity.
            let empty = OemDatabase::with_root_id(
                sub.polling_name.clone(),
                oem::NodeId::from_raw(lorel::RESULT_ROOT_RAW),
            );
            self.groups.push(PollGroup {
                key,
                doem: DoemDatabase::from_snapshot(&empty),
                previous: Some(empty),
                last_version: None,
                last_change_at: None,
            });
            self.groups.len() - 1
        });
        let next_due = sub.frequency.next_after(created_at);
        let state = SubState {
            poll_times: Vec::new(),
            triggers: Vec::new(),
            group,
            next_due,
            sub,
        };
        self.subs.insert(state.sub.id.clone(), state);
    }

    /// Number of distinct DOEM databases currently maintained.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Whether similar polling queries share one DOEM database.
    pub fn merges_similar(&self) -> bool {
        self.merge_similar
    }

    /// Internal view for persistence.
    pub(crate) fn subscription_snapshot(
        &self,
        id: &str,
    ) -> Option<crate::persist::SubscriptionSnapshot<'_>> {
        self.subs.get(id).map(|s| crate::persist::SubscriptionSnapshot {
            sub: &s.sub,
            poll_times: &s.poll_times,
            next_due: s.next_due,
            triggers: &s.triggers,
        })
    }

    /// Install a restored subscription with its accumulated state
    /// (persistence path; see `persist.rs`).
    pub(crate) fn install_restored(
        &mut self,
        sub: Subscription,
        doem: DoemDatabase,
        poll_times: Vec<Timestamp>,
        next_due: Timestamp,
    ) {
        let key = (sub.polling_name.clone(), sub.polling.to_string());
        let group = if self.merge_similar {
            self.groups.iter().position(|g| g.key == key)
        } else {
            None
        };
        let group = group.unwrap_or_else(|| {
            self.groups.push(PollGroup {
                key,
                doem,
                previous: None,
                last_version: None,
                // Restored history: annotation times are unknown here, so
                // the proven-empty skip must never fire.
                last_change_at: Some(Timestamp::INFINITY),
            });
            self.groups.len() - 1
        });
        let state = SubState {
            poll_times,
            triggers: Vec::new(),
            group,
            next_due,
            sub,
        };
        self.subs.insert(state.sub.id.clone(), state);
    }

    /// Attach an ECA trigger to a subscription. Returns false if the
    /// subscription does not exist.
    pub fn add_trigger(&mut self, subscription: &str, trigger: Trigger) -> bool {
        match self.subs.get_mut(subscription) {
            Some(s) => {
                s.triggers.push(trigger);
                true
            }
            None => false,
        }
    }

    /// Enable or disable a trigger by name. Returns false if not found.
    pub fn set_trigger_enabled(&mut self, subscription: &str, name: &str, enabled: bool) -> bool {
        self.subs
            .get_mut(subscription)
            .and_then(|s| s.triggers.iter_mut().find(|t| t.name == name))
            .map(|t| {
                t.enabled = enabled;
            })
            .is_some()
    }

    /// All trigger firings so far.
    pub fn trigger_log(&self) -> &[TriggerFiring] {
        &self.trigger_log
    }

    /// Remove a subscription.
    pub fn unsubscribe(&mut self, id: &str) {
        self.subs.remove(id);
    }

    /// Ids of active subscriptions, sorted.
    pub fn subscription_ids(&self) -> Vec<String> {
        let mut v: Vec<String> = self.subs.keys().cloned().collect();
        v.sort();
        v
    }

    /// The accumulated DOEM database of a subscription (possibly shared
    /// with other subscriptions under `with_merged_subscriptions`).
    pub fn doem_of(&self, id: &str) -> Option<&DoemDatabase> {
        self.subs.get(id).map(|s| &self.groups[s.group].doem)
    }

    /// All notifications so far.
    pub fn notifications(&self) -> &[Notification] {
        &self.notifications
    }

    /// All poll records so far.
    pub fn polls(&self) -> &[PollRecord] {
        &self.polls
    }

    /// Advance simulated time through `horizon`, executing every due poll
    /// of every subscription in global time order.
    pub fn run_until(&mut self, horizon: Timestamp) -> Result<usize, LorelError> {
        let mut executed = 0;
        loop {
            let due = self
                .subs
                .iter()
                .filter(|(_, s)| s.next_due <= horizon)
                .min_by_key(|(id, s)| (s.next_due, (*id).clone()))
                .map(|(id, s)| (id.clone(), s.next_due));
            let Some((id, at)) = due else { break };
            self.poll(&id, at)?;
            executed += 1;
        }
        Ok(executed)
    }

    /// Event-driven polling (the paper's trigger mode): poll `id` at every
    /// source change time in `(after, horizon]`, plus once at `horizon`
    /// so the `t[i]` window closes. Falls back to `run_until` when the
    /// source exposes no trigger mechanism. Returns the executed polls.
    pub fn run_event_driven(
        &mut self,
        id: &str,
        after: Timestamp,
        horizon: Timestamp,
    ) -> Result<usize, LorelError> {
        let Some(mut times) = self.source.change_times(after, horizon) else {
            return self.run_until(horizon);
        };
        if times.last() != Some(&horizon) {
            times.push(horizon);
        }
        let mut executed = 0;
        for t in times {
            self.poll(id, t)?;
            executed += 1;
        }
        Ok(executed)
    }

    /// Execute one poll of subscription `id` at time `at` (also usable for
    /// the paper's explicit-request mode). Advances the schedule.
    pub fn poll(&mut self, id: &str, at: Timestamp) -> Result<Option<Notification>, LorelError> {
        let state = self
            .subs
            .get_mut(id)
            .ok_or_else(|| LorelError::UnknownQuery(id.to_string()))?;

        // --- Version gate (DESIGN.md §11): an unchanged source version
        // proves the snapshot identical to the previous poll's, so the
        // polling query, OEMdiff, and the history append are all elided.
        // The poll time is still recorded and the filter stage still runs,
        // so notification semantics are untouched.
        let group = &mut self.groups[state.group];
        let version = self.source.version();
        let elide = version.is_some() && version == group.last_version;
        let mut n_changes = 0;
        if elide {
            self.stats.polls_elided += 1;
        } else {
            // --- Query Manager: polling query against the wrapper's view ---
            let source_view = self.source.state_at(at);
            let polled = lorel::run_parsed(&source_view, &state.sub.polling)?;
            let mut result_db = polled.db;
            result_db.set_name(state.sub.polling_name.clone());

            // --- OEMdiff: previous result vs new result ---
            let mut previous = group.previous.take().unwrap_or_else(|| {
                let mut snap = doem::current_snapshot(&group.doem);
                snap.set_name(state.sub.polling_name.clone());
                snap
            });
            let diff_result = diff(&previous, &result_db, state.sub.match_mode)
                .map_err(|e| LorelError::LimitExceeded(format!("diff failed: {e}")))?;
            n_changes = diff_result.changes.len();

            // --- DOEM Manager: fold the change set into the history ---
            if !diff_result.changes.is_empty() {
                let changes = &diff_result.changes;
                let mut appended = group.doem.apply(changes, at).map_err(|e| e.to_string());
                if appended.is_ok() && self.previous_mode == PreviousResult::Keep {
                    appended = changes.apply_to(&mut previous).map(drop).map_err(|e| e.to_string());
                }
                let failed = |e| LorelError::LimitExceeded(format!("history append failed: {e}"));
                appended.map_err(failed)?;
                group.last_change_at = Some(at);
            }
            if self.previous_mode == PreviousResult::Keep {
                group.previous = Some(previous);
            }
            group.last_version = version;
            if let Some(store) = &self.store {
                store
                    .save_doem(&state.sub.id, &group.doem)
                    .map_err(|e| LorelError::LimitExceeded(format!("store failed: {e}")))?;
            }
        }
        state.poll_times.push(at);

        // --- Chorel Engine: t[i] preprocessing + filter query ---
        let filter = resolve_poll_times(&state.sub.filter, &state.poll_times)?;
        let anchor = if self.strategy == Strategy::Direct {
            chorel::delta::filter_anchor(&filter, group.doem.name())?
        } else {
            None
        };
        let result = match anchor {
            Some(anchor) => {
                // Every annotation timestamp in the group's DOEM database
                // is at most `last_change_at`, so an anchor strictly ahead
                // of it proves the answer empty with zero evaluations.
                let quiet = match group.last_change_at {
                    None => true,
                    Some(last) if anchor.strict => last <= anchor.at,
                    Some(last) => last < anchor.at,
                };
                if quiet {
                    self.stats.filters_proven_empty += 1;
                    chorel::delta::package_rows(&group.doem, &lorel::Rows { rows: Vec::new() })
                } else {
                    self.stats.filters_anchored += 1;
                    chorel::delta::anchored_eval(&group.doem, &filter, &anchor)?
                }
            }
            None => {
                self.stats.filters_full += 1;
                run_chorel_parsed(&group.doem, &filter, self.strategy)?
            }
        };

        // --- ECA triggers (Section 7 extension) -------------------------
        let mut fired: Vec<(TriggerFiring, TriggerAction)> = Vec::new();
        for trigger in state.triggers.iter().filter(|t| t.enabled) {
            let compiled = trigger.compile(&state.sub.polling_name)?;
            let compiled = resolve_poll_times(&compiled, &state.poll_times)?;
            let hit = run_chorel_parsed(&group.doem, &compiled, self.strategy)?;
            if !hit.is_empty() {
                fired.push((
                    TriggerFiring {
                        subscription: id.to_string(),
                        trigger: trigger.name.clone(),
                        at,
                        result: hit,
                    },
                    trigger.action,
                ));
            }
        }

        // Schedule the next poll.
        state.next_due = state.sub.frequency.next_after(at);

        let record = PollRecord {
            subscription: id.to_string(),
            at,
            changes: n_changes,
            filter_rows: result.len(),
        };
        self.polls.push(record);

        for (firing, action) in fired {
            if action == TriggerAction::Notify {
                let n = Notification {
                    subscription: format!("{}/{}", firing.subscription, firing.trigger),
                    at,
                    result: firing.result.clone(),
                };
                self.clients.retain(|tx| tx.send(n.clone()).is_ok());
                self.notifications.push(n);
            }
            self.trigger_log.push(firing);
        }

        if result.is_empty() {
            return Ok(None);
        }
        let notification = Notification {
            subscription: id.to_string(),
            at,
            result,
        };
        self.clients
            .retain(|tx| tx.send(notification.clone()).is_ok());
        self.notifications.push(notification.clone());
        Ok(Some(notification))
    }
}

/// Convenience: the result database of the latest notification for a
/// subscription, if any.
pub fn latest_result<'a>(
    notifications: &'a [Notification],
    subscription: &str,
) -> Option<&'a QueryResult> {
    notifications
        .iter()
        .rev()
        .find(|n| n.subscription == subscription)
        .map(|n| &n.result)
}
