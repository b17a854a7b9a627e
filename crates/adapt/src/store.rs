//! The live profile store: sharded, atomic-swap published
//! [`UserProfile`] snapshots.
//!
//! Serving threads read profiles the way stream readers read a
//! [`LiveContext`](evorec_stream::LiveContext): they clone an `Arc`
//! under a briefly held read lock and never wait on an update — updates
//! build the successor profile *outside* the map lock (serialised per
//! shard by a writer lock) and then swap the pointer. The update hook
//! itself is exactly [`FeedbackLoop::apply`], pinned by the
//! `online == batch-replay` property test: folding a feedback stream
//! through the store leaves every profile bit-identical to replaying
//! the same events over a plain profile in batch.

use crate::event::Reaction;
use evorec_core::{FeedbackLoop, FeedbackSignal, Item, UserId, UserProfile};
use evorec_kb::FxHashMap;
use sched::sync::atomic::{AtomicU64, Ordering};
use sched::sync::{Mutex, RwLock};
use std::sync::Arc;

/// Construction options of a [`ProfileStore`].
#[derive(Clone, Copy, Debug)]
pub struct ProfileStoreOptions {
    /// Number of shards user profiles spread over (clamped to ≥ 1).
    pub shards: usize,
    /// The profile-update policy feedback events apply through.
    pub feedback: FeedbackLoop,
    /// Multiplicative interest decay applied per epoch tick (clamped to
    /// `[0, 1]`; `1.0` disables decay). Old interests fade so a
    /// curator's profile tracks what they care about *now* — the
    /// paper's human model is not static.
    pub decay: f64,
}

impl Default for ProfileStoreOptions {
    fn default() -> Self {
        ProfileStoreOptions {
            shards: 16,
            feedback: FeedbackLoop::default(),
            decay: 1.0,
        }
    }
}

/// Cumulative counters of a [`ProfileStore`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileStoreStats {
    /// Feedback events applied.
    pub updates: u64,
    /// Decay epochs applied.
    pub decay_epochs: u64,
    /// Profiles auto-created on first contact.
    pub auto_created: u64,
}

/// One shard: the published snapshots plus a writer lock serialising
/// copy-on-write updates so readers only ever contend with the pointer
/// swap itself.
// lint: lock-order writer < map
struct Shard {
    writer: Mutex<()>,
    map: RwLock<FxHashMap<UserId, Arc<UserProfile>>>,
}

/// Apply one epoch of multiplicative interest decay to `profile` —
/// the same arithmetic [`ProfileStore::decay_epoch`] applies online, so
/// batch replays can reproduce decay boundaries exactly.
pub fn decay_interests(profile: &mut UserProfile, factor: f64) {
    let interests: Vec<_> = profile.interests().collect();
    for (term, weight) in interests {
        profile.set_interest(term, weight * factor);
    }
}

/// The profile of a user the store has never seen, named after the id.
fn blank(user: UserId) -> UserProfile {
    UserProfile::new(user, user.to_string())
}

/// A sharded map of `UserId → Arc<UserProfile>` with lock-light reads
/// and copy-on-write updates.
pub struct ProfileStore {
    shards: Vec<Shard>,
    feedback: FeedbackLoop,
    decay: f64,
    updates: AtomicU64,
    decay_epochs: AtomicU64,
    auto_created: AtomicU64,
}

impl ProfileStore {
    /// An empty store.
    pub fn new(options: ProfileStoreOptions) -> ProfileStore {
        let shards = options.shards.max(1);
        ProfileStore {
            shards: (0..shards)
                .map(|_| Shard {
                    writer: Mutex::new(()),
                    map: RwLock::new(FxHashMap::default()),
                })
                .collect(),
            feedback: options.feedback,
            decay: options.decay.clamp(0.0, 1.0),
            updates: AtomicU64::new(0),
            decay_epochs: AtomicU64::new(0),
            auto_created: AtomicU64::new(0),
        }
    }

    /// An empty store with [`ProfileStoreOptions::default`].
    pub fn with_defaults() -> ProfileStore {
        ProfileStore::new(ProfileStoreOptions::default())
    }

    /// The profile-update policy.
    pub fn feedback(&self) -> &FeedbackLoop {
        &self.feedback
    }

    /// The per-epoch decay factor.
    pub fn decay(&self) -> f64 {
        self.decay
    }

    fn shard(&self, user: UserId) -> &Shard {
        &self.shards[user.0 as usize % self.shards.len()]
    }

    /// Publish `profile`, replacing any existing snapshot for its id.
    pub fn insert(&self, profile: UserProfile) {
        let shard = self.shard(profile.id);
        let _writer = shard.writer.lock();
        shard.map.write().insert(profile.id, Arc::new(profile));
    }

    /// Publish every profile of an iterator (seeding a population).
    pub fn seed(&self, profiles: impl IntoIterator<Item = UserProfile>) {
        for profile in profiles {
            self.insert(profile);
        }
    }

    /// The current snapshot of `user`'s profile. Never blocks on an
    /// in-flight update — only on the pointer swap itself.
    pub fn get(&self, user: UserId) -> Option<Arc<UserProfile>> {
        self.shard(user).map.read().get(&user).cloned()
    }

    /// The current snapshot of `user`'s profile, or the blank profile
    /// first contact would create for a user the store has never seen.
    /// Read-only: the blank is not stored and not counted as created,
    /// so serving an unseeded user leaves the store as it was.
    pub fn get_or_blank(&self, user: UserId) -> Arc<UserProfile> {
        self.get(user).unwrap_or_else(|| Arc::new(blank(user)))
    }

    /// Like [`get`](ProfileStore::get), but first contact publishes a
    /// blank profile (named after the id) so feedback from users the
    /// store was never seeded with is adapted on rather than dropped.
    pub fn get_or_create(&self, user: UserId) -> Arc<UserProfile> {
        if let Some(profile) = self.get(user) {
            return profile;
        }
        let shard = self.shard(user);
        let _writer = shard.writer.lock();
        // Re-check under the writer lock: another creator may have won.
        if let Some(profile) = shard.map.read().get(&user) {
            return Arc::clone(profile);
        }
        let fresh = Arc::new(blank(user));
        shard.map.write().insert(user, Arc::clone(&fresh));
        self.auto_created.fetch_add(1, Ordering::Relaxed);
        fresh
    }

    /// Apply one feedback signal to `user`'s profile through the
    /// store's [`FeedbackLoop`] — the online update hook. The successor
    /// profile is built copy-on-write and swapped in atomically; the
    /// interest delta applied to the item's focus is returned.
    pub fn apply(&self, user: UserId, item: &Item, signal: FeedbackSignal) -> f64 {
        let shard = self.shard(user);
        let _writer = shard.writer.lock();
        let current = match shard.map.read().get(&user) {
            Some(profile) => Arc::clone(profile),
            None => {
                self.auto_created.fetch_add(1, Ordering::Relaxed);
                Arc::new(blank(user))
            }
        };
        let mut next = (*current).clone();
        let delta = self.feedback.apply(&mut next, item, signal);
        shard.map.write().insert(user, Arc::new(next));
        self.updates.fetch_add(1, Ordering::Relaxed);
        delta
    }

    /// Apply a reaction (convenience over
    /// [`apply`](ProfileStore::apply) via [`Reaction::signal`]).
    pub fn react(&self, user: UserId, item: &Item, reaction: Reaction) -> f64 {
        self.apply(user, item, reaction.signal())
    }

    /// Apply a run of feedback signals to one user's profile with a
    /// single copy-on-write pass: one clone, every event folded in
    /// order, one pointer swap. Exactly equivalent to calling
    /// [`apply`](ProfileStore::apply) per event (profiles depend only
    /// on their own user's event order), but the micro-batching worker
    /// pays the clone once per user per batch instead of per event.
    /// Returns the number of events applied; an empty run leaves the
    /// store untouched.
    pub fn apply_batch<'a>(
        &self,
        user: UserId,
        events: impl IntoIterator<Item = (&'a Item, FeedbackSignal)>,
    ) -> usize {
        let shard = self.shard(user);
        let _writer = shard.writer.lock();
        let (current, created) = match shard.map.read().get(&user) {
            Some(profile) => (Arc::clone(profile), false),
            None => (Arc::new(blank(user)), true),
        };
        let mut next = (*current).clone();
        let mut applied = 0usize;
        for (item, signal) in events {
            self.feedback.apply(&mut next, item, signal);
            applied += 1;
        }
        if applied == 0 {
            return 0;
        }
        if created {
            self.auto_created.fetch_add(1, Ordering::Relaxed);
        }
        shard.map.write().insert(user, Arc::new(next));
        self.updates.fetch_add(applied as u64, Ordering::Relaxed);
        applied
    }

    /// Advance the epoch clock: every profile's interests decay by the
    /// configured factor (a no-op when the factor is `1.0`, beyond the
    /// epoch counter). Swaps are per-profile, so readers interleave
    /// freely; a profile is never observed mid-decay.
    pub fn decay_epoch(&self) {
        self.decay_epochs.fetch_add(1, Ordering::Relaxed);
        if self.decay >= 1.0 {
            return;
        }
        for shard in &self.shards {
            let _writer = shard.writer.lock();
            let users: Vec<UserId> = shard.map.read().keys().copied().collect();
            for user in users {
                let current = match shard.map.read().get(&user) {
                    Some(profile) => Arc::clone(profile),
                    None => continue,
                };
                let mut next = (*current).clone();
                decay_interests(&mut next, self.decay);
                shard.map.write().insert(user, Arc::new(next));
            }
        }
    }

    /// Number of stored profiles.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.read().len()).sum()
    }

    /// `true` when no profile is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every stored user id, ascending.
    pub fn users(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> = self
            .shards
            .iter()
            .flat_map(|s| s.map.read().keys().copied().collect::<Vec<_>>())
            .collect();
        users.sort_unstable();
        users
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ProfileStoreStats {
        ProfileStoreStats {
            updates: self.updates.load(Ordering::Relaxed),
            decay_epochs: self.decay_epochs.load(Ordering::Relaxed),
            auto_created: self.auto_created.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for ProfileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileStore")
            .field("profiles", &self.len())
            .field("shards", &self.shards.len())
            .field("decay", &self.decay)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::TermId;
    use evorec_measures::{MeasureCategory, MeasureId};

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    fn item(focus: u32) -> Item {
        Item::new(
            MeasureId::new("m"),
            MeasureCategory::ChangeCounting,
            t(focus),
            1.0,
        )
    }

    #[test]
    fn apply_matches_plain_feedback_loop() {
        let store = ProfileStore::with_defaults();
        store.insert(UserProfile::new(UserId(1), "a").with_interest(t(1), 0.5));
        let online = store.apply(UserId(1), &item(1), FeedbackSignal::Accepted);

        let mut batch = UserProfile::new(UserId(1), "a").with_interest(t(1), 0.5);
        let offline = FeedbackLoop::default().apply(&mut batch, &item(1), FeedbackSignal::Accepted);
        assert_eq!(online, offline);
        let snapshot = store.get(UserId(1)).unwrap();
        assert_eq!(snapshot.interest(t(1)), batch.interest(t(1)));
        assert!(snapshot.has_seen(&item(1).measure, t(1)));
    }

    #[test]
    fn readers_keep_their_snapshot_across_updates() {
        let store = ProfileStore::with_defaults();
        store.insert(UserProfile::new(UserId(1), "a").with_interest(t(1), 0.5));
        let before = store.get(UserId(1)).unwrap();
        store.apply(UserId(1), &item(1), FeedbackSignal::Accepted);
        let after = store.get(UserId(1)).unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "update swapped the pointer");
        assert_eq!(before.interest(t(1)), 0.5, "old snapshot is immutable");
        assert!(after.interest(t(1)) > 0.5);
    }

    #[test]
    fn apply_batch_equals_sequential_applies() {
        let one = ProfileStore::with_defaults();
        let many = ProfileStore::with_defaults();
        let events: Vec<(Item, FeedbackSignal)> = (0..7)
            .map(|i| {
                let signal = [
                    FeedbackSignal::Accepted,
                    FeedbackSignal::Rejected,
                    FeedbackSignal::Ignored,
                ][i % 3];
                (item(i as u32 % 3), signal)
            })
            .collect();
        let applied = one.apply_batch(UserId(5), events.iter().map(|(i, s)| (i, *s)));
        assert_eq!(applied, events.len());
        for (it, signal) in &events {
            many.apply(UserId(5), it, *signal);
        }
        let batched = one.get(UserId(5)).unwrap();
        let sequential = many.get(UserId(5)).unwrap();
        assert_eq!(batched.interest_count(), sequential.interest_count());
        for (term, weight) in sequential.interests() {
            assert_eq!(batched.interest(term), weight);
        }
        assert_eq!(batched.seen_count(), sequential.seen_count());
        assert_eq!(one.stats().updates, many.stats().updates);
        assert_eq!(one.stats().auto_created, 1);
        // An empty run touches nothing — not even first contact.
        assert_eq!(one.apply_batch(UserId(99), std::iter::empty()), 0);
        assert!(one.get(UserId(99)).is_none());
    }

    #[test]
    fn first_contact_auto_creates() {
        let store = ProfileStore::with_defaults();
        assert!(store.get(UserId(9)).is_none());
        store.react(UserId(9), &item(2), Reaction::Accept);
        let profile = store.get(UserId(9)).expect("auto-created");
        assert_eq!(profile.name, "u9");
        assert!(profile.interest(t(2)) > 0.0);
        assert_eq!(store.stats().auto_created, 1);
        let via_get = store.get_or_create(UserId(10));
        assert_eq!(via_get.name, "u10");
        assert_eq!(store.stats().auto_created, 2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.users(), vec![UserId(9), UserId(10)]);
    }

    #[test]
    fn get_or_blank_serves_the_first_contact_blank_without_storing_it() {
        let store = ProfileStore::with_defaults();
        store.insert(UserProfile::new(UserId(1), "seeded").with_interest(t(2), 1.0));
        let blank = store.get_or_blank(UserId(900_001));
        assert_eq!(blank.id, UserId(900_001));
        assert_eq!(blank.name, "u900001");
        assert_eq!(blank.interest_count(), 0);
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().auto_created, 0);
        // A stored profile is served as its published snapshot.
        let seeded = store.get_or_blank(UserId(1));
        assert!(Arc::ptr_eq(&seeded, &store.get(UserId(1)).unwrap()));
        // The blank is the profile first contact stores.
        assert_eq!(store.get_or_create(UserId(900_001)).name, blank.name);
    }

    #[test]
    fn decay_fades_interests_on_the_epoch_clock() {
        let store = ProfileStore::new(ProfileStoreOptions {
            decay: 0.5,
            ..Default::default()
        });
        store.insert(UserProfile::new(UserId(1), "a").with_interest(t(1), 0.8));
        store.decay_epoch();
        assert_eq!(store.get(UserId(1)).unwrap().interest(t(1)), 0.4);
        store.decay_epoch();
        assert_eq!(store.get(UserId(1)).unwrap().interest(t(1)), 0.2);
        assert_eq!(store.stats().decay_epochs, 2);

        // decay 1.0 ticks the clock without touching interests.
        let frozen = ProfileStore::with_defaults();
        frozen.insert(UserProfile::new(UserId(1), "a").with_interest(t(1), 0.8));
        let before = frozen.get(UserId(1)).unwrap();
        frozen.decay_epoch();
        assert!(Arc::ptr_eq(&before, &frozen.get(UserId(1)).unwrap()));
    }

    #[test]
    fn shards_spread_users() {
        let store = ProfileStore::new(ProfileStoreOptions {
            shards: 4,
            ..Default::default()
        });
        for u in 0..32 {
            store.insert(UserProfile::new(UserId(u), format!("u{u}")));
        }
        assert_eq!(store.len(), 32);
        assert_eq!(store.users().len(), 32);
        // Zero shards clamps rather than panicking.
        let tiny = ProfileStore::new(ProfileStoreOptions {
            shards: 0,
            ..Default::default()
        });
        tiny.insert(UserProfile::new(UserId(1), "a"));
        assert_eq!(tiny.len(), 1);
    }
}
