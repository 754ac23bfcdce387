//! Serve's lock order, in the types.
//!
//! Every serve lock has a **level**, and the levels form one total order:
//! the `levels!` list below, outermost first, is its single source.
//! Acquiring a lock at level `L` takes a `&mut Token<H>` — a zero-sized
//! proof that the thread holds nothing after `H` — and compiles only
//! when `H` comes before `L` in the list (`H: Below<L>`). The guard keeps
//! that token borrowed for as long as it lives and hands out a
//! `Token<L>` ([`Guard::token`]) for what may nest inside it. So:
//!
//! * a reversed edge — taking an earlier level while holding a later one,
//!   or two locks of one level — is an `E0277` (`Below` is not
//!   implemented);
//! * a blocking call (fsync, `join`, `recv`, a socket write, a sleep, a
//!   reply wait) takes `&mut Token<Unlocked>`, directly or through
//!   [`Token::blocking`]; with any guard alive that token is borrowed,
//!   so the call is an `E0499`, and a guard's own token has the wrong
//!   type (`E0308`).
//!
//! A `Token<Unlocked>` is minted ([`Token::mint`]) only where no serve
//! lock can be held: a thread's entry closure, the `pub` methods of
//! `Service`, `Client`, `PendingReply` and `TcpHandle`, and the `Drop`
//! impls of `Service` and `TcpHandle`. It is neither
//! `Send` nor `Sync`, so a thread mints its own. Every token is zero-sized
//! and every wrapper forwards to `std::sync`, recovering a poisoned lock
//! rather than propagating the panic.
//!
//! A [`Leaf`] is the one lock taken without a token: `ResultCache`'s and
//! `Faults`', whose `pub` methods are called from outside serve. Each is
//! private to its module, held only inside that module's methods, and
//! takes no other lock and blocks on nothing while held.
//!
//! Under `DOEM_SANITIZE=1` every wrapper reports its holds to the runtime
//! sanitizer, which checks the two assumptions the types rest on: a
//! token is minted with no lock held, and no lock is taken under a leaf.
//! `#[track_caller]` keeps its findings naming the serve call site.

// The one module that names the raw lock types: it wraps them.
#![allow(clippy::disallowed_types)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::{self, PoisonError};
use std::time::Duration;

use sanitizer::LockTag;

/// A zero-sized proof that the current thread holds no serve lock after
/// level `L` in the `levels!` list. Not `Send`: a thread mints its own.
pub struct Token<L> {
    _level: PhantomData<fn() -> L>,
    _not_send: PhantomData<*const ()>,
}

impl<L> Token<L> {
    fn new() -> Token<L> {
        Token {
            _level: PhantomData,
            _not_send: PhantomData,
        }
    }
}

impl Token<Unlocked> {
    /// The caller asserts that this thread holds no serve lock: only a
    /// thread's entry closure, the `pub` methods of `Service`, `Client`,
    /// `PendingReply` and `TcpHandle`, and the `Drop` impls of `Service`
    /// and `TcpHandle` mint one (DESIGN.md §13). The sanitizer reports a
    /// mint with a lock held.
    #[track_caller]
    pub fn mint() -> Token<Unlocked> {
        if sanitizer::enabled() {
            sanitizer::on_mint(Location::caller());
        }
        Token::new()
    }

    /// Run a blocking call — an fsync, a `join`, a `recv`, a socket
    /// write, a sleep — which the borrow proves runs with no guard alive.
    pub fn blocking<R>(&mut self, call: impl FnOnce() -> R) -> R {
        call()
    }
}

/// `Self` comes before `L` in the `levels!` list: a thread whose
/// highest held level is `Self` may acquire a lock at `L`.
pub trait Below<L> {}

/// Declare the levels in order and implement [`Below`] for every ordered
/// pair, so the order is acyclic by construction.
macro_rules! levels {
    ($($(#[$doc:meta])* $level:ident,)*) => {
        $($(#[$doc])* pub enum $level {})*
        levels!(@below $($level)*);
    };
    (@below $first:ident $($rest:ident)*) => {
        $(impl Below<$rest> for $first {})*
        levels!(@below $($rest)*);
    };
    (@below) => {};
}

levels! {
    /// Level 0: nothing held. Every blocking call takes this token.
    Unlocked,
    /// `Shared.shards`, the registry of installed shards.
    ///
    /// A call that needs the unlocked token does not compile under this
    /// level's guard; dropping the guard first does:
    ///
    /// ```compile_fail,E0499
    /// use serve::lock_order::{Mutex, Shards, Token, Unlocked};
    /// fn fsync(_: &mut Token<Unlocked>) {}
    /// let lock = Mutex::<Shards, u8>::new(0);
    /// let unlocked = &mut Token::mint();
    /// let held = lock.lock(unlocked);
    /// fsync(unlocked);
    /// ```
    ///
    /// ```
    /// use serve::lock_order::{Mutex, Shards, Token, Unlocked};
    /// fn fsync(_: &mut Token<Unlocked>) {}
    /// let lock = Mutex::<Shards, u8>::new(0);
    /// let unlocked = &mut Token::mint();
    /// let held = lock.lock(unlocked);
    /// drop(held);
    /// fsync(unlocked);
    /// ```
    ///
    /// Taking it while holding `Sessions` does not compile; the other way
    /// round does:
    ///
    /// ```compile_fail,E0277
    /// use serve::lock_order::{Mutex, Sessions, Shards, Token};
    /// let shards = Mutex::<Shards, u8>::new(0);
    /// let sessions = Mutex::<Sessions, u8>::new(0);
    /// let (outer, inner) = (&sessions, &shards);
    /// let unlocked = &mut Token::mint();
    /// let mut held = outer.lock(unlocked);
    /// let _nested = inner.lock(held.token());
    /// ```
    ///
    /// ```
    /// use serve::lock_order::{Mutex, Sessions, Shards, Token};
    /// let shards = Mutex::<Shards, u8>::new(0);
    /// let sessions = Mutex::<Sessions, u8>::new(0);
    /// let (outer, inner) = (&shards, &sessions);
    /// let unlocked = &mut Token::mint();
    /// let mut held = outer.lock(unlocked);
    /// let _nested = inner.lock(held.token());
    /// ```
    Shards,
    /// A TCP endpoint's live session sockets.
    ///
    /// A call that needs the unlocked token does not compile under this
    /// level's guard; dropping the guard first does:
    ///
    /// ```compile_fail,E0499
    /// use serve::lock_order::{Mutex, Sessions, Token, Unlocked};
    /// fn fsync(_: &mut Token<Unlocked>) {}
    /// let lock = Mutex::<Sessions, u8>::new(0);
    /// let unlocked = &mut Token::mint();
    /// let held = lock.lock(unlocked);
    /// fsync(unlocked);
    /// ```
    ///
    /// ```
    /// use serve::lock_order::{Mutex, Sessions, Token, Unlocked};
    /// fn fsync(_: &mut Token<Unlocked>) {}
    /// let lock = Mutex::<Sessions, u8>::new(0);
    /// let unlocked = &mut Token::mint();
    /// let held = lock.lock(unlocked);
    /// drop(held);
    /// fsync(unlocked);
    /// ```
    ///
    /// Taking it while holding `Pipeline` does not compile; the other way
    /// round does:
    ///
    /// ```compile_fail,E0277
    /// use serve::lock_order::{Mutex, Pipeline, Sessions, Token};
    /// let sessions = Mutex::<Sessions, u8>::new(0);
    /// let pipeline = Mutex::<Pipeline, u8>::new(0);
    /// let (outer, inner) = (&pipeline, &sessions);
    /// let unlocked = &mut Token::mint();
    /// let mut held = outer.lock(unlocked);
    /// let _nested = inner.lock(held.token());
    /// ```
    ///
    /// ```
    /// use serve::lock_order::{Mutex, Pipeline, Sessions, Token};
    /// let sessions = Mutex::<Sessions, u8>::new(0);
    /// let pipeline = Mutex::<Pipeline, u8>::new(0);
    /// let (outer, inner) = (&sessions, &pipeline);
    /// let unlocked = &mut Token::mint();
    /// let mut held = outer.lock(unlocked);
    /// let _nested = inner.lock(held.token());
    /// ```
    Sessions,
    /// `CommitPipeline.inner`, a shard's sequencing head, commit queue,
    /// lineage and committer handle. Serve's one nesting is under it: the null-persist publish in
    /// `sequence` takes `State` while holding `Pipeline`.
    ///
    /// A call that needs the unlocked token does not compile under this
    /// level's guard; dropping the guard first does:
    ///
    /// ```compile_fail,E0499
    /// use serve::lock_order::{Mutex, Pipeline, Token, Unlocked};
    /// fn fsync(_: &mut Token<Unlocked>) {}
    /// let lock = Mutex::<Pipeline, u8>::new(0);
    /// let unlocked = &mut Token::mint();
    /// let held = lock.lock(unlocked);
    /// fsync(unlocked);
    /// ```
    ///
    /// ```
    /// use serve::lock_order::{Mutex, Pipeline, Token, Unlocked};
    /// fn fsync(_: &mut Token<Unlocked>) {}
    /// let lock = Mutex::<Pipeline, u8>::new(0);
    /// let unlocked = &mut Token::mint();
    /// let held = lock.lock(unlocked);
    /// drop(held);
    /// fsync(unlocked);
    /// ```
    ///
    /// Taking it while holding `State` does not compile; the other way
    /// round does:
    ///
    /// ```compile_fail,E0277
    /// use serve::lock_order::{Mutex, Pipeline, State, Token};
    /// let pipeline = Mutex::<Pipeline, u8>::new(0);
    /// let state = Mutex::<State, u8>::new(0);
    /// let (outer, inner) = (&state, &pipeline);
    /// let unlocked = &mut Token::mint();
    /// let mut held = outer.lock(unlocked);
    /// let _nested = inner.lock(held.token());
    /// ```
    ///
    /// ```
    /// use serve::lock_order::{Mutex, Pipeline, State, Token};
    /// let pipeline = Mutex::<Pipeline, u8>::new(0);
    /// let state = Mutex::<State, u8>::new(0);
    /// let (outer, inner) = (&pipeline, &state);
    /// let unlocked = &mut Token::mint();
    /// let mut held = outer.lock(unlocked);
    /// let _nested = inner.lock(held.token());
    /// ```
    Pipeline,
    /// `Shard.state`, a shard's published state.
    ///
    /// A call that needs the unlocked token does not compile under this
    /// level's guard; dropping the guard first does:
    ///
    /// ```compile_fail,E0499
    /// use serve::lock_order::{Mutex, State, Token, Unlocked};
    /// fn fsync(_: &mut Token<Unlocked>) {}
    /// let lock = Mutex::<State, u8>::new(0);
    /// let unlocked = &mut Token::mint();
    /// let held = lock.lock(unlocked);
    /// fsync(unlocked);
    /// ```
    ///
    /// ```
    /// use serve::lock_order::{Mutex, State, Token, Unlocked};
    /// fn fsync(_: &mut Token<Unlocked>) {}
    /// let lock = Mutex::<State, u8>::new(0);
    /// let unlocked = &mut Token::mint();
    /// let held = lock.lock(unlocked);
    /// drop(held);
    /// fsync(unlocked);
    /// ```
    ///
    /// Taking it while holding `Reply` does not compile; the other way
    /// round does:
    ///
    /// ```compile_fail,E0277
    /// use serve::lock_order::{Mutex, Reply, State, Token};
    /// let state = Mutex::<State, u8>::new(0);
    /// let reply = Mutex::<Reply, u8>::new(0);
    /// let (outer, inner) = (&reply, &state);
    /// let unlocked = &mut Token::mint();
    /// let mut held = outer.lock(unlocked);
    /// let _nested = inner.lock(held.token());
    /// ```
    ///
    /// ```
    /// use serve::lock_order::{Mutex, Reply, State, Token};
    /// let state = Mutex::<State, u8>::new(0);
    /// let reply = Mutex::<Reply, u8>::new(0);
    /// let (outer, inner) = (&state, &reply);
    /// let unlocked = &mut Token::mint();
    /// let mut held = outer.lock(unlocked);
    /// let _nested = inner.lock(held.token());
    /// ```
    State,
    /// `ReplySlot.state`, one request's reply rendezvous.
    ///
    /// A call that needs the unlocked token does not compile under this
    /// level's guard; dropping the guard first does:
    ///
    /// ```compile_fail,E0499
    /// use serve::lock_order::{Mutex, Reply, Token, Unlocked};
    /// fn fsync(_: &mut Token<Unlocked>) {}
    /// let lock = Mutex::<Reply, u8>::new(0);
    /// let unlocked = &mut Token::mint();
    /// let held = lock.lock(unlocked);
    /// fsync(unlocked);
    /// ```
    ///
    /// ```
    /// use serve::lock_order::{Mutex, Reply, Token, Unlocked};
    /// fn fsync(_: &mut Token<Unlocked>) {}
    /// let lock = Mutex::<Reply, u8>::new(0);
    /// let unlocked = &mut Token::mint();
    /// let held = lock.lock(unlocked);
    /// drop(held);
    /// fsync(unlocked);
    /// ```
    Reply,
}

/// A registered hold: the sanitizer hears of the release when this
/// drops. Empty while the sanitizer is off.
struct Held<'a>(Option<&'a LockTag>);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        if let Some(tag) = self.0 {
            sanitizer::on_unlock(tag);
        }
    }
}

/// A held lock at level `L`, taken with a `Token<H>`, which it keeps
/// borrowed; `G` is the `std::sync` guard underneath. A [`Leaf`]'s guard
/// has level `()`, which is below nothing.
pub struct Guard<'a, G, L, H> {
    inner: G,
    held: Held<'a>,
    token: Token<L>,
    _held: PhantomData<fn() -> H>,
}

/// The guard of a [`Mutex`] at level `L`, taken with a `Token<H>`.
pub type MutexGuard<'a, L, T, H> = Guard<'a, sync::MutexGuard<'a, T>, L, H>;
/// Shared access to an [`RwLock`] at level `L`.
pub type RwLockReadGuard<'a, L, T, H> = Guard<'a, sync::RwLockReadGuard<'a, T>, L, H>;
/// Exclusive access to an [`RwLock`] at level `L`.
pub type RwLockWriteGuard<'a, L, T, H> = Guard<'a, sync::RwLockWriteGuard<'a, T>, L, H>;
/// The guard of a [`Leaf`].
pub type LeafGuard<'a, T> = Guard<'a, sync::MutexGuard<'a, T>, (), ()>;

impl<'a, G, L, H> Guard<'a, G, L, H> {
    /// Run `acquire` between the sanitizer's two acquisition hooks; the
    /// first panics on a lock taken under a leaf instead of blocking.
    #[track_caller]
    fn acquire(tag: &'a LockTag, acquire: impl FnOnce() -> G) -> Self {
        let held = if sanitizer::enabled() {
            sanitizer::before_lock(tag, Location::caller());
            Some(tag)
        } else {
            None
        };
        let inner = acquire();
        if held.is_some() {
            sanitizer::after_lock(tag, Location::caller());
        }
        Guard {
            inner,
            held: Held(held),
            token: Token::new(),
            _held: PhantomData,
        }
    }

    /// The token for what may nest inside this guard.
    pub fn token(&mut self) -> &mut Token<L> {
        &mut self.token
    }
}

impl<G: Deref, L, H> Deref for Guard<'_, G, L, H> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut, L, H> DerefMut for Guard<'_, G, L, H> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

/// A mutex at level `L`.
pub struct Mutex<L, T> {
    tag: LockTag,
    inner: sync::Mutex<T>,
    _level: PhantomData<fn() -> L>,
}

impl<L, T> Mutex<L, T> {
    /// A new mutex.
    pub const fn new(value: T) -> Mutex<L, T> {
        Mutex {
            tag: LockTag::new(),
            inner: sync::Mutex::new(value),
            _level: PhantomData,
        }
    }

    /// Acquire the lock; the token proves nothing at `L` or after is held.
    #[track_caller]
    pub fn lock<'a, H: Below<L>>(&'a self, _held: &'a mut Token<H>) -> MutexGuard<'a, L, T, H> {
        Guard::acquire(&self.tag, || {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        })
    }
}

/// A reader-writer lock at level `L`.
///
/// A write under its own read guard does not compile (`L: Below<L>`
/// holds for no level), so it cannot self-deadlock; a write after the
/// read guard drops does:
///
/// ```compile_fail,E0277
/// use serve::lock_order::{RwLock, State, Token};
/// let lock = RwLock::<State, u8>::new(0);
/// let unlocked = &mut Token::mint();
/// let mut read = lock.read(unlocked);
/// let _write = lock.write(read.token());
/// ```
///
/// ```
/// use serve::lock_order::{RwLock, State, Token};
/// let lock = RwLock::<State, u8>::new(0);
/// let unlocked = &mut Token::mint();
/// drop(lock.read(unlocked));
/// let _write = lock.write(unlocked);
/// ```
pub struct RwLock<L, T> {
    tag: LockTag,
    inner: sync::RwLock<T>,
    _level: PhantomData<fn() -> L>,
}

impl<L, T> RwLock<L, T> {
    /// A new reader-writer lock.
    pub const fn new(value: T) -> RwLock<L, T> {
        RwLock {
            tag: LockTag::new(),
            inner: sync::RwLock::new(value),
            _level: PhantomData,
        }
    }

    /// Acquire shared access; the token proves nothing at `L` or after is
    /// held.
    #[track_caller]
    pub fn read<'a, H: Below<L>>(
        &'a self,
        _held: &'a mut Token<H>,
    ) -> RwLockReadGuard<'a, L, T, H> {
        Guard::acquire(&self.tag, || {
            self.inner.read().unwrap_or_else(PoisonError::into_inner)
        })
    }

    /// Acquire exclusive access; the token proves nothing at `L` or after
    /// is held.
    #[track_caller]
    pub fn write<'a, H: Below<L>>(
        &'a self,
        _held: &'a mut Token<H>,
    ) -> RwLockWriteGuard<'a, L, T, H> {
        Guard::acquire(&self.tag, || {
            self.inner.write().unwrap_or_else(PoisonError::into_inner)
        })
    }
}

/// A condition variable paired with a levelled [`Mutex`]. Waiting blocks,
/// so it takes only a guard acquired with the unlocked token: the paired
/// mutex is the one lock held, and the wait releases it.
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Block until notified, releasing the guard's lock meanwhile.
    #[track_caller]
    pub fn wait<'a, L, T>(
        &self,
        guard: MutexGuard<'a, L, T, Unlocked>,
    ) -> MutexGuard<'a, L, T, Unlocked> {
        Condvar::park(guard, |g| {
            self.inner.wait(g).unwrap_or_else(PoisonError::into_inner)
        })
    }

    /// Block until notified or `timeout` elapses.
    #[track_caller]
    pub fn wait_for<'a, L, T>(
        &self,
        guard: MutexGuard<'a, L, T, Unlocked>,
        timeout: Duration,
    ) -> MutexGuard<'a, L, T, Unlocked> {
        Condvar::park(guard, |g| match self.inner.wait_timeout(g, timeout) {
            Ok((g, _)) => g,
            Err(poisoned) => poisoned.into_inner().0,
        })
    }

    /// Run `wait` on the std guard, reporting the lock released to the
    /// sanitizer for the wait's duration.
    #[track_caller]
    fn park<'a, L, T>(
        guard: MutexGuard<'a, L, T, Unlocked>,
        wait: impl FnOnce(sync::MutexGuard<'a, T>) -> sync::MutexGuard<'a, T>,
    ) -> MutexGuard<'a, L, T, Unlocked> {
        let Guard {
            inner,
            held,
            token,
            _held,
        } = guard;
        let tag = held.0;
        drop(held);
        let inner = wait(inner);
        if let Some(tag) = tag {
            sanitizer::after_lock(tag, Location::caller());
        }
        Guard {
            inner,
            held: Held(tag),
            token,
            _held,
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A mutex outside the level order, taken without a token. Nothing may
/// be taken or blocked on while it is held: the sanitizer reports a lock
/// taken under a leaf and panics, so re-entering one fails instead of
/// hanging. `ResultCache` and `Faults` hold one each: their `pub`
/// methods are called from outside serve with no token in hand.
pub struct Leaf<T> {
    tag: LockTag,
    inner: sync::Mutex<T>,
}

impl<T> Leaf<T> {
    /// A new leaf mutex.
    pub const fn new(value: T) -> Leaf<T> {
        Leaf {
            tag: LockTag::leaf(),
            inner: sync::Mutex::new(value),
        }
    }

    /// Acquire the lock.
    #[track_caller]
    pub fn lock(&self) -> LeafGuard<'_, T> {
        Guard::acquire(&self.tag, || {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        })
    }
}

impl<T: fmt::Debug> fmt::Debug for Leaf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::<Shards, u8>::new(1);
        let unlocked = &mut Token::mint();
        *m.lock(unlocked) += 1;
        assert_eq!(*m.lock(unlocked), 2);
        let leaf = Leaf::new(1);
        *leaf.lock() += 1;
        assert_eq!(*leaf.lock(), 2);
    }

    #[test]
    fn rwlock_readers_coexist() {
        let l = Arc::new(RwLock::<State, u8>::new(5));
        let unlocked = &mut Token::mint();
        let a = l.read(unlocked);
        let l2 = Arc::clone(&l);
        let b = std::thread::spawn(move || *l2.read(&mut Token::mint()))
            .join()
            .unwrap();
        assert_eq!(*a + b, 10);
        drop(a);
        *l.write(unlocked) = 7;
        assert_eq!(*l.read(unlocked), 7);
    }

    #[test]
    fn poisoned_locks_recover() {
        let m = Arc::new((Mutex::<Shards, u8>::new(0), Leaf::new(0)));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let unlocked = &mut Token::mint();
            let _g = m2.0.lock(unlocked);
            let _l = m2.1.lock();
            panic!("poison both");
        })
        .join();
        assert_eq!(*m.0.lock(&mut Token::mint()), 0);
        assert_eq!(*m.1.lock(), 0);
    }

    #[test]
    fn condvar_signalling() {
        let pair = Arc::new((Mutex::<Reply, bool>::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            *lock.lock(&mut Token::mint()) = true;
            cv.notify_one();
        });
        let (lock, cv) = &*pair;
        let unlocked = &mut Token::mint();
        let mut done = lock.lock(unlocked);
        while !*done {
            done = cv.wait(done);
        }
        drop(done);
        t.join().unwrap();
    }
}
