//! Serve's lock order, in the types.
//!
//! Every serve lock has a **level**, and the levels form one total order:
//! the `levels!` list below, outermost first, is its single source.
//! Acquiring a lock at level `L` takes a `&mut Token<H>` — a zero-sized
//! proof that the thread holds nothing after `H` — and compiles only
//! when `H` comes before `L` in the list (`H: Below<L>`). The guard keeps
//! that token borrowed for as long as it lives and hands out a
//! `Token<L>` ([`MutexGuard::token`]) for what may nest inside it. So:
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
//! and every wrapper forwards to the compat `parking_lot`, which the
//! runtime sanitizer instruments: `#[track_caller]` keeps its findings
//! naming the serve call site.
//!
//! `ResultCache`'s and `Faults`' locks stay plain leaves: each is private
//! to its module, held only inside that module's methods, and takes no
//! other lock and blocks on nothing while held.

// The one module that names the unlevelled locks: it wraps them.
#![allow(clippy::disallowed_types)]

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

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
    /// and `TcpHandle` mint one (DESIGN.md §13).
    pub fn mint() -> Token<Unlocked> {
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

/// A mutex at level `L`.
pub struct Mutex<L, T> {
    inner: parking_lot::Mutex<T>,
    _level: PhantomData<fn() -> L>,
}

/// The guard of a [`Mutex`] at level `L`, taken with a `Token<H>`, which
/// it keeps borrowed.
pub struct MutexGuard<'a, L, T, H> {
    inner: parking_lot::MutexGuard<'a, T>,
    token: Token<L>,
    _held: PhantomData<fn() -> H>,
}

impl<L, T> Mutex<L, T> {
    /// A new mutex.
    pub const fn new(value: T) -> Mutex<L, T> {
        Mutex {
            inner: parking_lot::Mutex::new(value),
            _level: PhantomData,
        }
    }

    /// Acquire the lock; the token proves nothing at `L` or after is held.
    #[track_caller]
    pub fn lock<'a, H: Below<L>>(&'a self, _held: &'a mut Token<H>) -> MutexGuard<'a, L, T, H> {
        MutexGuard {
            inner: self.inner.lock(),
            token: Token::new(),
            _held: PhantomData,
        }
    }
}

impl<L, T, H> MutexGuard<'_, L, T, H> {
    /// The token for what may nest inside this guard.
    pub fn token(&mut self) -> &mut Token<L> {
        &mut self.token
    }
}

impl<L, T, H> Deref for MutexGuard<'_, L, T, H> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<L, T, H> DerefMut for MutexGuard<'_, L, T, H> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock at level `L`.
pub struct RwLock<L, T> {
    inner: parking_lot::RwLock<T>,
    _level: PhantomData<fn() -> L>,
}

/// Shared access to an [`RwLock`] at level `L`; keeps its token borrowed.
pub struct RwLockReadGuard<'a, L, T> {
    inner: parking_lot::RwLockReadGuard<'a, T>,
    token: Token<L>,
}

/// Exclusive access to an [`RwLock`] at level `L`; keeps its token
/// borrowed.
pub struct RwLockWriteGuard<'a, L, T> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
    token: Token<L>,
}

impl<L, T> RwLock<L, T> {
    /// A new reader-writer lock.
    pub const fn new(value: T) -> RwLock<L, T> {
        RwLock {
            inner: parking_lot::RwLock::new(value),
            _level: PhantomData,
        }
    }

    /// Acquire shared access; the token proves nothing at `L` or after is
    /// held.
    #[track_caller]
    pub fn read<'a, H: Below<L>>(&'a self, _held: &'a mut Token<H>) -> RwLockReadGuard<'a, L, T> {
        RwLockReadGuard {
            inner: self.inner.read(),
            token: Token::new(),
        }
    }

    /// Acquire exclusive access; the token proves nothing at `L` or after
    /// is held.
    #[track_caller]
    pub fn write<'a, H: Below<L>>(&'a self, _held: &'a mut Token<H>) -> RwLockWriteGuard<'a, L, T> {
        RwLockWriteGuard {
            inner: self.inner.write(),
            token: Token::new(),
        }
    }
}

impl<L, T> RwLockReadGuard<'_, L, T> {
    /// The token for what may nest inside this guard.
    pub fn token(&mut self) -> &mut Token<L> {
        &mut self.token
    }
}

impl<L, T> RwLockWriteGuard<'_, L, T> {
    /// The token for what may nest inside this guard.
    pub fn token(&mut self) -> &mut Token<L> {
        &mut self.token
    }
}

impl<L, T> Deref for RwLockReadGuard<'_, L, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<L, T> Deref for RwLockWriteGuard<'_, L, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<L, T> DerefMut for RwLockWriteGuard<'_, L, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable paired with a levelled [`Mutex`]. Waiting blocks,
/// so it takes only a guard acquired with the unlocked token: the paired
/// mutex is the one lock held, and the wait releases it.
#[derive(Default)]
pub struct Condvar {
    inner: parking_lot::Condvar,
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: parking_lot::Condvar::new(),
        }
    }

    /// Block until notified, releasing the guard's lock meanwhile.
    #[track_caller]
    pub fn wait<L, T>(&self, guard: &mut MutexGuard<'_, L, T, Unlocked>) {
        self.inner.wait(&mut guard.inner);
    }

    /// Block until notified or `timeout` elapses.
    #[track_caller]
    pub fn wait_for<L, T>(&self, guard: &mut MutexGuard<'_, L, T, Unlocked>, timeout: Duration) {
        self.inner.wait_for(&mut guard.inner, timeout);
    }

    /// Wake one waiter.
    #[track_caller]
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    #[track_caller]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}
