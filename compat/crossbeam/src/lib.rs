//! Offline stand-in for the slice of `crossbeam` this workspace uses:
//! the [`channel`] module's bounded MPMC channel, the
//! admission/backpressure primitive of `prom_core::serving`. Scoped
//! threads come from [`std::thread::scope`] instead.
//!
//! Channels are a from-scratch `Mutex<VecDeque>` + two-`Condvar` queue —
//! unlike std `mpsc`, both halves are cloneable (**multi-producer,
//! multi-consumer**; the serving front-end hands out many producer
//! handles) and a capacity bound turns `send` into a blocking
//! backpressure point with a non-blocking `try_send` escape. Three
//! divergences from real crossbeam, none used by the workspace:
//! rendezvous channels (`bounded(0)`) are not supported, and neither
//! `unbounded` nor `select!` exists.

#![warn(missing_docs)]

/// MPMC channels (mirrors the used subset of `crossbeam::channel`).
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    /// The error returned by [`Sender::send`] when every receiver has been
    /// dropped; gives the unsent value back.
    pub struct SendError<T>(pub T);

    // Manual impl so `T` needs no bounds.
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// The error returned by [`Sender::try_send`]; gives the value back.
    #[derive(PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// A bounded channel is at capacity (backpressure: the caller may
        /// retry, drop the value, or fall back to a blocking `send`).
        Full(T),
        /// Every receiver has been dropped.
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        /// The value that could not be sent.
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
            }
        }

        /// Whether the failure was a capacity bound (retryable), not a
        /// disconnect.
        pub fn is_full(&self) -> bool {
            matches!(self, TrySendError::Full(_))
        }
    }

    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(match self {
                TrySendError::Full(_) => "Full(..)",
                TrySendError::Disconnected(_) => "Disconnected(..)",
            })
        }
    }

    /// The error returned by [`Receiver::recv`] when every sender has been
    /// dropped and the queue is drained.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// The error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No value is queued right now (senders still exist).
        Empty,
        /// Every sender has been dropped and the queue is drained.
        Disconnected,
    }

    /// The queue plus the hangup bookkeeping, behind the shared mutex.
    struct Inner<T> {
        queue: VecDeque<T>,
        capacity: usize,
        senders: usize,
        receivers: usize,
    }

    /// One channel: the locked state and the two wait conditions.
    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        /// Signalled on every enqueue and on last-sender drop.
        not_empty: Condvar,
        /// Signalled on every dequeue and on last-receiver drop.
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        /// Locks the state; a poisoned lock is taken anyway — the queue
        /// holds plain values and both counters are only touched under
        /// the lock, so there is no broken invariant to protect.
        fn lock(&self) -> MutexGuard<'_, Inner<T>> {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// The sending half. Cloneable (multi-producer); [`Sender::send`]
    /// blocks while the queue is full and [`Sender::try_send`] fails fast
    /// instead.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Self { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.lock();
            inner.senders -= 1;
            if inner.senders == 0 {
                drop(inner);
                // Receivers blocked on an empty queue must wake to see
                // the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, blocking while a bounded channel is at
        /// capacity (the backpressure path).
        ///
        /// # Errors
        ///
        /// Returns the value back when every receiver has been dropped —
        /// checked before and during the wait, so a sender can never
        /// block forever on a dead channel.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.send_with(|| value)
        }

        /// Like [`Sender::send`], but the value is built by `make` *inside
        /// the critical section*, only once a queue slot is free. A caller
        /// that wants to observe the moment of admission (e.g. stamp a
        /// timestamp that must not include time parked on a full queue)
        /// constructs the value here instead of before the call.
        ///
        /// # Errors
        ///
        /// Returns the (freshly built) value back when every receiver has
        /// been dropped — checked before and during the wait, exactly as
        /// in [`Sender::send`].
        pub fn send_with(&self, make: impl FnOnce() -> T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.lock();
            loop {
                if inner.receivers == 0 {
                    drop(inner);
                    return Err(SendError(make()));
                }
                if inner.queue.len() < inner.capacity {
                    inner.queue.push_back(make());
                    drop(inner);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                inner = self.shared.not_full.wait(inner).unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Non-blocking enqueue.
        ///
        /// # Errors
        ///
        /// [`TrySendError::Full`] when a bounded channel is at capacity
        /// (the value comes back; retry, drop, or fall back to blocking
        /// [`Sender::send`]), [`TrySendError::Disconnected`] when every
        /// receiver is gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut inner = self.shared.lock();
            if inner.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if inner.queue.len() >= inner.capacity {
                return Err(TrySendError::Full(value));
            }
            inner.queue.push_back(value);
            drop(inner);
            self.shared.not_empty.notify_one();
            Ok(())
        }

        /// Number of values currently queued (racy by nature; a metric,
        /// not a synchronization primitive).
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Whether the queue is currently empty (racy; see [`Sender::len`]).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// The receiving half. Cloneable (multi-consumer): every queued value
    /// is delivered to exactly **one** receiver (work-queue semantics).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Self { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.lock();
            inner.receivers -= 1;
            if inner.receivers == 0 {
                drop(inner);
                // Senders blocked on a full queue must wake to see the
                // disconnect.
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] when every sender has been dropped and
        /// the queue is drained — the shutdown signal the serving
        /// collator drains on.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.lock();
            loop {
                if let Some(value) = inner.queue.pop_front() {
                    drop(inner);
                    self.shared.not_full.notify_one();
                    return Ok(value);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self.shared.not_empty.wait(inner).unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Non-blocking receive.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] when no value is queued,
        /// [`TryRecvError::Disconnected`] when every sender is gone and
        /// the queue is drained.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.lock();
            if let Some(value) = inner.queue.pop_front() {
                drop(inner);
                self.shared.not_full.notify_one();
                return Ok(value);
            }
            if inner.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Blocking iterator over received values; ends on disconnect.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv().ok())
        }

        /// Number of values currently queued (racy; a metric only).
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Whether the queue is currently empty (racy; see
        /// [`Receiver::len`]).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Creates a bounded MPMC channel holding at most `capacity` queued
    /// values: a full queue blocks [`Sender::send`] and fails
    /// [`Sender::try_send`] — the admission/backpressure primitive.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is 0 (real crossbeam's rendezvous channel;
    /// this stand-in does not support it).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        assert!(capacity >= 1, "bounded(0) rendezvous channels are not supported");
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner { queue: VecDeque::new(), capacity, senders: 1, receivers: 1 }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, TryRecvError, TrySendError};

    #[test]
    fn channel_delivers_in_order_across_threads() {
        // 100 values through 4 slots: the producer blocks on the full
        // queue while the receiver drains it.
        let (tx, rx) = bounded(4);
        let tx2 = tx.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx2.send(i).expect("receiver alive");
            }
        });
        drop(tx);
        let got: Vec<i32> = rx.iter().collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(rx.recv().is_err(), "disconnected after all senders drop");
    }

    #[test]
    fn try_recv_reports_empty_then_disconnected() {
        let (tx, rx) = bounded::<u8>(1);
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)));
        tx.send(7).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
        drop(tx);
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
    }

    #[test]
    fn send_to_dropped_receiver_returns_the_value() {
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        let err = tx.send(9).unwrap_err();
        assert_eq!(err.0, 9);
    }

    #[test]
    fn send_with_builds_the_value_only_at_enqueue_time() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};

        let (tx, rx) = bounded::<Instant>(1);
        tx.send(Instant::now()).unwrap();
        // The queue is full: a blocked send_with must not run `make` until
        // a slot frees. The receiver drains after a deliberate stall, so a
        // timestamp taken eagerly (before the block) would be ~stall older
        // than one taken at enqueue time.
        let stall = Duration::from_millis(50);
        let made = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                tx.send_with(|| {
                    made.store(true, Ordering::SeqCst);
                    Instant::now()
                })
                .unwrap();
            });
            std::thread::sleep(stall);
            assert!(!made.load(Ordering::SeqCst), "make ran while the queue was full");
            let drain_at = Instant::now();
            rx.recv().unwrap();
            let stamped = rx.recv().unwrap();
            assert!(made.load(Ordering::SeqCst));
            assert!(
                stamped >= drain_at,
                "the stamp must be taken at admission, not before the block"
            );
        });
    }

    #[test]
    fn send_with_returns_the_built_value_on_disconnect() {
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        let err = tx.send_with(|| 42).unwrap_err();
        assert_eq!(err.0, 42);
    }

    #[test]
    fn bounded_capacity_binds_try_send() {
        let (tx, rx) = bounded::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        let err = tx.try_send(3).unwrap_err();
        assert!(err.is_full(), "third value must hit the capacity bound");
        assert_eq!(err.into_inner(), 3, "the full error returns the value");
        assert_eq!(tx.len(), 2);
        // Draining one slot re-opens admission.
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3), "FIFO order across the refill");
    }

    #[test]
    fn bounded_send_blocks_until_a_slot_frees() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let sender = std::thread::spawn(move || {
            // Blocks until the main thread drains the single slot.
            tx.send(2).unwrap();
        });
        // Give the sender a moment to actually block on the full queue.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2), "the blocked send completes after the drain");
        sender.join().unwrap();
    }

    #[test]
    fn bounded_send_to_dropped_receiver_fails_even_when_full() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send(1).unwrap();
        drop(rx);
        // Both forms must fail with a disconnect, never block forever.
        assert!(matches!(tx.try_send(2), Err(TrySendError::Disconnected(2))));
        assert_eq!(tx.send(3).unwrap_err().0, 3);
    }

    #[test]
    fn cloned_receivers_share_the_queue_without_duplication() {
        let (tx, rx) = bounded::<u32>(100);
        let rx2 = rx.clone();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let a = std::thread::spawn(move || rx.iter().collect::<Vec<_>>());
        let b = std::thread::spawn(move || rx2.iter().collect::<Vec<_>>());
        let mut all = a.join().unwrap();
        all.extend(b.join().unwrap());
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>(), "each value delivered exactly once");
    }

    #[test]
    fn multiple_producers_multiple_consumers_deliver_every_value_once() {
        let (tx, rx) = bounded::<u32>(4);
        let mut producers = Vec::new();
        for p in 0..3u32 {
            let tx = tx.clone();
            producers.push(std::thread::spawn(move || {
                for i in 0..50 {
                    tx.send(p * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let rx = rx.clone();
            consumers.push(std::thread::spawn(move || rx.iter().collect::<Vec<u32>>()));
        }
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u32> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort_unstable();
        let expected: Vec<u32> = (0..3).flat_map(|p| (0..50).map(move |i| p * 1000 + i)).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn per_sender_fifo_order_is_preserved() {
        // MPMC interleaving may mix producers, but one producer's values
        // never reorder relative to each other.
        let (tx, rx) = bounded::<(u8, u32)>(8);
        let t1 = tx.clone();
        let a = std::thread::spawn(move || (0..200).for_each(|i| t1.send((1, i)).unwrap()));
        let t2 = tx.clone();
        let b = std::thread::spawn(move || (0..200).for_each(|i| t2.send((2, i)).unwrap()));
        drop(tx);
        let got: Vec<(u8, u32)> = rx.iter().collect();
        a.join().unwrap();
        b.join().unwrap();
        for source in [1, 2] {
            let seq: Vec<u32> = got.iter().filter(|(s, _)| *s == source).map(|&(_, i)| i).collect();
            assert_eq!(seq, (0..200).collect::<Vec<_>>(), "producer {source} order");
        }
    }

    #[test]
    #[should_panic(expected = "rendezvous")]
    fn zero_capacity_is_rejected() {
        let _ = bounded::<u8>(0);
    }
}
