//! Offline stand-in for the `crossbeam` crate, covering the subset this
//! workspace uses: `channel::unbounded`, blocking/timeout/non-blocking
//! receives, and a `select!` macro over `recv(rx) -> pat => body` arms.
//!
//! The channel is a Mutex+Condvar VecDeque with a sender count and a
//! receiver-alive flag for disconnect semantics. `select!` readiness-polls the arms in order (fair
//! enough for the runtime's two-arm loops) and runs each handler *outside*
//! the internal wait loop, so `break`/`continue` inside a handler target
//! the caller's enclosing loop exactly as with real crossbeam.
//!
//! `select!` is not off the hot path: the worker engine's loop over
//! manager commands and library-daemon reports uses it, so every library
//! invocation can wait out up to two 100 µs polls (one for the `Invoke`,
//! one for its result) that a real multi-channel waker would not.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    pub use crate::select;

    struct Inner<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        /// Cleared when the (single, non-`Clone`) receiver drops.
        receiver_alive: AtomicBool,
    }

    /// Receiving half of a channel has been disconnected and drained.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    /// All receivers are gone; the message is returned to the caller.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receiver_alive: AtomicBool::new(true),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.inner.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // last sender gone: wake blocked receivers so they observe
                // the disconnect
                self.inner.ready.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            // an unbounded send never blocks, and with the receiver dropped
            // the message would be unobservable — report that case
            if !self.inner.receiver_alive.load(Ordering::SeqCst) {
                return Err(SendError(value));
            }
            let mut q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.push_back(value);
            drop(q);
            self.inner.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.receiver_alive.store(false, Ordering::SeqCst);
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.inner.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                q = self.inner.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(v) = q.pop_front() {
                return Ok(v);
            }
            if self.inner.senders.load(Ordering::SeqCst) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.inner.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .inner
                    .ready
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        }

        /// select! support: is a message available, or is the channel
        /// disconnected (either makes a recv arm runnable)?
        #[doc(hidden)]
        pub fn __select_ready(&self) -> bool {
            let q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            !q.is_empty() || self.inner.senders.load(Ordering::SeqCst) == 0
        }

        /// select! support: the recv performed once an arm is chosen. Falls
        /// back to blocking if another consumer raced us to the message.
        #[doc(hidden)]
        pub fn __select_recv(&self) -> Result<T, RecvError> {
            match self.try_recv() {
                Ok(v) => Ok(v),
                Err(TryRecvError::Disconnected) => Err(RecvError),
                Err(TryRecvError::Empty) => self.recv(),
            }
        }
    }

    /// Readiness-poll wait used by `select!` between scans. Short sleep
    /// rather than a multi-channel waker. This is on the invocation path:
    /// the worker engine's `select!` can sleep here once for an `Invoke`
    /// and once for its result.
    #[doc(hidden)]
    pub fn __select_park() {
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Blocking select over `recv` arms, mirroring crossbeam's
/// `select! { recv(rx) -> msg => { .. } .. }` form. Each handler body is
/// expanded in the caller's scope (not inside the wait loop), so
/// `break`/`continue`/`return` behave as they would with the real macro.
#[macro_export]
macro_rules! select {
    ( $( recv($rx:expr) -> $res:pat => $body:block )+ ) => {{
        let __chosen: usize = loop {
            let mut __arm = 0usize;
            let mut __ready: Option<usize> = None;
            $(
                if __ready.is_none() && $rx.__select_ready() {
                    __ready = Some(__arm);
                }
                __arm += 1;
            )+
            let _ = __arm;
            if let Some(i) = __ready {
                break i;
            }
            $crate::channel::__select_park();
        };
        let mut __arm = 0usize;
        $(
            if {
                let __this = __arm;
                __arm += 1;
                __chosen == __this
            } {
                let $res = $rx.__select_recv();
                $body
            } else
        )+
        {
            let _ = __arm;
            unreachable!("select! chose an arm out of range")
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::time::Duration;

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = channel::unbounded();
        tx.send(7).unwrap();
        tx.send(8).unwrap();
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.try_recv(), Ok(8));
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
    }

    #[test]
    fn disconnect_is_observable() {
        let (tx, rx) = channel::unbounded::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(channel::RecvError));
        let (tx2, rx2) = channel::unbounded::<u32>();
        tx2.send(1).unwrap();
        drop(tx2);
        // queued message still delivered before disconnect surfaces
        assert_eq!(rx2.recv(), Ok(1));
        assert_eq!(rx2.try_recv(), Err(channel::TryRecvError::Disconnected));
    }

    #[test]
    fn send_never_fails_while_senders_clone_and_drop() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let (tx, rx) = channel::unbounded::<u32>();
        let churning = Arc::new(AtomicBool::new(true));
        let churn = {
            let tx = tx.clone();
            let churning = Arc::clone(&churning);
            std::thread::spawn(move || {
                for _ in 0..1_000_000 {
                    drop(tx.clone());
                }
                churning.store(false, Ordering::SeqCst);
            })
        };
        // send in rounds of 2000 for as long as the other thread churns
        let mut sent = 0u64;
        while churning.load(Ordering::SeqCst) {
            for i in 0..2000 {
                assert!(
                    tx.send(i).is_ok(),
                    "send {sent} failed with the receiver alive"
                );
                sent += 1;
            }
            while rx.try_recv().is_ok() {}
        }
        churn.join().unwrap();
    }

    #[test]
    fn send_after_receiver_drop_fails() {
        let (tx, rx) = channel::unbounded::<u32>();
        let tx2 = tx.clone();
        drop(rx);
        assert_eq!(tx.send(1), Err(channel::SendError(1)));
        assert_eq!(tx2.send(2), Err(channel::SendError(2)));
    }

    #[test]
    fn recv_timeout_times_out_and_delivers() {
        let (tx, rx) = channel::unbounded();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Timeout)
        );
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(42).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(42));
        t.join().unwrap();
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = channel::unbounded();
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn select_picks_ready_arm_and_break_targets_caller_loop() {
        let (tx_a, rx_a) = channel::unbounded::<u32>();
        let (tx_b, rx_b) = channel::unbounded::<&'static str>();
        tx_b.send("hello").unwrap();
        let mut seen_num = None;
        let mut seen_str = None;
        let mut rounds = 0;
        loop {
            rounds += 1;
            select! {
                recv(rx_a) -> v => {
                    let Ok(v) = v else { break };
                    seen_num = Some(v);
                    break;
                }
                recv(rx_b) -> s => {
                    let Ok(s) = s else { break };
                    seen_str = Some(s);
                    tx_a.send(9).unwrap();
                }
            }
        }
        assert_eq!(seen_str, Some("hello"));
        assert_eq!(seen_num, Some(9));
        assert_eq!(rounds, 2);
    }

    #[test]
    #[allow(clippy::never_loop)] // the select arms both exit; the loop mirrors real call sites
    fn select_observes_disconnect() {
        let (tx, rx) = channel::unbounded::<u32>();
        let (_tx_keep, rx_other) = channel::unbounded::<u32>();
        drop(tx);
        let mut disconnected = false;
        loop {
            select! {
                recv(rx) -> v => {
                    if v.is_err() {
                        disconnected = true;
                    }
                    break;
                }
                recv(rx_other) -> _v => {
                    unreachable!("no message ever sent here");
                }
            }
        }
        assert!(disconnected);
    }
}
