//! Cooperative shutdown without OS signal handlers.
//!
//! The workspace builds fully offline with no libc-binding crates, so the
//! service cannot install a SIGTERM handler. Instead shutdown is a shared
//! [`ShutdownSignal`] that a background [`Watcher`] thread raises when an
//! operator-visible condition holds:
//!
//! - a **stop file** appears (`touch stop && rm stop` is the offline
//!   equivalent of `kill -TERM`),
//! - the service has been **idle** — no new arrivals — for a configured
//!   timeout, or
//! - a **maximum arrival count** has been reached (smoke tests, benches).
//!
//! Raising the signal propagates to every linked [`SourceStop`] (so
//! blocking sources finish their drain and report
//! [`Exhausted`](woha_trace::SourcePoll::Exhausted)) and every linked
//! clock stop flag (so [`WallClock`](woha_sim::WallClock) stops pacing and
//! the remaining event queue drains at full speed). The event loop itself
//! never checks the signal: it simply observes its source ending, which is
//! exactly the drain-on-stop contract the sources implement.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use woha_sim::ServiceStats;
use woha_trace::SourceStop;

/// Why the service began shutting down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownCause {
    /// The configured stop file appeared on disk.
    StopFile,
    /// No arrivals were observed for the configured idle window.
    IdleTimeout,
    /// The configured arrival budget was consumed.
    MaxArrivals,
}

impl std::fmt::Display for ShutdownCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShutdownCause::StopFile => "stop-file",
            ShutdownCause::IdleTimeout => "idle-timeout",
            ShutdownCause::MaxArrivals => "max-arrivals",
        })
    }
}

#[derive(Default)]
struct SignalInner {
    fired: AtomicBool,
    cause: Mutex<Option<ShutdownCause>>,
    flags: Mutex<Vec<Arc<AtomicBool>>>,
    sources: Mutex<Vec<SourceStop>>,
}

/// A broadcast stop request shared between the watcher thread, the live
/// clock, and every blocking source. Cloning shares the same signal.
#[derive(Clone, Default)]
pub struct ShutdownSignal(Arc<SignalInner>);

impl ShutdownSignal {
    /// A fresh, un-raised signal.
    pub fn new() -> Self {
        ShutdownSignal::default()
    }

    /// Registers a clock stop flag to raise when the signal fires. If the
    /// signal already fired the flag is raised immediately, so link order
    /// never races the trigger.
    pub fn link_flag(&self, flag: Arc<AtomicBool>) {
        if self.is_triggered() {
            flag.store(true, Ordering::SeqCst);
        }
        self.0.flags.lock().expect("signal lock").push(flag);
    }

    /// Registers a source stop handle to raise when the signal fires.
    pub fn link_source(&self, stop: SourceStop) {
        if self.is_triggered() {
            stop.stop();
        }
        self.0.sources.lock().expect("signal lock").push(stop);
    }

    /// Raises the signal. The first cause wins; later triggers are no-ops.
    pub fn trigger(&self, cause: ShutdownCause) {
        if self.0.fired.swap(true, Ordering::SeqCst) {
            return;
        }
        *self.0.cause.lock().expect("signal lock") = Some(cause);
        for flag in self.0.flags.lock().expect("signal lock").iter() {
            flag.store(true, Ordering::SeqCst);
        }
        for stop in self.0.sources.lock().expect("signal lock").iter() {
            stop.stop();
        }
    }

    /// Whether the signal has been raised.
    pub fn is_triggered(&self) -> bool {
        self.0.fired.load(Ordering::SeqCst)
    }

    /// The recorded cause, once raised.
    pub fn cause(&self) -> Option<ShutdownCause> {
        *self.0.cause.lock().expect("signal lock")
    }
}

/// Conditions the [`Watcher`] polls for. All default to disabled; a
/// service with every condition disabled only stops when its source ends.
#[derive(Debug, Clone, PartialEq)]
pub struct ShutdownConfig {
    /// Stop when this file exists.
    pub stop_file: Option<PathBuf>,
    /// Stop after this long without a new arrival.
    pub idle_timeout: Option<Duration>,
    /// Stop once this many workflows have arrived.
    pub max_arrivals: Option<u64>,
    /// Watcher poll interval (clamped to at least 1ms).
    pub poll: Duration,
}

impl Default for ShutdownConfig {
    fn default() -> Self {
        ShutdownConfig {
            stop_file: None,
            idle_timeout: None,
            max_arrivals: None,
            poll: Duration::from_millis(25),
        }
    }
}

impl ShutdownConfig {
    fn armed(&self) -> bool {
        self.stop_file.is_some() || self.idle_timeout.is_some() || self.max_arrivals.is_some()
    }
}

/// Background thread that raises a [`ShutdownSignal`] when a
/// [`ShutdownConfig`] condition holds. Detached from the event loop: the
/// loop blocks inside the simulation driver, so shutdown conditions must
/// be observed from outside it.
pub struct Watcher {
    done: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Watcher {
    /// Spawns the watcher. With no condition armed, no thread is spawned
    /// and [`finish`](Watcher::finish) returns immediately.
    pub fn spawn(config: ShutdownConfig, stats: ServiceStats, signal: ShutdownSignal) -> Watcher {
        let done = Arc::new(AtomicBool::new(false));
        if !config.armed() {
            return Watcher { done, handle: None };
        }
        let exit = Arc::clone(&done);
        let poll = config.poll.max(Duration::from_millis(1));
        let handle = std::thread::spawn(move || {
            let mut last_count = stats.arrivals();
            let mut last_change = Instant::now();
            loop {
                if exit.load(Ordering::SeqCst) || signal.is_triggered() {
                    return;
                }
                if let Some(path) = &config.stop_file {
                    if path.exists() {
                        signal.trigger(ShutdownCause::StopFile);
                        return;
                    }
                }
                if let Some(budget) = config.max_arrivals {
                    if stats.arrivals() >= budget {
                        signal.trigger(ShutdownCause::MaxArrivals);
                        return;
                    }
                }
                if let Some(window) = config.idle_timeout {
                    let count = stats.arrivals();
                    if count != last_count {
                        last_count = count;
                        last_change = Instant::now();
                    } else if last_change.elapsed() >= window {
                        signal.trigger(ShutdownCause::IdleTimeout);
                        return;
                    }
                }
                std::thread::sleep(poll);
            }
        });
        Watcher {
            done,
            handle: Some(handle),
        }
    }

    /// Stops the watcher thread and waits for it to exit.
    pub fn finish(mut self) {
        self.done.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Watcher {
    fn drop(&mut self) {
        self.done.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cause_wins_and_links_propagate() {
        let signal = ShutdownSignal::new();
        let flag = Arc::new(AtomicBool::new(false));
        let stop = SourceStop::new();
        signal.link_flag(Arc::clone(&flag));
        signal.link_source(stop.clone());
        assert!(!signal.is_triggered());
        signal.trigger(ShutdownCause::StopFile);
        signal.trigger(ShutdownCause::IdleTimeout);
        assert_eq!(signal.cause(), Some(ShutdownCause::StopFile));
        assert!(flag.load(Ordering::SeqCst));
        assert!(stop.is_stopped());
    }

    #[test]
    fn late_links_see_an_already_raised_signal() {
        let signal = ShutdownSignal::new();
        signal.trigger(ShutdownCause::MaxArrivals);
        let flag = Arc::new(AtomicBool::new(false));
        let stop = SourceStop::new();
        signal.link_flag(Arc::clone(&flag));
        signal.link_source(stop.clone());
        assert!(flag.load(Ordering::SeqCst));
        assert!(stop.is_stopped());
    }

    #[test]
    fn watcher_fires_on_stop_file() {
        let dir = std::env::temp_dir().join(format!("woha-shutdown-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let stop_path = dir.join("stop");
        let _ = std::fs::remove_file(&stop_path);
        let signal = ShutdownSignal::new();
        let watcher = Watcher::spawn(
            ShutdownConfig {
                stop_file: Some(stop_path.clone()),
                poll: Duration::from_millis(2),
                ..ShutdownConfig::default()
            },
            ServiceStats::default(),
            signal.clone(),
        );
        std::fs::write(&stop_path, b"").expect("touch stop file");
        let deadline = Instant::now() + Duration::from_secs(5);
        while !signal.is_triggered() {
            assert!(Instant::now() < deadline, "watcher never fired");
            std::thread::sleep(Duration::from_millis(2));
        }
        watcher.finish();
        assert_eq!(signal.cause(), Some(ShutdownCause::StopFile));
        let _ = std::fs::remove_file(&stop_path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn watcher_fires_on_idle_timeout_but_not_while_arrivals_flow() {
        let stats = ServiceStats::default();
        let signal = ShutdownSignal::new();
        let watcher = Watcher::spawn(
            ShutdownConfig {
                idle_timeout: Some(Duration::from_millis(60)),
                poll: Duration::from_millis(5),
                ..ShutdownConfig::default()
            },
            stats.clone(),
            signal.clone(),
        );
        // Keep arrivals flowing for a while: the watcher must stay quiet.
        for i in 1..=4u64 {
            stats.record_arrivals(1);
            std::thread::sleep(Duration::from_millis(20));
            assert!(!signal.is_triggered(), "fired during active period {i}");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while !signal.is_triggered() {
            assert!(Instant::now() < deadline, "idle timeout never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        watcher.finish();
        assert_eq!(signal.cause(), Some(ShutdownCause::IdleTimeout));
    }

    #[test]
    fn watcher_fires_on_max_arrivals() {
        let stats = ServiceStats::default();
        stats.record_arrivals(3);
        let signal = ShutdownSignal::new();
        let watcher = Watcher::spawn(
            ShutdownConfig {
                max_arrivals: Some(3),
                poll: Duration::from_millis(2),
                ..ShutdownConfig::default()
            },
            stats,
            signal.clone(),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while !signal.is_triggered() {
            assert!(Instant::now() < deadline, "max-arrivals never fired");
            std::thread::sleep(Duration::from_millis(2));
        }
        watcher.finish();
        assert_eq!(signal.cause(), Some(ShutdownCause::MaxArrivals));
    }
}
