//! Bounded arrival buffering and load shedding for the live service.
//!
//! A live master cannot assume the arrival stream pauses while it plans:
//! [`ArrivalBuffer`] sits between a [`WorkloadSource`] and the driver,
//! holding at most `capacity` pulled-but-unprocessed workflows. When the
//! buffer reaches its **high watermark** the service is falling behind and
//! the buffer starts shedding the newest arrivals (the ones whose
//! deadlines are least likely to survive the backlog anyway); shedding
//! stops once the master drains the buffer back to the **low watermark**
//! — classic hysteresis so the service does not flap at the boundary.
//!
//! Everything observable — arrivals accepted, arrivals shed, queue depth,
//! ingest lag — is published through [`ServiceStats`], a cheaply cloneable
//! handle a service thread can read while the driver owns the buffer, and
//! exported into the [`MetricsRegistry`] Prometheus surface at the end of
//! a run.

use crate::metrics::MetricsRegistry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use woha_model::{SimTime, WorkflowSpec};
use woha_trace::{SourcePoll, WorkloadSource};

#[derive(Debug, Default)]
struct StatsInner {
    arrivals: AtomicU64,
    shed: AtomicU64,
    depth: AtomicU64,
    depth_peak: AtomicU64,
    lag_ms: AtomicU64,
    lag_peak_ms: AtomicU64,
}

/// Shared, read-while-running view of an [`ArrivalBuffer`]'s health.
///
/// All loads/stores are `SeqCst` on plain `u64`s; clones share one
/// underlying block, so a monitoring thread sees the buffer's live state.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats(Arc<StatsInner>);

impl ServiceStats {
    /// Arrivals accepted into the buffer (excludes shed arrivals).
    pub fn arrivals(&self) -> u64 {
        self.0.arrivals.load(Ordering::SeqCst)
    }

    /// Arrivals dropped by backpressure shedding.
    pub fn shed(&self) -> u64 {
        self.0.shed.load(Ordering::SeqCst)
    }

    /// Current buffered-arrival count.
    pub fn depth(&self) -> u64 {
        self.0.depth.load(Ordering::SeqCst)
    }

    /// Highest buffered-arrival count observed.
    pub fn depth_peak(&self) -> u64 {
        self.0.depth_peak.load(Ordering::SeqCst)
    }

    /// Current ingest lag in sim milliseconds: the newest submit time seen
    /// minus the submit time of the oldest still-buffered arrival.
    pub fn lag_ms(&self) -> u64 {
        self.0.lag_ms.load(Ordering::SeqCst)
    }

    /// Largest ingest lag observed, in sim milliseconds.
    pub fn lag_peak_ms(&self) -> u64 {
        self.0.lag_peak_ms.load(Ordering::SeqCst)
    }

    /// Adds externally observed arrivals to the counter. The buffer counts
    /// its own pulls; this is for harnesses that drive a stats handle
    /// directly (shutdown watchers, benches).
    pub fn record_arrivals(&self, n: u64) {
        self.0.arrivals.fetch_add(n, Ordering::SeqCst);
    }

    /// Writes the stats into the registry's service metrics: the arrival
    /// and shed counters, and — because a finished run's instantaneous
    /// depth/lag are trivially zero — the *peak* depth and lag observed,
    /// which are the useful end-of-run summary of how far behind the
    /// master ever fell.
    pub fn export_into(&self, metrics: &mut MetricsRegistry) {
        metrics.arrivals.add(self.arrivals());
        metrics.arrivals_shed.add(self.shed());
        metrics.arrival_queue_depth.set(self.depth_peak() as f64);
        metrics
            .arrival_lag_seconds
            .set(self.lag_peak_ms() as f64 / 1000.0);
    }

    fn set_depth(&self, depth: u64) {
        self.0.depth.store(depth, Ordering::SeqCst);
        self.0.depth_peak.fetch_max(depth, Ordering::SeqCst);
    }

    fn set_lag(&self, lag_ms: u64) {
        self.0.lag_ms.store(lag_ms, Ordering::SeqCst);
        self.0.lag_peak_ms.fetch_max(lag_ms, Ordering::SeqCst);
    }
}

/// A bounded arrival queue with high/low-watermark shedding, itself a
/// [`WorkloadSource`] so it slots transparently between any source and
/// the driver. See the [module docs](self) for the shedding policy.
pub struct ArrivalBuffer<S: WorkloadSource> {
    inner: S,
    queue: VecDeque<WorkflowSpec>,
    capacity: usize,
    high: usize,
    low: usize,
    shedding: bool,
    inner_exhausted: bool,
    /// Newest submit time pulled from the inner source (shed or kept).
    newest: SimTime,
    stats: ServiceStats,
}

impl<S: WorkloadSource> ArrivalBuffer<S> {
    /// Buffers `inner` with the given capacity (at least 1). Watermarks
    /// default to shedding at a full buffer (`high = capacity`) until it
    /// half-drains (`low = capacity / 2`).
    pub fn new(inner: S, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ArrivalBuffer {
            inner,
            queue: VecDeque::new(),
            capacity,
            high: capacity,
            low: capacity / 2,
            shedding: false,
            inner_exhausted: false,
            newest: SimTime::ZERO,
            stats: ServiceStats::default(),
        }
    }

    /// Overrides the shedding watermarks. `high` is clamped into
    /// `[1, capacity]` and `low` to below `high`.
    pub fn with_watermarks(mut self, high: usize, low: usize) -> Self {
        self.high = high.clamp(1, self.capacity);
        self.low = low.min(self.high.saturating_sub(1));
        self
    }

    /// The shareable stats handle.
    pub fn stats(&self) -> ServiceStats {
        self.stats.clone()
    }

    /// The wrapped source (e.g. to read a `FollowSource` error).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn update_gauges(&self) {
        self.stats.set_depth(self.queue.len() as u64);
        let lag = match self.queue.front() {
            Some(w) => self
                .newest
                .as_millis()
                .saturating_sub(w.submit_time().as_millis()),
            None => 0,
        };
        self.stats.set_lag(lag);
    }

    /// Pulls whatever the inner source has ready, respecting capacity and
    /// the shedding hysteresis. Bounded per call so a fast source cannot
    /// starve the event loop. The driver polls on every loop iteration, so
    /// a call that pulls nothing must cost nothing: an exhausted inner
    /// source is never polled again, and the gauges are rewritten only
    /// when a pull moved them.
    fn pump(&mut self) {
        if self.inner_exhausted {
            return;
        }
        let mut pulled = false;
        let mut pulls = self.capacity.max(16);
        while pulls > 0 {
            pulls -= 1;
            if self.shedding && self.queue.len() <= self.low {
                self.shedding = false;
            }
            if !self.shedding && self.queue.len() >= self.high {
                self.shedding = true;
            }
            if !self.shedding && self.queue.len() >= self.capacity {
                break;
            }
            match self.inner.poll_time() {
                SourcePoll::Ready(_) => {
                    let w = self.inner.next_workflow().expect("ready source yields");
                    pulled = true;
                    self.newest = self.newest.max(w.submit_time());
                    if self.shedding {
                        self.stats.0.shed.fetch_add(1, Ordering::SeqCst);
                    } else {
                        self.stats.0.arrivals.fetch_add(1, Ordering::SeqCst);
                        self.queue.push_back(w);
                    }
                }
                SourcePoll::Pending => break,
                SourcePoll::Exhausted => {
                    self.inner_exhausted = true;
                    break;
                }
            }
        }
        if pulled {
            self.update_gauges();
        }
    }
}

impl<S: WorkloadSource> WorkloadSource for ArrivalBuffer<S> {
    fn peek_time(&mut self) -> Option<SimTime> {
        self.pump();
        self.queue.front().map(WorkflowSpec::submit_time)
    }

    fn next_workflow(&mut self) -> Option<WorkflowSpec> {
        self.pump();
        let w = self.queue.pop_front();
        self.update_gauges();
        w
    }

    fn poll_time(&mut self) -> SourcePoll {
        self.pump();
        match self.queue.front() {
            Some(w) => SourcePoll::Ready(w.submit_time()),
            None if self.inner_exhausted => SourcePoll::Exhausted,
            None => SourcePoll::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use woha_model::{JobSpec, SimDuration, WorkflowBuilder};
    use woha_trace::VecSource;

    fn spec(name: &str, submit_s: u64) -> WorkflowSpec {
        let mut b = WorkflowBuilder::new(name);
        b.add_job(JobSpec::new(
            "j0",
            2,
            1,
            SimDuration::from_secs(10),
            SimDuration::from_secs(20),
        ));
        b.build()
            .unwrap()
            .reissued(name.to_string(), SimTime::from_secs(submit_s), SimTime::MAX)
    }

    fn specs(n: u64) -> Vec<WorkflowSpec> {
        (0..n).map(|i| spec(&format!("w{i}"), i)).collect()
    }

    #[test]
    fn passes_through_below_watermark_without_shedding() {
        let mut buf = ArrivalBuffer::new(VecSource::new(specs(5)), 16);
        let names: Vec<String> = std::iter::from_fn(|| buf.next_workflow())
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names.len(), 5);
        let stats = buf.stats();
        assert_eq!(stats.arrivals(), 5);
        assert_eq!(stats.shed(), 0);
        assert!(stats.depth_peak() >= 1);
        assert!(matches!(buf.poll_time(), SourcePoll::Exhausted));
    }

    #[test]
    fn sheds_newest_arrivals_above_high_watermark_with_hysteresis() {
        // Capacity 4, shed at 4, resume at 2. A 10-deep burst arrives all
        // at once: the first 4 fill the buffer, then shedding drops
        // everything else pulled in the same pump (hysteresis requires the
        // *master* to drain to 2 before new arrivals are accepted again).
        let mut buf = ArrivalBuffer::new(VecSource::new(specs(10)), 4).with_watermarks(4, 2);
        assert!(matches!(buf.poll_time(), SourcePoll::Ready(_)));
        let stats = buf.stats();
        assert_eq!(stats.depth(), 4);
        assert_eq!(stats.shed(), 6);
        assert_eq!(stats.depth_peak(), 4);

        // The survivors are the oldest arrivals, in order.
        let names: Vec<String> = std::iter::from_fn(|| buf.next_workflow())
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names, vec!["w0", "w1", "w2", "w3"]);
        assert_eq!(buf.stats().arrivals(), 4);
    }

    #[test]
    fn resumes_accepting_after_draining_to_low_watermark() {
        // Feed in two bursts via a channel so the second burst arrives
        // after the master drained the backlog.
        let (tx, src) = woha_trace::ChannelSource::pair();
        let mut buf = ArrivalBuffer::new(src, 4).with_watermarks(4, 2);
        for w in specs(6) {
            tx.send(w).unwrap();
        }
        assert!(matches!(buf.poll_time(), SourcePoll::Ready(_)));
        assert_eq!(buf.stats().shed(), 2);

        // Drain to the low watermark: shedding stops.
        buf.next_workflow().unwrap();
        buf.next_workflow().unwrap();
        tx.send(spec("late", 30)).unwrap();
        drop(tx);
        let names: Vec<String> = std::iter::from_fn(|| buf.next_workflow())
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names, vec!["w2", "w3", "late"]);
        assert!(matches!(buf.poll_time(), SourcePoll::Exhausted));
        assert_eq!(buf.stats().arrivals(), 5);
        assert_eq!(buf.stats().shed(), 2);
    }

    #[test]
    fn tracks_lag_between_newest_and_oldest_buffered() {
        let mut buf = ArrivalBuffer::new(VecSource::new(specs(5)), 16);
        assert!(matches!(buf.poll_time(), SourcePoll::Ready(_)));
        let stats = buf.stats();
        // Oldest buffered w0 (t=0s), newest seen w4 (t=4s): 4s of lag.
        assert_eq!(stats.lag_ms(), 4000);
        assert_eq!(stats.lag_peak_ms(), 4000);
        while buf.next_workflow().is_some() {}
        assert_eq!(buf.stats().lag_ms(), 0);
        assert_eq!(buf.stats().lag_peak_ms(), 4000);
    }

    /// Counts polls of the wrapped source.
    struct CountingSource {
        inner: VecSource,
        polls: u64,
    }

    impl WorkloadSource for CountingSource {
        fn peek_time(&mut self) -> Option<SimTime> {
            self.inner.peek_time()
        }

        fn next_workflow(&mut self) -> Option<WorkflowSpec> {
            self.inner.next_workflow()
        }

        fn poll_time(&mut self) -> SourcePoll {
            self.polls += 1;
            self.inner.poll_time()
        }
    }

    #[test]
    fn an_exhausted_inner_source_is_not_polled_again() {
        // The driver's loop: poll on every iteration, pull now and then.
        // A 10-deep burst into capacity 4 is read to the end (and to
        // `Exhausted`) by the first pump; the hundreds of polls after it
        // must not reach the inner source, and must leave the stats as the
        // every-call gauge writes left them.
        let counting = CountingSource {
            inner: VecSource::new(specs(10)),
            polls: 0,
        };
        let mut buf = ArrivalBuffer::new(counting, 4).with_watermarks(4, 2);
        let mut pulled = Vec::new();
        loop {
            for _ in 0..100 {
                let _ = buf.poll_time();
            }
            match buf.next_workflow() {
                Some(w) => pulled.push(w.name().to_string()),
                None => break,
            }
        }
        assert!(matches!(buf.poll_time(), SourcePoll::Exhausted));
        assert_eq!(pulled, vec!["w0", "w1", "w2", "w3"]);
        // One poll per arrival and the one that reported `Exhausted`:
        // none after it.
        assert_eq!(buf.inner().polls, 11);
        let stats = buf.stats();
        assert_eq!(stats.arrivals(), 4);
        assert_eq!(stats.shed(), 6);
        assert_eq!(stats.depth_peak(), 4);
        assert_eq!(stats.lag_peak_ms(), 9000);
        assert_eq!((stats.depth(), stats.lag_ms()), (0, 0));
    }

    #[test]
    fn exports_into_metrics_registry() {
        let mut buf = ArrivalBuffer::new(VecSource::new(specs(10)), 4).with_watermarks(4, 2);
        while buf.next_workflow().is_some() {}
        let mut metrics = MetricsRegistry::new();
        buf.stats().export_into(&mut metrics);
        let text = metrics.prometheus_text();
        assert!(text.contains("woha_arrivals_total 4"), "{text}");
        assert!(text.contains("woha_arrivals_shed_total 6"), "{text}");
        assert!(text.contains("woha_arrival_queue_depth 4"), "{text}");
        assert!(text.contains("woha_arrival_lag_seconds"), "{text}");
    }
}
