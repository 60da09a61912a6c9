//! Streaming workload sources: pull-based arrival streams for the driver.
//!
//! The simulator originally took a fully materialized `Vec<WorkflowSpec>`
//! up front. A serving deployment instead sees an *arrival stream*: an
//! Oozie-style submitter trickling workflows into a long-lived JobTracker.
//! [`WorkloadSource`] models that stream as a pull-based iterator of
//! timestamped arrivals, so the driver can ingest workflows as sim-time
//! advances and run in memory bounded by the in-flight set, not the trace
//! length.
//!
//! # Source contract
//!
//! - [`peek_time`](WorkloadSource::peek_time) returns the submit time of
//!   the next arrival without consuming it; [`next_workflow`]
//!   (WorkloadSource::next_workflow) consumes and returns it. After
//!   `peek_time` returns `Some(t)`, the next `next_workflow` call must
//!   return a spec whose submit time is exactly `t`.
//! - Arrival times must be **nondecreasing**: once a source has yielded an
//!   arrival at time `t`, every later arrival is at `>= t`. The driver
//!   relies on this to interleave source pulls with the event heap without
//!   time travel. [`JsonlSource`] enforces it by clamping out-of-order
//!   lines up to the running maximum; [`VecSource`] by sorting; and
//!   [`GeneratorSource`] by construction.
//! - A *finite* source is exhausted when `peek_time` returns `None`; it
//!   must keep returning `None` afterwards.
//! - A *live* source ([`FollowSource`], [`ChannelSource`]) may be merely
//!   *waiting* for a writer when no arrival is buffered. Live sources are
//!   driven through [`poll_time`](WorkloadSource::poll_time), which
//!   distinguishes [`SourcePoll::Pending`] ("no data yet, more may come")
//!   from [`SourcePoll::Exhausted`] ("the stream has ended for good").
//!   Their `peek_time` reports only what is ready *right now* (`None`
//!   covers both pending and exhausted), so finite-only consumers keep
//!   working unchanged.

use crate::rng::Rng;
use crate::topology::random_layered;
use crate::yahoo::YahooTraceConfig;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use woha_model::{ModelError, SimDuration, SimTime, WorkflowSpec};

/// The result of a non-blocking poll for the next arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourcePoll {
    /// The next arrival is buffered and will be submitted at this time.
    Ready(SimTime),
    /// No arrival is available *yet*, but the stream has not ended — a
    /// live writer may still append. Poll again later.
    Pending,
    /// The stream has ended; no further arrival will ever appear.
    Exhausted,
}

/// A pull-based stream of timestamped workflow arrivals.
///
/// See the [module docs](self) for the timing contract.
pub trait WorkloadSource {
    /// Submit time of the next arrival, or `None` when no arrival is
    /// currently available. Takes `&mut self` because file- and
    /// generator-backed sources materialize the next record to learn its
    /// time. For finite sources `None` means exhausted; live sources
    /// additionally return `None` while waiting for a writer — use
    /// [`poll_time`](Self::poll_time) to tell the two apart.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Consumes and returns the next arrival, or `None` when none is
    /// available (exhausted, or pending for live sources).
    fn next_workflow(&mut self) -> Option<WorkflowSpec>;

    /// Non-blocking poll distinguishing "no data yet" from "stream ended".
    ///
    /// The default maps `peek_time` onto `Ready`/`Exhausted`, which is
    /// correct for every finite source; live sources override it to report
    /// [`SourcePoll::Pending`] while a writer may still append. After
    /// `Ready(t)`, the next [`next_workflow`](Self::next_workflow) call
    /// must return a spec submitted at exactly `t`.
    fn poll_time(&mut self) -> SourcePoll {
        match self.peek_time() {
            Some(t) => SourcePoll::Ready(t),
            None => SourcePoll::Exhausted,
        }
    }
}

/// Drains `source` to exhaustion, materializing every remaining workflow
/// in pull order — the batch view of a streaming source, for callers
/// (benchmarks, tests, sweep runners) that genuinely need the whole
/// workload at once.
pub fn drain(source: &mut dyn WorkloadSource) -> Vec<WorkflowSpec> {
    let mut out = Vec::new();
    while let Some(w) = source.next_workflow() {
        out.push(w);
    }
    out
}

/// Lifts `w`'s submit time up to the running `watermark`, keeping its
/// absolute deadline, and advances the watermark: how the streaming
/// sources keep arrivals nondecreasing. A spec at or past the watermark
/// passes through untouched. A clamp that would leave the deadline not
/// after the new submit time is refused in the model's words, since
/// `WorkflowSpec` admits no such spec anywhere else.
fn clamp_to_watermark(w: WorkflowSpec, watermark: &mut SimTime) -> Result<WorkflowSpec, String> {
    if w.submit_time() >= *watermark {
        *watermark = w.submit_time();
        return Ok(w);
    }
    if w.deadline() <= *watermark {
        return Err(format!(
            "{}: deadline {}, submit time {} clamped up to {}",
            ModelError::DeadlineBeforeSubmit,
            w.deadline(),
            w.submit_time(),
            watermark
        ));
    }
    Ok(w.reissued(w.name().to_string(), *watermark, w.deadline()))
}

/// A [`WorkloadSource`] over an in-memory `Vec<WorkflowSpec>`.
///
/// Yields workflows sorted by `(submit_time, original index)` — exactly
/// the order the batch driver used to pop simultaneous arrivals from its
/// event heap, so wrapping a vector in a `VecSource` is behaviorally
/// identical to the old batch entry points.
#[derive(Debug, Clone)]
pub struct VecSource {
    /// Workflows sorted by (submit time, original index), reversed so
    /// `pop` yields them in order without a cursor.
    sorted: Vec<WorkflowSpec>,
    next: usize,
}

impl VecSource {
    /// Wraps `workflows`, sorting them stably by submit time.
    pub fn new(mut workflows: Vec<WorkflowSpec>) -> Self {
        workflows.sort_by_key(WorkflowSpec::submit_time);
        VecSource {
            sorted: workflows,
            next: 0,
        }
    }

    /// Workflows not yet yielded, in yield order.
    pub fn remaining(&self) -> &[WorkflowSpec] {
        &self.sorted[self.next..]
    }
}

impl WorkloadSource for VecSource {
    fn peek_time(&mut self) -> Option<SimTime> {
        self.sorted.get(self.next).map(WorkflowSpec::submit_time)
    }

    fn next_workflow(&mut self) -> Option<WorkflowSpec> {
        let w = self.sorted.get(self.next).cloned()?;
        self.next += 1;
        Some(w)
    }
}

/// A [`WorkloadSource`] reading one JSON-encoded [`WorkflowSpec`] per line
/// from a reader — the arrival-file format a long-running process tails
/// into the simulator.
///
/// Records are parsed lazily, one line per pull, so memory stays bounded
/// by a single spec regardless of file length. Lines whose submit time
/// runs backwards are clamped up to the running maximum (the stream
/// contract requires nondecreasing arrivals); a sorted file passes through
/// untouched, which is what the byte-identity tests against [`VecSource`]
/// rely on. Blank lines are skipped. The first malformed line — including
/// one that the clamp would push past its deadline — stops the stream and
/// is reported via [`error`](JsonlSource::error).
///
/// # EOF semantics and mid-append writers
///
/// A writer appending to the file may be caught mid-line, so hitting EOF is
/// *not* treated as proof the stream ended: an unterminated final line is
/// buffered, never parsed early, and retried on the next poll (file-backed
/// readers return fresh bytes once the writer catches up). Through the
/// finite `peek_time`/`next_workflow` interface, EOF still ends the stream
/// — the buffered partial line is then parsed as the (newline-less) final
/// record, as complete files commonly end. Through
/// [`poll_time`](WorkloadSource::poll_time), EOF with a buffered partial
/// line reports [`SourcePoll::Pending`] so a tailing consumer retries it
/// instead of surfacing a sticky parse error; construct the source with
/// [`follow`](JsonlSource::follow) to also report `Pending` at a clean EOF.
pub struct JsonlSource<R: BufRead> {
    reader: R,
    pending: Option<WorkflowSpec>,
    /// Running maximum submit time; later arrivals are clamped up to it.
    watermark: SimTime,
    line_no: u64,
    error: Option<String>,
    /// Bytes of an unterminated final line, awaiting either the rest of
    /// the line or the finite-interface EOF flush.
    partial: String,
    /// The last read hit EOF (possibly transiently, if a writer appends).
    at_eof: bool,
    /// The stream has ended for good (finite EOF flush, or an error).
    done: bool,
    /// Live mode: a clean EOF polls as `Pending`, not `Exhausted`.
    live: bool,
}

impl JsonlSource<std::io::BufReader<std::fs::File>> {
    /// Opens a JSONL arrival file.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be opened.
    pub fn open(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(JsonlSource::from_reader(std::io::BufReader::new(
            std::fs::File::open(path)?,
        )))
    }
}

impl<R: BufRead> JsonlSource<R> {
    /// Wraps any buffered reader producing one spec JSON per line.
    pub fn from_reader(reader: R) -> Self {
        JsonlSource {
            reader,
            pending: None,
            watermark: SimTime::ZERO,
            line_no: 0,
            error: None,
            partial: String::new(),
            at_eof: false,
            done: false,
            live: false,
        }
    }

    /// Wraps a reader in *live* mode: through
    /// [`poll_time`](WorkloadSource::poll_time), a clean EOF reports
    /// [`SourcePoll::Pending`] instead of `Exhausted`, because a writer may
    /// still append. Call [`end`](Self::end) once the writer is known to be
    /// finished so the stream can terminate.
    pub fn follow(reader: R) -> Self {
        let mut s = JsonlSource::from_reader(reader);
        s.live = true;
        s
    }

    /// The parse or I/O error that terminated the stream early, if any.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Declares the writer finished: the next EOF ends the stream, and a
    /// buffered unterminated final line is parsed as the last record.
    pub fn end(&mut self) {
        self.live = false;
    }

    /// Clamps `w` up to the running watermark and stages it; a clamp past
    /// its deadline ends the stream with this line's error.
    fn stage(&mut self, w: WorkflowSpec) {
        match clamp_to_watermark(w, &mut self.watermark) {
            Ok(w) => self.pending = Some(w),
            Err(e) => self.fail(format!("line {}: {e}", self.line_no)),
        }
    }

    /// Ends the stream with a sticky error.
    fn fail(&mut self, error: String) {
        self.error = Some(error);
        self.done = true;
    }

    /// Decodes the line buffered in `partial` (a blank one is skipped) and
    /// stages its spec. The buffer is left empty, its allocation kept for
    /// the next line.
    fn parse_partial(&mut self) {
        self.line_no += 1;
        let line = self.partial.trim();
        let parsed = (!line.is_empty()).then(|| serde_json::from_str::<WorkflowSpec>(line));
        self.partial.clear();
        match parsed {
            None => {}
            Some(Ok(w)) => self.stage(w),
            Some(Err(e)) => self.fail(format!("line {}: {e:?}", self.line_no)),
        }
    }

    /// Reads ahead until a record is pending, input runs dry (EOF — maybe
    /// transiently), the stream ends, or a line fails to parse. Lines are
    /// read straight into `partial`; a final line without its newline stays
    /// buffered there, never parsed early: a mid-append writer will deliver
    /// the rest of it later.
    fn fill(&mut self) {
        while self.pending.is_none() && !self.done {
            match self.reader.read_line(&mut self.partial) {
                Ok(0) => {
                    self.at_eof = true;
                    return;
                }
                Ok(_) => {
                    self.at_eof = false;
                    // An unterminated line stays buffered: the writer may
                    // be mid-append. Keep reading (the very next read
                    // returns 0 at a true EOF) rather than parsing it.
                    if self.partial.ends_with('\n') {
                        self.parse_partial();
                    }
                }
                Err(e) => self.fail(format!("line {}: {e}", self.line_no + 1)),
            }
        }
    }

    /// Finite-interface EOF: the stream is over, so a buffered partial
    /// line is the file's (newline-less) final record — parse it now.
    fn flush_at_eof(&mut self) {
        if self.at_eof && !self.done {
            if !self.partial.is_empty() {
                self.parse_partial();
            }
            if self.partial.is_empty() && self.pending.is_none() {
                self.done = true;
            }
        }
    }
}

impl<R: BufRead> WorkloadSource for JsonlSource<R> {
    fn peek_time(&mut self) -> Option<SimTime> {
        self.fill();
        self.flush_at_eof();
        self.pending.as_ref().map(WorkflowSpec::submit_time)
    }

    fn next_workflow(&mut self) -> Option<WorkflowSpec> {
        self.fill();
        self.flush_at_eof();
        self.pending.take()
    }

    fn poll_time(&mut self) -> SourcePoll {
        self.fill();
        match &self.pending {
            Some(w) => SourcePoll::Ready(w.submit_time()),
            None if self.done => SourcePoll::Exhausted,
            // A live stream at EOF — whether clean or with half a line
            // buffered (the writer is mid-append) — is "no data yet":
            // retry later instead of parsing a truncated record. Once the
            // stream is declared over ([`end`](Self::end)) or was finite
            // to begin with, EOF is final and the buffered tail flushes.
            None if self.live => SourcePoll::Pending,
            None => {
                self.flush_at_eof();
                match &self.pending {
                    Some(w) => SourcePoll::Ready(w.submit_time()),
                    None => SourcePoll::Exhausted,
                }
            }
        }
    }
}

/// Writes `workflows` in the JSONL arrival format read by [`JsonlSource`]:
/// one spec JSON per line, in the given order.
///
/// # Errors
///
/// Propagates serialization failures (which the vendored serde shim never
/// produces for [`WorkflowSpec`]).
pub fn to_jsonl(workflows: &[WorkflowSpec]) -> Result<String, serde_json::Error> {
    let mut out = String::new();
    for w in workflows {
        out.push_str(&serde_json::to_string(w)?);
        out.push('\n');
    }
    Ok(out)
}

/// A cloneable stop flag shared between a live source and whoever decides
/// the stream is over (a service shutdown path, a test's writer thread).
///
/// Stopping does not discard data: a stopped [`FollowSource`] first drains
/// everything already written — including a buffered final line — and only
/// then reports [`SourcePoll::Exhausted`].
#[derive(Debug, Clone, Default)]
pub struct SourceStop(Arc<AtomicBool>);

impl SourceStop {
    /// A fresh, un-stopped flag.
    pub fn new() -> Self {
        SourceStop::default()
    }

    /// Signals the source that no more data will be written.
    pub fn stop(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether [`stop`](Self::stop) has been called.
    pub fn is_stopped(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// What a [`FollowSource`] tails: one growing file, or a watched directory.
#[derive(Debug, Clone)]
enum FollowTarget {
    File(PathBuf),
    Dir(PathBuf),
}

/// A live [`WorkloadSource`] that tails a growing JSONL arrival file — or a
/// watched directory of them — the way `tail -F` follows a log.
///
/// In **file mode** the source polls one path: a missing file, a clean
/// EOF, and a half-appended final line all report [`SourcePoll::Pending`]
/// (via [`JsonlSource`]'s mid-append-safe EOF handling), so a writer can
/// keep appending indefinitely. In **directory mode** the source reads
/// `*.jsonl` files in lexicographic name order — the log-rotation
/// convention: writers append to the newest file and start a later-named
/// file to rotate. The current file is finalized (its unterminated tail,
/// if any, parsed as its last record) as soon as a later-named file
/// appears.
///
/// The stream ends when the shared [`SourceStop`] flag is raised: the
/// source drains everything already on disk, then reports
/// [`SourcePoll::Exhausted`]. Submit times are clamped to be nondecreasing
/// across the whole stream (and across files), like [`JsonlSource`] clamps
/// within one file. The first malformed line stops the stream with a
/// sticky [`error`](FollowSource::error).
pub struct FollowSource {
    target: FollowTarget,
    stop: SourceStop,
    inner: Option<JsonlSource<std::io::BufReader<std::fs::File>>>,
    /// Path of the currently open file (directory mode bookkeeping).
    current: Option<PathBuf>,
    /// Running maximum submit time of the files already read. Each file's
    /// [`JsonlSource`] starts from it and does the clamping, so it holds
    /// across files.
    watermark: SimTime,
    error: Option<String>,
    done: bool,
}

impl FollowSource {
    /// Tails one JSONL file. The file may not exist yet; the source stays
    /// [`SourcePoll::Pending`] until it appears or the stop flag is raised.
    pub fn file(path: impl Into<PathBuf>) -> Self {
        FollowSource::new(FollowTarget::File(path.into()))
    }

    /// Tails a directory of `*.jsonl` files in lexicographic name order.
    pub fn dir(path: impl Into<PathBuf>) -> Self {
        FollowSource::new(FollowTarget::Dir(path.into()))
    }

    fn new(target: FollowTarget) -> Self {
        FollowSource {
            target,
            stop: SourceStop::new(),
            inner: None,
            current: None,
            watermark: SimTime::ZERO,
            error: None,
            done: false,
        }
    }

    /// The stop flag ending this stream; clone it into the writer (or the
    /// shutdown path) and call [`SourceStop::stop`] when writing is done.
    pub fn stop_handle(&self) -> SourceStop {
        self.stop.clone()
    }

    /// The parse or I/O error that terminated the stream early, if any.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// `*.jsonl` entries of `dir` strictly after `after`, sorted by name.
    fn files_after(dir: &Path, after: Option<&PathBuf>) -> Vec<PathBuf> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .filter(|p| after.is_none_or(|a| p > a))
            .collect();
        files.sort();
        files
    }

    /// Opens the next file to read, if one is available.
    fn open_next(&mut self) -> bool {
        let next = match &self.target {
            FollowTarget::File(path) => self.current.is_none().then(|| path.clone()),
            FollowTarget::Dir(dir) => Self::files_after(dir, self.current.as_ref())
                .into_iter()
                .next(),
        };
        let Some(path) = next else { return false };
        match std::fs::File::open(&path) {
            Ok(f) => {
                let mut inner = JsonlSource::follow(std::io::BufReader::new(f));
                inner.watermark = self.watermark;
                self.inner = Some(inner);
                self.current = Some(path);
                true
            }
            // Not-yet-created file (file mode) or a race with the writer:
            // stay pending and retry on the next poll.
            Err(_) => false,
        }
    }

    /// Whether a later-named file has appeared (directory mode): the
    /// current file is then complete by the rotation convention.
    fn rotated(&self) -> bool {
        match &self.target {
            FollowTarget::File(_) => false,
            FollowTarget::Dir(dir) => !Self::files_after(dir, self.current.as_ref()).is_empty(),
        }
    }

    /// Drives the tail state machine one step at a time until it can give
    /// a definitive answer for the current poll.
    fn poll(&mut self) -> SourcePoll {
        loop {
            if self.done {
                return SourcePoll::Exhausted;
            }
            if self.inner.is_none() && !self.open_next() {
                if self.stop.is_stopped() {
                    self.done = true;
                    return SourcePoll::Exhausted;
                }
                return SourcePoll::Pending;
            }
            match self.inner.as_mut().expect("file is open").poll_time() {
                SourcePoll::Ready(t) => return SourcePoll::Ready(t),
                SourcePoll::Exhausted => {
                    let inner = self.inner.take().expect("file is open");
                    if let Some(e) = inner.error() {
                        let file = self.current.as_ref().expect("file is open");
                        self.error = Some(format!("{}: {e}", file.display()));
                        self.done = true;
                        return SourcePoll::Exhausted;
                    }
                    // This file is fully consumed; move on (or finish).
                    self.watermark = inner.watermark;
                    if matches!(self.target, FollowTarget::File(_)) {
                        self.done = true;
                        return SourcePoll::Exhausted;
                    }
                }
                SourcePoll::Pending => {
                    if self.stop.is_stopped() || self.rotated() {
                        // The writer is finished with this file: flush its
                        // buffered tail and re-poll for the finite answer.
                        self.inner.as_mut().expect("file is open").end();
                        continue;
                    }
                    return SourcePoll::Pending;
                }
            }
        }
    }
}

impl WorkloadSource for FollowSource {
    fn peek_time(&mut self) -> Option<SimTime> {
        match self.poll() {
            SourcePoll::Ready(t) => Some(t),
            _ => None,
        }
    }

    fn next_workflow(&mut self) -> Option<WorkflowSpec> {
        match self.poll() {
            SourcePoll::Ready(_) => self.inner.as_mut()?.next_workflow(),
            _ => None,
        }
    }

    fn poll_time(&mut self) -> SourcePoll {
        self.poll()
    }
}

/// A live [`WorkloadSource`] over an in-process channel — the seam where a
/// socket listener, RPC handler, or test harness plugs submissions into
/// the scheduler service.
///
/// Polls [`SourcePoll::Pending`] while the channel is empty but some
/// [`Sender`] is still alive, and [`SourcePoll::Exhausted`] once every
/// sender has been dropped and the buffered backlog is drained. Submit
/// times are clamped up to the running maximum, like every other source;
/// an arrival that a clamp would push past its deadline stops the stream
/// with a sticky [`error`](ChannelSource::error).
pub struct ChannelSource {
    rx: Receiver<WorkflowSpec>,
    pending: Option<WorkflowSpec>,
    watermark: SimTime,
    /// No further arrival will be read: every sender is gone, or the
    /// stream stopped on an error.
    disconnected: bool,
    /// Arrivals received, to name one in an error.
    received: u64,
    error: Option<String>,
}

impl ChannelSource {
    /// Wraps an existing receiver.
    pub fn new(rx: Receiver<WorkflowSpec>) -> Self {
        ChannelSource {
            rx,
            pending: None,
            watermark: SimTime::ZERO,
            disconnected: false,
            received: 0,
            error: None,
        }
    }

    /// A connected `(submitter, source)` pair. Clone the sender freely;
    /// the stream ends when the last clone is dropped.
    pub fn pair() -> (Sender<WorkflowSpec>, ChannelSource) {
        let (tx, rx) = std::sync::mpsc::channel();
        (tx, ChannelSource::new(rx))
    }

    /// The error that stopped the stream early, if any.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    fn fill(&mut self) {
        if self.pending.is_some() || self.disconnected {
            return;
        }
        match self.rx.try_recv() {
            Ok(w) => {
                self.received += 1;
                match clamp_to_watermark(w, &mut self.watermark) {
                    Ok(w) => self.pending = Some(w),
                    Err(e) => {
                        self.error = Some(format!("arrival {}: {e}", self.received));
                        self.disconnected = true;
                    }
                }
            }
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => self.disconnected = true,
        }
    }
}

impl WorkloadSource for ChannelSource {
    fn peek_time(&mut self) -> Option<SimTime> {
        self.fill();
        self.pending.as_ref().map(WorkflowSpec::submit_time)
    }

    fn next_workflow(&mut self) -> Option<WorkflowSpec> {
        self.fill();
        self.pending.take()
    }

    fn poll_time(&mut self) -> SourcePoll {
        self.fill();
        match &self.pending {
            Some(w) => SourcePoll::Ready(w.submit_time()),
            None if self.disconnected => SourcePoll::Exhausted,
            None => SourcePoll::Pending,
        }
    }
}

/// A [`WorkloadSource`] that materializes Yahoo-trace-style workflows
/// lazily, one per pull, instead of building the whole workload up front.
///
/// Each workflow is drawn from the [`YahooTraceConfig`] distributions with
/// a layered topology of 2–12 jobs (the paper's multi-job size range),
/// released at `index * interarrival` (monotone by construction) with a
/// deadline of `submit + stretch * critical_path`. Memory stays O(1) in
/// the workflow count, which is the point: the benchmark's
/// `trace.source.generator_wf_per_s` is this source's drain rate.
#[derive(Debug, Clone)]
pub struct GeneratorSource {
    config: YahooTraceConfig,
    topo_rng: Rng,
    job_rng: Rng,
    size_rng: Rng,
    interarrival: SimDuration,
    deadline_stretch: f64,
    remaining: usize,
    next_index: u64,
    pending: Option<WorkflowSpec>,
}

impl GeneratorSource {
    /// A lazy stream of `count` workflows from `config`'s distributions,
    /// seeded deterministically: two sources with the same arguments yield
    /// identical streams.
    pub fn new(
        config: YahooTraceConfig,
        seed: u64,
        count: usize,
        interarrival: SimDuration,
        deadline_stretch: f64,
    ) -> Self {
        let rng = Rng::new(seed);
        GeneratorSource {
            config,
            topo_rng: rng.fork(1),
            job_rng: rng.fork(2),
            size_rng: rng.fork(3),
            interarrival,
            deadline_stretch,
            remaining: count,
            next_index: 0,
            pending: None,
        }
    }

    fn generate(&mut self) {
        if self.pending.is_some() || self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let i = self.next_index;
        self.next_index += 1;
        let name = format!("gen-w{i:05}");
        let size = self.size_rng.range_u64(2, 13) as usize;
        let config = self.config.clone();
        let job_rng = &mut self.job_rng;
        let spec = random_layered(name.clone(), size, &mut self.topo_rng, |j| {
            config.sample_job(format!("{name}-j{j}"), job_rng)
        })
        .build()
        .expect("layered workflow is valid");
        let submit = SimTime::ZERO + self.interarrival * i;
        let deadline = submit.saturating_add(spec.critical_path().mul_f64(self.deadline_stretch));
        self.pending = Some(spec.reissued(name, submit, deadline));
    }
}

impl WorkloadSource for GeneratorSource {
    fn peek_time(&mut self) -> Option<SimTime> {
        self.generate();
        self.pending.as_ref().map(WorkflowSpec::submit_time)
    }

    fn next_workflow(&mut self) -> Option<WorkflowSpec> {
        self.generate();
        self.pending.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::chain;
    use woha_model::JobSpec;

    fn spec(name: &str, submit_s: u64) -> WorkflowSpec {
        let w = chain(name, 2, |j| {
            JobSpec::new(
                format!("j{j}"),
                2,
                1,
                SimDuration::from_secs(10),
                SimDuration::from_secs(20),
            )
        })
        .build()
        .unwrap();
        w.reissued(
            name.to_string(),
            SimTime::from_secs(submit_s),
            SimTime::from_secs(submit_s + 600),
        )
    }

    #[test]
    fn vec_source_yields_in_time_order_with_stable_ties() {
        let mut src = VecSource::new(vec![
            spec("b", 20),
            spec("tie-first", 10),
            spec("tie-second", 10),
            spec("a", 0),
        ]);
        assert_eq!(src.peek_time(), Some(SimTime::ZERO));
        let order: Vec<String> = std::iter::from_fn(|| src.next_workflow())
            .map(|w| w.name().to_string())
            .collect();
        // Ties keep original relative order (stable sort), matching the
        // batch event heap's FIFO tie-break over input indices.
        assert_eq!(order, vec!["a", "tie-first", "tie-second", "b"]);
        assert_eq!(src.peek_time(), None);
        assert_eq!(src.next_workflow(), None);
    }

    #[test]
    fn jsonl_source_round_trips_vec_source() {
        let workflows = vec![spec("a", 0), spec("b", 30), spec("c", 90)];
        let text = to_jsonl(&workflows).unwrap();
        let mut jsonl = JsonlSource::from_reader(std::io::Cursor::new(text));
        let mut vec_src = VecSource::new(workflows);
        loop {
            assert_eq!(jsonl.peek_time(), vec_src.peek_time());
            match (jsonl.next_workflow(), vec_src.next_workflow()) {
                (Some(a), Some(b)) => assert_eq!(a, b),
                (None, None) => break,
                other => panic!("length mismatch: {other:?}"),
            }
        }
        assert_eq!(jsonl.error(), None);
    }

    #[test]
    fn jsonl_source_clamps_out_of_order_lines() {
        let text = to_jsonl(&[spec("late", 60), spec("early", 10)]).unwrap();
        let mut src = JsonlSource::from_reader(std::io::Cursor::new(text));
        let a = src.next_workflow().unwrap();
        let b = src.next_workflow().unwrap();
        assert_eq!(a.submit_time(), SimTime::from_secs(60));
        // Clamped up to the watermark; the absolute deadline is kept.
        assert_eq!(b.submit_time(), SimTime::from_secs(60));
        assert_eq!(b.deadline(), SimTime::from_secs(10 + 600));
        assert_eq!(src.error(), None);
    }

    /// Submitted at 10 s with a 30 s deadline after an arrival at 60 s: the
    /// clamp would leave the deadline before the submit time.
    fn clamped_past_its_deadline() -> WorkflowSpec {
        spec("early", 10).reissued("early", SimTime::from_secs(10), SimTime::from_secs(30))
    }

    #[test]
    fn a_clamp_past_the_deadline_is_a_sticky_error_naming_the_arrival() {
        let text = to_jsonl(&[spec("late", 60), clamped_past_its_deadline()]).unwrap();
        let mut src = JsonlSource::from_reader(std::io::Cursor::new(text));
        assert_eq!(src.next_workflow().unwrap().name(), "late");
        assert_eq!(src.next_workflow(), None);
        let err = src.error().expect("a sticky error");
        assert!(
            err.starts_with("line 2: ") && err.contains("not later than"),
            "{err}"
        );
        assert_eq!(src.peek_time(), None);

        // Across files, the next file's first line is clamped the same way.
        use std::io::Write;
        let dir = tmp_dir("clamp");
        let mut a = std::fs::File::create(dir.join("000.jsonl")).unwrap();
        write!(a, "{}", to_jsonl(&[spec("late", 60)]).unwrap()).unwrap();
        let mut b = std::fs::File::create(dir.join("001.jsonl")).unwrap();
        write!(b, "{}", to_jsonl(&[clamped_past_its_deadline()]).unwrap()).unwrap();
        let mut src = FollowSource::dir(&dir);
        src.stop_handle().stop();
        assert_eq!(src.next_workflow().unwrap().name(), "late");
        assert_eq!(src.next_workflow(), None);
        assert!(matches!(src.poll_time(), SourcePoll::Exhausted));
        let err = src.error().expect("a sticky error");
        assert!(
            err.contains("001.jsonl: line 1: ") && err.contains("not later than"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);

        let (tx, mut src) = ChannelSource::pair();
        tx.send(spec("late", 60)).unwrap();
        tx.send(clamped_past_its_deadline()).unwrap();
        tx.send(spec("after", 70)).unwrap();
        assert_eq!(src.next_workflow().unwrap().name(), "late");
        assert!(matches!(src.poll_time(), SourcePoll::Exhausted));
        let err = src.error().expect("a sticky error");
        assert!(
            err.starts_with("arrival 2: ") && err.contains("not later than"),
            "{err}"
        );
    }

    #[test]
    fn jsonl_source_skips_blanks_and_stops_on_garbage() {
        let good = serde_json::to_string(&spec("ok", 5)).unwrap();
        let text = format!("\n{good}\n\nnot json\n{good}\n");
        let mut src = JsonlSource::from_reader(std::io::Cursor::new(text));
        assert_eq!(src.next_workflow().unwrap().name(), "ok");
        assert_eq!(src.next_workflow(), None);
        assert!(src.error().unwrap().contains("line 4"), "{:?}", src.error());
        // Exhausted stays exhausted.
        assert_eq!(src.peek_time(), None);
    }

    #[test]
    fn jsonl_source_rejects_specs_the_builder_rejects() {
        let job = |maps, reduces| {
            format!(
                r#"{{"name":"j","map_tasks":{maps},"reduce_tasks":{reduces},"map_duration":1000,"reduce_duration":1000}}"#
            )
        };
        let line = |jobs: &[String], prereqs: &str, dependents: &str, deadline: u64| {
            format!(
                r#"{{"name":"w","jobs":[{}],"prereqs":{prereqs},"dependents":{dependents},"submit_time":5000,"deadline":{deadline}}}"#,
                jobs.join(",")
            )
        };
        let (one, two) = (vec![job(1, 1)], vec![job(1, 1), job(1, 1)]);
        for (line, error) in [
            (line(&[], "[]", "[]", 60_000), "contains no jobs"),
            (line(&[job(0, 0)], "[[]]", "[[]]", 60_000), "zero map tasks"),
            (line(&[job(0, 2)], "[[]]", "[[]]", 60_000), "zero map tasks"),
            (line(&two, "[[],[7]]", "[[],[]]", 60_000), "only 2 jobs"),
            (line(&one, "[[0]]", "[[0]]", 60_000), "dependency on itself"),
            (
                line(&two, "[[1],[0]]", "[[1],[0]]", 60_000),
                "contains a cycle",
            ),
            (line(&one, "[[]]", "[[]]", 5_000), "not later than"),
            (line(&two, "[[],[0]]", "[[],[]]", 60_000), "lists disagree"),
            (
                line(&two, "[[],[0,0]]", "[[0],[]]", 60_000),
                "lists disagree",
            ),
        ] {
            let ok = serde_json::to_string(&spec("ok", 0)).unwrap();
            let text = format!("{ok}\n{line}\n");
            let mut src = JsonlSource::from_reader(std::io::Cursor::new(text));
            assert_eq!(
                src.next_workflow().map(|w| w.name().to_string()),
                Some("ok".into())
            );
            assert_eq!(src.next_workflow(), None, "{line}");
            let err = src.error().expect("a sticky error");
            assert!(err.contains("line 2") && err.contains(error), "{err}");
        }
    }

    #[test]
    fn generator_source_is_deterministic_lazy_and_monotone() {
        let make = || {
            GeneratorSource::new(
                YahooTraceConfig::default(),
                42,
                20,
                SimDuration::from_secs(30),
                3.0,
            )
        };
        let mut a = make();
        let mut b = make();
        let mut last = SimTime::ZERO;
        let mut count = 0usize;
        while let Some(w) = a.next_workflow() {
            assert_eq!(Some(w.clone()), b.next_workflow());
            assert!(w.submit_time() >= last, "arrivals must be monotone");
            assert_eq!(
                w.submit_time(),
                SimTime::ZERO + SimDuration::from_secs(30) * count as u64
            );
            assert!(w.deadline() > w.submit_time());
            assert!((2..=12).contains(&w.job_count()));
            last = w.submit_time();
            count += 1;
        }
        assert_eq!(count, 20);
        assert_eq!(b.next_workflow(), None);
    }

    #[test]
    fn workflow_spec_survives_json_round_trip() {
        let w = spec("roundtrip", 77);
        let json = serde_json::to_string(&w).unwrap();
        let back: WorkflowSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, w);
    }

    /// A reader over a shared growable buffer, standing in for a file that
    /// another thread is appending to.
    struct SharedReader {
        buf: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
        pos: usize,
    }

    impl std::io::Read for SharedReader {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let buf = self.buf.lock().unwrap();
            let n = (buf.len() - self.pos).min(out.len());
            out[..n].copy_from_slice(&buf[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn shared_follow() -> (
        std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
        JsonlSource<std::io::BufReader<SharedReader>>,
    ) {
        let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let reader = SharedReader {
            buf: std::sync::Arc::clone(&buf),
            pos: 0,
        };
        (buf, JsonlSource::follow(std::io::BufReader::new(reader)))
    }

    #[test]
    fn default_poll_time_maps_peek() {
        let mut src = VecSource::new(vec![spec("a", 5)]);
        assert!(matches!(
            src.poll_time(),
            SourcePoll::Ready(t) if t == SimTime::from_secs(5)
        ));
        src.next_workflow().unwrap();
        assert!(matches!(src.poll_time(), SourcePoll::Exhausted));
    }

    #[test]
    fn follow_jsonl_retries_truncated_line_until_writer_completes_it() {
        let line = serde_json::to_string(&spec("a", 10)).unwrap();
        let (buf, mut src) = shared_follow();

        // Nothing written yet: no data, but not the end of the stream.
        assert!(matches!(src.poll_time(), SourcePoll::Pending));

        // A half-appended line is not a parse error — just not ready yet.
        let (head, tail) = line.split_at(line.len() / 2);
        buf.lock().unwrap().extend_from_slice(head.as_bytes());
        assert!(matches!(src.poll_time(), SourcePoll::Pending));
        assert_eq!(src.error(), None);

        // Completing the line (newline-terminated) makes it ready.
        buf.lock().unwrap().extend_from_slice(tail.as_bytes());
        buf.lock().unwrap().extend_from_slice(b"\n");
        assert!(matches!(
            src.poll_time(),
            SourcePoll::Ready(t) if t == SimTime::from_secs(10)
        ));
        assert_eq!(src.next_workflow().unwrap().name(), "a");

        // Clean EOF in follow mode still waits for more data...
        assert!(matches!(src.poll_time(), SourcePoll::Pending));

        // ...until the stream is declared over, which flushes any buffered
        // final line (here: an unterminated complete record).
        let last = serde_json::to_string(&spec("b", 20)).unwrap();
        buf.lock().unwrap().extend_from_slice(last.as_bytes());
        src.end();
        assert!(matches!(src.poll_time(), SourcePoll::Ready(_)));
        assert_eq!(src.next_workflow().unwrap().name(), "b");
        assert!(matches!(src.poll_time(), SourcePoll::Exhausted));
        assert_eq!(src.error(), None);
    }

    #[test]
    fn finite_jsonl_parses_unterminated_final_line() {
        let mut text = to_jsonl(&[spec("a", 0)]).unwrap();
        text.push_str(&serde_json::to_string(&spec("b", 30)).unwrap());
        assert!(!text.ends_with('\n'));
        let mut src = JsonlSource::from_reader(std::io::Cursor::new(text));
        let names: Vec<String> = std::iter::from_fn(|| src.next_workflow())
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(src.error(), None);
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("woha-trace-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn follow_source_tails_file_and_drains_on_stop() {
        use std::io::Write;
        let dir = tmp_dir("file");
        let path = dir.join("arrivals.jsonl");

        // The file does not exist yet: pending, not an error.
        let mut src = FollowSource::file(&path);
        let stop = src.stop_handle();
        assert!(matches!(src.poll_time(), SourcePoll::Pending));

        let mut f = std::fs::File::create(&path).unwrap();
        write!(f, "{}", to_jsonl(&[spec("a", 10)]).unwrap()).unwrap();
        // Plus a truncated tail the writer has not finished appending.
        let tail = serde_json::to_string(&spec("b", 40)).unwrap();
        write!(f, "{}", &tail[..tail.len() / 2]).unwrap();
        f.flush().unwrap();

        assert_eq!(src.peek_time(), Some(SimTime::from_secs(10)));
        assert_eq!(src.next_workflow().unwrap().name(), "a");
        assert!(matches!(src.poll_time(), SourcePoll::Pending));

        // Writer completes the record, then the stream is stopped: the
        // already-written record must drain before exhaustion.
        writeln!(f, "{}", &tail[tail.len() / 2..]).unwrap();
        f.flush().unwrap();
        stop.stop();
        assert_eq!(src.next_workflow().unwrap().name(), "b");
        assert!(matches!(src.poll_time(), SourcePoll::Exhausted));
        assert_eq!(src.error(), None);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn follow_source_advances_across_rotated_files_with_monotone_times() {
        use std::io::Write;
        let dir = tmp_dir("dir");
        let mut src = FollowSource::dir(&dir);
        let stop = src.stop_handle();
        assert!(matches!(src.poll_time(), SourcePoll::Pending));

        // First file: one record plus an unterminated tail record.
        let mut a = std::fs::File::create(dir.join("000.jsonl")).unwrap();
        write!(a, "{}", to_jsonl(&[spec("a", 20)]).unwrap()).unwrap();
        write!(a, "{}", serde_json::to_string(&spec("a-tail", 5)).unwrap()).unwrap();
        a.flush().unwrap();
        assert_eq!(src.next_workflow().unwrap().name(), "a");
        assert!(matches!(src.poll_time(), SourcePoll::Pending));

        // A later-named file appearing rotates the first: its buffered tail
        // becomes its final record (clamped up to the watermark).
        let mut b = std::fs::File::create(dir.join("001.jsonl")).unwrap();
        write!(b, "{}", to_jsonl(&[spec("b", 1)]).unwrap()).unwrap();
        b.flush().unwrap();
        let tail = src.next_workflow().unwrap();
        assert_eq!(tail.name(), "a-tail");
        assert_eq!(tail.submit_time(), SimTime::from_secs(20));

        // Cross-file clamp: the next file's earlier submit time is lifted.
        let wb = src.next_workflow().unwrap();
        assert_eq!(wb.name(), "b");
        assert_eq!(wb.submit_time(), SimTime::from_secs(20));

        assert!(matches!(src.poll_time(), SourcePoll::Pending));
        stop.stop();
        assert!(matches!(src.poll_time(), SourcePoll::Exhausted));
        assert_eq!(src.error(), None);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn follow_source_surfaces_parse_error_with_file_name() {
        use std::io::Write;
        let dir = tmp_dir("err");
        let path = dir.join("bad.jsonl");
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "{}not json", to_jsonl(&[spec("a", 0)]).unwrap()).unwrap();
        f.flush().unwrap();

        let mut src = FollowSource::file(&path);
        assert_eq!(src.next_workflow().unwrap().name(), "a");
        assert!(matches!(src.poll_time(), SourcePoll::Exhausted));
        let err = src.error().unwrap();
        assert!(
            err.contains("bad.jsonl"),
            "error should name the file: {err}"
        );
        assert!(err.contains("line 2"), "error should cite the line: {err}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn channel_source_polls_pending_then_drains_after_disconnect() {
        let (tx, mut src) = ChannelSource::pair();
        assert!(matches!(src.poll_time(), SourcePoll::Pending));
        assert_eq!(src.peek_time(), None);

        tx.send(spec("a", 30)).unwrap();
        assert!(matches!(
            src.poll_time(),
            SourcePoll::Ready(t) if t == SimTime::from_secs(30)
        ));
        assert_eq!(src.next_workflow().unwrap().name(), "a");

        // Out-of-order submission is clamped up to the watermark.
        tx.send(spec("late", 10)).unwrap();
        tx.send(spec("b", 60)).unwrap();
        drop(tx);
        let w = src.next_workflow().unwrap();
        assert_eq!(w.name(), "late");
        assert_eq!(w.submit_time(), SimTime::from_secs(30));
        assert_eq!(src.next_workflow().unwrap().name(), "b");
        assert!(matches!(src.poll_time(), SourcePoll::Exhausted));
        assert_eq!(src.next_workflow(), None);
    }
}
