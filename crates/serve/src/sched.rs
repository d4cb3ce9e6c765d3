//! The deterministic request pipeline behind
//! [`Server::serve_observed`](crate::Server::serve_observed).
//!
//! ```text
//!  workers = 1:
//!            ┌────────┐   bounded    ┌──────────────────────────────┐
//!  input ──▶ │ reader │ ──────────▶  │ calling thread: handle, emit │ ──▶ output
//!            │ thread │    queue     └──────────────────────────────┘
//!            └────────┘
//!  workers = N > 1:
//!            ┌────────┐   bounded    ┌──────────┐  completion   ┌───────────┐
//!  input ──▶ │ reader │ ──────────▶  │ worker×N │ ────────────▶ │ collector │ ──▶ output
//!            │ thread │    queue     │   pool   │    channel    │ (reorder) │
//!            └────────┘              └──────────┘               └───────────┘
//! ```
//!
//! * The **reader thread** pulls request lines off the input, stamps each
//!   with its input index, and pushes into a bounded queue (backpressure:
//!   a slow handler blocks the reader, not memory). A line longer than
//!   [`MAX_REQUEST_LINE_BYTES`] is discarded as it is read and answered
//!   with an `"ok":false` line in its place.
//! * At **one worker** (the default) the calling thread pops each request
//!   and runs the ordinary [`handle_recorded`](crate::Server::handle_recorded)
//!   handler itself, then emits the response: no worker thread, no
//!   completion channel, no reorder buffer (`reorder_us` is 0). The reader
//!   thread stays: it prefetches the next line while a request runs, and
//!   the calling thread's pop times out while input stalls, which is when
//!   the idle metrics flush fires.
//! * At **N workers**, a pool pops lines and runs the same handler
//!   against the shared single-flight
//!   [`CompiledCache`](rlse_core::ir::CompiledCache); the **collector**
//!   (the calling thread) holds a sequence-stamped reorder buffer and
//!   emits each response *strictly in input order*, so the output byte
//!   stream at any worker count is identical to one worker — because each
//!   response line depends only on its own request line.
//!
//! Both paths share the reader and the emit step (access record, metrics,
//! response line).
//!
//! ## Determinism
//!
//! Response bytes are trivially order-independent (per-request purity).
//! Access records are emitted in input order too, and every field but one
//! is a function of the request line: `cache_hit`, the real outcome of the
//! request's compiled-cache lookup. At one worker that outcome is
//! deterministic. At more workers it depends on arrival timing — which of
//! two concurrent requests for one circuit compiles it, and under eviction
//! pressure which entries are still resident — so it is out-of-band, like
//! the wall-clock `*_us` fields (`queue_us`, `reorder_us`, …). The logged
//! hit and miss counts always equal the cache's own totals in the summary
//! and metrics.

use crate::obs::SchedStats;
use crate::{elapsed_us, AccessRecord, Observer, ServeSummary, Server, MAX_REQUEST_LINE_BYTES};
use rlse_core::ir::json::JsonValue;
use rlse_core::telemetry::Telemetry;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, Read, Write};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long the emitting thread waits for work before treating the writer
/// as idle and refreshing the metrics file (so a stalled input stream
/// doesn't leave stale metrics for long-poll deployments).
const IDLE_FLUSH: Duration = Duration::from_millis(250);

/// Bound on the parsed-request queue, per worker: deep enough to keep the
/// pool busy across uneven request costs, shallow enough to backpressure
/// the reader instead of buffering an unbounded stream.
const QUEUE_DEPTH_PER_WORKER: usize = 4;

/// A request line travelling from the reader to its handler.
struct Job {
    idx: u64,
    /// The line's text; `None` for a line longer than
    /// [`MAX_REQUEST_LINE_BYTES`], which was discarded unread.
    line: Option<String>,
    enqueued: Instant,
}

/// A finished request travelling from a pool worker to the collector.
struct Done {
    idx: u64,
    response: String,
    rec: AccessRecord,
    tel: Telemetry,
    finished: Instant,
}

/// A minimal bounded MPMC queue (mutex + condvars): the reader blocks when
/// full, consumers block when empty, and `close` drains-then-terminates.
struct BoundedQueue<T> {
    inner: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    cap: usize,
    peak: usize,
}

/// What [`BoundedQueue::pop_timeout`] found.
#[derive(Debug, PartialEq)]
enum Popped<T> {
    Item(T),
    /// Nothing arrived within the timeout.
    Idle,
    /// The queue is closed and drained.
    Closed,
}

impl<T> BoundedQueue<T> {
    fn new(cap: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                cap: cap.max(1),
                peak: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Block until there is room, then enqueue. Returns `false` if the
    /// queue was closed underneath us (an aborting consumer).
    fn push(&self, item: T) -> bool {
        let mut st = self.inner.lock().expect("queue poisoned");
        while st.items.len() >= st.cap && !st.closed {
            st = self.not_full.wait(st).expect("queue poisoned");
        }
        if st.closed {
            return false;
        }
        st.items.push_back(item);
        st.peak = st.peak.max(st.items.len());
        drop(st);
        self.not_empty.notify_one();
        true
    }

    /// Block until an item is available; `None` once the queue is closed
    /// *and* drained.
    fn pop(&self) -> Option<T> {
        match self.pop_within(None) {
            Popped::Item(item) => Some(item),
            Popped::Idle | Popped::Closed => None,
        }
    }

    /// [`pop`](Self::pop), but give up after waiting `timeout` for an item.
    fn pop_timeout(&self, timeout: Duration) -> Popped<T> {
        self.pop_within(Some(timeout))
    }

    fn pop_within(&self, timeout: Option<Duration>) -> Popped<T> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut st = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Popped::Item(item);
            }
            if st.closed {
                return Popped::Closed;
            }
            st = match deadline {
                None => self.not_empty.wait(st).expect("queue poisoned"),
                Some(deadline) => {
                    let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                        return Popped::Idle;
                    };
                    let (st, _) = self.not_empty.wait_timeout(st, left).expect("queue poisoned");
                    st
                }
            };
        }
    }

    /// Stop accepting pushes; blocked producers and (after the drain)
    /// consumers wake.
    fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Drop queued items and close (the abort path).
    fn abort(&self) {
        let mut st = self.inner.lock().expect("queue poisoned");
        st.items.clear();
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn peak(&self) -> usize {
        self.inner.lock().expect("queue poisoned").peak
    }
}

/// Read one request line: its text without the newline (or `\r\n`), like
/// [`BufRead::lines`], or `Some(None)` for a line longer than `max` bytes,
/// whose excess is skipped without being buffered. `None` at end of input.
fn next_line(input: &mut impl BufRead, max: usize) -> io::Result<Option<Option<String>>> {
    let mut buf = Vec::new();
    if input.by_ref().take(max as u64 + 1).read_until(b'\n', &mut buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > max {
        drop(buf);
        skip_line(input)?;
        return Ok(Some(None));
    }
    String::from_utf8(buf).map(|line| Some(Some(line))).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })
}

/// Consume input through the next newline (or to end of input), holding
/// no more than one buffer-full of it at a time.
fn skip_line(input: &mut impl BufRead) -> io::Result<()> {
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(());
        }
        if let Some(i) = chunk.iter().position(|&b| b == b'\n') {
            input.consume(i + 1);
            return Ok(());
        }
        let n = chunk.len();
        input.consume(n);
    }
}

/// The reader thread: number the non-blank lines of `input` in order and
/// queue them, closing the queue at end of input, on a read error (kept in
/// `read_error`), or when the consumer aborts.
fn read_jobs(
    mut input: impl BufRead,
    queue: &BoundedQueue<Job>,
    read_error: &Mutex<Option<io::Error>>,
) {
    let mut idx = 0u64;
    loop {
        let line = match next_line(&mut input, MAX_REQUEST_LINE_BYTES) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) => {
                *read_error.lock().expect("error slot poisoned") = Some(e);
                break;
            }
        };
        if line.as_deref().is_some_and(|l| l.trim().is_empty()) {
            continue;
        }
        let job = Job {
            idx,
            line,
            enqueued: Instant::now(),
        };
        idx += 1;
        if !queue.push(job) {
            break; // consumer aborted
        }
    }
    queue.close();
}

/// Answer one job on the current thread, recording how long it queued.
fn handle(server: &Server, job: Job) -> (String, AccessRecord, Telemetry) {
    let queue_us = elapsed_us(job.enqueued);
    let (response, mut rec, tel) = match &job.line {
        Some(line) => server.handle_recorded(line),
        None => oversized(),
    };
    rec.queue_us = queue_us;
    (response, rec, tel)
}

/// The answer standing in for a line longer than
/// [`MAX_REQUEST_LINE_BYTES`]: the error line a request without an `id`
/// or `kind` gets.
fn oversized() -> (String, AccessRecord, Telemetry) {
    let error = format!("request line longer than {MAX_REQUEST_LINE_BYTES} bytes");
    let response = JsonValue::Obj(vec![
        ("kind".into(), JsonValue::Str("error".into())),
        ("ok".into(), JsonValue::Bool(false)),
        ("error".into(), JsonValue::Str(error.clone())),
    ])
    .to_compact();
    let rec = AccessRecord {
        kind: "error".into(),
        error: Some(error),
        ..AccessRecord::default()
    };
    (response, rec, Telemetry::disabled())
}

/// The emit step both paths share: it numbers each finished request,
/// records it with the observer (flushing metrics when due) and writes the
/// response line.
struct Emitter<'a, W> {
    server: &'a Server,
    observer: &'a mut Observer,
    output: W,
    queue: &'a BoundedQueue<Job>,
    workers: usize,
    summary: ServeSummary,
    reorder_peak: u64,
    idle_flushes: u64,
    /// `observer.observed()` at the last metrics rewrite.
    flushed_at: u64,
}

impl<W: Write> Emitter<'_, W> {
    fn stats(&self) -> SchedStats {
        SchedStats {
            workers: self.workers as u64,
            engine_threads: self.server.engine_threads() as u64,
            queue_depth_peak: self.queue.peak() as u64,
            reorder_depth_peak: self.reorder_peak,
            singleflight_waits: self.server.cache().singleflight_waits(),
            idle_flushes: self.idle_flushes,
        }
    }

    fn emit(&mut self, response: &str, mut rec: AccessRecord, tel: &Telemetry) -> io::Result<()> {
        rec.seq = self.observer.next_seq();
        self.summary.absorb(&rec);
        self.observer.observe(&rec, tel)?;
        if self.observer.metrics_due() {
            self.flush_metrics()?;
        }
        writeln!(self.output, "{response}")
    }

    /// Writer idle: refresh the metrics file if anything changed since the
    /// last rewrite, so a stalled input stream can't leave stale metrics
    /// behind.
    fn idle(&mut self) -> io::Result<()> {
        if self.observer.wants_metrics() && self.observer.observed() != self.flushed_at {
            self.idle_flushes += 1;
            self.flush_metrics()?;
        }
        Ok(())
    }

    fn flush_metrics(&mut self) -> io::Result<()> {
        self.observer.set_sched_stats(self.stats());
        let cache = self.server.cache();
        self.observer.flush(cache.hits(), cache.misses())?;
        self.flushed_at = self.observer.observed();
        Ok(())
    }
}

/// Serve every non-blank line of `input` through `workers` request
/// handlers, emitting responses (and access records) strictly in input
/// order. This is the engine behind `serve_observed`; at `workers == 1`
/// the calling thread handles each request itself.
pub(crate) fn serve_pipeline(
    server: &Server,
    input: impl BufRead + Send,
    output: impl Write,
    observer: &mut Observer,
    workers: usize,
) -> io::Result<ServeSummary> {
    let workers = workers.max(1);
    let queue = BoundedQueue::new(workers * QUEUE_DEPTH_PER_WORKER);
    let read_error: Mutex<Option<io::Error>> = Mutex::new(None);
    let mut out = Emitter {
        server,
        observer,
        output,
        queue: &queue,
        workers,
        summary: ServeSummary::default(),
        reorder_peak: 0,
        idle_flushes: 0,
        flushed_at: 0,
    };

    let result = std::thread::scope(|scope| {
        let (queue, read_error) = (&queue, &read_error);
        scope.spawn(move || read_jobs(input, queue, read_error));
        if workers == 1 {
            serve_inline(server, queue, &mut out)
        } else {
            serve_pool(server, queue, &mut out, workers)
        }
    });
    out.observer.set_sched_stats(out.stats());
    result?;
    if let Some(e) = read_error.lock().expect("error slot poisoned").take() {
        return Err(e);
    }
    let cache = server.cache();
    let mut summary = out.summary;
    summary.cache_hits = cache.hits();
    summary.cache_misses = cache.misses();
    out.observer.flush(cache.hits(), cache.misses())?;
    Ok(summary)
}

/// One worker: handle and emit each request on the calling thread.
fn serve_inline<W: Write>(
    server: &Server,
    queue: &BoundedQueue<Job>,
    out: &mut Emitter<'_, W>,
) -> io::Result<()> {
    let result = loop {
        let step = match queue.pop_timeout(IDLE_FLUSH) {
            Popped::Item(job) => {
                let (response, rec, tel) = handle(server, job);
                out.emit(&response, rec, &tel)
            }
            Popped::Idle => out.idle(),
            Popped::Closed => break Ok(()),
        };
        if let Err(e) = step {
            break Err(e);
        }
    };
    if result.is_err() {
        queue.abort();
    }
    result
}

/// `workers` pool threads handle requests; the calling thread reorders
/// their completions and emits them in input order.
fn serve_pool<W: Write>(
    server: &Server,
    queue: &BoundedQueue<Job>,
    out: &mut Emitter<'_, W>,
    workers: usize,
) -> io::Result<()> {
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = done_tx.clone();
            scope.spawn(move || {
                while let Some(job) = queue.pop() {
                    let idx = job.idx;
                    let (response, rec, tel) = handle(server, job);
                    let done = Done {
                        idx,
                        response,
                        rec,
                        tel,
                        finished: Instant::now(),
                    };
                    if tx.send(done).is_err() {
                        break; // collector gone; nothing left to do
                    }
                }
            });
        }
        drop(done_tx); // the collector's recv disconnects once workers finish

        let mut pending: BTreeMap<u64, Done> = BTreeMap::new();
        let mut next_idx = 0u64;
        let result = 'collect: loop {
            let done = match done_rx.recv_timeout(IDLE_FLUSH) {
                Ok(done) => done,
                Err(mpsc::RecvTimeoutError::Timeout) => match out.idle() {
                    Ok(()) => continue,
                    Err(e) => break Err(e),
                },
                Err(mpsc::RecvTimeoutError::Disconnected) => break Ok(()),
            };
            pending.insert(done.idx, done);
            out.reorder_peak = out.reorder_peak.max(pending.len() as u64);
            while let Some(done) = pending.remove(&next_idx) {
                next_idx += 1;
                let mut rec = done.rec;
                rec.reorder_us = elapsed_us(done.finished);
                if let Err(e) = out.emit(&done.response, rec, &done.tel) {
                    break 'collect Err(e);
                }
            }
        };
        if result.is_err() {
            queue.abort();
        }
        // Drain any stragglers so workers can exit before the scope joins.
        while done_rx.recv().is_ok() {}
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_backpressures_and_drains_on_close() {
        let q = BoundedQueue::new(2);
        assert!(q.push(1));
        assert!(q.push(2));
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                // Blocks until the consumer makes room.
                assert!(q.push(3));
            });
            assert_eq!(q.pop(), Some(1));
            h.join().unwrap();
        });
        q.close();
        assert!(!q.push(4), "closed queue refuses new work");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3), "close still drains queued work");
        assert_eq!(q.pop(), None);
        assert_eq!(q.peak(), 2);
    }

    #[test]
    fn pop_timeout_reports_idle_then_closed() {
        let q = BoundedQueue::new(1);
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Popped::Idle);
        assert!(q.push(7));
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Popped::Item(7));
        q.close();
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Popped::Closed);
    }

    #[test]
    fn next_line_caps_the_line_and_skips_its_excess() {
        let text = "a\r\n123456789\nb\n12345678\nc";
        let mut input = io::BufReader::with_capacity(4, text.as_bytes());
        let mut next = || next_line(&mut input, 8).unwrap();
        assert_eq!(next(), Some(Some("a".into())));
        assert_eq!(next(), Some(None), "one byte over the cap");
        assert_eq!(next(), Some(Some("b".into())));
        assert_eq!(next(), Some(Some("12345678".into())), "exactly at the cap");
        assert_eq!(next(), Some(Some("c".into())));
        assert_eq!(next(), None);
    }
}
