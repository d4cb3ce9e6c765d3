//! The closed-loop client: one request in flight against
//! [`Server::serve_observed`].
//!
//! [`Gate`] is the server's input. It hands the reader thread one line at
//! a time and releases the next line only after [`Tap`], the server's
//! output, has seen the previous response's newline. Release and write
//! instants are recorded on the shared [`Loop`], so a request's latency
//! runs from line release to response write: the reader, queue, worker,
//! reorder buffer and writer are all inside it.

use rlse_serve::{Observer, Server};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct LoopState {
    released: u64,
    written: u64,
    /// Nanoseconds since `Loop::t0` at each line release.
    release_ns: Vec<u64>,
    /// Nanoseconds since `Loop::t0` at each response newline.
    write_ns: Vec<u64>,
}

/// Shared state of one closed-loop window.
#[derive(Debug)]
struct Loop {
    t0: Instant,
    state: Mutex<LoopState>,
    cv: Condvar,
}

/// Room for this many requests is reserved up front, so recording never
/// reallocates inside the window.
const RESERVE: usize = 1 << 20;

impl Loop {
    fn new() -> Self {
        Loop {
            t0: Instant::now(),
            state: Mutex::new(LoopState {
                release_ns: Vec::with_capacity(RESERVE),
                write_ns: Vec::with_capacity(RESERVE),
                ..LoopState::default()
            }),
            cv: Condvar::new(),
        }
    }

    fn ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

/// The server's input: streams the corpus file, cycling at its end, one
/// line per completed response.
struct Gate<'a> {
    src: BufReader<File>,
    line: Vec<u8>,
    pos: usize,
    lp: &'a Loop,
    deadline: Instant,
    limit: u64,
}

impl Gate<'_> {
    /// Block until the previous response is written, then load the next
    /// line; `false` at the deadline or the request limit.
    fn next_line(&mut self) -> std::io::Result<bool> {
        {
            let mut st = self.lp.state.lock().expect("loop poisoned");
            while st.written < st.released {
                st = self.lp.cv.wait(st).expect("loop poisoned");
            }
            if st.released >= self.limit || Instant::now() >= self.deadline {
                return Ok(false);
            }
        }
        self.line.clear();
        self.pos = 0;
        if self.src.read_until(b'\n', &mut self.line)? == 0 {
            self.src.seek(SeekFrom::Start(0))?;
            self.src.read_until(b'\n', &mut self.line)?;
        }
        let mut st = self.lp.state.lock().expect("loop poisoned");
        st.released += 1;
        let now = self.lp.ns();
        st.release_ns.push(now);
        Ok(true)
    }
}

impl Read for Gate<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = {
            let buf = self.fill_buf()?;
            let n = buf.len().min(out.len());
            out[..n].copy_from_slice(&buf[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Gate<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.line.len() && !self.next_line()? {
            return Ok(&[]);
        }
        Ok(&self.line[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The server's output: responses go to a file; each newline marks one
/// response written and wakes the gate.
struct Tap<'a> {
    out: BufWriter<File>,
    lp: &'a Loop,
}

impl Write for Tap<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.out.write_all(buf)?;
        let lines = buf.iter().filter(|&&b| b == b'\n').count() as u64;
        if lines > 0 {
            let now = self.lp.ns();
            let mut st = self.lp.state.lock().expect("loop poisoned");
            st.written += lines;
            for _ in 0..lines {
                st.write_ns.push(now);
            }
            drop(st);
            self.lp.cv.notify_one();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// What one closed-loop window measured.
#[derive(Debug, Clone)]
pub struct Window {
    /// Responses written.
    pub completed: u64,
    /// First release to last write, in seconds.
    pub seconds: f64,
    /// Per-request latency (release → write), in nanoseconds, in order.
    pub latency_ns: Vec<u64>,
}

/// Serve `corpus` (a JSON-lines file, cycled, entered at line `start`)
/// through `server` as one closed-loop client until `duration` passes or
/// `limit` requests have been released, writing responses to `out`.
///
/// # Errors
///
/// I/O errors on the corpus, the output, or the observer's sinks.
pub fn run(
    server: &Server,
    corpus: &Path,
    start: u64,
    out: &Path,
    duration: Duration,
    limit: u64,
    observer: &mut Observer,
) -> std::io::Result<Window> {
    let mut src = BufReader::new(File::open(corpus)?);
    let mut skipped = Vec::new();
    for _ in 0..start {
        skipped.clear();
        if src.read_until(b'\n', &mut skipped)? == 0 {
            src.seek(SeekFrom::Start(0))?;
            src.read_until(b'\n', &mut skipped)?;
        }
    }
    let lp = Loop::new();
    let gate = Gate {
        src,
        line: Vec::new(),
        pos: 0,
        lp: &lp,
        deadline: Instant::now() + duration,
        limit,
    };
    let mut tap = Tap {
        out: BufWriter::new(File::create(out)?),
        lp: &lp,
    };
    server.serve_observed(gate, &mut tap, observer)?;
    tap.flush()?;
    let st = lp.state.into_inner().expect("loop poisoned");
    let completed = st.written.min(st.released);
    let latency_ns = st
        .release_ns
        .iter()
        .zip(&st.write_ns)
        .map(|(r, w)| w.saturating_sub(*r))
        .collect();
    let seconds = match (st.release_ns.first(), st.write_ns.last()) {
        (Some(a), Some(b)) if b > a => (b - a) as f64 / 1e9,
        _ => 0.0,
    };
    Ok(Window {
        completed,
        seconds,
        latency_ns,
    })
}
