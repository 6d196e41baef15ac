//! In-memory spans recorded by the benchmark's own code around each call
//! it makes into a layer.
//!
//! A span has a name, start and end (ns since the recorder's epoch), the
//! span that was open when it began (its parent) and a request id. Self
//! time — the span's duration minus the part its child spans cover — is
//! aggregated per name for every span; the spans themselves are kept up to
//! a cap and written out as JSON lines when the run ends. A disabled
//! recorder reads no clock and stores nothing, which is how the untraced
//! passes run the same code.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the written trace; later spans only feed the aggregates.
const KEEP: usize = 100_000;

/// One finished span.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    req: u64,
    child_ns: u64,
}

/// Per-name totals over every span, kept or not.
#[derive(Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    dropped: u64,
    totals: Vec<(&'static str, Totals)>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            kept: Vec::new(),
            dropped: 0,
            totals: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`Recorder::end`].
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            name,
            start_ns,
            req,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("end without begin");
        self.close(open, end_ns);
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }

    /// Records an interval the caller already timed as a child of the
    /// innermost open span.
    pub fn interval(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let open = Open {
            id,
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            req,
            child_ns: 0,
        };
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.close(open, end_ns);
    }

    fn close(&mut self, open: Open, end_ns: u64) {
        let dur = end_ns.saturating_sub(open.start_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let t = match self.totals.iter().position(|t| t.0 == open.name) {
            Some(i) => &mut self.totals[i].1,
            None => {
                self.totals.push((open.name, Totals::default()));
                &mut self.totals.last_mut().expect("just pushed").1
            }
        };
        t.count += 1;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if self.kept.len() < KEEP {
            self.kept.push(Span {
                id: open.id,
                parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                req: open.req,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Spans recorded so far, kept or not.
    pub fn recorded(&self) -> u64 {
        self.next_id - 1
    }

    /// Totals for `name` (zero when no such span was recorded).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals
            .iter()
            .find(|t| t.0 == name)
            .map_or_else(Totals::default, |t| t.1)
    }

    /// Mean self time of one `name` span in ns (0 when none was recorded).
    pub fn self_ns_per_call(&self, name: &str) -> f64 {
        let t = self.totals(name);
        if t.count == 0 {
            0.0
        } else {
            t.self_ns as f64 / t.count as f64
        }
    }

    /// Writes the kept spans as JSON lines after a `header` line.
    pub fn write(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.kept.len() * 96 + header.len() + 64);
        let _ = writeln!(
            out,
            "{{\"kind\": \"header\", \"spans\": {}, \"dropped\": {}, \"host\": {header}}}",
            self.kept.len(),
            self.dropped
        );
        for s in &self.kept {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"req\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.req
            );
        }
        std::fs::write(path, out)
    }
}
