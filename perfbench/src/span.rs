//! Spans recorded by the benchmark around its calls into each layer
//! (traced runs only). Spans nest on one thread; a span's self time is
//! its duration minus the time its child spans cover. Records are kept
//! in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// At most this many span records are kept for the trace file; self
/// times are aggregated over every span regardless.
const MAX_RECORDS: usize = 200_000;

struct Open {
    id: u32,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

struct Record {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    on: bool,
    origin: Instant,
    next_id: u32,
    stack: Vec<Open>,
    records: Vec<Record>,
    dropped: u64,
    self_ns: BTreeMap<&'static str, u64>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            records: Vec::new(),
            dropped: 0,
            self_ns: BTreeMap::new(),
        }
    }

    /// Turns recording on or off (only between spans).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span named `name` (a no-op wrapper when off).
    pub fn run<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.open(name);
        let out = f();
        self.close();
        out
    }

    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.next_id += 1;
        self.stack.push(Open {
            id: self.next_id,
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    pub fn close(&mut self) {
        let Some(span) = self.stack.pop() else {
            return;
        };
        let end = Instant::now();
        let dur = end.duration_since(span.start).as_nanos() as u64;
        *self.self_ns.entry(span.name).or_default() += dur.saturating_sub(span.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if self.records.len() < MAX_RECORDS {
            self.records.push(Record {
                id: span.id,
                parent: self.stack.last().map(|p| p.id),
                name: span.name,
                start_ns: span.start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Self time per span name, in nanoseconds.
    pub fn self_ns(&self) -> &BTreeMap<&'static str, u64> {
        &self.self_ns
    }

    /// Writes one JSON object per span (`id`, `parent`, `name`, `start_ns`,
    /// `end_ns`) to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in &self.records {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.id, r.name, r.start_ns, r.end_ns
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped\":{}}}", self.dropped)?;
        }
        out.flush()
    }
}
