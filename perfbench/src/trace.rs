//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! program's public functions (name, start, end, parent, request id), kept
//! in memory, and written out as JSON lines when the run ends. A span's
//! self time is its duration minus the part of it that its child spans
//! cover; a layer's self time is the sum over spans whose name starts with
//! the layer prefix (the text before the first `.`).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// A recorder for another thread, sharing this one's clock.
    pub fn fork(&self) -> Self {
        Self {
            epoch: self.epoch,
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>, req: u64) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: t,
            end_ns: t,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let t = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = t;
        (t - span.start_ns) as f64 * 1e-9
    }

    /// Rename an open or closed span (the engine a call dispatched to is
    /// known only after the call returns).
    pub fn rename(&mut self, id: usize, name: &str) {
        name.clone_into(&mut self.spans[id].name);
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, req);
        let out = f();
        (out, self.end(id))
    }

    pub fn count(&mut self, name: &str, by: f64) {
        *self.counters.entry(name.to_owned()).or_insert(0.0) += by;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Fold another thread's recorder in (span parents are re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0.0) += v;
        }
    }

    /// Spans named exactly `name`: (count, total seconds).
    pub fn total(&self, name: &str) -> (usize, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(c, t), s| {
                (c + 1, t + (s.end_ns - s.start_ns) as f64 * 1e-9)
            })
    }

    /// Spans named exactly `name` with request id `req`: (count, total seconds).
    pub fn total_req(&self, name: &str, req: u64) -> (usize, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.req == req)
            .fold((0, 0.0), |(c, t), s| {
                (c + 1, t + (s.end_ns - s.start_ns) as f64 * 1e-9)
            })
    }

    /// Self time in seconds of every span: its duration minus the union
    /// of its children's intervals clipped to it.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9
            })
            .collect()
    }

    /// Self time per layer (span name up to its first `.`), in seconds.
    pub fn layer_self_times(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let layer = s.name.split('.').next().unwrap_or(&s.name).to_owned();
            *out.entry(layer).or_insert(0.0) += t;
        }
        out
    }

    /// Write every span and counter as JSON lines to `path`.
    pub fn write_out(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_s)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                f,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.req,
                (self_s * 1e9).round() as u64
            )?;
        }
        for (k, v) in &self.counters {
            writeln!(f, "{{\"counter\":\"{k}\",\"value\":{v}}}")?;
        }
        f.flush()
    }
}
