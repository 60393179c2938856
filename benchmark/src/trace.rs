//! In-memory span recorder for the traced run.
//!
//! The benchmark calls each layer's public functions itself, in pipeline
//! order, and wraps every call in a span: name, start, end, the span that
//! caused it, and the id of the run it belongs to. Spans stay in memory and
//! are written out once, when the process ends. All spans are opened and
//! closed by the one client thread, so children of a span never overlap and
//! a span's self time is its duration minus the durations of its children.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json;

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub run: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. A disabled recorder still runs the wrapped closures, so
/// the staged pipeline can be driven untraced for the partition check.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), run: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// Start a new run: spans recorded from here on carry a fresh run id.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, nested under whichever span is
    /// open on this thread.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            run: self.run,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Per-span self time: duration minus the time covered by children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Total duration of every span called `name` within run `run`, in
    /// seconds (0 when the run has no such span).
    pub fn seconds(&self, run: u32, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Durations in nanoseconds of every span called `name`, over all runs.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).collect()
    }

    /// Share of run `run`'s root span that is attributed to a named layer:
    /// the self times of every non-root span over the root's duration.
    pub fn coverage(&self, run: u32) -> f64 {
        let own = self.self_times_ns();
        let mut root_ns = 0u64;
        let mut layers_ns = 0u64;
        for (span, own_ns) in self.spans.iter().zip(&own) {
            if span.run != run {
                continue;
            }
            match span.parent {
                None => root_ns += span.duration_ns(),
                Some(_) => layers_ns += own_ns,
            }
        }
        if root_ns == 0 {
            0.0
        } else {
            layers_ns as f64 / root_ns as f64
        }
    }

    /// Self time per span name within run `run`, in seconds, for the
    /// human-readable ledger.
    pub fn ledger(&self, run: u32) -> BTreeMap<&'static str, f64> {
        let own = self.self_times_ns();
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, own_ns) in self.spans.iter().zip(&own) {
            if span.run == run {
                *by_name.entry(span.name).or_insert(0.0) += *own_ns as f64 / 1e9;
            }
        }
        by_name
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let own = self.self_times_ns();
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {id}, \"parent\": {parent}, \"run\": {}, \"name\": {}, \
                     \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                    s.run,
                    json::string(s.name),
                    s.start_ns,
                    s.end_ns,
                    own[id]
                )
            })
            .collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let run = t.next_run();
        t.span("root", |t| {
            t.span("a", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
            t.span("b", |t| {
                t.span("a", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
            });
        });
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[3].parent, Some(2));
        let own = t.self_times_ns();
        assert!(own[0] < t.spans[0].duration_ns() / 2, "root time is mostly its children's");
        assert!(t.seconds(run, "a") >= 0.010);
        assert!(t.coverage(run) > 0.9);
        assert_eq!(t.seconds(run + 1, "a"), 0.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
