//! The traced run's span recorder: spans live in memory while the run
//! measures and are written out once at the end. Each span carries its
//! parent and the id of the evaluation or request it belongs to, so one
//! file explains any cold evaluation or served request layer by layer.

use diffy_core::JsonValue;
use std::borrow::Cow;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The evaluation or request this span belongs to.
    pub group: u64,
    /// Layer-qualified name, e.g. `models.run_network`.
    pub name: Cow<'static, str>,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// Records nested spans from one thread. With recording off, [`span`]
/// only runs its body, so the same code gives the untraced baseline
/// against which tracing overhead is measured.
///
/// [`span`]: Recorder::span
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    group: u64,
}

impl Recorder {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        let spans = Vec::with_capacity(if enabled { 1 << 16 } else { 0 });
        Self {
            origin: Instant::now(),
            enabled,
            spans,
            stack: Vec::new(),
            group: 0,
        }
    }

    /// Starts a new evaluation/request group and returns its id; spans
    /// opened from now on belong to it.
    pub fn next_group(&mut self) -> u64 {
        self.group += 1;
        self.group
    }

    /// Runs `f` inside a span named `name`. Spans opened by `f` through
    /// the recorder it receives become children of this one.
    pub fn span<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            group: self.group,
            name: name.into(),
            start_ns: 0,
            dur_ns: 0,
        });
        let start = Instant::now();
        self.spans[id].start_ns = ns(start.duration_since(self.origin));
        self.stack.push(id);
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        self.spans[id].dur_ns = ns(end.duration_since(start));
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Total duration (ms) of spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Self time of every span: its duration minus the time its
    /// children cover. Children of one span run one after another on the
    /// recording thread, so the time they cover is the sum of theirs.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns.saturating_sub(c))
            .collect()
    }

    /// Over every span named `parent_name`: how many there are, and the
    /// median and largest share of a span's wall time its children leave
    /// uncovered. (A host stall that lands between two children inflates
    /// one span; the median shows what the instrumentation misses.)
    pub fn tiling_error(&self, parent_name: &str) -> (usize, f64, f64) {
        let self_ns = self.self_times();
        let shares: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == parent_name && s.dur_ns > 0)
            .map(|s| self_ns[s.id] as f64 / s.dur_ns as f64)
            .collect();
        let worst = shares.iter().copied().fold(0.0, f64::max);
        (shares.len(), crate::stats::median_of(&shares), worst)
    }

    /// The span file: every span of the first `max_groups` groups, with
    /// its parent, group and self time. (Thousands of replayed requests
    /// feed the medians; a few hundred explain a request.)
    pub fn to_json(&self, max_groups: u64) -> JsonValue {
        let self_ns = self.self_times();
        JsonValue::Array(
            self.spans
                .iter()
                .filter(|s| s.group <= max_groups)
                .map(|s| {
                    JsonValue::object(vec![
                        ("id", (s.id as u64).into()),
                        (
                            "parent",
                            s.parent.map_or(JsonValue::Null, |p| (p as u64).into()),
                        ),
                        ("group", s.group.into()),
                        ("name", JsonValue::from(s.name.as_ref())),
                        ("start_us", JsonValue::from(s.start_ns as f64 / 1e3)),
                        ("dur_us", JsonValue::from(s.dur_ns as f64 / 1e3)),
                        ("self_us", JsonValue::from(self_ns[s.id] as f64 / 1e3)),
                    ])
                })
                .collect(),
        )
    }
}

fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_link_to_their_parent_and_share_its_group() {
        let mut r = Recorder::new(true);
        let g = r.next_group();
        r.span("eval", |r| {
            r.span("a", |_| busy(Duration::from_millis(2)));
            r.span("b", |r| r.span("c", |_| ()));
        });
        let s = r.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.group == g));
        let (checked, median, worst) = r.tiling_error("eval");
        assert_eq!(checked, 1);
        assert_eq!(median, worst);
        assert!(
            worst < 0.2,
            "two back-to-back children tile their parent: {worst}"
        );
    }

    #[test]
    fn self_time_subtracts_only_what_children_cover() {
        let mut r = Recorder::new(true);
        r.span("p", |r| {
            busy(Duration::from_millis(5));
            r.span("c", |_| busy(Duration::from_millis(5)));
        });
        let p = &r.spans()[0];
        let c = &r.spans()[1];
        assert_eq!(r.self_times(), vec![p.dur_ns - c.dur_ns, c.dur_ns]);
        let (_, _, worst) = r.tiling_error("p");
        assert!(worst > 0.3, "half the parent is its own work: {worst}");
    }

    #[test]
    fn a_disabled_recorder_runs_the_body_and_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.span("x", |r| r.span("y", |_| 7)), 7);
        assert!(r.spans().is_empty());
    }
}
