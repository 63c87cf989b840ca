//! Failure event traces for post-run analysis.

/// One physical-process failure observed during an attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// Attempt in which the failure occurred.
    pub attempt: u64,
    /// Absolute virtual time of the failure, seconds.
    pub time: f64,
    /// The physical process that failed.
    pub process: usize,
    /// Whether this failure completed a sphere and killed the job.
    pub killed_job: bool,
}

/// An append-only log of failure events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureTrace {
    events: Vec<FailureEvent>,
}

impl FailureTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn record(&mut self, event: FailureEvent) {
        self.events.push(event);
    }

    /// All events, in recording order.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of job-killing failures (= number of restarts needed).
    pub fn job_failures(&self) -> usize {
        self.events.iter().filter(|e| e.killed_job).count()
    }

    /// Drops events of `attempt` that occur after `end_time` — used when
    /// an attempt completes before its planned failure materializes, so
    /// never-observed deaths do not pollute the log.
    pub fn truncate_attempt(&mut self, attempt: u64, end_time: f64) {
        self.events.retain(|e| e.attempt != attempt || e.time <= end_time);
    }
}

impl Extend<FailureEvent> for FailureTrace {
    fn extend<I: IntoIterator<Item = FailureEvent>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, killed: bool) -> FailureEvent {
        FailureEvent { attempt: 0, time, process: 0, killed_job: killed }
    }

    #[test]
    fn records_and_counts() {
        let mut t = FailureTrace::new();
        assert!(t.is_empty());
        t.record(ev(1.0, false));
        t.record(ev(2.0, true));
        t.record(ev(3.0, true));
        assert_eq!(t.len(), 3);
        assert_eq!(t.job_failures(), 2);
    }

    #[test]
    fn truncate_attempt_prunes_future_events() {
        let mut t = FailureTrace::new();
        t.extend([
            FailureEvent { attempt: 0, time: 1.0, process: 0, killed_job: false },
            FailureEvent { attempt: 1, time: 5.0, process: 1, killed_job: false },
            FailureEvent { attempt: 1, time: 9.0, process: 2, killed_job: true },
        ]);
        t.truncate_attempt(1, 6.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.job_failures(), 0);
        // Other attempts untouched.
        assert_eq!(t.events()[0].attempt, 0);
    }
}
