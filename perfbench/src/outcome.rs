//! What one run produces: metric values plus the attempted/failed
//! operation counts that every output check feeds.

use std::collections::BTreeMap;

/// Metrics and check accounting of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (design points evaluated, requests sent, and
    /// one per standalone check).
    pub attempted: u64,
    /// Attempted operations that errored, went unanswered or late, or
    /// produced output that failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result (sample counts,
    /// failed checks).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts `ops` attempted operations.
    pub fn attempt(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Records a check covering `ops` already-attempted operations: all of
    /// them fail when `ok` is false.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// A standalone check: one attempted operation of its own.
    pub fn check_one(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempt(1);
        self.check(ok, 1, what);
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds `other`'s counts, and those of its metrics this outcome does
    /// not already hold.
    pub fn merge_missing(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.metrics {
            self.metrics.entry(k).or_insert(v);
        }
        self.notes.extend(other.notes);
    }
}
