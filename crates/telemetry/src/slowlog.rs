//! Bounded ring buffer of slow-query records.
//!
//! Queries whose total latency crosses the configured threshold are
//! pushed here with their full stage breakdown, so "why was that one
//! search slow?" is answerable after the fact without re-running it
//! under a tracer. The buffer keeps the most recent `capacity`
//! entries and drops the oldest.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// One query that crossed the slow threshold, with its plan and
/// per-stage timings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryRecord {
    /// Plan that executed (`"ann"`, `"pre-filter"`, `"batch[32]"`, …).
    pub plan: String,
    /// Requested result count.
    pub k: usize,
    /// End-to-end latency.
    pub total: Duration,
    /// Per-stage durations in execution order.
    pub stages: Vec<(&'static str, Duration)>,
    /// Partitions scanned (including the delta store).
    pub partitions_scanned: usize,
    /// Vectors whose distance was computed.
    pub vectors_scanned: usize,
    /// Rows whose attributes were probed and failed the filter.
    pub filtered_out: usize,
    /// Rows whose attributes were examined (pre-filter candidate set,
    /// or rows probed by a post-filter scan).
    pub candidates: usize,
    /// Vector-payload bytes read.
    pub bytes_scanned: usize,
    /// Candidates re-ranked against exact vectors.
    pub reranked: usize,
}

/// Fixed-capacity, thread-safe ring buffer of [`SlowQueryRecord`]s.
#[derive(Debug)]
pub struct SlowQueryLog {
    capacity: usize,
    entries: Mutex<VecDeque<SlowQueryRecord>>,
}

impl SlowQueryLog {
    /// Creates a log keeping at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> SlowQueryLog {
        SlowQueryLog {
            capacity: capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&self, record: SlowQueryRecord) {
        let mut e = self.entries.lock().unwrap();
        if e.len() == self.capacity {
            e.pop_front();
        }
        e.push_back(record);
    }

    /// Clones the current contents, oldest first.
    pub fn entries(&self) -> Vec<SlowQueryRecord> {
        self.entries.lock().unwrap().iter().cloned().collect()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all records.
    pub fn clear(&self) {
        self.entries.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(plan: &str, ms: u64) -> SlowQueryRecord {
        SlowQueryRecord {
            plan: plan.to_string(),
            k: 10,
            total: Duration::from_millis(ms),
            stages: vec![("partition_scan", Duration::from_millis(ms))],
            partitions_scanned: 1,
            vectors_scanned: 100,
            filtered_out: 0,
            candidates: 0,
            bytes_scanned: 400,
            reranked: 0,
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let log = SlowQueryLog::new(3);
        assert!(log.is_empty());
        for i in 0..5 {
            log.push(rec(&format!("q{i}"), i));
        }
        let e = log.entries();
        assert_eq!(log.len(), 3);
        assert_eq!(
            e.iter().map(|r| r.plan.as_str()).collect::<Vec<_>>(),
            ["q2", "q3", "q4"]
        );
        log.clear();
        assert!(log.is_empty());
    }
}
