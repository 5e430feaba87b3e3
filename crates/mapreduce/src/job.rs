//! MapReduce job kinds.
//!
//! A physical CliqueSquare plan is grouped bottom-up into MapReduce jobs
//! (Section 5.3): map-only jobs evaluate co-located first-level joins, while
//! jobs with a reduce phase shuffle their inputs on the join attributes.
//! The engine crate performs that grouping (`engine::jobs::JobSchedule`) and
//! charges every job's work to one [`crate::ExecutionMetrics`]; this module
//! names the two kinds of job.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether a job has a reduce phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobKind {
    /// A map-only job: all its work is co-located, nothing is shuffled.
    MapOnly,
    /// A full map + shuffle + reduce job.
    MapReduce,
}

impl fmt::Display for JobKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobKind::MapOnly => f.write_str("map-only"),
            JobKind::MapReduce => f.write_str("map-reduce"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_display_as_map_only_and_map_reduce() {
        assert_eq!(JobKind::MapOnly.to_string(), "map-only");
        assert_eq!(JobKind::MapReduce.to_string(), "map-reduce");
    }
}
