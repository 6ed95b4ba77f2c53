//! mocha-perf: the repository's one benchmark. See README.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod json;
pub mod probes;
pub mod procfs;
pub mod result;
pub mod rng;
pub mod run;
pub mod sched;
pub mod span;
pub mod stamp;
pub mod stats;
pub mod wall;
pub mod wan;
pub mod workload;
