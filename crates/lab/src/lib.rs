#![warn(missing_docs)]

//! Experiment harness: reproduces every figure and theorem-level claim of
//! the paper as a regenerable table.
//!
//! The paper is theoretical — its "evaluation" is Theorems 2.1/2.4/2.5
//! (FirstFit between 3 and 4), 3.1 (Greedy 2-approx on proper families),
//! 3.2 (Bounded_Length 2+ε), A.1 (clique 2-approx), Observations 1.1/2.2,
//! Lemmas 2.3/3.3 and Figures 1–5. Each maps to an experiment `E1…E13`,
//! plus `E14` for the ring-topology extension (see DESIGN.md §4 for the
//! full index); running
//! `cargo run -p busytime-lab --release --bin run_experiments` regenerates
//! every table recorded in EXPERIMENTS.md.
//!
//! Infrastructure:
//!
//! * [`table`] — markdown/CSV tables experiments emit.
//! * [`busytime_core::pool`] — the persistent process-wide executor every
//!   parameter sweep submits to (shared atomic cursor balances skewed
//!   cell costs; results land in input order); experiments call
//!   `Executor::global().par_map(..)`, and harnesses that want their own
//!   pinned worker budget build an [`Executor`].
//! * [`ratio`] — streaming min/mean/max ratio statistics.
//! * [`experiments`] — one module per experiment.

pub mod experiments;
pub mod ratio;
pub mod solve;
pub mod table;

pub use busytime_core::pool::Executor;
pub use ratio::RatioStats;
pub use solve::{registry, solve_cell};
pub use table::Table;

/// Global knob for experiment sizes: `quick` keeps everything small enough
/// for CI/tests; `full` is what EXPERIMENTS.md records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small parameterization for tests (seconds).
    Quick,
    /// Full parameterization for the recorded tables (minutes).
    Full,
}

impl Scale {
    /// Picks between the quick and full variants of a parameter.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
