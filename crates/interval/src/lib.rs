#![warn(missing_docs)]

//! Time intervals and overlap machinery for busy-time scheduling.
//!
//! This crate is the substrate underneath the `busytime` workspace, the
//! reproduction of Flammini et al., *Minimizing total busy time in parallel
//! scheduling with application to optical networks* (TCS 411, 2010).
//!
//! # Time model
//!
//! All coordinates are integral [`Time`] ticks (`i64`). An [`Interval`] is
//! **closed**: `[s, c]` with `s ≤ c`. Two closed intervals that share only an
//! endpoint *overlap* — this matches the interval-graph formulation of the
//! paper and the optical-network reduction (lightpath endpoints are shifted
//! by ±½ exactly so this convention carries over; see `busytime-optical`).
//!
//! Internally, sweep logic maps a closed interval `[s, c]` to the half-open
//! interval `[2s, 2c + 1)` in *doubled coordinates* ([`Interval::dkey_lo`],
//! [`Interval::dkey_hi`]); two closed intervals intersect iff their doubled
//! images do. All sweep code then works with ordinary half-open integers.
//!
//! # Modules
//!
//! * [`interval`] — the closed [`Interval`] type and its algebra.
//! * [`set`] — [`IntervalSet`]: a normalized union of disjoint intervals with
//!   exact measure (the paper's `span`).
//! * [`sweep`] — static sweep-line routines (max overlap, overlap profile).
//! * [`family`] — [`FamilyScan`]: every family aggregate the feature
//!   detector needs from one fused sweep over pairs sorted once.
//! * [`profile`] — [`OverlapProfile`]: a dynamic step function of active-job
//!   counts with range-max queries; the feasibility oracle for FirstFit.
//! * [`relations`] — instance-class predicates: proper / clique / laminar /
//!   connected families.

pub mod family;
pub mod interval;
pub mod profile;
pub mod relations;
pub mod set;
pub mod sweep;

pub use family::FamilyScan;
pub use interval::{Interval, Time};
pub use profile::OverlapProfile;
pub use set::IntervalSet;

/// Sum of lengths of a family of intervals (`len(I)` in the paper,
/// Definition 1.1). Not the measure of the union; see [`span`] for that.
pub fn total_len(intervals: &[Interval]) -> i64 {
    intervals.iter().map(|iv| iv.len()).sum()
}

/// Measure of the union of a family of intervals (`span(I) = len(∪I)`,
/// Definition 1.2). Always `span(I) ≤ len(I)`, with equality iff the
/// intervals have pairwise disjoint interiors (touching at endpoints loses
/// no measure).
pub fn span(intervals: &[Interval]) -> i64 {
    IntervalSet::from_intervals(intervals.iter().copied()).measure()
}

/// Smallest interval containing every interval of a non-empty family
/// (`[min s_j, max c_j]`), or `None` for an empty family.
pub fn hull(intervals: &[Interval]) -> Option<Interval> {
    let start = intervals.iter().map(|iv| iv.start).min()?;
    let end = intervals.iter().map(|iv| iv.end).max()?;
    Some(Interval::new(start, end))
}
