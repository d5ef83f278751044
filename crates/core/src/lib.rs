#![warn(missing_docs)]

//! Busy-time scheduling: the core library of the `busytime` workspace.
//!
//! Implements the problem and every algorithm of Flammini, Monaco,
//! Moscardelli, Shachnai, Shalom, Tamir, Zaks — *Minimizing total busy time
//! in parallel scheduling with application to optical networks* (Theoretical
//! Computer Science 411 (2010) 3553–3562; preliminary version IPDPS 2009).
//!
//! # Problem
//!
//! Jobs are closed time intervals `[s_j, c_j]`; a machine may process at most
//! `g` jobs at any instant (the *parallelism parameter*). A machine is busy
//! whenever at least one of its jobs is active; its cost is the measure of
//! its busy period (`span` of its job set — idle gaps are free). Minimize the
//! total busy time over all machines; the number of machines is unbounded.
//! NP-hard already for `g = 2`.
//!
//! # Algorithms
//!
//! | Algorithm | Instances | Guarantee | Paper |
//! |---|---|---|---|
//! | [`algo::FirstFit`] | general | ≤ 4·OPT (Thm 2.1), worst case ≥ 3−ε (Thm 2.4) | §2 |
//! | [`algo::NextFitProper`] | proper interval families | ≤ 2·OPT (Thm 3.1) | §3.1 |
//! | [`algo::BoundedLength`] | lengths in `[1, d]`, integral starts | ≤ (2+ε)·OPT (Thm 3.2) | §3.2 |
//! | [`algo::CliqueScheduler`] | pairwise-overlapping families | ≤ 2·OPT (Thm A.1) | Appendix |
//! | [`algo::MinMachines`] | general (machine-count objective) | ⌈ω/g⌉ machines (optimal count) | §1.1 |
//!
//! Lower bounds of Observation 1.1 are in [`bounds`]; the structural facts
//! the analysis rests on (Observation 2.2, Lemma 2.3, the claims inside
//! Theorem 3.1) are checkable on concrete schedules via [`verify`].
//!
//! # Quick example
//!
//! The front door is the unified solve pipeline of [`solve`]: build a
//! [`SolveRequest`], pick a solver by registry name — or let the `auto`
//! portfolio detect the instance's structure and dispatch the
//! best-guaranteed algorithm — and read schedule, cost, lower bound, gap
//! and timings off the returned [`SolveReport`]:
//!
//! ```
//! use busytime_core::{Instance, SolveRequest};
//! use busytime_interval::Interval;
//!
//! let inst = Instance::new(
//!     vec![Interval::new(0, 4), Interval::new(1, 5), Interval::new(6, 9)],
//!     2,
//! );
//! let report = SolveRequest::new(&inst).solver("auto").solve().unwrap();
//! report.schedule.validate(&inst).unwrap();
//! assert!(report.gap >= 1.0);
//! assert!(report.cost <= 4 * report.lower_bound); // Thm 2.1, through any dispatch
//! ```
//!
//! The bare [`algo::Scheduler`] trait remains the low-level extension
//! point for calling a concrete algorithm directly:
//!
//! ```
//! use busytime_core::{Instance, algo::{FirstFit, Scheduler}};
//! let inst = Instance::from_pairs([(0, 4), (1, 5), (6, 9)], 2);
//! let schedule = FirstFit::paper().schedule(&inst).unwrap();
//! assert!(schedule.cost(&inst) <= 4 * busytime_core::bounds::lower_bound(&inst));
//! ```

pub mod algo;
pub mod bounds;
pub mod cancel;
pub mod instance;
pub mod machine;
pub mod memo;
pub mod pool;
pub mod render;
pub mod schedule;
pub mod solve;
pub mod verify;
pub mod view;

pub use cancel::CancelToken;
pub use instance::{Instance, JobId};
pub use machine::MachineLoad;
pub use memo::{CachePolicy, CanonicalInstance, SolutionCache, SolveFingerprint, WarmStart};
pub use schedule::{MachineId, Schedule, ScheduleViolation};
pub use solve::{Auto, InstanceFeatures, SolveError, SolveReport, SolveRequest, SolverRegistry};
