#![warn(missing_docs)]

//! `busytime-router` — a cross-process shard router: N `busytime-cli
//! listen` backends served as one endpoint.
//!
//! One `listen` process caps its solve parallelism at its process-wide
//! executor budget. To scale past one process (or one machine), run
//! several and put this router in front: it speaks exactly the
//! listener's wire protocol on the front side — NDJSON records in, one
//! response line per record **in input order**, one
//! [`BatchSummary`](busytime_server::BatchSummary) trailer per
//! connection, `GET /healthz` on the same port — while fanning the
//! records out across the fleet on the back side and merging the
//! shards' trailers into one (counts add, wall clock takes the max, rates
//! are the merged counts over it, percentiles recombine solved-weighted).
//!
//! * [`shard`] — [`ShardState`]: one backend's address, health
//!   (probe-quorum demotion, instant demotion on broken pipes, revival
//!   on a successful probe or a spawn-mode restart) and the load score
//!   [`pick`] balances on.
//! * [`router`] — [`Router`]: the routing service on the listener's
//!   reactor, the background prober, and the per-connection routed
//!   session, a single-threaded state machine that the reactor pumps
//!   with its shard streams as watched sockets: per-record fan-out of
//!   request lines forwarded verbatim (or whole-connection pinning with
//!   [`RouteConfig::sticky`]), in-order fan-in through the server's
//!   [`busytime_server::Ledger`], orphan retry when a shard dies
//!   mid-batch, and the merged summary trailer.
//!   A routed batch costs no thread, and holds a bounded amount of its
//!   client's input.
//! * [`spawn`] — [`ShardFleet`]: `--spawn N` mode, where the router
//!   launches and supervises local shard children (banner-based address
//!   discovery, restart with backoff, whole-tree SIGINT drain).
//!
//! The CLI front-end is `busytime-cli route`:
//!
//! ```text
//! $ busytime-cli route --tcp 127.0.0.1:7070 --spawn 2 --spawn-workers 4
//! routing on tcp://127.0.0.1:7070 (2 shards, per-record)
//! ```

pub mod router;
pub mod shard;
pub mod spawn;

pub use router::{RouteConfig, RouteReport, Router};
pub use shard::{pick, ShardState, UNHEALTHY_AFTER};
pub use spawn::ShardFleet;
