//! Thread-per-process deployment harness.
//!
//! This crate runs the *same* protocol state machines that the
//! simulator and model checker drive, but on real OS threads with real
//! time and (optionally) real TCP sockets:
//!
//! * [`codec`] — a compact binary serde format for wire messages (the
//!   sanctioned dependency set has no serialization-format crate).
//! * [`Transport`] — pluggable byte transport: [`InMemoryTransport`]
//!   (crossbeam channels) and two socket backends that share one wire
//!   protocol (length-prefixed coalesced frames, vectored writes,
//!   reusable read buffers) and differ in who waits: [`TcpTransport`]
//!   (a blocking thread per connection) and [`ReactorTransport`] (one
//!   non-blocking event-loop thread owning every socket).
//! * [`node`] — one OS thread per process hosting every consensus
//!   group's instance: an event loop multiplexing network traffic,
//!   client proposals and wall-clock timers (protocol timer delays are
//!   virtual `Δ` units scaled by a configurable wall-clock `Δ`).
//! * [`ClusterBuilder`] — the one construction path: transport choice,
//!   emulated link delay (one delay-line thread, whatever the backend),
//!   observer and batching/pipeline knobs feed a single assembly
//!   routine behind [`ClusterBuilder::build`] (one group of any
//!   protocol) and [`ClusterBuilder::build_sharded_smr`] (`k` SMR
//!   groups, one by default).
//! * [`ShardedCluster`] — the one deployment type every build returns:
//!   `n` nodes × `k` hash-partitioned consensus groups over one
//!   transport (shard-tagged wire envelopes, round-robin group leaders,
//!   a waiter registry the deciding node's own thread publishes into),
//!   with the operator's view: hand out clients, await decisions,
//!   observe latency, crash nodes. A one-group deployment is `k = 1`,
//!   addressed as shard 0.
//! * [`ProxyClient`] — the way in for commands: a closed-loop client
//!   bound to one proxy per group that submits a command, waits for its
//!   commit and measures per-command (amortized) latency.
//!
//! Design note: the runtime deliberately contains *no protocol logic* —
//! crash injection is thread shutdown, timeouts are the protocol's own
//! timers, and all ordering comes from the transport. Anything verified
//! about the state machines in `twostep-verify` therefore carries over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod cluster;
pub mod codec;
mod error;
pub mod node;
mod proxy;
mod reactor;
pub mod shard;
mod transport;
mod wire;

pub use builder::ClusterBuilder;
pub use error::RuntimeError;
pub use node::{Control, NodeHandle, NodeOptions};
pub use proxy::ProxyClient;
pub use reactor::ReactorTransport;
pub use shard::{fnv1a64, ShardRouter, ShardedCluster};
pub use transport::{InMemoryTransport, TcpTransport, Transport};
pub use wire::{MAX_COALESCE, RECONNECT_BACKOFF};
