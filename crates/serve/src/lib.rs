//! Std-only TCP serving layer for the online validity auditor.
//!
//! Two tiers share this crate: the shard server ([`server`], the
//! `geosocial-serve` binary) and the stateless cluster router
//! ([`router`], the `geosocial-router` binary) that consistent-hashes
//! users across many shard *processes* via a versioned shard map
//! ([`cluster`]). Fan-out answers merge identically in both tiers
//! through the private `merge` module.

pub mod cluster;
#[cfg(test)]
mod golden;
pub mod loadgen;
mod merge;
pub mod protocol;
pub mod router;
pub mod server;
mod snapshot;
pub mod wire;
