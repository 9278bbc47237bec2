//! # geosocial-store — log-structured event store
//!
//! A std-only embedded event store backing the serving layer's durability:
//! an **append-only segment log** of CRC-framed `(user, t, payload)`
//! records, **compacted snapshots** that bound crash-recovery replay to
//! the delta past the last durable state, and a **per-user extent index**
//! (byte ranges of the log holding each user's records) answering
//! historical reads — "this user's events as of `t`", "these users' events
//! in `[t0, t1]`" — in O(the user's records) while ingest is still running.
//!
//! Layering:
//!
//! - [`codec`] — the workspace's one binary codec (varint/zigzag/f64,
//!   length-prefixed bytes and strings, the [`Reader`] cursor) and CRC-32.
//!   The serve crate's wire frames and shard snapshots encode with it too.
//! - [`segment`] — record framing and the scan-truncate recovery rule:
//!   arbitrary corruption never panics, scans stop at the last valid
//!   record boundary with a structured offset-carrying [`TornTail`].
//! - [`store`] — [`EventStore`]: segments, snapshots, recovery, queries,
//!   plus fault-plan hooks (short writes, flush failures) on the flush
//!   path, inert unless `StoreOptions::fault` carries non-zero flush
//!   rates.
//!
//! Segments are never deleted — the log is the time-travel history; what
//! snapshots compact is recovery cost, not storage. All store metrics
//! (`store.*`) register in the process-global `geosocial-obs` registry.

pub mod codec;
pub mod segment;
pub mod store;

mod metrics;

pub use codec::{crc32, put_bytes, put_f64, put_varint, put_zigzag, CodecError, Reader};
pub use segment::{
    append_record, scan_records, RecordRef, TornTail, MAX_RECORD_BYTES, SENTINEL_USER,
};
pub use store::{
    import_handoff, EventStore, HandoffFile, HandoffManifest, StoreOptions, StoredRecord,
    EXTENT_GAP, FLUSH_THRESHOLD, HANDOFF_MANIFEST,
};
