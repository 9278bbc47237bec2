//! Rendezvous-hashing properties of the cluster shard map — the routing
//! contract the router tier rides on, proven over random topologies and
//! random handoff sequences rather than the unit tests' fixed ones:
//!
//! * **totality** — at every map version reached by any handoff sequence,
//!   every user id maps to exactly one entry, deterministically;
//! * **stability** — a handoff keeps the entry id, so it moves nobody:
//!   every user keeps its owner across versions.

use geosocial_serve::cluster::{rendezvous_weight, ShardMap};
use proptest::prelude::*;
use std::net::SocketAddr;

fn addr(port: u16) -> SocketAddr {
    format!("127.0.0.1:{}", 1024 + port as u32).parse().unwrap()
}

fn addrs(n: usize) -> Vec<SocketAddr> {
    (0..n as u16).map(addr).collect()
}

/// Owners of a user sample, for before/after comparisons.
fn owners(map: &ShardMap, users: &[u32]) -> Vec<Option<usize>> {
    users.iter().map(|&u| map.owner(u)).collect()
}

/// One random handoff, decoded from an `(id, port)` draw: hand `id` off
/// to a new port (unknown ids are no-ops, like any stale control request).
fn handoff(map: &mut ShardMap, (id, port): (u8, u16)) {
    map.handoff(id as u64, addr(20_000 + port));
}

/// The `(id, port)` strategy behind [`handoff`].
fn handoff_draw() -> impl Strategy<Value = (u8, u16)> {
    (0u8..12, 0u16..5000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every user maps to exactly one entry at every version the map
    /// passes through, whatever handoffs got it there — and the owner is
    /// a pure function of (map, user): recomputing from the published
    /// rendezvous weights finds the same entry.
    #[test]
    fn every_user_has_exactly_one_owner_across_versions(
        initial in 1usize..8,
        draws in prop::collection::vec(handoff_draw(), 0..12),
        users in prop::collection::vec(0u32..=u32::MAX, 32..33),
    ) {
        let mut map = ShardMap::new(&addrs(initial));
        let mut version = map.version();
        // Check the invariant at version 0 and after every handoff.
        for step in std::iter::once(None).chain(draws.iter().map(Some)) {
            if let Some(&d) = step {
                handoff(&mut map, d);
                prop_assert!(
                    map.version() >= version,
                    "version went backwards: {} -> {}", version, map.version()
                );
                version = map.version();
            }
            for &user in &users {
                let idx = map.owner(user).expect("a non-empty map owns every user");
                let e = &map.entries()[idx];
                // Exactly one: the owner has the strictly-best (weight, id)
                // among all entries — no other entry ties it (ids are
                // unique).
                let best = map
                    .entries()
                    .iter()
                    .map(|o| (rendezvous_weight(o.id, user), u64::MAX - o.id))
                    .max()
                    .expect("non-empty map");
                prop_assert_eq!(
                    best,
                    (rendezvous_weight(e.id, user), u64::MAX - e.id),
                    "owner disagrees with the published rendezvous weights"
                );
            }
        }
    }

    /// A handoff (same id, new address) moves no user at all, after any
    /// earlier handoffs — the property that makes process replacement
    /// invisible to routing.
    #[test]
    fn handoff_never_moves_a_user(
        initial in 1usize..8,
        draws in prop::collection::vec(handoff_draw(), 0..6),
        id_pick in 0usize..8,
        port in 0u16..5000,
        users in prop::collection::vec(0u32..=u32::MAX, 64..65),
    ) {
        let mut map = ShardMap::new(&addrs(initial));
        let original = owners(&map, &users);
        for d in draws {
            handoff(&mut map, d);
        }
        prop_assert_eq!(owners(&map, &users), original.clone(), "a handoff sequence moved a user");
        let id = map.entries()[id_pick % initial].id;
        let version = map.version();
        prop_assert!(map.handoff(id, addr(30_000 + port)).is_some());
        prop_assert!(map.version() > version, "handoff must bump the map version");
        prop_assert_eq!(owners(&map, &users), original, "a handoff moved a user");
    }
}
