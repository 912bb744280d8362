//! The discovery map: which backends exist, which are live, and which one
//! owns a shard.
//!
//! Backends announce themselves with the wire `REGISTER` verb and stay
//! live for their TTL; a re-registration (the heartbeat) renews the
//! window, and an entry whose window lapses is dropped the next time the
//! map is read — there is no reaper thread. Operators can also seed
//! backends statically (`--backend`); static entries never expire but can
//! still be marked down after a dial failure.
//!
//! Shard ownership is **rendezvous (highest-random-weight) hashing** over
//! the live backends: every (backend, fingerprint, engine) triple gets a
//! deterministic pseudo-random weight and the backend with the highest
//! weight owns the key. Rendezvous hashing has the property this layer is
//! built around: when a backend departs, *only the keys it owned* remap
//! (to their second-ranked backend) — every other key keeps its owner, so
//! resident sampler state and warm caches stay useful across membership
//! churn. The full weight ordering doubles as the failover order.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a backend stays out of rotation after a failed dial or a
/// mid-stream connection loss. Dynamic entries are usually re-announced by
/// their heartbeat well before this lapses; static entries re-enter
/// rotation on their own once the window passes.
pub const FAILURE_BACKOFF: Duration = Duration::from_millis(1000);

/// One backend's bookkeeping.
struct BackendEntry {
    /// When the liveness window lapses; `None` for static seeds.
    expires_at: Option<Instant>,
    /// Out of rotation until then after a failure; `None` when healthy.
    down_until: Option<Instant>,
    /// Requests currently routed to this backend.
    inflight: u64,
    /// Requests ever routed to this backend.
    dispatched: u64,
    /// Dial/stream failures ever recorded against this backend.
    failures: u64,
}

/// A point-in-time view of one backend, for `STATUS` reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendStatus {
    /// The dialable address.
    pub addr: String,
    /// In rotation right now (not expired, not backing off a failure).
    pub live: bool,
    /// Milliseconds until the liveness window lapses; `None` for static
    /// seeds, which never expire.
    pub expires_in_ms: Option<u64>,
    /// Requests currently routed here.
    pub inflight: u64,
    /// Requests ever routed here.
    pub dispatched: u64,
    /// Failures ever recorded here.
    pub failures: u64,
}

/// The registry of known backends. All methods are `&self`; internal
/// state sits behind one mutex (the map is small and every operation is
/// O(backends)).
#[derive(Default)]
pub struct DiscoveryMap {
    inner: Mutex<HashMap<String, BackendEntry>>,
}

impl DiscoveryMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        DiscoveryMap::default()
    }

    /// Records a `REGISTER` announcement: inserts the backend or renews
    /// its liveness window, clearing any failure backoff (the announcement
    /// proves the backend is reachable *outbound*; the next dial verifies
    /// the advertised address). Returns `true` when the backend was not
    /// previously known (or had lapsed).
    pub fn register(&self, addr: &str, ttl: Duration) -> bool {
        let mut inner = self.inner.lock().expect("discovery lock");
        let now = Instant::now();
        let was_live = inner
            .get(&addr.to_string())
            .is_some_and(|e| e.expires_at.is_none_or(|at| at > now));
        let entry = inner.entry(addr.to_string()).or_insert(BackendEntry {
            expires_at: None,
            down_until: None,
            inflight: 0,
            dispatched: 0,
            failures: 0,
        });
        entry.expires_at = Some(now + ttl);
        entry.down_until = None;
        !was_live
    }

    /// Seeds a static backend that never expires (the `--backend` flag).
    pub fn seed_static(&self, addr: &str) {
        let mut inner = self.inner.lock().expect("discovery lock");
        inner.entry(addr.to_string()).or_insert(BackendEntry {
            expires_at: None,
            down_until: None,
            inflight: 0,
            dispatched: 0,
            failures: 0,
        });
    }

    /// Drops lapsed dynamic entries. Called lazily from every read.
    fn prune(inner: &mut HashMap<String, BackendEntry>, now: Instant) {
        inner.retain(|_, e| e.expires_at.is_none_or(|at| at > now));
    }

    /// The live backends (registered, not lapsed, not backing off),
    /// sorted by address for deterministic iteration.
    #[must_use]
    pub fn live(&self) -> Vec<String> {
        let mut inner = self.inner.lock().expect("discovery lock");
        let now = Instant::now();
        Self::prune(&mut inner, now);
        let mut live: Vec<String> = inner
            .iter()
            .filter(|(_, e)| e.down_until.is_none_or(|until| until <= now))
            .map(|(addr, _)| addr.clone())
            .collect();
        live.sort();
        live
    }

    /// The live backends ranked by rendezvous weight for one shard key,
    /// heaviest (the owner) first. The tail is the failover order.
    #[must_use]
    pub fn ranked(&self, fingerprint_hex: &str, engine: &str) -> Vec<String> {
        let mut ranked = self.live();
        ranked.sort_by_key(|addr| {
            std::cmp::Reverse(rendezvous_weight(addr, fingerprint_hex, engine))
        });
        ranked
    }

    /// The backend owning one shard key, if any backend is live.
    #[must_use]
    pub fn owner(&self, fingerprint_hex: &str, engine: &str) -> Option<String> {
        self.ranked(fingerprint_hex, engine).into_iter().next()
    }

    /// Records a request routed to `addr`.
    pub fn record_dispatch(&self, addr: &str) {
        let mut inner = self.inner.lock().expect("discovery lock");
        if let Some(entry) = inner.get_mut(addr) {
            entry.inflight += 1;
            entry.dispatched += 1;
        }
    }

    /// Records a routed request finishing (any outcome).
    pub fn record_done(&self, addr: &str) {
        let mut inner = self.inner.lock().expect("discovery lock");
        if let Some(entry) = inner.get_mut(addr) {
            entry.inflight = entry.inflight.saturating_sub(1);
        }
    }

    /// Records a dial failure or mid-stream connection loss: the backend
    /// leaves rotation for [`FAILURE_BACKOFF`] (a dynamic entry's next
    /// heartbeat, or a static entry's timer, brings it back).
    pub fn record_failure(&self, addr: &str) {
        let mut inner = self.inner.lock().expect("discovery lock");
        if let Some(entry) = inner.get_mut(addr) {
            entry.failures += 1;
            entry.down_until = Some(Instant::now() + FAILURE_BACKOFF);
        }
    }

    /// Records a successful exchange: clears any failure backoff early.
    pub fn record_success(&self, addr: &str) {
        let mut inner = self.inner.lock().expect("discovery lock");
        if let Some(entry) = inner.get_mut(addr) {
            entry.down_until = None;
        }
    }

    /// A point-in-time view of every known backend (live or not), sorted
    /// by address.
    #[must_use]
    pub fn statuses(&self) -> Vec<BackendStatus> {
        let mut inner = self.inner.lock().expect("discovery lock");
        let now = Instant::now();
        Self::prune(&mut inner, now);
        let mut statuses: Vec<BackendStatus> = inner
            .iter()
            .map(|(addr, e)| BackendStatus {
                addr: addr.clone(),
                live: e.down_until.is_none_or(|until| until <= now),
                expires_in_ms: e
                    .expires_at
                    .map(|at| at.saturating_duration_since(now).as_millis() as u64),
                inflight: e.inflight,
                dispatched: e.dispatched,
                failures: e.failures,
            })
            .collect();
        statuses.sort_by(|a, b| a.addr.cmp(&b.addr));
        statuses
    }
}

/// 64-bit FNV-1a over `bytes`.
#[must_use]
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    bytes.into_iter().fold(FNV_OFFSET, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    })
}

/// The deterministic weight of one (backend, fingerprint, engine) triple:
/// [`fnv1a64`] over the three components with separators. Every router
/// computes the same weights, so a fleet of routers agrees on shard
/// ownership without coordination.
#[must_use]
pub fn rendezvous_weight(addr: &str, fingerprint_hex: &str, engine: &str) -> u64 {
    let parts = [addr, "\u{1f}", fingerprint_hex, "\u{1f}", engine];
    let mut hash = fnv1a64(parts.iter().flat_map(|part| part.bytes()));
    // One final avalanche round so near-identical addresses ("…:7001" vs
    // "…:7002") do not produce correlated weights.
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{i:032x}")).collect()
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64("".bytes()), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a".bytes()), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64("foobar".bytes()), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn ttl_expiry_removes_a_backend_from_the_shard_map() {
        let map = DiscoveryMap::new();
        map.register("a:1", Duration::from_millis(10));
        map.register("b:1", Duration::from_secs(60));
        assert_eq!(map.live(), vec!["a:1".to_string(), "b:1".to_string()]);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(map.live(), vec!["b:1".to_string()]);
        for key in keys(16) {
            assert_eq!(map.owner(&key, "gd"), Some("b:1".to_string()));
        }
    }

    #[test]
    fn re_registration_restores_an_expired_backend() {
        let map = DiscoveryMap::new();
        assert!(map.register("a:1", Duration::from_millis(10)));
        // A renewal within the window is not "new".
        assert!(!map.register("a:1", Duration::from_millis(10)));
        std::thread::sleep(Duration::from_millis(30));
        assert!(map.live().is_empty());
        // The heartbeat after a lapse counts as new again.
        assert!(map.register("a:1", Duration::from_secs(60)));
        assert_eq!(map.live(), vec!["a:1".to_string()]);
    }

    #[test]
    fn rendezvous_only_remaps_keys_owned_by_the_departed_backend() {
        let map = DiscoveryMap::new();
        for addr in ["a:1", "b:1", "c:1"] {
            map.register(addr, Duration::from_secs(60));
        }
        let keys = keys(200);
        let before: Vec<Option<String>> = keys.iter().map(|k| map.owner(k, "gd")).collect();
        // All three backends should own a non-trivial share.
        for addr in ["a:1", "b:1", "c:1"] {
            let share = before.iter().filter(|o| o.as_deref() == Some(addr)).count();
            assert!(share > 20, "{addr} owns only {share}/200 keys");
        }
        // Drop b by letting a short registration lapse.
        map.register("b:1", Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(20));
        let after: Vec<Option<String>> = keys.iter().map(|k| map.owner(k, "gd")).collect();
        for ((key, before), after) in keys.iter().zip(&before).zip(&after) {
            if before.as_deref() == Some("b:1") {
                let new = after.as_deref().expect("some backend is live");
                assert!(new == "a:1" || new == "c:1", "{key} remapped to {new}");
            } else {
                assert_eq!(before, after, "{key} must keep its owner");
            }
        }
        // And the comeback restores exactly the old assignment.
        map.register("b:1", Duration::from_secs(60));
        let restored: Vec<Option<String>> = keys.iter().map(|k| map.owner(k, "gd")).collect();
        assert_eq!(before, restored);
    }

    #[test]
    fn engine_is_part_of_the_shard_key() {
        let map = DiscoveryMap::new();
        for addr in ["a:1", "b:1", "c:1", "d:1"] {
            map.register(addr, Duration::from_secs(60));
        }
        let keys = keys(64);
        let split = keys
            .iter()
            .filter(|k| map.owner(k, "gd") != map.owner(k, "walksat"))
            .count();
        assert!(split > 0, "engines must shard independently");
    }

    #[test]
    fn failure_takes_a_backend_out_of_rotation_and_success_restores_it() {
        let map = DiscoveryMap::new();
        map.seed_static("a:1");
        map.seed_static("b:1");
        map.record_failure("a:1");
        assert_eq!(map.live(), vec!["b:1".to_string()]);
        map.record_success("a:1");
        assert_eq!(map.live(), vec!["a:1".to_string(), "b:1".to_string()]);
    }

    #[test]
    fn ranked_orders_every_live_backend() {
        let map = DiscoveryMap::new();
        for addr in ["a:1", "b:1", "c:1"] {
            map.seed_static(addr);
        }
        let ranked = map.ranked(&"7".repeat(32), "gd");
        assert_eq!(ranked.len(), 3);
        let mut sorted = ranked.clone();
        sorted.sort();
        assert_eq!(sorted, map.live());
        assert_eq!(
            map.owner(&"7".repeat(32), "gd").as_deref(),
            Some(ranked[0].as_str())
        );
    }

    #[test]
    fn dispatch_accounting_shows_in_statuses() {
        let map = DiscoveryMap::new();
        map.seed_static("a:1");
        map.record_dispatch("a:1");
        map.record_dispatch("a:1");
        map.record_done("a:1");
        let status = &map.statuses()[0];
        assert_eq!(status.inflight, 1);
        assert_eq!(status.dispatched, 2);
        assert_eq!(status.expires_in_ms, None);
        assert!(status.live);
    }
}
