//! A persistent compiled-artifact cache keyed on [`Ir::content_hash`].
//!
//! The expensive per-circuit artifact — the flat dispatch tables of
//! [`CompiledCircuit`] — is memoized across requests. Entries store the full canonical byte encoding and compare it
//! exactly on lookup, so a 64-bit hash collision can never alias two
//! different circuits.
//!
//! The cache is built for concurrent callers (the `rlse-serve` worker pool
//! hits one shared instance from every request worker):
//!
//! * **One lock** — entries, their LRU index, the spelling index and the
//!   in-flight compilations live in one `State` behind one mutex. Only map
//!   and B-tree operations run under it; compiles run outside it.
//! * **Single-flight compilation** — when N requests for the same hash
//!   arrive while no entry exists yet, exactly one caller compiles; the
//!   rest block on the in-flight marker and are served the finished entry
//!   (counted in [`singleflight_waits`](CompiledCache::singleflight_waits)
//!   and the `ir_cache.singleflight_waits` telemetry counter). There is
//!   one flight per hash: a different canon under the same 64-bit hash
//!   waits its turn, uncounted. If the compiling caller panics, waiters
//!   wake and retry — one of them becomes the new leader — so a poisoned
//!   flight can never strand the queue.
//! * **LRU eviction** — every lookup stamps its entry from one counter,
//!   and an ordered index (stamp → hash) keeps the entries oldest first.
//!   Stamps are unique, so the index head is exactly the least-recently-used
//!   entry, and an insert past the cap pops it in O(log n) whatever the
//!   cache's size. A cache fed a stream of distinct circuits evicts on
//!   every miss.
//! * **Spelling index** — a repeated request usually carries its IR as the
//!   very same JSON text. [`get_spelled`](CompiledCache::get_spelled) finds
//!   an entry by those raw bytes, skipping IR decode, circuit rebuild and
//!   canonical encoding. Keys are compared byte for byte, so the index can
//!   never serve the wrong circuit; byte-identical text decodes to the
//!   identical IR, so it serves exactly the canonical path's entry. A
//!   spelling is admitted only on a canonical hit
//!   ([`get_or_compile_spelled`](CompiledCache::get_or_compile_spelled)),
//!   at most one per entry and only when no longer than twice the entry's
//!   canonical bytes, and it is evicted with its entry under the same
//!   lock, so a spelling is resident exactly while its entry is.

use super::{Ir, IrError};
use crate::circuit::Circuit;
use crate::compiled::CompiledCircuit;
use crate::telemetry::Telemetry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The result of a cache lookup: the rebuilt circuit plus the (possibly
/// memoized) compiled form.
#[derive(Debug)]
pub struct CacheOutcome {
    /// The IR's content hash — the cache key.
    pub hash: u64,
    /// True if the compiled circuit was served from the cache (including
    /// after waiting on another caller's in-flight compilation).
    pub hit: bool,
    /// A fresh circuit rebuilt from the IR (cheap; every caller needs one).
    pub circuit: Circuit,
    /// The compiled dispatch tables, shared with the cache.
    pub compiled: Arc<CompiledCircuit>,
}

struct Entry {
    canon: Vec<u8>,
    compiled: Arc<CompiledCircuit>,
    /// Tick of the last lookup that touched this entry (LRU eviction key).
    last_used: u64,
    /// Spelling-index key of this entry's one admitted spelling, if any.
    spelling: Option<u64>,
}

/// One admitted spelling: the exact raw bytes of a request's `ir` value,
/// mapped to its entry's canonical hash and compiled tables.
struct Spelling {
    raw: Box<[u8]>,
    hash: u64,
    compiled: Arc<CompiledCircuit>,
}

/// A spelling whose bytes exceed this multiple of its entry's canonical
/// bytes is never admitted: text the canonical form excludes (a display
/// `name` of megabytes, say) must not grow the index past the entries.
const MAX_SPELLING_RATIO: usize = 2;

/// The spelling-index key: a fast 64-bit hash of raw bytes, four 8-byte
/// lanes at a time. Keys are compared byte for byte, so it only spreads
/// entries over buckets.
fn spelling_key(raw: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    let mut lanes = [raw.len() as u64, 1, 2, 3];
    let mut blocks = raw.chunks_exact(32);
    for block in &mut blocks {
        for (lane, c) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = (lane.rotate_left(29) ^ word(c)).wrapping_mul(K);
        }
    }
    let mut tail = [0u8; 32];
    tail[..blocks.remainder().len()].copy_from_slice(blocks.remainder());
    let mut h = 0u64;
    for (lane, c) in lanes.iter().zip(tail.chunks_exact(8)) {
        h = (h.rotate_left(29) ^ lane ^ word(c)).wrapping_mul(K);
    }
    h ^ (h >> 32)
}

/// An in-flight compilation: waiters block on the condvar until the leader
/// marks it done (or abandons it by unwinding).
struct Flight {
    canon: Vec<u8>,
    done: Mutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn new(canon: Vec<u8>) -> Self {
        Flight {
            canon,
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Block until the leader finishes (successfully or not).
    fn wait(&self) {
        let mut done = self.done.lock().expect("flight poisoned");
        while !*done {
            done = self.cv.wait(done).expect("flight poisoned");
        }
    }

    /// Wake every waiter; called exactly once, by the leader's guard.
    fn finish(&self) {
        *self.done.lock().expect("flight poisoned") = true;
        self.cv.notify_all();
    }
}

/// Removes the leader's flight marker and wakes waiters on drop, so a
/// panicking compile can never strand the waiters — they retry and one
/// becomes the new leader.
struct FlightGuard<'a> {
    cache: &'a CompiledCache,
    hash: u64,
    flight: Arc<Flight>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        // Only the leader removes a flight, and none is installed while one
        // is present, so the flight under `hash` is this one. A poisoned
        // lock fails every later lookup anyway, and a drop must not panic.
        if let Ok(mut state) = self.cache.state.lock() {
            state.flights.remove(&self.hash);
        }
        self.flight.finish();
    }
}

/// Everything the cache holds, behind its one lock.
#[derive(Default)]
struct State {
    entries: HashMap<u64, Vec<Entry>>,
    /// Every entry's `last_used` stamp → its hash, oldest first: the LRU
    /// order. Stamps are unique, so its length is the entry count.
    lru: BTreeMap<u64, u64>,
    /// Spellings by [`spelling_key`]; a bucket holds at most one spelling
    /// per entry, so its length is bounded by the entry count.
    spellings: HashMap<u64, Vec<Spelling>>,
    flights: HashMap<u64, Arc<Flight>>,
    /// Monotone lookup counter stamping `Entry::last_used`.
    tick: u64,
}

impl State {
    fn stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The entry under `hash` that `is_it` picks, restamped as just used.
    fn touch(&mut self, hash: u64, is_it: impl Fn(&Entry) -> bool) -> Option<&mut Entry> {
        let stamp = self.stamp();
        let e = self.entries.get_mut(&hash)?.iter_mut().find(|e| is_it(e))?;
        self.lru.remove(&e.last_used);
        self.lru.insert(stamp, hash);
        e.last_used = stamp;
        Some(e)
    }

    /// The compiled tables of the entry holding `canon`, touched, with
    /// `raw` admitted as its spelling unless it already has one or `raw`
    /// is longer than [`MAX_SPELLING_RATIO`] × its canonical bytes.
    fn hit(&mut self, hash: u64, canon: &[u8], raw: Option<&[u8]>) -> Option<Arc<CompiledCircuit>> {
        let e = self.touch(hash, |e| e.canon == canon)?;
        let compiled = Arc::clone(&e.compiled);
        let admit =
            raw.filter(|raw| e.spelling.is_none() && raw.len() <= MAX_SPELLING_RATIO * canon.len());
        if let Some(raw) = admit {
            let key = spelling_key(raw);
            e.spelling = Some(key);
            self.spellings.entry(key).or_default().push(Spelling {
                raw: raw.into(),
                hash,
                compiled: Arc::clone(&compiled),
            });
        }
        Some(compiled)
    }

    /// Drop the least-recently-used entry and its spelling.
    fn evict_oldest(&mut self) {
        let (stamp, h) = self.lru.pop_first().expect("an over-cap cache is nonempty");
        let bucket = self.entries.get_mut(&h).expect("indexed entry exists");
        let i = bucket
            .iter()
            .position(|e| e.last_used == stamp)
            .expect("indexed entry exists");
        let victim = bucket.remove(i);
        if bucket.is_empty() {
            self.entries.remove(&h);
        }
        if let Some(key) = victim.spelling {
            let spellings = self
                .spellings
                .get_mut(&key)
                .expect("admitted spelling is indexed");
            spellings.retain(|s| !Arc::ptr_eq(&s.compiled, &victim.compiled));
            if spellings.is_empty() {
                self.spellings.remove(&key);
            }
        }
    }
}

/// A thread-safe memo of compiled circuits keyed on IR content. One lock,
/// single-flight — see the module docs for the concurrency design.
///
/// By default the cache is **unbounded**: every distinct circuit compiled
/// through it stays resident until the cache is dropped. That is the right
/// trade for batch runs over a fixed request corpus; a long-lived embedder
/// fed many distinct IRs should cap it with
/// [`with_max_entries`](CompiledCache::with_max_entries), which evicts the
/// least-recently-used entry on overflow.
///
/// ```
/// use rlse_core::circuit::Circuit;
/// use rlse_core::ir::{CompiledCache, Ir};
/// # use rlse_core::machine::{EdgeDef, Machine};
/// # let jtl = Machine::new("JTL", &["a"], &["q"], 5.7, 2, &[EdgeDef {
/// #     src: "idle", trigger: "a", dst: "idle", firing: "q", ..Default::default()
/// # }]).unwrap();
/// let mut c = Circuit::new();
/// let a = c.inp_at(&[10.0], "A");
/// let q = c.add_machine(&jtl, &[a]).unwrap()[0];
/// c.inspect(q, "Q");
/// let ir = Ir::from_circuit(&c).unwrap();
///
/// let cache = CompiledCache::new();
/// let first = cache.get_or_compile(&ir).unwrap();
/// let second = cache.get_or_compile(&ir).unwrap();
/// assert!(!first.hit && second.hit);
/// assert!(std::sync::Arc::ptr_eq(&first.compiled, &second.compiled));
/// ```
pub struct CompiledCache {
    state: Mutex<State>,
    hits: AtomicU64,
    misses: AtomicU64,
    singleflight_waits: AtomicU64,
    /// Entry cap; `None` means unbounded (the default).
    max_entries: Option<usize>,
    telemetry: Telemetry,
    /// Test hook run by the compile leader between claiming the flight and
    /// compiling; lets tests hold the compile open deterministically.
    #[cfg(test)]
    compile_hook: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for CompiledCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledCache")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("singleflight_waits", &self.singleflight_waits())
            .finish()
    }
}

impl Default for CompiledCache {
    fn default() -> Self {
        Self::new()
    }
}

impl CompiledCache {
    /// An empty, unbounded cache with no telemetry attached.
    pub fn new() -> Self {
        CompiledCache {
            state: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            singleflight_waits: AtomicU64::new(0),
            max_entries: None,
            telemetry: Telemetry::disabled(),
            #[cfg(test)]
            compile_hook: Mutex::new(None),
        }
    }

    /// Bound the cache to at most `max` compiled circuits (clamped to at
    /// least 1). Inserting past the bound evicts the least-recently-used
    /// entry; evictions count `ir_cache.evictions` on the attached
    /// telemetry.
    #[must_use]
    pub fn with_max_entries(mut self, max: usize) -> Self {
        self.max_entries = Some(max.max(1));
        self
    }

    /// Attach a telemetry handle; lookups count `ir_cache.hits` /
    /// `ir_cache.misses` / `ir_cache.singleflight_waits` on it.
    #[must_use]
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.telemetry = tel.clone();
        self
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("compiled cache poisoned")
    }

    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.telemetry.add("ir_cache.hits", 1);
    }

    /// The canonical hash and compiled tables of the entry whose admitted
    /// spelling is exactly `raw` — the bytes of a request's `ir` value —
    /// or `None`. A hit counts as one cache hit and refreshes the entry's
    /// LRU stamp; it skips IR decode, circuit rebuild and canonical
    /// encoding altogether.
    pub fn get_spelled(&self, raw: &[u8]) -> Option<(u64, Arc<CompiledCircuit>)> {
        let key = spelling_key(raw);
        let mut state = self.lock();
        let found = state.spellings.get(&key)?.iter().find(|s| *s.raw == *raw)?;
        let (hash, compiled) = (found.hash, Arc::clone(&found.compiled));
        state
            .touch(hash, |e| Arc::ptr_eq(&e.compiled, &compiled))
            .expect("a resident spelling's entry is resident");
        drop(state);
        self.count_hit();
        Some((hash, compiled))
    }

    /// Rebuild the IR's circuit and return its compiled form, compiling at
    /// most once per distinct canonical content — even under contention:
    /// concurrent callers for the same content wait for the one in-flight
    /// compilation instead of duplicating it, and are served as hits.
    ///
    /// The circuit is re-validated **before** the IR is hashed, on every
    /// call: [`Ir::to_circuit`] rejects dangling machine indices (among
    /// other malformations) that [`Ir::canonical_bytes`] would panic on, so
    /// an untrusted document can never panic the cache.
    ///
    /// # Errors
    ///
    /// Any [`IrError`] from [`Ir::to_circuit`].
    pub fn get_or_compile(&self, ir: &Ir) -> Result<CacheOutcome, IrError> {
        self.lookup(ir, None)
    }

    /// [`get_or_compile`](Self::get_or_compile) for an IR decoded from the
    /// raw JSON bytes `raw`: on a hit, `raw` is also admitted as the
    /// entry's spelling (see the module docs), so a byte-identical repeat
    /// is found by [`get_spelled`](Self::get_spelled). A miss admits
    /// nothing, so circuits seen once leave the index empty.
    ///
    /// # Errors
    ///
    /// Any [`IrError`] from [`Ir::to_circuit`].
    pub fn get_or_compile_spelled(&self, ir: &Ir, raw: &[u8]) -> Result<CacheOutcome, IrError> {
        self.lookup(ir, Some(raw))
    }

    fn lookup(&self, ir: &Ir, raw: Option<&[u8]>) -> Result<CacheOutcome, IrError> {
        let circuit = ir.to_circuit()?;
        let canon = ir.canonical_bytes();
        let hash = super::fnv1a(&canon);

        // Hit, or wait out the hash's flight, or become its leader. The
        // guard wakes waiters even if the compile panics.
        let guard = loop {
            let mut state = self.lock();
            if let Some(compiled) = state.hit(hash, &canon, raw) {
                drop(state);
                self.count_hit();
                return Ok(CacheOutcome {
                    hash,
                    hit: true,
                    circuit,
                    compiled,
                });
            }
            if let Some(flight) = state.flights.get(&hash).map(Arc::clone) {
                drop(state);
                if flight.canon == canon {
                    self.singleflight_waits.fetch_add(1, Ordering::Relaxed);
                    self.telemetry.add("ir_cache.singleflight_waits", 1);
                }
                // The leader either inserted the entry (next iteration is
                // a hit) or unwound (we race to become the new leader).
                flight.wait();
                continue;
            }
            let flight = Arc::new(Flight::new(canon.clone()));
            state.flights.insert(hash, Arc::clone(&flight));
            break FlightGuard {
                cache: self,
                hash,
                flight,
            };
        };
        #[cfg(test)]
        {
            // Cloned out, so a panicking hook poisons nothing.
            let hook = self.compile_hook.lock().expect("hook poisoned").clone();
            if let Some(hook) = hook {
                hook();
            }
        }
        let compiled = Arc::new(CompiledCircuit::compile(&circuit));
        {
            let mut state = self.lock();
            let stamp = state.stamp();
            state.entries.entry(hash).or_default().push(Entry {
                canon,
                compiled: Arc::clone(&compiled),
                last_used: stamp,
                spelling: None,
            });
            state.lru.insert(stamp, hash);
            while self.max_entries.is_some_and(|cap| state.lru.len() > cap) {
                state.evict_oldest();
                self.telemetry.add("ir_cache.evictions", 1);
            }
        }
        drop(guard);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.telemetry.add("ir_cache.misses", 1);
        Ok(CacheOutcome {
            hash,
            hit: false,
            circuit,
            compiled,
        })
    }

    /// Number of distinct compiled circuits held.
    pub fn len(&self) -> usize {
        self.lock().lru.len()
    }

    /// True if no compiled circuits are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spelling index's footprint: `(admitted spellings, their total
    /// raw bytes)`. At most one spelling per entry is ever held.
    pub fn spellings(&self) -> (usize, usize) {
        let state = self.lock();
        state
            .spellings
            .values()
            .flatten()
            .fold((0, 0), |(n, bytes), s| (n + 1, bytes + s.raw.len()))
    }

    /// Total cache hits since construction (including single-flight waiters
    /// served the leader's entry).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total cache misses (compilations) since construction. Under
    /// single-flight, concurrent requests for the same content cost one
    /// miss total.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Times a caller blocked on another caller's in-flight compilation of
    /// the same content instead of compiling it again.
    pub fn singleflight_waits(&self) -> u64 {
        self.singleflight_waits.load(Ordering::Relaxed)
    }

    /// Install a function the compile leader runs before compiling (tests
    /// hold the compile open to force single-flight waits).
    #[cfg(test)]
    fn set_compile_hook(&self, hook: Box<dyn Fn() + Send + Sync>) {
        *self.compile_hook.lock().expect("hook poisoned") = Some(Arc::from(hook));
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests_support::small_jtl_ir;
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    #[test]
    fn hit_after_miss_shares_the_compiled_tables() {
        let tel = Telemetry::new();
        let cache = CompiledCache::new().with_telemetry(&tel);
        let ir = small_jtl_ir();
        let a = cache.get_or_compile(&ir).unwrap();
        let b = cache.get_or_compile(&ir).unwrap();
        assert!(!a.hit);
        assert!(b.hit);
        assert_eq!(a.hash, b.hash);
        assert!(Arc::ptr_eq(&a.compiled, &b.compiled));
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.singleflight_waits(), 0);
        let report = tel.report();
        assert_eq!(report.counter("ir_cache.hits"), 1);
        assert_eq!(report.counter("ir_cache.misses"), 1);
    }

    #[test]
    fn different_content_occupies_different_entries() {
        let cache = CompiledCache::new();
        let ir = small_jtl_ir();
        let mut stretched = ir.clone();
        if let super::super::IrNode::Source { pulses } = &mut stretched.nodes[0] {
            for t in pulses.iter_mut() {
                *t += 1.0;
            }
        }
        cache.get_or_compile(&ir).unwrap();
        cache.get_or_compile(&stretched).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn malformed_ir_is_an_error_not_a_panic() {
        // REVIEW regression: a dangling machine index must surface as the
        // `to_circuit` validation error — previously `canonical_bytes` ran
        // first and panicked on the unchecked index.
        let mut ir = small_jtl_ir();
        if let super::super::IrNode::Instance { machine, .. } = &mut ir.nodes[1] {
            *machine = 99;
        }
        let cache = CompiledCache::new();
        assert!(matches!(
            cache.get_or_compile(&ir),
            Err(IrError::Malformed(_))
        ));
        assert!(cache.is_empty());
    }

    #[test]
    fn max_entries_evicts_least_recently_used() {
        let tel = Telemetry::new();
        let cache = CompiledCache::new().with_max_entries(2).with_telemetry(&tel);
        let base = small_jtl_ir();
        let variant = |shift: f64| {
            let mut ir = base.clone();
            if let super::super::IrNode::Source { pulses } = &mut ir.nodes[0] {
                for t in pulses.iter_mut() {
                    *t += shift;
                }
            }
            ir
        };
        let (a, b, c) = (variant(0.0), variant(1.0), variant(2.0));
        cache.get_or_compile(&a).unwrap();
        cache.get_or_compile(&b).unwrap();
        // Touch `a` so `b` is the LRU entry, then overflow with `c`.
        assert!(cache.get_or_compile(&a).unwrap().hit);
        cache.get_or_compile(&c).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.get_or_compile(&a).unwrap().hit, "a survived");
        assert!(cache.get_or_compile(&c).unwrap().hit, "c survived");
        assert!(!cache.get_or_compile(&b).unwrap().hit, "b was evicted");
        assert!(tel.report().counter("ir_cache.evictions") >= 2);
    }

    /// The cache's observable behaviour under a linear scan for the
    /// least-recently-used victim: the reference the ordered LRU index
    /// must reproduce exactly.
    struct LinearLru {
        cap: usize,
        tick: u64,
        /// Hash → (last-used tick, admitted spelling).
        entries: HashMap<u64, (u64, Option<Vec<u8>>)>,
        hits: u64,
        misses: u64,
    }

    impl LinearLru {
        fn lookup(&mut self, hash: u64, canon_len: usize, raw: Option<&[u8]>) -> bool {
            self.tick += 1;
            if let Some((used, spelling)) = self.entries.get_mut(&hash) {
                *used = self.tick;
                if let Some(raw) = raw {
                    if spelling.is_none() && raw.len() <= MAX_SPELLING_RATIO * canon_len {
                        *spelling = Some(raw.to_vec());
                    }
                }
                self.hits += 1;
                return true;
            }
            self.entries.insert(hash, (self.tick, None));
            while self.entries.len() > self.cap {
                let victim = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (used, _))| *used)
                    .map(|(&h, _)| h)
                    .expect("nonempty over cap");
                self.entries.remove(&victim);
            }
            self.misses += 1;
            false
        }

        fn get_spelled(&mut self, raw: &[u8]) -> Option<u64> {
            let (&hash, entry) = self
                .entries
                .iter_mut()
                .find(|(_, (_, spelling))| spelling.as_deref() == Some(raw))?;
            self.tick += 1;
            entry.0 = self.tick;
            self.hits += 1;
            Some(hash)
        }

        fn spellings(&self) -> (usize, usize) {
            self.entries
                .values()
                .filter_map(|(_, spelling)| spelling.as_ref())
                .fold((0, 0), |(n, bytes), s| (n + 1, bytes + s.len()))
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn eviction_matches_a_linear_lru_scan(
            cap in 1usize..7,
            ops in proptest::collection::vec((0u8..3, 0usize..12, 0usize..3), 0..48),
        ) {
            let base = small_jtl_ir();
            let irs: Vec<Ir> = (0..12)
                .map(|t| {
                    let mut ir = base.clone();
                    if let super::super::IrNode::Source { pulses } = &mut ir.nodes[0] {
                        for p in pulses.iter_mut() {
                            *p += t as f64;
                        }
                    }
                    ir
                })
                .collect();
            let hashes: Vec<u64> = irs.iter().map(Ir::content_hash).collect();
            let canon_len: Vec<usize> = irs.iter().map(|ir| ir.canonical_bytes().len()).collect();
            // Three spellings per IR: pretty, compact, and one too long to
            // admit.
            let spellings: Vec<[Vec<u8>; 3]> = irs
                .iter()
                .zip(&canon_len)
                .map(|(ir, &canon)| {
                    let compact = ir.to_value().to_compact();
                    let padded = format!("{compact}{}", " ".repeat(MAX_SPELLING_RATIO * canon));
                    [ir.to_json().into_bytes(), compact.into_bytes(), padded.into_bytes()]
                })
                .collect();
            let cache = CompiledCache::new().with_max_entries(cap);
            let mut model = LinearLru {
                cap,
                tick: 0,
                entries: HashMap::new(),
                hits: 0,
                misses: 0,
            };
            for &(op, k, v) in &ops {
                let raw = &spellings[k][v];
                match op {
                    0 => {
                        let got = cache.get_or_compile(&irs[k]).unwrap().hit;
                        proptest::prop_assert_eq!(got, model.lookup(hashes[k], canon_len[k], None));
                    }
                    1 => {
                        let got = cache.get_or_compile_spelled(&irs[k], raw).unwrap().hit;
                        let want = model.lookup(hashes[k], canon_len[k], Some(raw));
                        proptest::prop_assert_eq!(got, want);
                    }
                    _ => {
                        let got = cache.get_spelled(raw).map(|(hash, _)| hash);
                        proptest::prop_assert_eq!(got, model.get_spelled(raw));
                    }
                }
                proptest::prop_assert_eq!(cache.len(), model.entries.len());
                proptest::prop_assert_eq!(cache.spellings(), model.spellings());
                let counts = (cache.hits(), cache.misses());
                proptest::prop_assert_eq!(counts, (model.hits, model.misses));
            }
        }
    }

    #[test]
    fn spellings_are_admitted_on_canonical_hits_only() {
        let cache = CompiledCache::new();
        let ir = small_jtl_ir();
        let raw = ir.to_json().into_bytes();
        assert!(!cache.get_or_compile_spelled(&ir, &raw).unwrap().hit);
        assert_eq!(cache.spellings(), (0, 0), "a miss admits nothing");
        assert!(cache.get_spelled(&raw).is_none());
        let hit = cache.get_or_compile_spelled(&ir, &raw).unwrap();
        assert!(hit.hit);
        assert_eq!(cache.spellings(), (1, raw.len()));
        let (hash, compiled) = cache.get_spelled(&raw).expect("spelling hit");
        assert_eq!(hash, ir.content_hash());
        assert!(Arc::ptr_eq(&compiled, &hit.compiled));
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        // A second spelling of the same entry, and any other bytes, miss.
        let other = ir.to_value().to_compact().into_bytes();
        assert!(cache.get_or_compile_spelled(&ir, &other).unwrap().hit);
        assert_eq!(cache.spellings(), (1, raw.len()), "one spelling per entry");
        assert!(cache.get_spelled(&other).is_none());
        assert!(cache.get_spelled(&raw[1..]).is_none());
        assert_eq!((cache.hits(), cache.misses()), (3, 1));
    }

    #[test]
    fn oversized_spellings_are_refused_and_evicted_ones_go() {
        let cache = CompiledCache::new().with_max_entries(1);
        let ir = small_jtl_ir();
        let canon = ir.canonical_bytes().len();
        let padded = vec![b' '; 2 * canon + 1];
        cache.get_or_compile(&ir).unwrap();
        cache.get_or_compile_spelled(&ir, &padded).unwrap();
        assert_eq!(cache.spellings(), (0, 0), "longer than twice the canon");
        let fits = &padded[..2 * canon];
        cache.get_or_compile_spelled(&ir, fits).unwrap();
        assert_eq!(cache.spellings(), (1, 2 * canon));
        let mut other = ir.clone();
        if let super::super::IrNode::Source { pulses } = &mut other.nodes[0] {
            pulses[0] += 1.0;
        }
        cache.get_or_compile(&other).unwrap(); // evicts `ir`
        assert_eq!(cache.spellings(), (0, 0));
        assert!(cache.get_spelled(fits).is_none());
    }

    #[test]
    fn spelling_keys_spread_over_every_length_class() {
        let text: Vec<u8> = (0..200u8).collect();
        let keys: std::collections::HashSet<u64> =
            (0..text.len()).map(|n| spelling_key(&text[..n])).collect();
        assert_eq!(keys.len(), text.len(), "every prefix keys differently");
    }

    #[test]
    fn single_flight_compiles_once_under_contention() {
        // The compile hook holds the leader inside the compile until every
        // other thread has reached the cache, so all N-1 of them MUST find
        // the in-flight marker and wait — making the wait count exact, not
        // timing-dependent.
        const THREADS: usize = 4;
        let tel = Telemetry::new();
        let cache = Arc::new(CompiledCache::new().with_telemetry(&tel));
        let in_compile = Arc::new(Barrier::new(THREADS));
        {
            let in_compile = Arc::clone(&in_compile);
            cache.set_compile_hook(Box::new(move || {
                in_compile.wait();
                // Give the waiters time to move from the barrier into the
                // flight wait (they hold no lock the leader needs).
                std::thread::sleep(std::time::Duration::from_millis(50));
            }));
        }
        let ir = small_jtl_ir();
        let outcomes: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|i| {
                    let cache = Arc::clone(&cache);
                    let ir = ir.clone();
                    let in_compile = Arc::clone(&in_compile);
                    s.spawn(move || {
                        if i != 0 {
                            // Wait until the leader is provably mid-compile.
                            in_compile.wait();
                        }
                        cache.get_or_compile(&ir).unwrap().hit
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.misses(), 1, "compile ran exactly once");
        assert_eq!(cache.hits(), THREADS as u64 - 1);
        assert_eq!(cache.singleflight_waits(), THREADS as u64 - 1);
        assert_eq!(outcomes.iter().filter(|hit| !**hit).count(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(
            tel.report().counter("ir_cache.singleflight_waits"),
            THREADS as u64 - 1
        );
    }

    #[test]
    fn a_panicking_compile_poisons_nothing() {
        // A compile runs outside the cache's lock (under its `FlightGuard`),
        // and only map and B-tree operations run while it is held, so a
        // panic inside the compile leaves the cache usable.
        let cache = CompiledCache::new();
        let panicked = Arc::new(AtomicBool::new(false));
        {
            let panicked = Arc::clone(&panicked);
            cache.set_compile_hook(Box::new(move || {
                if !panicked.swap(true, Ordering::Relaxed) {
                    panic!("injected compile panic");
                }
            }));
        }
        let variant = |shift: f64| {
            let mut ir = small_jtl_ir();
            if let super::super::IrNode::Source { pulses } = &mut ir.nodes[0] {
                for t in pulses.iter_mut() {
                    *t += shift;
                }
            }
            ir
        };
        let ir = variant(0.0);
        let neighbour = variant(1.0);
        let unwound =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cache.get_or_compile(&ir)));
        assert!(unwound.is_err(), "the hook panicked inside the compile");
        assert!(!cache.get_or_compile(&ir).unwrap().hit, "compiled on retry");
        assert!(cache.get_or_compile(&ir).unwrap().hit);
        assert!(!cache.get_or_compile(&neighbour).unwrap().hit);
        assert!(cache.get_or_compile(&neighbour).unwrap().hit);
        assert_eq!((cache.len(), cache.misses()), (2, 2));
    }

    #[test]
    fn concurrent_distinct_compiles_respect_the_entry_cap() {
        const THREADS: usize = 8;
        const CAP: usize = 3;
        let cache = Arc::new(CompiledCache::new().with_max_entries(CAP));
        let base = small_jtl_ir();
        let start = Arc::new(Barrier::new(THREADS));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let cache = Arc::clone(&cache);
                let start = Arc::clone(&start);
                let mut ir = base.clone();
                if let super::super::IrNode::Source { pulses } = &mut ir.nodes[0] {
                    for p in pulses.iter_mut() {
                        *p += t as f64;
                    }
                }
                s.spawn(move || {
                    start.wait();
                    for _ in 0..3 {
                        let got = cache.get_or_compile(&ir).unwrap();
                        assert_eq!(got.hash, ir.content_hash());
                    }
                });
            }
        });
        assert!(cache.len() <= CAP, "cap holds after concurrent churn");
        assert!(cache.misses() >= THREADS as u64, "each distinct IR compiled");
    }

    #[test]
    fn concurrent_spelled_lookups_respect_the_cap() {
        // Spelling lookups race eviction on a cap-2 cache over 6 IRs: every
        // answer must name the right circuit, every call must count once,
        // and a spelling may outlive neither its entry nor the cap.
        const THREADS: usize = 4;
        const ROUNDS: usize = 60;
        const CAP: usize = 2;
        let cache = CompiledCache::new().with_max_entries(CAP);
        let base = small_jtl_ir();
        let irs: Vec<(Ir, Vec<u8>)> = (0..6)
            .map(|t| {
                let mut ir = base.clone();
                if let super::super::IrNode::Source { pulses } = &mut ir.nodes[0] {
                    for p in pulses.iter_mut() {
                        *p += f64::from(t);
                    }
                }
                let raw = ir.to_json().into_bytes();
                (ir, raw)
            })
            .collect();
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (cache, irs, start) = (&cache, &irs, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..ROUNDS {
                        let (ir, raw) = &irs[(i * 5 + t * 7 + i / 6) % irs.len()];
                        // A spelling miss falls back to the canonical path,
                        // as the server does, so each round is one lookup.
                        let hash = match (i + t) % 3 {
                            0 => cache.get_spelled(raw).map_or_else(
                                || cache.get_or_compile_spelled(ir, raw).unwrap().hash,
                                |(hash, _)| hash,
                            ),
                            1 => cache.get_or_compile_spelled(ir, raw).unwrap().hash,
                            _ => cache.get_or_compile(ir).unwrap().hash,
                        };
                        assert_eq!(hash, ir.content_hash());
                    }
                });
            }
        });
        let calls = (THREADS * ROUNDS) as u64;
        assert_eq!(cache.hits() + cache.misses(), calls);
        assert!(cache.len() <= CAP);
        assert!(cache.spellings().0 <= cache.len());
    }

    #[test]
    fn concurrent_same_hash_waiters_all_get_working_artifacts() {
        // No hook: rely on a barrier for best-effort contention and assert
        // the invariants that must hold at ANY interleaving — one entry,
        // hits + misses == calls, every outcome shares the same tables.
        const THREADS: usize = 8;
        let cache = Arc::new(CompiledCache::new());
        let ir = small_jtl_ir();
        let start = Arc::new(Barrier::new(THREADS));
        let compiled: Vec<Arc<CompiledCircuit>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let ir = ir.clone();
                    let start = Arc::clone(&start);
                    s.spawn(move || {
                        start.wait();
                        cache.get_or_compile(&ir).unwrap().compiled
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits() + cache.misses(), THREADS as u64);
        assert_eq!(cache.misses(), 1, "single-flight deduped the compile");
        for c in &compiled {
            assert!(Arc::ptr_eq(c, &compiled[0]), "all callers share one artifact");
        }
    }
}
