//! The [`Session`]: one configured service instance.
//!
//! A session owns the fabric dimensions, physical parameters and estimator
//! options (set once through [`SessionBuilder`]) and a program cache:
//! every loaded program is keyed by a content hash of its canonical
//! circuit text, and its [`ProfileData`] — the expensive program-dependent
//! half of Algorithm 1 — is computed exactly once no matter how many
//! requests name it, through whichever [`ProgramSpec`] source.
//!
//! A cache entry holds what Algorithm 1 reads: the canonical source, the
//! lowered op list (one shared `Arc<[FtOp]>`) and the lazy profile.
//! `estimate` sweeps the op list and never builds a dependency graph; the
//! [`Qodg`] is built on first use by an endpoint that needs it (`compare`,
//! `map`, `sweep`, `dot`, experiment cells) and shares the op array.
//!
//! In front of the program cache sits a *resolve memo* that maps the spec
//! a request carries — a workload name, or the raw circuit text inline or
//! read from a file — straight to its resident program. A repeat load
//! therefore skips generating or parsing the program, writing its
//! canonical text and hashing it: it costs one hash of the raw bytes and
//! one byte compare. Memo entries are verified on hit by raw byte
//! equality, so a collision costs a re-resolve, never a wrong program,
//! and answer only while their program is still the one the cache holds,
//! so a profile stays computed once even across a
//! [`clear_cache`](Session::clear_cache).
//!
//! Behind the program cache, each entry keeps an *estimate memo*: the
//! replies already assembled for it, keyed by the resolved fabric. Under
//! the session's fixed parameters and options an estimate is a pure
//! function of (program, fabric), so a repeat estimate skips Algorithm 1
//! and rebuilds only its per-request fields (the `program` summary and
//! `profile_cached`). The memo holds a few fabrics per program, never
//! holds an error, and is dropped with its entry.
//!
//! # Concurrency model
//!
//! `Session` is `Send + Sync` and every endpoint takes `&self`, so one
//! session can be shared across threads (`Arc<Session>` or a plain
//! borrow) and hammered concurrently. The program cache and the resolve
//! memo are sharded: 16 independent `RwLock`-protected maps each, selected
//! by the FNV hash, so concurrent loads of *different* programs never
//! contend on one lock and a repeat load of the *same* spec takes only
//! read locks (its memo shard, then its cache shard).
//! Cache counters ([`CacheStats`]) are atomics with the invariant
//! `cache_hits + cache_misses == loads`; profiles stay exactly-once via
//! `OnceLock` no matter how many threads race on a program.
//!
//! The [`batch`](Session::batch) endpoint resolves every request's
//! program text first, dedups by content hash, warms the *distinct*
//! programs concurrently on the persistent worker pool, then fans the
//! per-request execution out — with hit/miss accounting and
//! `profile_cached` flags bit-identical to the serial request-by-request
//! order.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use leqa::exec::parallel_map;
use leqa::report::zone_report_from_iig;
use leqa::sweep::sweep_profile_squares;
use leqa::{
    Estimate, Estimator, EstimatorOptions, ProfileData, ProgramProfile, StreamingProfileBuilder,
};
use leqa_circuit::{decompose::lower_to_ft, parser, Circuit, FtOp, Qodg};
use leqa_fabric::{FabricDims, PhysicalParams};
use leqa_workloads::shor::ShorStream;
use qspr::{Mapper, MapperConfig};

use crate::dto::{
    CompareRequest, CompareResponse, EstimateRequest, EstimateResponse, FabricSpec, MapRequest,
    MapResponse, ProgramSpec, ProgramSummary, Request, Response, SweepPointDto, SweepRequest,
    SweepResponse, ZoneRowDto, ZonesRequest, ZonesResponse,
};
use crate::error::{ErrorKind, LeqaError};
use crate::store::ProfileStore;
use crate::BatchResponse;

/// The cached, spec-independent part of a loaded program: canonical
/// source, lowered op list, and the lazily built [`ProfileData`] and
/// [`Qodg`]. Shared (via `Arc`) by every request whose content hashes to
/// it. `OnceLock` guarantees each lazy part is built exactly once even
/// when threads race on the same program.
#[derive(Debug)]
struct ProgramData {
    source: String,
    num_qubits: u32,
    /// The lowered program, shared with `qodg` once that is built.
    ops: Arc<[FtOp]>,
    /// Computed on first use by an endpoint that needs it (estimate,
    /// sweep, zones, compare, `dot --graph iig`) — `map` and `gen` never
    /// pay the IIG/zone passes.
    profile: OnceLock<ProfileData>,
    /// Built on first use by an endpoint that needs the dependency graph
    /// (compare, map, sweep, `dot`, experiment cells) — `estimate` and
    /// `zones` never pay for it.
    qodg: OnceLock<Qodg>,
    /// The estimate replies already assembled for this program, by fabric.
    estimates: EstimateMemo,
}

/// A generator-backed program on the streaming path: the session never
/// materializes its op list or QODG. Cached by canonical stream name; the
/// profile is computed once per session (or loaded from the snapshot
/// store under a `stream:`-prefixed pseudo-source), exactly like
/// materialized programs.
#[derive(Debug)]
struct StreamedProgram {
    stream: ShorStream,
    profile: OnceLock<ProfileData>,
    /// The estimate replies already assembled for this stream, by fabric.
    estimates: EstimateMemo,
}

/// How many fabrics one program's [`EstimateMemo`] holds; a new fabric
/// beyond that replaces the oldest.
const ESTIMATE_MEMO_CAPACITY: usize = 8;

/// The estimate replies already assembled for one program, keyed by the
/// resolved fabric (see the module docs). Each stored reply keeps the
/// `program` and `profile_cached` of the request that computed it; a
/// recall replaces both with the asking request's own.
#[derive(Debug, Default)]
struct EstimateMemo {
    replies: RwLock<Vec<(FabricDims, EstimateResponse)>>,
}

impl EstimateMemo {
    /// The reply for `dims`, recalled or assembled from `compute`.
    /// `compute` runs outside the lock and its reply is kept only if no
    /// racing request stored one first (racing computations agree bit for
    /// bit); an error is returned and never kept.
    fn reply(
        &self,
        dims: FabricDims,
        program: ProgramSummary,
        cached: bool,
        compute: impl FnOnce() -> Result<Estimate, LeqaError>,
    ) -> Result<EstimateResponse, LeqaError> {
        let recalled = self
            .replies
            .read()
            .expect("no poisoning")
            .iter()
            .find(|(kept, _)| *kept == dims)
            .map(|(_, reply)| reply.clone());
        if let Some(kept) = recalled {
            return Ok(EstimateResponse {
                program,
                profile_cached: cached,
                ..kept
            });
        }
        let reply = estimate_response(program, dims, compute()?, cached);
        let mut replies = self.replies.write().expect("no poisoning");
        if !replies.iter().any(|(kept, _)| *kept == dims) {
            if replies.len() == ESTIMATE_MEMO_CAPACITY {
                replies.remove(0);
            }
            replies.push((dims, reply.clone()));
        }
        Ok(reply)
    }
}

/// A loaded program as one request sees it: the label the *request's*
/// spec implies plus the shared, content-addressed program data (source,
/// op list, lazy profile and QODG). Cheap to move around (a string and a
/// few `Arc`s).
#[derive(Debug)]
pub struct ProgramHandle {
    label: String,
    shared: Arc<ProgramData>,
    counters: Arc<Counters>,
    store: Option<Arc<ProfileStore>>,
}

impl ProgramHandle {
    /// Display label (benchmark name, `.name` header, or file path) —
    /// derived from the spec *this* load used, not from whichever spec
    /// first populated the cache.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Canonical circuit text (the content that was hashed).
    #[must_use]
    pub fn source(&self) -> &str {
        &self.shared.source
    }

    /// The lowered program's dependency graph, built on first use and
    /// cached for every later request naming the same content.
    #[must_use]
    pub fn qodg(&self) -> &Qodg {
        let shared = &self.shared;
        shared
            .qodg
            .get_or_init(|| Qodg::from_ops(shared.num_qubits, Arc::clone(&shared.ops)))
    }

    /// The program profile data, computed on first use and cached for
    /// every later request naming the same content.
    ///
    /// When the session has a snapshot store ([`SessionBuilder::cache_dir`])
    /// the first use consults it before computing: a verified snapshot
    /// skips the profile passes entirely (`store_hits`), while a missing,
    /// corrupt or stale snapshot is silently recomputed and re-saved
    /// (`store_misses`) — never a crash, never wrong bytes.
    #[must_use]
    pub fn profile_data(&self) -> &ProfileData {
        let shared = &self.shared;
        shared.profile.get_or_init(|| {
            let ops = shared.ops.iter().copied();
            let store = self.store.as_deref();
            self.counters
                .build_profile(store, &shared.source, shared.num_qubits, ops)
        })
    }

    /// The identity echoed in responses.
    #[must_use]
    pub fn summary(&self) -> ProgramSummary {
        ProgramSummary {
            label: self.label.clone(),
            qubits: u64::from(self.shared.num_qubits),
            ops: self.shared.ops.len() as u64,
        }
    }
}

/// Cache counters, exposed for observability and asserted by the
/// profile-reuse and concurrency tests. At quiescence
/// `cache_hits + cache_misses == loads`; a snapshot racing in-flight
/// loads may transiently *under*-count `cache_hits + cache_misses`
/// relative to `loads` (never the reverse — see
/// [`Session::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Programs whose [`ProfileData`] was computed (one per distinct
    /// content hash).
    pub profile_builds: u64,
    /// Loads served from the cache without re-lowering.
    pub cache_hits: u64,
    /// Loads that lowered and inserted a program (one per distinct
    /// content hash, plus hash-collision rebuilds).
    pub cache_misses: u64,
    /// Successful program loads (`cache_hits + cache_misses`).
    pub loads: u64,
}

/// Snapshot-store counters, exposed for observability and asserted by
/// the warm-restart tests: `store_hits` counts profiles served from a
/// verified on-disk snapshot (skipping the profile passes entirely),
/// `store_misses` counts first-use profiles the store could *not* serve
/// — missing, corrupt or stale snapshots alike — which were recomputed
/// and re-saved. Both stay zero on sessions without a
/// [`SessionBuilder::cache_dir`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreStats {
    /// Profiles loaded from a verified snapshot.
    pub store_hits: u64,
    /// Profiles the store could not serve (recomputed and re-saved).
    pub store_misses: u64,
}

/// The session's atomic counters, shared with every [`ProgramHandle`] so
/// lazy profile computation counts no matter which handle forces it.
#[derive(Debug, Default)]
struct Counters {
    profile_builds: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    loads: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
}

impl Counters {
    // `loads` is bumped (release) before the hit/miss half, and
    // `Session::cache_stats` reads the halves (acquire) before `loads`:
    // any half increment a snapshot observes carries its `loads`
    // increment with it, so a racing snapshot can only ever see
    // `hits + misses <= loads`, never a sum exceeding the loads it was
    // read against.

    /// Counts one load, as a hit when the program was `cached`.
    fn record(&self, cached: bool) {
        self.loads.fetch_add(1, Ordering::Release);
        let half = if cached { &self.hits } else { &self.misses };
        half.fetch_add(1, Ordering::Release);
    }

    /// A program's profile, from the snapshot store or built from `ops`
    /// (the discipline [`ProgramHandle::profile_data`] documents).
    fn build_profile(
        &self,
        store: Option<&ProfileStore>,
        source: &str,
        num_qubits: u32,
        ops: impl Iterator<Item = FtOp>,
    ) -> ProfileData {
        if let Some(store) = store {
            if let Ok(data) = store.load(source) {
                self.store_hits.fetch_add(1, Ordering::Relaxed);
                return data;
            }
            self.store_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.profile_builds.fetch_add(1, Ordering::Relaxed);
        let mut builder = StreamingProfileBuilder::new(num_qubits);
        for op in ops {
            builder.push(op);
        }
        let data = builder
            .finish()
            .expect("lowered and generated ops are well-formed");
        if let Some(store) = store {
            // Best-effort: a failed save costs the next restart a
            // rebuild, never this request.
            let _ = store.save(source, &data);
        }
        data
    }
}

/// Shard count of the program cache and the resolve memo. 16 keeps the
/// footprint trivial while making same-shard contention between distinct
/// hot programs unlikely at service concurrency levels.
const SHARD_COUNT: usize = 16;

/// `SHARD_COUNT` independent `RwLock`-guarded maps, selected by an FNV-1a
/// key, so concurrent loads only contend when they actually touch the
/// same shard.
#[derive(Debug)]
struct Sharded<V> {
    shards: [RwLock<HashMap<u64, V>>; SHARD_COUNT],
}

impl<V> Default for Sharded<V> {
    fn default() -> Self {
        Sharded {
            shards: std::array::from_fn(|_| RwLock::default()),
        }
    }
}

impl<V> Sharded<V> {
    fn shard(&self, key: u64) -> &RwLock<HashMap<u64, V>> {
        &self.shards[(key % SHARD_COUNT as u64) as usize]
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.write().expect("no poisoning").clear();
        }
    }
}

/// The program cache, keyed by the FNV-1a of the canonical circuit text.
type ShardedCache = Sharded<Arc<ProgramData>>;

impl ShardedCache {
    /// Fetches the entry for `key` if present *and* its source matches
    /// (a 64-bit collision must repeat work, not hand a request some
    /// other program's profile).
    fn lookup(&self, key: u64, source: &str) -> Option<Arc<ProgramData>> {
        let shard = self.shard(key).read().expect("no poisoning");
        shard
            .get(&key)
            .filter(|shared| shared.source == source)
            .map(Arc::clone)
    }

    /// Whether `shared` is still the resident entry under `key` (a
    /// pointer compare, no text compare).
    fn holds(&self, key: u64, shared: &Arc<ProgramData>) -> bool {
        let shard = self.shard(key).read().expect("no poisoning");
        shard
            .get(&key)
            .is_some_and(|resident| Arc::ptr_eq(resident, shared))
    }

    /// Inserts `candidate` under `key`, unless a matching entry appeared
    /// in the meantime (another thread won the race) — then the existing
    /// entry is adopted. Returns the canonical `Arc` and whether the
    /// candidate was freshly inserted.
    fn insert(&self, key: u64, candidate: Arc<ProgramData>) -> (Arc<ProgramData>, bool) {
        let mut shard = self.shard(key).write().expect("no poisoning");
        match shard.entry(key) {
            Entry::Occupied(mut existing) => {
                if existing.get().source == candidate.source {
                    (Arc::clone(existing.get()), false)
                } else {
                    // Hash collision: the newcomer takes the slot (the
                    // verify-on-hit lookup keeps either resident correct,
                    // a collision only ever costs rebuilds).
                    existing.insert(Arc::clone(&candidate));
                    (candidate, true)
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(Arc::clone(&candidate));
                (candidate, true)
            }
        }
    }
}

/// What a request's spec carries before any generate or parse: a workload
/// name, or circuit text (inline, or read from the named file).
#[derive(Debug)]
enum RawSpec<'a> {
    Name(&'a str),
    Text(Cow<'a, str>),
}

impl RawSpec<'_> {
    /// Reads the spec's raw bytes; a `Path` is read on every call, so a
    /// file rewritten on disk is seen by the next load.
    fn read(spec: &ProgramSpec) -> Result<RawSpec<'_>, LeqaError> {
        Ok(match spec {
            ProgramSpec::Bench { name } => RawSpec::Name(name),
            ProgramSpec::Path { path } => RawSpec::Text(Cow::Owned(
                std::fs::read_to_string(path)
                    .map_err(LeqaError::from)
                    .map_err(|e| e.context(format!("reading `{path}`")))?,
            )),
            ProgramSpec::Source { text } => RawSpec::Text(Cow::Borrowed(text)),
        })
    }

    /// The resolve-memo key: [`word_hash`] of the name or the raw text.
    fn memo_key(&self) -> u64 {
        match self {
            RawSpec::Name(name) => word_hash(name.as_bytes()),
            RawSpec::Text(text) => word_hash(text.as_bytes()),
        }
    }
}

/// The raw spec a memo entry was resolved from, kept for verify-on-hit.
#[derive(Debug)]
enum MemoRaw {
    /// A workload name (generators are pure).
    Name(Box<str>),
    /// Circuit text that differs from its canonical form.
    Text(Box<str>),
    /// Circuit text equal to the program's canonical source: verified
    /// against [`ProgramData::source`], so no second copy is stored.
    Canonical,
}

/// One resolve-memo entry: a raw spec resolved to its resident program.
#[derive(Debug)]
struct MemoEntry {
    raw: MemoRaw,
    /// The circuit's `.name` header, from which each hit derives its
    /// label by the same rule a full resolve uses.
    header: Option<Box<str>>,
    /// The program's key in the program cache.
    cache_key: u64,
    shared: Arc<ProgramData>,
}

impl MemoEntry {
    /// Whether this entry was resolved from exactly `raw` (a name never
    /// matches text, nor text a name).
    fn matches(&self, raw: &RawSpec) -> bool {
        match (&self.raw, raw) {
            (MemoRaw::Name(kept), RawSpec::Name(name)) => **kept == **name,
            (MemoRaw::Text(kept), RawSpec::Text(text)) => **kept == **text,
            (MemoRaw::Canonical, RawSpec::Text(text)) => self.shared.source == **text,
            _ => false,
        }
    }
}

/// The resolve memo, keyed by [`RawSpec::memo_key`].
type ResolveMemo = Sharded<MemoEntry>;

impl ResolveMemo {
    /// The resident program `raw` resolved to, labelled for `spec`, if
    /// the entry under `key` was resolved from the very same bytes and
    /// its program is still the one `cache` holds. An entry whose program
    /// was cleared (or replaced by a colliding one) while its load was
    /// in flight therefore costs a re-resolve, never a second profile.
    fn recall(
        &self,
        key: u64,
        raw: &RawSpec,
        spec: &ProgramSpec,
        cache: &ShardedCache,
    ) -> Option<(Arc<ProgramData>, String)> {
        // Lock order: a memo shard, then a cache shard; nothing takes
        // them the other way round.
        let shard = self.shard(key).read().expect("no poisoning");
        shard
            .get(&key)
            .filter(|entry| entry.matches(raw) && cache.holds(entry.cache_key, &entry.shared))
            .map(|entry| {
                let label = spec_label(spec, entry.header.as_deref());
                (Arc::clone(&entry.shared), label)
            })
    }

    /// Records `entry` under `key`; a colliding resident is replaced (the
    /// verify-on-hit recall keeps either correct, a collision only ever
    /// costs re-resolves).
    fn remember(&self, key: u64, entry: MemoEntry) {
        self.shard(key)
            .write()
            .expect("no poisoning")
            .insert(key, entry);
    }
}

/// Builds a [`Session`].
///
/// Defaults mirror the paper: 60×60 fabric, Table 1 ion-trap/\[\[7,1,3\]\]
/// parameters, 20 `E[S_q]` terms with ceiling zone rounding.
#[derive(Debug, Clone, Default)]
#[must_use = "a builder does nothing until `build()` is called"]
pub struct SessionBuilder {
    fabric: Option<FabricDims>,
    params: Option<PhysicalParams>,
    options: Option<EstimatorOptions>,
    cache_dir: Option<std::path::PathBuf>,
    streaming_threshold: Option<u64>,
}

/// Default op-count threshold above which [`Session::estimate`] switches
/// generator-backed workloads to the streaming pipeline: one million
/// lowered ops is roughly where materializing the QODG starts to dominate
/// a request's memory footprint while the streamed answer stays
/// bit-identical.
pub const DEFAULT_STREAMING_THRESHOLD: u64 = 1_000_000;

impl SessionBuilder {
    /// Sets the session fabric (default: the paper's 60×60).
    pub fn fabric(mut self, dims: FabricDims) -> Self {
        self.fabric = Some(dims);
        self
    }

    /// Sets the physical parameters (default: Table 1's).
    pub fn params(mut self, params: PhysicalParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Sets the estimator options (default: the paper's).
    pub fn options(mut self, options: EstimatorOptions) -> Self {
        self.options = Some(options);
        self
    }

    /// Enables the disk-backed profile snapshot store rooted at `dir`
    /// (created if absent): first-use profiles are loaded from verified
    /// snapshots when possible and persisted otherwise, so a restarted
    /// process comes up warm. See [`crate::store`] for the codec and
    /// the corruption discipline.
    pub fn cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Sets the op-count threshold at which [`Session::estimate`] routes
    /// generator-backed workloads (currently the `shor_N` family) through
    /// the memory-bounded streaming pipeline instead of materializing
    /// them (default: [`DEFAULT_STREAMING_THRESHOLD`]). Streamed
    /// estimates are bit-identical to materialized ones; only the memory
    /// profile changes. `0` streams every streamable workload,
    /// `u64::MAX` effectively disables streaming.
    pub fn streaming_threshold(mut self, ops: u64) -> Self {
        self.streaming_threshold = Some(ops);
        self
    }

    /// Builds the session.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Invalid`] when the estimator options are out
    /// of range (currently: zero `E[S_q]` terms), or [`ErrorKind::Io`]
    /// when a [`cache_dir`](Self::cache_dir) cannot be created.
    pub fn build(self) -> Result<Session, LeqaError> {
        let options = self.options.unwrap_or_default();
        if options.max_esq_terms == 0 {
            return Err(LeqaError::new(
                ErrorKind::Invalid,
                "estimator option `max_esq_terms` must be positive",
            ));
        }
        let store = match self.cache_dir {
            None => None,
            Some(dir) => Some(Arc::new(
                ProfileStore::open(dir)
                    .map_err(LeqaError::from)
                    .map_err(|e| e.context("opening the profile snapshot store"))?,
            )),
        };
        Ok(Session {
            fabric: self.fabric.unwrap_or_else(FabricDims::dac13),
            params: self.params.unwrap_or_else(PhysicalParams::dac13),
            options,
            cache: ShardedCache::default(),
            memo: ResolveMemo::default(),
            streams: RwLock::new(HashMap::new()),
            streaming_threshold: self
                .streaming_threshold
                .unwrap_or(DEFAULT_STREAMING_THRESHOLD),
            counters: Arc::new(Counters::default()),
            store,
        })
    }
}

/// One configured LEQA service instance: the single supported entry point
/// for applications (see the crate docs for an example).
///
/// `Session` is `Send + Sync` with every endpoint on `&self` — share one
/// instance across however many threads the service runs (see the module
/// docs for the concurrency model).
#[derive(Debug)]
pub struct Session {
    fabric: FabricDims,
    params: PhysicalParams,
    options: EstimatorOptions,
    cache: ShardedCache,
    /// Raw spec → resident program, consulted before any resolve work.
    memo: ResolveMemo,
    /// Streamed programs, keyed by canonical stream name. A single map
    /// (not sharded): entries are a handful of generator descriptors, and
    /// the hot path is a read lock.
    streams: RwLock<HashMap<String, Arc<StreamedProgram>>>,
    streaming_threshold: u64,
    counters: Arc<Counters>,
    store: Option<Arc<ProfileStore>>,
}

/// The `Send + Sync` contract is part of the public API (concurrent
/// services depend on it); this fails to compile if an unsound field
/// sneaks in.
#[allow(dead_code)]
fn _assert_session_is_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<Session>();
    assert::<ProgramHandle>();
    assert::<CacheStats>();
}

/// A program resolved to its canonical identity, before any cache or
/// lowering work: the batch warm phase dedups on `key`.
#[derive(Debug)]
struct ResolvedSpec {
    label: String,
    circuit: Circuit,
    source: String,
    key: u64,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The session fabric.
    #[must_use]
    pub fn fabric(&self) -> FabricDims {
        self.fabric
    }

    /// The physical parameters.
    #[must_use]
    pub fn params(&self) -> &PhysicalParams {
        &self.params
    }

    /// The estimator options.
    #[must_use]
    pub fn options(&self) -> &EstimatorOptions {
        &self.options
    }

    /// The op-count threshold at which [`estimate`](Self::estimate)
    /// streams generator-backed workloads (see
    /// [`SessionBuilder::streaming_threshold`]).
    #[must_use]
    pub fn streaming_threshold(&self) -> u64 {
        self.streaming_threshold
    }

    /// The cache counters (atomic snapshots; under concurrent load each
    /// counter is exact and monotone). At quiescence
    /// `cache_hits + cache_misses == loads`; a snapshot taken while
    /// loads are in flight may observe `cache_hits + cache_misses <
    /// loads` (each load bumps `loads` first), never the reverse.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        // Read the halves before `loads` (see `Counters` for the
        // release/acquire pairing that makes the inequality hold).
        let cache_hits = self.counters.hits.load(Ordering::Acquire);
        let cache_misses = self.counters.misses.load(Ordering::Acquire);
        CacheStats {
            profile_builds: self.counters.profile_builds.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            loads: self.counters.loads.load(Ordering::Acquire),
        }
    }

    /// The snapshot-store counters (zero on sessions without a
    /// [`SessionBuilder::cache_dir`]).
    #[must_use]
    pub fn store_stats(&self) -> StoreStats {
        StoreStats {
            store_hits: self.counters.store_hits.load(Ordering::Relaxed),
            store_misses: self.counters.store_misses.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached program (in-memory only; disk snapshots, if
    /// configured, survive and re-warm the next loads).
    pub fn clear_cache(&self) {
        self.memo.clear();
        self.cache.clear();
        self.streams.write().expect("no poisoning").clear();
    }

    /// Loads (or fetches from cache) the program a spec names.
    ///
    /// The cache key is a content hash of the canonical circuit text, so
    /// the same program reached through different specs — a benchmark
    /// name, a file, inline source — shares one profile. A spec loaded
    /// before is answered from the resolve memo instead: a name costs a
    /// hash and a compare, text (inline or re-read from its file) costs a
    /// hash of its bytes and a byte compare, and neither is generated,
    /// parsed or re-written. Errors are never memoized.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Usage`] for unknown benchmark names, [`ErrorKind::Io`]
    /// for unreadable files, [`ErrorKind::Parse`]/[`ErrorKind::Invalid`]
    /// for bad circuit text.
    pub fn load(&self, spec: &ProgramSpec) -> Result<ProgramHandle, LeqaError> {
        self.load_tracking(spec).map(|(handle, _)| handle)
    }

    /// Lowers a resolved circuit into the shareable program data.
    fn lower(&self, resolved: &ResolvedSpec) -> Result<ProgramData, LeqaError> {
        let ft = lower_to_ft(&resolved.circuit)
            .map_err(LeqaError::from)
            .map_err(|e| e.context(format!("lowering `{}`", resolved.label)))?;
        Ok(ProgramData {
            source: resolved.source.clone(),
            num_qubits: ft.num_qubits(),
            ops: ft.ops().into(),
            profile: OnceLock::new(),
            qodg: OnceLock::new(),
            estimates: EstimateMemo::default(),
        })
    }

    fn handle(&self, label: String, shared: Arc<ProgramData>) -> ProgramHandle {
        ProgramHandle {
            label,
            shared,
            counters: Arc::clone(&self.counters),
            store: self.store.clone(),
        }
    }

    /// Like [`load`](Self::load), also reporting whether the program came
    /// from the cache.
    fn load_tracking(&self, spec: &ProgramSpec) -> Result<(ProgramHandle, bool), LeqaError> {
        let raw = RawSpec::read(spec)?;
        let memo_key = raw.memo_key();
        if let Some((shared, label)) = self.memo.recall(memo_key, &raw, spec, &self.cache) {
            self.counters.record(true);
            return Ok((self.handle(label, shared), true));
        }
        let resolved = resolve_raw(spec, &raw)?;
        let header = resolved.circuit.name().map(Box::from);
        let cache_key = resolved.key;
        let raw = match raw {
            RawSpec::Name(name) => MemoRaw::Name(name.into()),
            RawSpec::Text(text) if *text == resolved.source => MemoRaw::Canonical,
            RawSpec::Text(text) => MemoRaw::Text(text.into()),
        };
        let (handle, cached) = self.load_resolved(resolved)?;
        self.memo.remember(
            memo_key,
            MemoEntry {
                raw,
                header,
                cache_key,
                shared: Arc::clone(&handle.shared),
            },
        );
        Ok((handle, cached))
    }

    /// The cache half of a load: fetch-or-lower an already-resolved
    /// program, with hit/miss accounting.
    fn load_resolved(&self, resolved: ResolvedSpec) -> Result<(ProgramHandle, bool), LeqaError> {
        let (shared, cached) = self.fetch_or_lower(&resolved)?;
        self.counters.record(cached);
        Ok((self.handle(resolved.label, shared), cached))
    }

    /// The resident program for `resolved`, lowering and inserting it on
    /// a miss, with whether it was already resident; counts nothing.
    fn fetch_or_lower(
        &self,
        resolved: &ResolvedSpec,
    ) -> Result<(Arc<ProgramData>, bool), LeqaError> {
        if let Some(shared) = self.cache.lookup(resolved.key, &resolved.source) {
            return Ok((shared, true));
        }
        // Miss: lower outside any lock (the expensive part), then
        // insert-or-adopt under the shard write lock. A concurrent load
        // of the same program may win the race; the loser adopts the
        // winner's entry so profiles stay exactly-once.
        let candidate = Arc::new(self.lower(resolved)?);
        let (shared, fresh) = self.cache.insert(resolved.key, candidate);
        Ok((shared, !fresh))
    }

    /// Resolves a per-request fabric override against the session fabric.
    fn resolve_fabric(&self, spec: Option<FabricSpec>) -> Result<FabricDims, LeqaError> {
        match spec {
            None => Ok(self.fabric),
            Some(f) => FabricDims::new(f.width, f.height).map_err(LeqaError::from),
        }
    }

    // ── Endpoints ────────────────────────────────────────────────────────

    /// Runs Algorithm 1 on one program.
    ///
    /// # Errors
    ///
    /// Any load error (see [`load`](Self::load)), or
    /// [`ErrorKind::Estimate`] when the program does not fit the fabric.
    #[must_use = "the response (or its error) is the entire point of the call"]
    pub fn estimate(&self, req: &EstimateRequest) -> Result<EstimateResponse, LeqaError> {
        // Size axis: a generator-backed workload at or above the
        // streaming threshold never materializes — its profile and
        // critical path are computed from the gate stream in bounded
        // memory, bit-identical to the materialized pipeline.
        if let ProgramSpec::Bench { name } = &req.program {
            if let Some(stream) = leqa_workloads::stream_by_name(name) {
                if stream.ft_op_count() >= self.streaming_threshold {
                    return self.run_estimate_streamed(req, name, stream);
                }
            }
        }
        let (handle, cached) = self.load_tracking(&req.program)?;
        self.run_estimate(self.resolve_fabric(req.fabric)?, &handle, cached)
    }

    /// Estimates one program across candidate square fabrics, through the
    /// amortised sweep engine (bit-identical to independent estimates).
    ///
    /// The per-candidate loop runs on the persistent worker pool; results
    /// are identical to a serial loop's.
    ///
    /// # Errors
    ///
    /// Any load error, or [`ErrorKind::Invalid`] for a malformed size.
    /// Candidates too small for the program yield unfit points, not
    /// errors.
    #[must_use = "the response (or its error) is the entire point of the call"]
    pub fn sweep(&self, req: &SweepRequest) -> Result<SweepResponse, LeqaError> {
        let (handle, _) = self.load_tracking(&req.program)?;
        self.run_sweep(req, &handle)
    }

    /// Computes the per-qubit presence-zone report.
    ///
    /// # Errors
    ///
    /// Any load error.
    #[must_use = "the response (or its error) is the entire point of the call"]
    pub fn zones(&self, req: &ZonesRequest) -> Result<ZonesResponse, LeqaError> {
        let (handle, _) = self.load_tracking(&req.program)?;
        self.run_zones(req, &handle)
    }

    /// Runs the Table 2 experiment: detailed QSPR mapping next to the
    /// LEQA estimate.
    ///
    /// # Errors
    ///
    /// Any load error, [`ErrorKind::Map`] or [`ErrorKind::Estimate`] when
    /// the program does not fit.
    #[must_use = "the response (or its error) is the entire point of the call"]
    pub fn compare(&self, req: &CompareRequest) -> Result<CompareResponse, LeqaError> {
        let (handle, _) = self.load_tracking(&req.program)?;
        self.run_compare(req, &handle)
    }

    /// Runs the detailed QSPR mapper.
    ///
    /// # Errors
    ///
    /// Any load error, or [`ErrorKind::Map`] when the program does not
    /// fit.
    #[must_use = "the response (or its error) is the entire point of the call"]
    pub fn map(&self, req: &MapRequest) -> Result<MapResponse, LeqaError> {
        let (handle, _) = self.load_tracking(&req.program)?;
        self.run_map(req, &handle)
    }

    /// Executes one request of any kind.
    ///
    /// # Errors
    ///
    /// The named endpoint's errors.
    #[must_use = "the response (or its error) is the entire point of the call"]
    pub fn execute(&self, req: &Request) -> Result<Response, LeqaError> {
        match req {
            Request::Estimate(r) => self.estimate(r).map(Response::Estimate),
            Request::Sweep(r) => self.sweep(r).map(Response::Sweep),
            Request::Zones(r) => self.zones(r).map(Response::Zones),
            Request::Compare(r) => self.compare(r).map(Response::Compare),
            Request::Map(r) => self.map(r).map(Response::Map),
        }
    }

    /// Executes a batch of requests, one result slot per request in
    /// order; a failing request fails only its own slot.
    ///
    /// Every request's program text is resolved first and deduplicated
    /// by content hash; the *distinct* programs are then lowered
    /// **concurrently** on the persistent worker pool before the
    /// per-request execution fans out. Responses, `profile_cached` flags
    /// and [`CacheStats`] deltas are identical to executing the requests
    /// one by one in order.
    #[must_use = "the batch response carries every per-request outcome"]
    pub fn batch(&self, requests: &[Request]) -> BatchResponse {
        // Phase 1 (concurrent, cache-untouched): resolve every request's
        // spec to canonical text + content key.
        let resolved: Vec<Result<ResolvedSpec, LeqaError>> = parallel_map(requests, |req| {
            let spec = req.program();
            resolve_raw(spec, &RawSpec::read(spec)?)
        });

        // Phase 2: pick, in request order, the first namer of each
        // distinct content key — exactly the request that would miss the
        // cache if the batch ran serially. Keys are FNV hashes, so a
        // later request may share a key with a *different* source (a
        // 64-bit collision); such requests are detected against the
        // first namer's source and routed through the full per-request
        // load path instead, preserving the collision contract ("repeat
        // work, never hand a request some other program's profile").
        let mut first_namer: HashMap<u64, usize> = HashMap::new();
        for (i, slot) in resolved.iter().enumerate() {
            if let Ok(r) = slot {
                first_namer.entry(r.key).or_insert(i);
            }
        }
        let mut warm_order: Vec<usize> = first_namer.values().copied().collect();
        warm_order.sort_unstable();

        // Phase 3 (concurrent over *distinct* programs): fetch-or-lower.
        // `was_cached` records whether the program was already resident
        // before this batch.
        type Warmed = Result<(Arc<ProgramData>, bool), LeqaError>;
        let warmed: Vec<Warmed> = parallel_map(&warm_order, |&i| {
            self.fetch_or_lower(resolved[i].as_ref().expect("warm_order holds Ok slots"))
        });
        let warmed_by_key: HashMap<u64, &Warmed> = warm_order
            .iter()
            .zip(&warmed)
            .map(|(&i, w)| {
                let r = resolved[i].as_ref().expect("warm_order holds Ok slots");
                (r.key, w)
            })
            .collect();

        // Phase 4a: decide each slot's path while the resolved specs can
        // still be cross-referenced — the warm result only applies to a
        // request whose source matches the one that was actually warmed.
        enum Plan {
            /// Phase-1 resolution failed.
            Unresolved,
            /// The warmed program is this request's program.
            Warm { cached: bool },
            /// Warming this request's program failed; inherit the error.
            WarmFailed,
            /// Key collision with the warmed program: full load instead.
            Collision,
        }
        let plans: Vec<Plan> = resolved
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let Ok(r) = slot else { return Plan::Unresolved };
                let namer = first_namer[&r.key];
                let namer_source = &resolved[namer]
                    .as_ref()
                    .expect("first namers resolved")
                    .source;
                if *namer_source != r.source {
                    return Plan::Collision;
                }
                match warmed_by_key[&r.key] {
                    Ok((_, was_cached)) => Plan::Warm {
                        cached: *was_cached || namer != i,
                    },
                    Err(_) => Plan::WarmFailed,
                }
            })
            .collect();

        // Phase 4b (serial, deterministic): per-request accounting and
        // handle assembly, in request order — counters and
        // `profile_cached` flags match the serial execution exactly.
        type Prepared = Result<(usize, ProgramHandle, bool), LeqaError>;
        let prepared: Vec<Prepared> = resolved
            .into_iter()
            .zip(plans)
            .enumerate()
            .map(|(i, (slot, plan))| {
                let per_slot = |e: LeqaError| e.context(format!("batch request {i}"));
                match plan {
                    Plan::Unresolved => Err(per_slot(slot.expect_err("plan says unresolved"))),
                    Plan::Collision => {
                        let r = slot.expect("plan says resolved");
                        self.load_resolved(r)
                            .map(|(handle, cached)| (i, handle, cached))
                            .map_err(per_slot)
                    }
                    Plan::WarmFailed => {
                        let r = slot.expect("plan says resolved");
                        let Err(e) = warmed_by_key[&r.key] else {
                            unreachable!("plan says warming failed")
                        };
                        Err(per_slot(e.clone()))
                    }
                    Plan::Warm { cached } => {
                        let r = slot.expect("plan says resolved");
                        let Ok((shared, _)) = warmed_by_key[&r.key] else {
                            unreachable!("plan says warmed")
                        };
                        self.counters.record(cached);
                        Ok((i, self.handle(r.label, Arc::clone(shared)), cached))
                    }
                }
            })
            .collect();

        // Phase 5 (concurrent): execute.
        let results = parallel_map(&prepared, |slot| match slot {
            Err(e) => Err(e.clone()),
            Ok((i, handle, cached)) => self
                .execute_prepared(&requests[*i], handle, *cached)
                .map_err(|e| e.context(format!("batch request {i}"))),
        });

        BatchResponse { results }
    }

    /// Dispatches one request against an already-loaded program, without
    /// touching the cache.
    fn execute_prepared(
        &self,
        req: &Request,
        handle: &ProgramHandle,
        cached: bool,
    ) -> Result<Response, LeqaError> {
        match req {
            Request::Estimate(r) => self
                .resolve_fabric(r.fabric)
                .and_then(|dims| self.run_estimate(dims, handle, cached))
                .map(Response::Estimate),
            Request::Sweep(r) => self.run_sweep(r, handle).map(Response::Sweep),
            Request::Zones(r) => self.run_zones(r, handle).map(Response::Zones),
            Request::Compare(r) => self.run_compare(r, handle).map(Response::Compare),
            Request::Map(r) => self.run_map(r, handle).map(Response::Map),
        }
    }

    /// The streaming counterpart of [`run_estimate`](Self::run_estimate):
    /// profile from the [`StreamingProfileBuilder`], critical path from a
    /// second pass over the stream, QODG never built. Cache accounting
    /// mirrors the materialized path — a session-resident stream entry is
    /// a hit, the snapshot store is consulted under a `stream:`-prefixed
    /// pseudo-source, and `profile_builds` counts streaming builds too.
    fn run_estimate_streamed(
        &self,
        req: &EstimateRequest,
        label: &str,
        stream: ShorStream,
    ) -> Result<EstimateResponse, LeqaError> {
        let dims = self.resolve_fabric(req.fabric)?;
        let key = stream.name();
        let resident = self
            .streams
            .read()
            .expect("no poisoning")
            .get(&key)
            .cloned();
        let (entry, cached) = match resident {
            Some(entry) => (entry, true),
            // Another thread may have won the race; adopt its entry so the
            // profile stays exactly-once.
            None => match self.streams.write().expect("no poisoning").entry(key) {
                Entry::Occupied(existing) => (Arc::clone(existing.get()), true),
                Entry::Vacant(slot) => {
                    let entry = slot.insert(Arc::new(StreamedProgram {
                        stream,
                        profile: OnceLock::new(),
                        estimates: EstimateMemo::default(),
                    }));
                    (Arc::clone(entry), false)
                }
            },
        };
        self.counters.record(cached);

        let stream = &entry.stream;
        let program = ProgramSummary {
            label: label.to_string(),
            qubits: u64::from(stream.num_qubits()),
            ops: stream.ft_op_count(),
        };
        entry.estimates.reply(dims, program, cached, || {
            let source = format!("stream:{}", stream.name());
            let data = entry.profile.get_or_init(|| {
                let store = self.store.as_deref();
                self.counters
                    .build_profile(store, &source, stream.num_qubits(), stream.ops())
            });
            let estimator = self.estimator(dims);
            Ok(estimator.estimate_stream_with_data(stream.num_qubits(), data, stream.ops())?)
        })
    }

    /// Algorithm 1 on a loaded program, from its op list and profile, or
    /// its reply recalled from the program's estimate memo: the estimate
    /// body `estimate`, `batch` and `compare` share.
    fn run_estimate(
        &self,
        dims: FabricDims,
        handle: &ProgramHandle,
        cached: bool,
    ) -> Result<EstimateResponse, LeqaError> {
        let shared = &handle.shared;
        shared.estimates.reply(dims, handle.summary(), cached, || {
            let data = handle.profile_data();
            Ok(self
                .estimator(dims)
                .estimate_ops(shared.num_qubits, data, &shared.ops)?)
        })
    }

    fn estimator(&self, dims: FabricDims) -> Estimator {
        Estimator::with_options(dims, self.params.clone(), self.options)
    }

    fn run_sweep(
        &self,
        req: &SweepRequest,
        handle: &ProgramHandle,
    ) -> Result<SweepResponse, LeqaError> {
        let profile = ProgramProfile::from_data(handle.qodg(), handle.profile_data());
        let points = sweep_profile_squares(
            &profile,
            &self.params,
            self.options,
            req.sizes.iter().copied(),
        )
        .map_err(LeqaError::from)?;

        let mut optimal: Option<(u32, f64)> = None;
        let points: Vec<SweepPointDto> = points
            .into_iter()
            .map(|point| {
                let side = point.dims.width();
                match point.estimate {
                    None => SweepPointDto {
                        side,
                        l_cnot_avg_us: None,
                        latency_us: None,
                    },
                    Some(e) => {
                        let latency = e.latency.as_f64();
                        if optimal.is_none_or(|(_, best)| latency < best) {
                            optimal = Some((side, latency));
                        }
                        SweepPointDto {
                            side,
                            l_cnot_avg_us: Some(e.l_cnot_avg.as_f64()),
                            latency_us: Some(latency),
                        }
                    }
                }
            })
            .collect();

        Ok(SweepResponse {
            program: handle.summary(),
            points,
            optimal_side: optimal.map(|(side, _)| side),
        })
    }

    fn run_zones(
        &self,
        req: &ZonesRequest,
        handle: &ProgramHandle,
    ) -> Result<ZonesResponse, LeqaError> {
        let report = zone_report_from_iig(handle.profile_data().iig(), self.params.qubit_speed());
        let total_rows = report.len() as u64;
        let mut rows: Vec<&leqa::report::QubitZone> = report.iter().collect();
        rows.sort_by_key(|z| std::cmp::Reverse(z.strength));
        let limit = match req.limit {
            None | Some(0) => rows.len(),
            Some(n) => usize::try_from(n).unwrap_or(usize::MAX).min(rows.len()),
        };
        Ok(ZonesResponse {
            program: handle.summary(),
            fabric: FabricSpec::new(self.fabric.width(), self.fabric.height()),
            rows: rows
                .into_iter()
                .take(limit)
                .map(|z| ZoneRowDto {
                    qubit: z.qubit.0,
                    degree: z.degree,
                    strength: z.strength,
                    zone_area: z.zone_area,
                    expected_path: z.expected_path,
                    uncongested_delay_us: z.uncongested_delay.as_f64(),
                })
                .collect(),
            total_rows,
        })
    }

    fn run_compare(
        &self,
        req: &CompareRequest,
        handle: &ProgramHandle,
    ) -> Result<CompareResponse, LeqaError> {
        let dims = self.resolve_fabric(req.fabric)?;
        let actual = Mapper::new(dims, self.params.clone()).map(handle.qodg())?;
        let actual_us = actual.latency.as_f64();
        let estimated_us = self.run_estimate(dims, handle, true)?.latency_us;
        Ok(CompareResponse {
            program: handle.summary(),
            fabric: FabricSpec::new(dims.width(), dims.height()),
            actual_us,
            estimated_us,
            error_pct: (actual_us > 0.0)
                .then(|| 100.0 * (estimated_us - actual_us).abs() / actual_us),
        })
    }

    fn run_map(&self, req: &MapRequest, handle: &ProgramHandle) -> Result<MapResponse, LeqaError> {
        let dims = self.resolve_fabric(req.fabric)?;
        let mapper = Mapper::with_config(MapperConfig {
            dims,
            params: self.params.clone(),
            placement: req.placement,
            router: req.router,
            movement: req.movement,
            seed: 0,
        });
        let (result, trace) = if req.trace_limit > 0 {
            let (r, t) = mapper.map_with_trace(handle.qodg())?;
            let rows = usize::try_from(req.trace_limit).unwrap_or(usize::MAX);
            (r, Some(t.summary(rows)))
        } else {
            (mapper.map(handle.qodg())?, None)
        };
        Ok(MapResponse {
            program: handle.summary(),
            fabric: FabricSpec::new(dims.width(), dims.height()),
            latency_us: result.latency.as_f64(),
            cnot_ops: result.stats.cnot_ops,
            avg_cnot_distance: result.stats.avg_cnot_distance(),
            congestion_wait_us: result.stats.congestion_wait.as_f64(),
            max_channel_load: result.stats.max_channel_load,
            trace,
        })
    }
}

/// Assembles the estimate reply: the one place an [`Estimate`] becomes an
/// [`EstimateResponse`], for materialized and streamed programs alike.
fn estimate_response(
    program: ProgramSummary,
    dims: FabricDims,
    estimate: Estimate,
    cached: bool,
) -> EstimateResponse {
    EstimateResponse {
        program,
        fabric: FabricSpec::new(dims.width(), dims.height()),
        latency_us: estimate.latency.as_f64(),
        l_cnot_avg_us: estimate.l_cnot_avg.as_f64(),
        l_one_qubit_avg_us: estimate.l_one_qubit_avg.as_f64(),
        d_uncong_us: estimate.d_uncong.as_f64(),
        avg_zone_area: estimate.avg_zone_area,
        zone_side: estimate.zone_side,
        esq: estimate.esq,
        critical_cnots: estimate.critical.cnot_count,
        critical_one_qubit: estimate.critical.one_qubit_counts.iter().sum(),
        profile_cached: cached,
    }
}

/// The label a spec implies: the workload name for a `Bench`, otherwise
/// the circuit's `.name` header, falling back to the path or `<inline>`.
fn spec_label(spec: &ProgramSpec, header: Option<&str>) -> String {
    match spec {
        ProgramSpec::Bench { name } => name.clone(),
        ProgramSpec::Path { path } => header.unwrap_or(path).to_string(),
        ProgramSpec::Source { .. } => header.unwrap_or("<inline>").to_string(),
    }
}

/// Generates or parses a spec's raw bytes into its canonical identity.
fn resolve_raw(spec: &ProgramSpec, raw: &RawSpec) -> Result<ResolvedSpec, LeqaError> {
    let circuit = match raw {
        RawSpec::Name(name) => leqa_workloads::circuit_by_name(name).ok_or_else(|| {
            match leqa_workloads::check_workload_name(name) {
                // A recognized parametric family with out-of-range
                // parameters (`shor_0`, an overflowing width…) is an
                // *invalid* request, not an unknown name.
                Err(leqa_workloads::WorkloadNameError::Invalid { reason }) => {
                    LeqaError::new(ErrorKind::Invalid, reason)
                }
                _ => LeqaError::usage(format!(
                    "unknown benchmark `{name}`; names follow Table 3 (e.g. gf2^16mult) \
                     or the parametric forms (e.g. qft_64)"
                )),
            }
        })?,
        RawSpec::Text(text) => parser::parse(text)?,
    };
    let label = spec_label(spec, circuit.name());
    let source = parser::write(&circuit);
    let key = fnv1a(source.as_bytes());
    Ok(ResolvedSpec {
        label,
        circuit,
        source,
        key,
    })
}

/// The resolve-memo hash: eight bytes per step, where [`fnv1a`] takes one.
/// Memo keys live only in memory and every hit is verified byte for byte,
/// so this hash need not be stable; the program-cache key and the snapshot
/// file names, which persist on disk, keep FNV-1a.
fn word_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut h = bytes.len() as u64;
    for word in &mut words {
        h = mix(h, u64::from_le_bytes(word.try_into().expect("eight bytes")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = mix(h, u64::from_le_bytes(tail));
    // The shard is `key mod 16`: fold the well-mixed high half down.
    h ^ (h >> 32)
}

/// FNV-1a over the canonical circuit bytes: stable, dependency-free, and
/// plenty for a cache key (lookups verify the source on hit, so a
/// collision costs a rebuild, never a wrong answer). The same hash picks
/// the cache shard (`key mod 16`).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_and_repeats() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
    }

    fn source_of(spec: &ProgramSpec) -> &str {
        match spec {
            ProgramSpec::Source { text } => text,
            other => panic!("not a source spec: {other:?}"),
        }
    }

    fn entry_for(handle: &ProgramHandle) -> MemoEntry {
        MemoEntry {
            raw: MemoRaw::Canonical,
            header: None,
            cache_key: fnv1a(handle.source().as_bytes()),
            shared: Arc::clone(&handle.shared),
        }
    }

    #[test]
    fn memo_collisions_cost_a_re_resolve_never_a_wrong_program() {
        let s = Session::builder().build().unwrap();
        let a = ProgramSpec::source(".qubits 2\ncnot 0 1\n");
        let b = ProgramSpec::source(".qubits 3\ncnot 0 1\ncnot 1 2\n");
        let raw_a = RawSpec::Text(Cow::Borrowed(source_of(&a)));
        let raw_b = RawSpec::Text(Cow::Borrowed(source_of(&b)));
        let ha = s.load(&a).unwrap();
        let hb = s.load(&b).unwrap();

        // Two raw texts forced onto one key: each recalls only its own.
        const KEY: u64 = 7;
        s.memo.remember(KEY, entry_for(&ha));
        assert!(s.memo.recall(KEY, &raw_b, &b, &s.cache).is_none());
        assert!(Arc::ptr_eq(
            &s.memo.recall(KEY, &raw_a, &a, &s.cache).unwrap().0,
            &ha.shared
        ));
        s.memo.remember(KEY, entry_for(&hb));
        assert!(s.memo.recall(KEY, &raw_a, &a, &s.cache).is_none());
        assert!(Arc::ptr_eq(
            &s.memo.recall(KEY, &raw_b, &b, &s.cache).unwrap().0,
            &hb.shared
        ));

        // The same collision on the keys a load consults: the other
        // program sits under each text's own key, and each load still
        // gets its own program back, as a cache hit after a re-resolve.
        for (spec, raw, own, other) in [(&b, &raw_b, &hb, &ha), (&a, &raw_a, &ha, &hb)] {
            s.memo.remember(raw.memo_key(), entry_for(other));
            let before = s.cache_stats();
            let (got, cached) = s.load_tracking(spec).unwrap();
            assert!(Arc::ptr_eq(&got.shared, &own.shared));
            assert_eq!(got.source(), source_of(spec));
            assert!(cached);
            let after = s.cache_stats();
            assert_eq!(after.cache_hits, before.cache_hits + 1);
            assert_eq!(after.cache_misses, before.cache_misses);
            // The re-resolve repaired the slot.
            let (kept, _) = s.memo.recall(raw.memo_key(), raw, spec, &s.cache).unwrap();
            assert!(Arc::ptr_eq(&kept, &own.shared));
        }
    }

    #[test]
    fn memo_hits_only_programs_still_cached() {
        // A load whose `clear_cache` lands between its cache insert and
        // its memo insert leaves the memo naming a dropped program. That
        // entry must not answer: the spec re-resolves, and the program it
        // reaches is the one every other spec of it shares.
        let s = Session::builder().build().unwrap();
        let a = ProgramSpec::source(".qubits 2\ncnot 0 1\n");
        let raw_a = RawSpec::Text(Cow::Borrowed(source_of(&a)));
        let dropped = s.load(&a).unwrap();
        s.clear_cache();
        s.memo.remember(raw_a.memo_key(), entry_for(&dropped));

        let before = s.cache_stats();
        let (reloaded, cached) = s.load_tracking(&a).unwrap();
        assert!(!cached);
        assert!(!Arc::ptr_eq(&reloaded.shared, &dropped.shared));
        assert_eq!(s.cache_stats().cache_misses, before.cache_misses + 1);

        let other = ProgramSpec::source("# the same program\n.qubits 2\ncnot 0 1\n");
        let (shared, cached) = s.load_tracking(&other).unwrap();
        assert!(cached);
        assert!(Arc::ptr_eq(&shared.shared, &reloaded.shared));
        let (again, _) = s.load_tracking(&a).unwrap();
        assert!(Arc::ptr_eq(&again.shared, &reloaded.shared));
    }

    #[test]
    fn memo_stores_no_second_copy_of_canonical_text() {
        let s = Session::builder().build().unwrap();
        let canonical = ".name w\n.qubits 3\ntoffoli 0 1 2\ncnot 0 1\nh 2\ntdg 1\n";
        let spaced = "# comment\n.name w\n.qubits 3\ntoffoli 0 1 2\ncnot 0 1\nh 2\ntdg 1\n";
        for (text, copied) in [(canonical, false), (spaced, true)] {
            s.load(&ProgramSpec::source(text)).unwrap();
            let key = word_hash(text.as_bytes());
            let shard = s.memo.shard(key).read().unwrap();
            let entry = &shard[&key];
            assert_eq!(matches!(entry.raw, MemoRaw::Text(_)), copied, "{text:?}");
            assert_eq!(entry.header.as_deref(), Some("w"));
        }
    }

    #[test]
    fn memo_keeps_names_and_texts_apart() {
        // A source whose text is a memoized workload name shares its memo
        // key, and must still be parsed (and fail) as text.
        let s = Session::builder().build().unwrap();
        s.load(&ProgramSpec::bench("qft_4")).unwrap();
        let err = s.load(&ProgramSpec::source("qft_4")).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Parse);
    }

    #[test]
    fn the_qodg_is_built_once_and_only_for_the_mapper_side() {
        let s = Session::builder().build().unwrap();
        let spec = ProgramSpec::bench("8bitadder");
        s.estimate(&EstimateRequest::new(spec.clone())).unwrap();
        s.zones(&ZonesRequest::new(spec.clone())).unwrap();
        let handle = s.load(&spec).unwrap();
        assert!(handle.shared.qodg.get().is_none());

        // Three mapper-side endpoints race to build it; one graph results.
        std::thread::scope(|scope| {
            let (s, spec) = (&s, &spec);
            scope.spawn(move || s.compare(&CompareRequest::new(spec.clone())).unwrap());
            scope.spawn(move || s.map(&MapRequest::new(spec.clone())).unwrap());
            scope.spawn(move || s.sweep(&SweepRequest::new(spec.clone(), [40])).unwrap());
        });
        let built = handle.shared.qodg.get().expect("built by the mapper side");
        assert!(std::ptr::eq(built, s.load(&spec).unwrap().qodg()));
        // The graph shares the cached op array rather than copying it.
        assert!(std::ptr::eq(built.ops(), &*handle.shared.ops));
    }

    /// The fabrics a program's estimate memo holds, oldest first.
    fn memo_fabrics(handle: &ProgramHandle) -> Vec<FabricDims> {
        let replies = handle.shared.estimates.replies.read().unwrap();
        replies.iter().map(|(dims, _)| *dims).collect()
    }

    #[test]
    fn estimate_memo_is_bounded_and_never_holds_an_error() {
        let s = Session::builder().build().unwrap();
        let spec = ProgramSpec::bench("qft_8");
        let handle = s.load(&spec).unwrap();
        let on = |side: u32| EstimateRequest::new(spec.clone()).with_fabric(side, side);

        for _ in 0..2 {
            let err = s.estimate(&on(2)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Estimate);
        }
        assert!(memo_fabrics(&handle).is_empty());

        // One fabric more than the memo holds: the oldest gives way.
        let sides: Vec<u32> = (20..).take(ESTIMATE_MEMO_CAPACITY + 1).collect();
        for &side in &sides {
            s.estimate(&on(side)).unwrap();
        }
        let square = |side: u32| FabricDims::new(side, side).unwrap();
        let resident: Vec<FabricDims> = sides[1..].iter().map(|&side| square(side)).collect();
        assert_eq!(memo_fabrics(&handle), resident);
        // A recall neither grows nor reorders the memo; `compare` reads it.
        s.estimate(&on(sides[3])).unwrap();
        s.compare(&CompareRequest::new(spec.clone()).with_fabric(sides[4], sides[4]))
            .unwrap();
        assert_eq!(memo_fabrics(&handle), resident);

        // The memo is dropped with its program.
        s.clear_cache();
        let reloaded = s.load(&spec).unwrap();
        assert!(memo_fabrics(&reloaded).is_empty());
        s.estimate(&EstimateRequest::new(spec.clone())).unwrap();
        assert_eq!(memo_fabrics(&reloaded), [s.fabric()]);
        assert_eq!(memo_fabrics(&handle), resident);
    }

    #[test]
    fn streamed_programs_keep_an_estimate_memo_too() {
        let s = Session::builder().streaming_threshold(0).build().unwrap();
        let req = EstimateRequest::new(ProgramSpec::bench("shor_8_2"));
        s.estimate(&req).unwrap();
        s.estimate(&req.clone().with_fabric(2, 2)).unwrap_err();
        s.estimate(&req).unwrap();
        let streams = s.streams.read().unwrap();
        let [entry] = streams.values().collect::<Vec<_>>()[..] else {
            panic!("one stream entry")
        };
        let replies = entry.estimates.replies.read().unwrap();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].0, s.fabric());
    }

    #[test]
    fn word_hash_sees_every_byte_and_the_length() {
        let text = b"abcdefghijklmnopq";
        let base = word_hash(text);
        for i in 0..text.len() {
            let mut flipped = *text;
            flipped[i] ^= 1;
            assert_ne!(word_hash(&flipped), base, "byte {i}");
        }
        assert_ne!(word_hash(b"a"), word_hash(b"a\0"));
        assert_ne!(word_hash(b""), word_hash(b"\0"));
        assert_eq!(word_hash(text), base);
        let shards: std::collections::HashSet<u64> = (0u64..64)
            .map(|k| word_hash(format!("qft_{k}").as_bytes()) % SHARD_COUNT as u64)
            .collect();
        assert!(shards.len() > 4, "memo keys should spread across shards");
    }

    #[test]
    fn shards_spread_keys() {
        let cache = ShardedCache::default();
        // Distinct keys land on distinct shards at least sometimes.
        let shards: std::collections::HashSet<usize> = (0u64..64)
            .map(|k| {
                let shard = cache.shard(fnv1a(&k.to_le_bytes()));
                cache
                    .shards
                    .iter()
                    .position(|s| std::ptr::eq(s, shard))
                    .expect("shard belongs to the cache")
            })
            .collect();
        assert!(shards.len() > 4, "FNV should spread across shards");
    }
}
