//! Tenant → shard routing, restore-on-boot, and fleet-wide checkpointing.
//!
//! The manager owns the tenant map behind an `RwLock`; each shard sits
//! behind its own `Mutex`, so two tenants' ingests run concurrently (the
//! process-wide `hpc_linalg::pool` permit budget is the only shared
//! throttle) while requests for one tenant serialise — which is what
//! keeps a shard's round sequence, and therefore its bitwise state,
//! independent of cross-tenant request interleaving.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use imrdmd::checkpoint::{is_valid_shard_name, shard_checkpoints, Checkpointer};
use imrdmd::wal::{shard_wals, Durability, Wal};

use crate::error::ServeError;
use crate::obs;
use crate::server::ServeConfig;
use crate::shard::Shard;

/// A shard slot: lock it to touch the shard.
pub type ShardCell = Arc<Mutex<Shard>>;

/// Routes tenants to shards and owns fleet-wide lifecycle.
#[derive(Debug)]
pub struct ShardManager {
    opts: ServeConfig,
    shards: RwLock<BTreeMap<String, ShardCell>>,
    inflight: AtomicUsize,
}

/// Locks a shard cell, absorbing a poisoned lock: a panic in another
/// request thread must degrade that one request, not wedge the tenant.
pub fn lock_shard(cell: &ShardCell) -> std::sync::MutexGuard<'_, Shard> {
    cell.lock().unwrap_or_else(|p| p.into_inner())
}

/// An admission slot held for the duration of one ingest request;
/// dropping it releases the slot.
#[derive(Debug)]
pub struct IngestPermit<'a> {
    mgr: &'a ShardManager,
}

impl Drop for IngestPermit<'_> {
    fn drop(&mut self) {
        let now = self.mgr.inflight.fetch_sub(1, Ordering::SeqCst);
        obs::INGEST_INFLIGHT.set(now.saturating_sub(1) as f64);
    }
}

impl ShardManager {
    /// A manager configured by `opts`. This is the one place the daemon's
    /// counts are clamped: a zero cadence, tenant cap, in-flight budget or
    /// connection cap means one.
    pub fn new(mut opts: ServeConfig) -> ShardManager {
        opts.checkpoint_every = opts.checkpoint_every.max(1);
        opts.max_tenants = opts.max_tenants.max(1);
        opts.max_inflight = opts.max_inflight.max(1);
        opts.max_connections = opts.max_connections.max(1);
        ShardManager {
            opts,
            shards: RwLock::new(BTreeMap::new()),
            inflight: AtomicUsize::new(0),
        }
    }

    /// Claims an admission slot for one ingest request, or sheds the
    /// request with 503 + `Retry-After` when the fleet-wide in-flight
    /// budget is exhausted. The slot frees when the permit drops.
    pub fn admit_ingest(&self) -> Result<IngestPermit<'_>, ServeError> {
        let prev = self.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= self.opts.max_inflight {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            obs::LOAD_SHED.inc();
            return Err(ServeError::Overloaded {
                inflight: prev,
                limit: self.opts.max_inflight,
            });
        }
        obs::INGEST_INFLIGHT.set((prev + 1) as f64);
        Ok(IngestPermit { mgr: self })
    }

    /// The daemon configuration, clamped.
    pub fn config(&self) -> &ServeConfig {
        &self.opts
    }

    fn checkpointer_for(&self, tenant: &str) -> Option<Checkpointer> {
        let dir = self.opts.checkpoint_dir.as_ref()?;
        Checkpointer::for_shard(dir, self.opts.checkpoint_every, tenant)
            .ok()
            .map(|ck| ck.with_retention(self.opts.keep_checkpoints))
    }

    /// Opens the tenant's WAL, unless durability is `none` or there is no
    /// persistence directory. `Err` carries the degradation cause: the
    /// shard must still serve, just without WAL durability.
    fn wal_for(&self, tenant: &str) -> Result<Option<Wal>, String> {
        if self.opts.durability == Durability::None {
            return Ok(None);
        }
        let Some(dir) = self.opts.checkpoint_dir.as_ref() else {
            return Ok(None);
        };
        match Wal::open(dir, tenant, self.opts.durability) {
            Ok(wal) => Ok(Some(wal)),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Builds a fresh (or recovered) shard's persistence attachments and
    /// applies them: checkpointer, WAL, and — when the WAL could not be
    /// opened — the degradation cause.
    fn attach_persistence(&self, shard: Shard) -> Shard {
        let tenant = shard.tenant().to_string();
        match self.wal_for(&tenant) {
            Ok(wal) => shard.with_wal(wal),
            Err(cause) => {
                obs::WAL_APPEND_FAILURES.inc();
                shard.with_degraded_cause(Some(cause))
            }
        }
    }

    fn read_map(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, ShardCell>> {
        self.shards.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write_map(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, ShardCell>> {
        self.shards.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Refreshes the shard gauges without stalling tenant traffic: the
    /// shard handles are snapshotted under a brief map read lock, the lock
    /// is released, and only then is each shard's state inspected (one
    /// short per-shard lock at a time). Holding the map lock while locking
    /// every shard — as a naive scrape would — blocks `shard_or_create`,
    /// and with it every ingest, for the duration of the walk.
    pub fn refresh_gauges(&self) {
        let cells: Vec<ShardCell> = self.read_map().values().cloned().collect();
        obs::SHARDS.set(cells.len() as f64);
        let (mut corrupt, mut degraded) = (0usize, 0usize);
        for c in &cells {
            match lock_shard(c).state() {
                crate::shard::ShardState::Corrupt => corrupt += 1,
                crate::shard::ShardState::DurabilityDegraded => degraded += 1,
                _ => {}
            }
        }
        obs::SHARDS_CORRUPT.set(corrupt as f64);
        obs::SHARDS_DEGRADED.set(degraded as f64);
    }

    /// Restores every shard that left a checkpoint *or* a write-ahead log
    /// in the directory: the newest checkpoint that validates (falling
    /// back past corrupt ones), then the WAL tail replayed on top — see
    /// [`Shard::recover`]. Only a shard with no valid checkpoint and no
    /// replayable-from-zero WAL comes back `Corrupt` (503 on its routes);
    /// one torn file must not take the fleet down. Returns
    /// `(restored, corrupt)` counts.
    pub fn restore(&self) -> (usize, usize) {
        let Some(dir) = self.opts.checkpoint_dir.clone() else {
            return (0, 0);
        };
        let mut tenants: BTreeSet<String> = BTreeSet::new();
        if let Ok(found) = shard_checkpoints(&dir) {
            tenants.extend(found.into_iter().map(|(t, _)| t));
        }
        if let Ok(found) = shard_wals(&dir) {
            tenants.extend(found);
        }
        let (mut restored, mut corrupt) = (0, 0);
        let mut map = self.write_map();
        for tenant in tenants {
            if !is_valid_shard_name(&tenant) {
                continue;
            }
            let rec = Shard::recover(
                &dir,
                &tenant,
                &self.opts.model,
                self.opts.policy,
                self.checkpointer_for(&tenant),
            );
            obs::CHECKPOINT_FALLBACKS.add(rec.fallbacks as u64);
            let shard = if rec.shard.state() == crate::shard::ShardState::Corrupt {
                corrupt += 1;
                rec.shard
            } else {
                restored += 1;
                self.attach_persistence(rec.shard)
            };
            map.insert(tenant, Arc::new(Mutex::new(shard)));
        }
        drop(map);
        self.refresh_gauges();
        (restored, corrupt)
    }

    /// The shard for `tenant`, if it exists.
    pub fn shard(&self, tenant: &str) -> Option<ShardCell> {
        self.read_map().get(tenant).cloned()
    }

    /// The shard for `tenant`, created empty if absent (ingest path).
    pub fn shard_or_create(&self, tenant: &str) -> Result<ShardCell, ServeError> {
        if !is_valid_shard_name(tenant) {
            return Err(ServeError::InvalidTenant(tenant.to_string()));
        }
        if let Some(cell) = self.shard(tenant) {
            return Ok(cell);
        }
        let mut map = self.write_map();
        if let Some(cell) = map.get(tenant) {
            return Ok(cell.clone());
        }
        if map.len() >= self.opts.max_tenants {
            return Err(ServeError::TenantLimit(self.opts.max_tenants));
        }
        let shard = Shard::new(
            tenant,
            &self.opts.model,
            self.opts.policy,
            self.checkpointer_for(tenant),
        );
        let shard = self.attach_persistence(shard);
        let cell = Arc::new(Mutex::new(shard));
        map.insert(tenant.to_string(), cell.clone());
        // Only the cheap count gauge under the write lock; the corrupt-state
        // walk (which locks every shard) never runs while the map is held.
        obs::SHARDS.set(map.len() as f64);
        Ok(cell)
    }

    /// The shard for `tenant`, erroring 404/400 if absent (read path).
    pub fn existing_shard(&self, tenant: &str) -> Result<ShardCell, ServeError> {
        if !is_valid_shard_name(tenant) {
            return Err(ServeError::InvalidTenant(tenant.to_string()));
        }
        self.shard(tenant)
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))
    }

    /// Sorted tenant ids.
    pub fn tenants(&self) -> Vec<String> {
        self.read_map().keys().cloned().collect()
    }

    /// Writes a final checkpoint for every fitted shard (graceful
    /// shutdown). Returns how many writes failed.
    pub fn checkpoint_all(&self) -> usize {
        let map = self.read_map();
        let mut failures = 0;
        for cell in map.values() {
            if lock_shard(cell).checkpoint_now().is_err() {
                failures += 1;
                obs::CHECKPOINT_FAILURES.inc();
            }
        }
        failures
    }
}
