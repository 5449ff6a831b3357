//! Multi-tenant fleet load generation.
//!
//! The serving layer owns one I-mrDMD shard per tenant (a rack, a cabinet
//! row, a whole machine partition). Its tests and benchmarks need many
//! *independent, deterministic* telemetry streams at once: every tenant
//! gets its own [`Scenario`] seed (and optionally its own
//! [`FaultInjector`] seed), so any tenant's batch sequence can be
//! regenerated bit-for-bit in isolation — which is exactly what the
//! serve-vs-oracle equivalence tests rely on.
//!
//! Batches are materialised eagerly: fleet-scale here is tens of shards of
//! a few hundred snapshots (megabytes), and an owned `Vec<Mat>` per tenant
//! lets load-generator threads run without borrowing the driver.

use crate::envlog::Scenario;
use crate::faults::{FaultConfig, FaultInjector};
use crate::machine::theta;
use crate::stream::ChunkStream;
use hpc_linalg::Mat;
use std::time::Duration;

/// Shape of a synthetic fleet: how many tenants, how big each tenant's
/// telemetry is, and whether the streams are fault-corrupted.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of tenants (shards).
    pub tenants: usize,
    /// Nodes per tenant's machine model (sensor rows scale with this).
    pub nodes_per_tenant: usize,
    /// Snapshots per tenant stream.
    pub steps: usize,
    /// Snapshots per ingest batch.
    pub chunk: usize,
    /// Base seed; tenant `k` uses `base_seed + k` for its scenario and
    /// `base_seed + 1000 + k` for its fault injector.
    pub base_seed: u64,
    /// Fault injection template (the per-tenant seed overrides
    /// [`FaultConfig::seed`]); `None` streams clean telemetry.
    pub faults: Option<FaultConfig>,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            tenants: 8,
            nodes_per_tenant: 8,
            steps: 480,
            chunk: 96,
            base_seed: 41,
            faults: None,
        }
    }
}

/// Deterministic multi-tenant batch driver built from a [`FleetSpec`].
#[derive(Debug)]
pub struct FleetDriver {
    spec: FleetSpec,
    scenarios: Vec<Scenario>,
}

impl FleetDriver {
    /// Builds one scenario per tenant (`sc_log` on a scaled Theta model).
    pub fn new(spec: FleetSpec) -> FleetDriver {
        assert!(spec.tenants > 0, "fleet needs at least one tenant");
        assert!(spec.chunk > 0, "chunk size must be positive");
        let scenarios = (0..spec.tenants)
            .map(|k| {
                Scenario::sc_log(
                    theta().scaled(spec.nodes_per_tenant),
                    spec.steps,
                    spec.base_seed + k as u64,
                )
            })
            .collect();
        FleetDriver { spec, scenarios }
    }

    /// The spec this driver was built from.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Sampling interval of the tenant scenarios (they all share one
    /// machine model, so one `dt`).
    pub fn dt(&self) -> f64 {
        self.scenarios[0].dt()
    }

    /// Tenant names, `t00`, `t01`, … — valid shard/tenant identifiers.
    pub fn tenant_names(&self) -> Vec<String> {
        (0..self.spec.tenants).map(|k| format!("t{k:02}")).collect()
    }

    /// Tenant `k`'s full batch sequence, faults applied if configured.
    /// Deterministic: every call returns bitwise-identical batches.
    pub fn tenant_batches(&self, k: usize) -> Vec<Mat> {
        let sc = &self.scenarios[k];
        let stream = ChunkStream::new(sc, 0, self.spec.steps, self.spec.chunk);
        match &self.spec.faults {
            None => stream.collect(),
            Some(template) => {
                let cfg = FaultConfig {
                    seed: self.spec.base_seed + 1000 + k as u64,
                    ..*template
                };
                FaultInjector::new(stream, cfg).collect()
            }
        }
    }

    /// A round-robin `(tenant, batch)` delivery schedule: batch 0 of every
    /// tenant, then batch 1 of every tenant, … Tenants with shorter
    /// streams (fault injectors may drop or duplicate batches) simply stop
    /// appearing. Per-tenant order is preserved, which is the only
    /// ordering the serving layer requires.
    pub fn interleaved(&self) -> Vec<(usize, Mat)> {
        let mut per_tenant: Vec<std::vec::IntoIter<Mat>> = (0..self.spec.tenants)
            .map(|k| self.tenant_batches(k).into_iter())
            .collect();
        let mut out = Vec::new();
        loop {
            let mut any = false;
            for (k, it) in per_tenant.iter_mut().enumerate() {
                if let Some(batch) = it.next() {
                    out.push((k, batch));
                    any = true;
                }
            }
            if !any {
                return out;
            }
        }
    }
}

/// Seeded, jittered exponential backoff for fleet clients retrying shed
/// requests (429/503). Deterministic: the same seed replays the same
/// delay sequence, so load tests that retry stay reproducible. A
/// server-supplied `Retry-After` acts as a floor — the client never
/// retries sooner than the server asked, and still jitters above it so a
/// shed wave does not re-arrive in lockstep.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

/// One step of the splitmix64 sequence (same generator family the
/// scenario synthesis uses): deterministic, full-period, and good enough
/// to decorrelate retry jitter across clients.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Backoff {
    /// A backoff starting at `base` and doubling per attempt up to `cap`,
    /// jittered by the seeded generator.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base,
            cap,
            attempt: 0,
            rng: seed,
        }
    }

    /// The delay before the next retry: full jitter over the doubled
    /// window (`[window/2, window]` of `base << attempt`, capped), floored
    /// at any server-supplied `Retry-After`. Advances the attempt counter.
    pub fn next_delay(&mut self, retry_after: Option<Duration>) -> Duration {
        let window = self
            .base
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        let half = window / 2;
        let span = window.saturating_sub(half).as_nanos() as u64;
        let jitter = if span == 0 {
            0
        } else {
            splitmix64(&mut self.rng) % (span + 1)
        };
        let delay = (half + Duration::from_nanos(jitter)).min(self.cap);
        match retry_after {
            Some(floor) => delay.max(floor),
            None => delay,
        }
    }

    /// Resets the attempt counter after a success (the jitter stream keeps
    /// advancing, so later retries stay decorrelated).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NaN-tolerant bitwise equality (faulted batches contain NaN gaps,
    /// which `PartialEq` on floats would treat as unequal).
    fn same_bits(a: &Mat, b: &Mat) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn tenant_streams_are_deterministic_and_distinct() {
        let spec = FleetSpec {
            tenants: 3,
            steps: 60,
            chunk: 20,
            ..FleetSpec::default()
        };
        let d = FleetDriver::new(spec.clone());
        let a = d.tenant_batches(0);
        let b = d.tenant_batches(0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y, "same tenant must replay bitwise");
        }
        let other = FleetDriver::new(spec).tenant_batches(1);
        assert_ne!(a[0], other[0], "tenants must differ");
    }

    #[test]
    fn interleaved_preserves_per_tenant_order() {
        let d = FleetDriver::new(FleetSpec {
            tenants: 4,
            steps: 90,
            chunk: 30,
            faults: Some(FaultConfig::default()),
            ..FleetSpec::default()
        });
        let direct: Vec<Vec<Mat>> = (0..4).map(|k| d.tenant_batches(k)).collect();
        let mut replayed: Vec<Vec<Mat>> = vec![Vec::new(); 4];
        for (k, batch) in d.interleaved() {
            replayed[k].push(batch);
        }
        for k in 0..4 {
            assert_eq!(replayed[k].len(), direct[k].len());
            for (x, y) in replayed[k].iter().zip(&direct[k]) {
                assert!(same_bits(x, y), "tenant {k} batch diverged");
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_and_honors_retry_after() {
        let mk = || Backoff::new(Duration::from_millis(10), Duration::from_secs(2), 77);
        let (mut a, mut b) = (mk(), mk());
        let da: Vec<Duration> = (0..10).map(|_| a.next_delay(None)).collect();
        let db: Vec<Duration> = (0..10).map(|_| b.next_delay(None)).collect();
        assert_eq!(da, db, "same seed must replay the same delays");
        // Exponential envelope: delay k stays inside [base<<k / 2, cap].
        for (k, d) in da.iter().enumerate() {
            let window = Duration::from_millis(10 << k.min(16)).min(Duration::from_secs(2));
            assert!(*d >= window / 2, "delay {k} below half-window: {d:?}");
            assert!(*d <= Duration::from_secs(2), "delay {k} above cap: {d:?}");
        }
        assert!(da[5] > da[0], "later attempts must wait longer");
        // Retry-After floors the delay even on the first attempt.
        let mut c = mk();
        let floored = c.next_delay(Some(Duration::from_secs(1)));
        assert!(floored >= Duration::from_secs(1));
        // reset() drops back to the first window but keeps jitter moving.
        let mut d = mk();
        let first = d.next_delay(None);
        d.next_delay(None);
        d.reset();
        let after_reset = d.next_delay(None);
        assert!(after_reset <= Duration::from_millis(10));
        assert_ne!(
            first, after_reset,
            "jitter stream advances across reset (seeded, not frozen)"
        );
    }

    #[test]
    fn tenant_names_are_valid_identifiers() {
        let d = FleetDriver::new(FleetSpec::default());
        for name in d.tenant_names() {
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-'));
        }
    }
}
