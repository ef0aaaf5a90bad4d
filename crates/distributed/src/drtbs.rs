//! D-R-TBS — distributed reservoir-based time-biased sampling (§5).
//!
//! The driver (master) holds the scalar state — total weight `W`, sample
//! weight `C`, and the single partial item — while the full items live in a
//! distributed reservoir. Each batch requires coordinated delete/insert
//! decisions; the four strategies benchmarked in Figure 7 are:
//!
//! | Strategy | Reservoir | Decisions | Insert-item retrieval |
//! |---|---|---|---|
//! | [`Strategy::CentKvRepartitionJoin`] | key-value store | master picks slots | repartition join (ships the whole batch) |
//! | [`Strategy::CentKvCoLocatedJoin`]   | key-value store | master picks slots | co-located join (ships only locations) |
//! | [`Strategy::CentCoPartitioned`]     | co-partitioned  | master picks slots | co-located, items never move |
//! | [`Strategy::DistCoPartitioned`]     | co-partitioned  | master picks per-worker *counts* (multivariate hypergeometric); workers choose locally with jump-ahead RNG streams | local |
//!
//! Every strategy computes the *same distribution* over samples as
//! single-node R-TBS — the statistical-equivalence tests in this module
//! verify it — they differ only in data movement and coordination, which
//! the [`CostTracker`] accounts.

use crate::cluster::WorkerPool;
use crate::copart::CoPartitionedReservoir;
use crate::cost::{CostModel, CostTracker};
use crate::kvstore::KvReservoir;
use crate::partition::Partitioned;
use crate::wire::{Wire, WIRE_ENVELOPE_BYTES};
use rand::{Rng, SeedableRng};
use tbs_core::checkpoint::CheckpointError;
use tbs_core::util::draw_without_replacement;
use tbs_stats::multivariate::multivariate_hypergeometric;
use tbs_stats::rng::Xoshiro256PlusPlus;
use tbs_stats::rounding::stochastic_round;

/// The four implementation strategies of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Centralized decisions, key-value store, repartition join.
    CentKvRepartitionJoin,
    /// Centralized decisions, key-value store, co-located join.
    CentKvCoLocatedJoin,
    /// Centralized decisions, co-partitioned reservoir.
    CentCoPartitioned,
    /// Distributed decisions, co-partitioned reservoir.
    DistCoPartitioned,
}

impl Strategy {
    /// All four strategies in Figure 7's bar order.
    pub fn all() -> [Strategy; 4] {
        [
            Strategy::CentKvRepartitionJoin,
            Strategy::CentKvCoLocatedJoin,
            Strategy::CentCoPartitioned,
            Strategy::DistCoPartitioned,
        ]
    }

    /// Figure 7's bar label.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::CentKvRepartitionJoin => "D-R-TBS (Cent,KV,RJ)",
            Strategy::CentKvCoLocatedJoin => "D-R-TBS (Cent,KV,CJ)",
            Strategy::CentCoPartitioned => "D-R-TBS (Cent,CP)",
            Strategy::DistCoPartitioned => "D-R-TBS (Dist,CP)",
        }
    }

    fn uses_kv(&self) -> bool {
        matches!(
            self,
            Strategy::CentKvRepartitionJoin | Strategy::CentKvCoLocatedJoin
        )
    }
}

/// Configuration of a D-R-TBS instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrtbsConfig {
    /// Decay rate λ.
    pub lambda: f64,
    /// Reservoir capacity n.
    pub capacity: usize,
    /// Number of workers k.
    pub workers: usize,
    /// Number of key-value store nodes (KV strategies only).
    pub kv_nodes: usize,
    /// Which Figure-7 strategy to run.
    pub strategy: Strategy,
    /// Cluster cost constants.
    pub cost_model: CostModel,
    /// Run worker phases on real threads.
    pub threaded: bool,
}

impl DrtbsConfig {
    /// Reasonable laptop-scale defaults mirroring §6.1 (scaled down).
    pub fn new(lambda: f64, capacity: usize, workers: usize, strategy: Strategy) -> Self {
        Self {
            lambda,
            capacity,
            workers,
            kv_nodes: workers,
            strategy,
            cost_model: CostModel::default(),
            threaded: false,
        }
    }
}

enum Store<T: Wire> {
    Kv(KvReservoir<T>),
    Cp(CoPartitionedReservoir<T>),
}

/// Distributed R-TBS instance.
pub struct DRTbs<T: Wire + Send + 'static> {
    cfg: DrtbsConfig,
    store: Store<T>,
    /// Driver-held partial item of the latent sample.
    partial: Option<T>,
    /// Sample weight C (expected realized size).
    sample_weight: f64,
    /// Total decayed weight W.
    total_weight: f64,
    master_rng: Xoshiro256PlusPlus,
    worker_rngs: Vec<Xoshiro256PlusPlus>,
    pool: WorkerPool,
    steps: u64,
    last_cost: CostTracker,
    cumulative_cost: CostTracker,
}

impl<T: Wire + Send + 'static> DRTbs<T> {
    /// Create an empty distributed sampler.
    ///
    /// # Panics
    ///
    /// Panics on non-positive capacity/worker counts or invalid λ.
    pub fn new(cfg: DrtbsConfig, seed: u64) -> Self {
        assert!(cfg.capacity > 0, "capacity must be positive");
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(
            cfg.lambda.is_finite() && cfg.lambda >= 0.0,
            "decay rate must be finite and non-negative"
        );
        let master_rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        // Worker substreams: jump-ahead offsets 1..=k of the master stream.
        let mut cursor = master_rng.clone();
        cursor.jump();
        let worker_rngs = cursor.split_streams(cfg.workers);
        let store = if cfg.strategy.uses_kv() {
            Store::Kv(KvReservoir::new(cfg.kv_nodes))
        } else {
            Store::Cp(CoPartitionedReservoir::new(cfg.workers))
        };
        Self {
            pool: if cfg.threaded {
                WorkerPool::threaded()
            } else {
                WorkerPool::sequential()
            },
            cfg,
            store,
            partial: None,
            sample_weight: 0.0,
            total_weight: 0.0,
            master_rng,
            worker_rngs,
            steps: 0,
            last_cost: CostTracker::new(),
            cumulative_cost: CostTracker::new(),
        }
    }

    /// Total decayed weight `W_t`.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Sample weight `C_t = min(n, W_t)`.
    pub fn sample_weight(&self) -> f64 {
        self.sample_weight
    }

    /// Simulated cost of the most recent batch.
    pub fn last_cost(&self) -> CostTracker {
        self.last_cost
    }

    /// Simulated cost accumulated over all batches.
    pub fn cumulative_cost(&self) -> CostTracker {
        self.cumulative_cost
    }

    /// Number of full items currently stored.
    pub fn stored_full_items(&self) -> usize {
        match &self.store {
            Store::Kv(kv) => kv.len() as usize,
            Store::Cp(cp) => cp.len(),
        }
    }

    /// Process one arriving batch, returning its simulated cost.
    ///
    /// The only error source is a reservoir value that no longer decodes
    /// as `T` — impossible for state built through this API, and caught
    /// at [`DRTbs::restore`] time for checkpointed state, but surfaced
    /// here as a typed [`CheckpointError`] instead of a panic so a
    /// serving tier fed hostile blobs degrades into an error response.
    pub fn observe_batch(&mut self, batch: Vec<T>) -> Result<CostTracker, CheckpointError> {
        let model = self.cfg.cost_model;
        let mut cost = CostTracker::new();
        let k = self.cfg.workers;
        let n = self.cfg.capacity as f64;
        let decay = (-self.cfg.lambda).exp();
        let batch = Partitioned::from_items(batch, k);
        let b = batch.len();

        // Phase 0: ingest the batch (every worker reads its partition from
        // the streaming receiver) and report local sizes to the master.
        let ingest: Vec<u64> = batch.sizes().iter().map(|&s| s as u64).collect();
        cost.parallel_phase(&model, &ingest);
        cost.network(&model, k as u64, 8 * k as u64);

        if self.total_weight < n {
            // ——— Previously unsaturated (C = W). ———
            self.total_weight *= decay;
            if self.total_weight > 0.0 && self.sample_weight > 0.0 {
                self.dist_downsample(self.total_weight, &mut cost)?;
            } else if self.total_weight == 0.0 {
                self.clear_all(&mut cost)?;
            }
            self.insert_batch_full(&batch, &mut cost);
            self.total_weight += b as f64;
            self.sample_weight = self.total_weight;
            if self.total_weight > n {
                self.dist_downsample(n, &mut cost)?;
            }
        } else {
            // ——— Previously saturated (C = n, no partial). ———
            debug_assert!(self.partial.is_none());
            let new_weight = self.total_weight * decay + b as f64;
            if new_weight >= n {
                let m_exact = b as f64 * n / new_weight;
                let m = (stochastic_round(&mut self.master_rng, m_exact) as usize)
                    .min(b)
                    .min(self.cfg.capacity);
                let inserts = self.select_inserts(&batch, m, &mut cost);
                self.replace_full(inserts, &mut cost);
            } else {
                self.dist_downsample(new_weight - b as f64, &mut cost)?;
                self.insert_batch_full(&batch, &mut cost);
            }
            self.total_weight = new_weight;
            self.sample_weight = new_weight.min(n);
        }

        self.steps += 1;
        self.last_cost = cost;
        self.cumulative_cost.merge(&cost);
        debug_assert_eq!(
            self.stored_full_items(),
            self.sample_weight.floor() as usize,
            "full-item count diverged from floor(C)"
        );
        Ok(cost)
    }

    /// Select `m` insert items from the batch, returned grouped per worker.
    ///
    /// Charges master work and control/shuffle network traffic; the worker
    /// phase that physically touches the picks is charged by
    /// [`DRTbs::replace_full`], where it fuses with the deletes/inserts
    /// (one Spark stage over the co-partitioned data).
    fn select_inserts(
        &mut self,
        batch: &Partitioned<T>,
        m: usize,
        cost: &mut CostTracker,
    ) -> Vec<Vec<T>> {
        let model = self.cfg.cost_model;
        let k = self.cfg.workers;
        match self.cfg.strategy {
            Strategy::CentKvRepartitionJoin => {
                // Master generates m batch slot numbers…
                cost.master_ops(&model, m as u64);
                let locations = batch.choose_locations(m, &mut self.master_rng);
                // …and retrieves the items with a standard repartition join:
                // BOTH the location set Q and the whole batch are shuffled,
                // paying serialize/write/read per item plus the wire bytes.
                let batch_bytes: u64 = (0..k)
                    .map(|j| {
                        batch
                            .partition(j)
                            .iter()
                            .map(|x| (x.wire_size() + WIRE_ENVELOPE_BYTES) as u64)
                            .sum::<u64>()
                    })
                    .sum();
                cost.network(&model, 2 * k as u64, 16 * m as u64);
                cost.bulk(&model, batch_bytes);
                let sizes: Vec<u64> = batch.sizes().iter().map(|&s| s as u64).collect();
                cost.parallel_phase_at(&model, &sizes, model.shuffle_per_item);
                let mut per_worker = vec![Vec::new(); k];
                for loc in locations {
                    per_worker[loc.partition]
                        .push(batch.partition(loc.partition)[loc.position].clone());
                }
                per_worker
            }
            Strategy::CentKvCoLocatedJoin | Strategy::CentCoPartitioned => {
                // Master generates m slot numbers, ships only the (small)
                // co-partitioned location set Q (Figure 6(a)); the
                // co-located join itself happens in the apply phase.
                cost.master_ops(&model, m as u64);
                let locations = batch.choose_locations(m, &mut self.master_rng);
                cost.network(&model, k as u64, 16 * m as u64);
                let mut per_worker = vec![Vec::new(); k];
                for loc in locations {
                    per_worker[loc.partition]
                        .push(batch.partition(loc.partition)[loc.position].clone());
                }
                per_worker
            }
            Strategy::DistCoPartitioned => {
                // Master draws only per-worker counts (Figure 6(b)) and
                // ships k tiny messages; workers select locally with their
                // own jump-ahead RNG substreams (work charged in apply).
                cost.master_ops(&model, k as u64);
                let sizes: Vec<u64> = batch.sizes().iter().map(|&s| s as u64).collect();
                let counts = multivariate_hypergeometric(&mut self.master_rng, &sizes, m as u64);
                cost.network(&model, k as u64, 8 * k as u64);
                let mut rngs = std::mem::take(&mut self.worker_rngs);
                let mut jobs: Vec<(Vec<T>, Xoshiro256PlusPlus, u64)> = batch
                    .sizes()
                    .iter()
                    .enumerate()
                    .map(|(j, _)| {
                        (
                            batch.partition(j).to_vec(),
                            std::mem::replace(&mut rngs[j], Xoshiro256PlusPlus::seed_from_u64(0)),
                            counts[j],
                        )
                    })
                    .collect();
                let picked: Vec<Vec<T>> =
                    self.pool.run_over(&mut jobs, |_, (items, rng, count)| {
                        draw_without_replacement(items, *count as usize, rng)
                    });
                for (j, (_, rng, _)) in jobs.into_iter().enumerate() {
                    rngs[j] = rng;
                }
                self.worker_rngs = rngs;
                picked
            }
        }
    }

    /// Saturated→saturated replacement: delete `m` uniform victims, insert
    /// the `m` selected batch items.
    fn replace_full(&mut self, inserts: Vec<Vec<T>>, cost: &mut CostTracker) {
        let model = self.cfg.cost_model;
        let m: usize = inserts.iter().map(Vec::len).sum();
        let pick_counts: Vec<u64> = inserts.iter().map(|v| v.len() as u64).collect();
        match &mut self.store {
            Store::Kv(kv) => {
                // Workers retrieve their picks (co-located probe); for RJ
                // the shuffle phase was already charged in select_inserts.
                if self.cfg.strategy == Strategy::CentKvCoLocatedJoin {
                    cost.parallel_phase(&model, &pick_counts);
                }
                // Master picks companion destination slots; each insert item
                // then crosses the network to its KV node, overwriting a
                // victim (delete + insert in one op).
                cost.master_ops(&model, m as u64);
                let flat: Vec<T> = inserts.into_iter().flatten().collect();
                kv.replace_random(&flat, &mut self.master_rng, &model, cost);
            }
            Store::Cp(cp) => {
                // One fused stage over the co-partitioned reservoir: each
                // worker retrieves its picks, deletes its victims, appends
                // its inserts — no data items cross the network.
                let delete_counts: Vec<u64> = match self.cfg.strategy {
                    Strategy::DistCoPartitioned => {
                        cost.master_ops(&model, self.cfg.workers as u64);
                        let sizes: Vec<u64> = cp.sizes().iter().map(|&s| s as u64).collect();
                        let counts =
                            multivariate_hypergeometric(&mut self.master_rng, &sizes, m as u64);
                        cp.delete_counts(&counts, &mut self.worker_rngs, &model, cost);
                        counts
                    }
                    _ => {
                        let (_, counts) = cp.delete_slots(m, &mut self.master_rng, &model, cost);
                        counts
                    }
                };
                let fused: Vec<u64> = pick_counts
                    .iter()
                    .zip(&delete_counts)
                    .map(|(&a, &b)| 2 * a + b)
                    .collect();
                cost.parallel_phase(&model, &fused);
                cp.insert_local(inserts);
            }
        }
    }

    /// Accept an entire batch as full items (unsaturated transitions).
    fn insert_batch_full(&mut self, batch: &Partitioned<T>, cost: &mut CostTracker) {
        let model = self.cfg.cost_model;
        let sizes: Vec<u64> = batch.sizes().iter().map(|&s| s as u64).collect();
        cost.parallel_phase(&model, &sizes);
        match &mut self.store {
            Store::Kv(kv) => {
                let flat: Vec<T> = batch.collect();
                kv.append(&flat, &model, cost);
            }
            Store::Cp(cp) => {
                let per_worker: Vec<Vec<T>> = (0..batch.num_partitions())
                    .map(|j| batch.partition(j).to_vec())
                    .collect();
                cp.insert_local(per_worker);
            }
        }
    }

    /// Remove `count` uniformly chosen full items, returning them. Only
    /// the KV strategies can fail (they decode stored bytes); the
    /// co-partitioned reservoir holds `T` directly.
    fn remove_random_full(
        &mut self,
        count: usize,
        cost: &mut CostTracker,
    ) -> Result<Vec<T>, CheckpointError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let model = self.cfg.cost_model;
        match &mut self.store {
            Store::Kv(kv) => {
                cost.master_ops(&model, count as u64);
                kv.shrink_random(count, &mut self.master_rng, &model, cost)
            }
            Store::Cp(cp) => match self.cfg.strategy {
                Strategy::DistCoPartitioned => {
                    cost.master_ops(&model, self.cfg.workers as u64);
                    let sizes: Vec<u64> = cp.sizes().iter().map(|&s| s as u64).collect();
                    let counts =
                        multivariate_hypergeometric(&mut self.master_rng, &sizes, count as u64);
                    let removed = cp.delete_counts(&counts, &mut self.worker_rngs, &model, cost);
                    cost.parallel_phase(&model, &counts);
                    Ok(removed)
                }
                _ => {
                    let (removed, counts) =
                        cp.delete_slots(count, &mut self.master_rng, &model, cost);
                    cost.parallel_phase(&model, &counts);
                    Ok(removed)
                }
            },
        }
    }

    /// Push an item back into the distributed full set (a swap's displaced
    /// partial item).
    fn add_full(&mut self, item: T, cost: &mut CostTracker) {
        let model = self.cfg.cost_model;
        match &mut self.store {
            Store::Kv(kv) => kv.append(&[item], &model, cost),
            Store::Cp(cp) => {
                // One control+data message to a uniformly chosen worker.
                cost.network(&model, 1, (item.wire_size() + WIRE_ENVELOPE_BYTES) as u64);
                let j = self.master_rng.gen_range(0..cp.num_partitions());
                cp.insert_local({
                    let mut v: Vec<Vec<T>> = (0..cp.num_partitions()).map(|_| Vec::new()).collect();
                    v[j].push(item);
                    v
                });
            }
        }
    }

    /// Drop every stored full item (total weight decayed to zero).
    fn clear_all(&mut self, cost: &mut CostTracker) -> Result<(), CheckpointError> {
        let count = self.stored_full_items();
        if count > 0 {
            self.remove_random_full(count, cost)?;
        }
        self.partial = None;
        self.sample_weight = 0.0;
        Ok(())
    }

    /// Distributed mirror of Algorithm 3: downsample the latent sample from
    /// weight `C = sample_weight` to `target`, master-driven. Statistically
    /// identical to `tbs_core::downsample::downsample`.
    fn dist_downsample(
        &mut self,
        target: f64,
        cost: &mut CostTracker,
    ) -> Result<(), CheckpointError> {
        let c = self.sample_weight;
        let c_prime = target;
        assert!(
            c_prime > 0.0 && c_prime <= c,
            "downsample target must lie in (0, C]; target={c_prime}, C={c}"
        );
        let frac_c = c - c.floor();
        let frac_cp = c_prime - c_prime.floor();
        let floor_c = c.floor() as usize;
        let floor_cp = c_prime.floor() as usize;
        let u: f64 = self.master_rng.gen();

        if floor_cp == 0 {
            let keep_partial_prob = if c > 0.0 { frac_c / c } else { 0.0 };
            if u > keep_partial_prob {
                // Swap1 then clear: a uniform full item becomes the partial;
                // the old partial is discarded with the cleared set.
                let swapped = self.remove_random_full(1, cost)?.pop();
                self.partial = swapped;
            }
            let remaining = self.stored_full_items();
            if remaining > 0 {
                self.remove_random_full(remaining, cost)?;
            }
        } else if floor_cp == floor_c {
            // INVARIANT (this and both branches below): ⌊C′⌋ ≥ 1 here, and
            // a latent sample of weight C stores exactly ⌊C⌋ ≥ ⌊C′⌋ full
            // items — so after retaining ⌊C′⌋ (or ⌊C′⌋ + 1) of them, at
            // least one full item always remains for the Swap1/Move1 pop.
            let rho = (1.0 - (c_prime / c) * frac_c) / (1.0 - frac_cp);
            if u > rho {
                let swapped = self.remove_random_full(1, cost)?.pop().expect("full item");
                if let Some(old) = self.partial.replace(swapped) {
                    self.add_full(old, cost);
                }
            }
        } else if u <= (c_prime / c) * frac_c {
            // Retain ⌊C′⌋ full items, then Swap1.
            self.remove_random_full(floor_c - floor_cp, cost)?;
            let swapped = self.remove_random_full(1, cost)?.pop().expect("full item");
            if let Some(old) = self.partial.replace(swapped) {
                self.add_full(old, cost);
            }
        } else {
            // Retain ⌊C′⌋ + 1 full items, then Move1 (old partial dropped).
            self.remove_random_full(floor_c - floor_cp - 1, cost)?;
            let swapped = self.remove_random_full(1, cost)?.pop().expect("full item");
            self.partial = Some(swapped);
        }

        self.sample_weight = c_prime;
        if frac_cp == 0.0 {
            self.partial = None;
        }
        Ok(())
    }

    /// Serialize the full sampler state — configuration, weights, RNG
    /// substream positions, partial item, reservoir contents — into a
    /// self-contained checkpoint blob (§5.1 fault tolerance). Restoring
    /// with [`DRTbs::restore`] continues the stream bit-identically.
    pub fn checkpoint(&self) -> bytes::Bytes {
        use tbs_core::checkpoint::Writer;
        let mut w = Writer::new();
        // Configuration.
        w.put_f64(self.cfg.lambda);
        w.put_u64(self.cfg.capacity as u64);
        w.put_u64(self.cfg.workers as u64);
        w.put_u64(self.cfg.kv_nodes as u64);
        w.put_u8(match self.cfg.strategy {
            Strategy::CentKvRepartitionJoin => 0,
            Strategy::CentKvCoLocatedJoin => 1,
            Strategy::CentCoPartitioned => 2,
            Strategy::DistCoPartitioned => 3,
        });
        w.put_u8(u8::from(self.cfg.threaded));
        let m = &self.cfg.cost_model;
        for v in [
            m.net_latency_per_msg,
            m.net_bytes_per_sec,
            m.master_per_slot,
            m.worker_per_item,
            m.shuffle_per_item,
            m.per_phase_overhead,
            m.kv_per_op,
        ] {
            w.put_f64(v);
        }
        // Scalar sampler state.
        w.put_f64(self.total_weight);
        w.put_f64(self.sample_weight);
        w.put_u64(self.steps);
        // RNG substream positions.
        w.put_rng_state(self.master_rng.state());
        w.put_u32(self.worker_rngs.len() as u32);
        for rng in &self.worker_rngs {
            w.put_rng_state(rng.state());
        }
        // Partial item.
        match &self.partial {
            Some(p) => {
                w.put_u8(1);
                w.put_item(p);
            }
            None => w.put_u8(0),
        }
        // Reservoir contents.
        match &self.store {
            Store::Kv(kv) => {
                w.put_u8(0);
                let entries = kv.snapshot();
                w.put_u64(entries.len() as u64);
                for (slot, value) in entries {
                    w.put_u64(slot);
                    w.put_bytes(&value);
                }
            }
            Store::Cp(cp) => {
                w.put_u8(1);
                w.put_u32(cp.num_partitions() as u32);
                for j in 0..cp.num_partitions() {
                    let part = cp.partition(j);
                    w.put_u32(part.len() as u32);
                    for item in part {
                        w.put_item(item);
                    }
                }
            }
        }
        w.finish()
    }

    /// Rebuild a sampler from a checkpoint blob created by
    /// [`DRTbs::checkpoint`].
    pub fn restore(blob: bytes::Bytes) -> Result<Self, tbs_core::checkpoint::CheckpointError> {
        use tbs_core::checkpoint::{CheckpointError, Reader};
        let mut r = Reader::new(blob)?;
        let lambda = r.get_f64()?;
        let capacity = r.get_u64()? as usize;
        let workers = r.get_u64()? as usize;
        let kv_nodes = r.get_u64()? as usize;
        let strategy = match r.get_u8()? {
            0 => Strategy::CentKvRepartitionJoin,
            1 => Strategy::CentKvCoLocatedJoin,
            2 => Strategy::CentCoPartitioned,
            3 => Strategy::DistCoPartitioned,
            _ => return Err(CheckpointError::Corrupt("strategy tag")),
        };
        let threaded = r.get_u8()? == 1;
        let cost_model = CostModel {
            net_latency_per_msg: r.get_f64()?,
            net_bytes_per_sec: r.get_f64()?,
            master_per_slot: r.get_f64()?,
            worker_per_item: r.get_f64()?,
            shuffle_per_item: r.get_f64()?,
            per_phase_overhead: r.get_f64()?,
            kv_per_op: r.get_f64()?,
        };
        let cfg = DrtbsConfig {
            lambda,
            capacity,
            workers,
            kv_nodes,
            strategy,
            cost_model,
            threaded,
        };

        let total_weight = r.get_f64()?;
        let sample_weight = r.get_f64()?;
        let steps = r.get_u64()?;

        let master_rng = Xoshiro256PlusPlus::from_state(r.get_rng_state()?);
        let n_rngs = r.get_u32()? as usize;
        if n_rngs != workers {
            return Err(CheckpointError::Corrupt("worker rng count"));
        }
        let mut worker_rngs = Vec::with_capacity(n_rngs);
        for _ in 0..n_rngs {
            worker_rngs.push(Xoshiro256PlusPlus::from_state(r.get_rng_state()?));
        }

        let partial = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_item()?),
            _ => return Err(CheckpointError::Corrupt("partial tag")),
        };

        let store = match r.get_u8()? {
            0 => {
                let count = r.get_u64()? as usize;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let slot = r.get_u64()?;
                    let value = r.get_bytes()?;
                    // Reject undecodable reservoir payloads here, at the
                    // trust boundary, so a hostile blob cannot smuggle
                    // bytes that only fail later inside the ingest path.
                    if T::try_decode(&value).is_none() {
                        return Err(CheckpointError::Corrupt("kv item payload"));
                    }
                    entries.push((slot, value));
                }
                Store::Kv(KvReservoir::restore(kv_nodes, entries))
            }
            1 => {
                let k = r.get_u32()? as usize;
                if k != workers {
                    return Err(CheckpointError::Corrupt("partition count"));
                }
                let mut cp = CoPartitionedReservoir::new(k);
                let mut per_worker = Vec::with_capacity(k);
                for _ in 0..k {
                    let count = r.get_u32()? as usize;
                    let mut part = Vec::with_capacity(count);
                    for _ in 0..count {
                        part.push(r.get_item()?);
                    }
                    per_worker.push(part);
                }
                cp.insert_local(per_worker);
                Store::Cp(cp)
            }
            _ => return Err(CheckpointError::Corrupt("store tag")),
        };

        Ok(Self {
            pool: if cfg.threaded {
                WorkerPool::threaded()
            } else {
                WorkerPool::sequential()
            },
            cfg,
            store,
            partial,
            sample_weight,
            total_weight,
            master_rng,
            worker_rngs,
            steps,
            last_cost: CostTracker::new(),
            cumulative_cost: CostTracker::new(),
        })
    }

    /// Collect and realize the current sample (driver-side). Fails only
    /// when a KV-stored value no longer decodes as `T` — see
    /// [`DRTbs::observe_batch`] for when that can happen.
    pub fn realize_sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Vec<T>, CheckpointError> {
        let model = self.cfg.cost_model;
        let mut cost = CostTracker::new();
        let mut out = match &self.store {
            Store::Kv(kv) => kv.collect(&model, &mut cost)?,
            Store::Cp(cp) => cp.collect(&model, &mut cost),
        };
        if let Some(p) = &self.partial {
            let frac = self.sample_weight - self.sample_weight.floor();
            if rng.gen::<f64>() < frac {
                out.push(p.clone());
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_schedule(strategy: Strategy, schedule: &[u64], seed: u64) -> DRTbs<u64> {
        let cfg = DrtbsConfig::new(0.1, 50, 4, strategy);
        let mut d = DRTbs::new(cfg, seed);
        let mut next = 0u64;
        for &b in schedule {
            let batch: Vec<u64> = (0..b)
                .map(|_| {
                    next += 1;
                    next
                })
                .collect();
            d.observe_batch(batch).unwrap();
        }
        d
    }

    #[test]
    fn weight_recursion_matches_all_strategies() {
        let schedule = [30u64, 0, 80, 5, 5, 0, 0, 120, 10];
        for strategy in Strategy::all() {
            let d = run_schedule(strategy, &schedule, 7);
            let mut w = 0.0f64;
            for &b in &schedule {
                w = w * (-0.1f64).exp() + b as f64;
            }
            assert!(
                (d.total_weight() - w).abs() < 1e-6,
                "{strategy:?}: weight {} vs {w}",
                d.total_weight()
            );
            assert!(
                (d.sample_weight() - w.min(50.0)).abs() < 1e-6,
                "{strategy:?}: C {} vs {}",
                d.sample_weight(),
                w.min(50.0)
            );
        }
    }

    #[test]
    fn sample_never_exceeds_capacity() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        for strategy in Strategy::all() {
            let d = run_schedule(strategy, &[10, 200, 0, 0, 37, 90, 1, 0, 0, 0, 0, 250], 11);
            for _ in 0..20 {
                assert!(
                    d.realize_sample(&mut rng).unwrap().len() <= 50,
                    "{strategy:?}"
                );
            }
        }
    }

    #[test]
    fn full_item_count_tracks_floor_of_weight() {
        for strategy in Strategy::all() {
            let d = run_schedule(strategy, &[8, 0, 0, 3, 0, 60, 0, 0, 0, 0], 3);
            assert_eq!(
                d.stored_full_items(),
                d.sample_weight().floor() as usize,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn matches_single_node_rtbs_size_trajectory() {
        // C_t is a deterministic function of the batch sizes, so the
        // distributed and single-node samplers must agree exactly.
        let schedule = [20u64, 20, 0, 0, 100, 0, 5, 5, 5, 0, 0, 0, 0, 40];
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut single: tbs_core::RTbs<u64> = tbs_core::RTbs::new(0.1, 50);
        let cfg = DrtbsConfig::new(0.1, 50, 4, Strategy::DistCoPartitioned);
        let mut dist = DRTbs::new(cfg, 9);
        for (t, &b) in schedule.iter().enumerate() {
            let batch: Vec<u64> = (0..b).map(|i| t as u64 * 1000 + i).collect();
            single.observe(batch.clone(), &mut rng);
            dist.observe_batch(batch).unwrap();
            assert!(
                (single.sample_weight() - dist.sample_weight()).abs() < 1e-9,
                "diverged at t={t}"
            );
            assert!((single.total_weight() - dist.total_weight()).abs() < 1e-9);
        }
    }

    #[test]
    fn inclusion_probabilities_match_theory() {
        // Monte-Carlo check of Pr[i ∈ S_t] = (C_t/W_t)·w_t(i) for the
        // distributed sampler (DistCP exercises multivariate-hypergeometric
        // decisions).
        let lambda = 0.4f64;
        let n = 6usize;
        let schedule: &[u64] = &[4, 4, 0, 8, 3];
        let trials = 40_000usize;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(13);
        let mut appear = vec![0u64; schedule.len()];
        let mut w_final = 0.0;
        let mut c_final = 0.0;
        for trial in 0..trials {
            let cfg = DrtbsConfig::new(lambda, n, 3, Strategy::DistCoPartitioned);
            let mut d: DRTbs<(u32, u32)> = DRTbs::new(cfg, trial as u64);
            for (bi, &b) in schedule.iter().enumerate() {
                d.observe_batch((0..b as u32).map(|i| (bi as u32, i)).collect())
                    .unwrap();
            }
            w_final = d.total_weight();
            c_final = d.sample_weight();
            for (bi, _) in d.realize_sample(&mut rng).unwrap() {
                appear[bi as usize] += 1;
            }
        }
        let t_final = schedule.len() as f64 - 1.0;
        for (bi, &b) in schedule.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let w_item = (-lambda * (t_final - bi as f64)).exp();
            let expect = (c_final / w_final) * w_item;
            let phat = appear[bi] as f64 / (trials as f64 * b as f64);
            let tol = 4.5 * (expect * (1.0 - expect) / (trials as f64 * b as f64)).sqrt() + 0.004;
            assert!(
                (phat - expect).abs() < tol,
                "batch {bi}: phat {phat} vs expect {expect}"
            );
        }
    }

    #[test]
    fn kv_strategies_ship_items_cp_strategies_do_not() {
        // Steady saturated state: KV pays item bytes per batch; CP only
        // control bytes.
        let mut costs = std::collections::HashMap::new();
        for strategy in Strategy::all() {
            let cfg = DrtbsConfig::new(0.07, 1000, 4, strategy);
            let mut d = DRTbs::new(cfg, 21);
            // Saturate.
            d.observe_batch((0..2000u64).collect()).unwrap();
            // Measure one steady-state batch.
            let cost = d.observe_batch((0..1000u64).collect()).unwrap();
            costs.insert(strategy.label(), cost.bytes_shipped);
        }
        let rj = costs["D-R-TBS (Cent,KV,RJ)"];
        let cj = costs["D-R-TBS (Cent,KV,CJ)"];
        let cp = costs["D-R-TBS (Cent,CP)"];
        let dist = costs["D-R-TBS (Dist,CP)"];
        assert!(rj > cj, "RJ ({rj}) must ship more than CJ ({cj})");
        assert!(cj > cp, "CJ ({cj}) must ship more than CP ({cp})");
        assert!(cp > dist, "CP ({cp}) must ship more than Dist ({dist})");
    }

    #[test]
    fn figure7_cost_ordering() {
        // Simulated per-batch times must reproduce Figure 7's ordering:
        // RJ > CJ > CP > Dist.
        let mut elapsed = Vec::new();
        for strategy in Strategy::all() {
            let cfg = DrtbsConfig::new(0.07, 20_000, 8, strategy);
            let mut d = DRTbs::new(cfg, 33);
            d.observe_batch((0..30_000u64).collect()).unwrap(); // saturate
            let mut total = 0.0;
            for _ in 0..5 {
                total += d.observe_batch((0..10_000u64).collect()).unwrap().elapsed;
            }
            elapsed.push((strategy.label(), total / 5.0));
        }
        for pair in elapsed.windows(2) {
            assert!(
                pair[0].1 > pair[1].1,
                "expected {} ({:.4}s) slower than {} ({:.4}s)",
                pair[0].0,
                pair[0].1,
                pair[1].0,
                pair[1].1
            );
        }
    }

    #[test]
    fn threaded_matches_capacity_invariants() {
        let mut cfg = DrtbsConfig::new(0.1, 100, 4, Strategy::DistCoPartitioned);
        cfg.threaded = true;
        let mut d = DRTbs::new(cfg, 17);
        for t in 0..30u64 {
            let b = [50u64, 0, 200, 10][t as usize % 4];
            d.observe_batch((0..b).collect()).unwrap();
            assert!(d.sample_weight() <= 100.0 + 1e-9);
            assert_eq!(d.stored_full_items(), d.sample_weight().floor() as usize);
        }
    }

    #[test]
    fn empty_stream_decays_to_empty() {
        let cfg = DrtbsConfig::new(1.0, 10, 2, Strategy::CentCoPartitioned);
        let mut d = DRTbs::new(cfg, 2);
        d.observe_batch((0..10u64).collect()).unwrap();
        for _ in 0..60 {
            d.observe_batch(Vec::new()).unwrap();
        }
        assert!(d.total_weight() < 1e-6);
        assert!(d.stored_full_items() <= 1);
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;

    fn feed(d: &mut DRTbs<u64>, schedule: &[u64], offset: u64) {
        for (t, &b) in schedule.iter().enumerate() {
            let base = (offset + t as u64) * 1000;
            d.observe_batch((base..base + b).collect()).unwrap();
        }
    }

    #[test]
    fn restore_resumes_bit_identically_for_all_strategies() {
        // Run A: 8 batches straight through. Run B: 4 batches, checkpoint,
        // restore, 4 more. Final reservoir contents must be identical sets
        // and all scalar state equal.
        let first = [30u64, 0, 80, 5];
        let second = [12u64, 90, 0, 7];
        for strategy in Strategy::all() {
            let cfg = DrtbsConfig::new(0.2, 40, 3, strategy);
            let mut a: DRTbs<u64> = DRTbs::new(cfg, 99);
            feed(&mut a, &first, 0);
            feed(&mut a, &second, 4);

            let mut b: DRTbs<u64> = DRTbs::new(cfg, 99);
            feed(&mut b, &first, 0);
            let blob = b.checkpoint();
            let mut b: DRTbs<u64> = DRTbs::restore(blob).expect("restore");
            feed(&mut b, &second, 4);

            assert_eq!(a.steps, b.steps, "{strategy:?}");
            assert!((a.total_weight() - b.total_weight()).abs() < 1e-12);
            assert!((a.sample_weight() - b.sample_weight()).abs() < 1e-12);
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
            let mut sa = a.realize_sample(&mut rng).unwrap();
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
            let mut sb = b.realize_sample(&mut rng).unwrap();
            sa.sort_unstable();
            sb.sort_unstable();
            assert_eq!(sa, sb, "{strategy:?}: samples diverged after restore");
        }
    }

    #[test]
    fn checkpoint_preserves_partial_item() {
        // Drive into an unsaturated fractional state so the partial item
        // exists, then round-trip.
        let cfg = DrtbsConfig::new(0.5, 50, 2, Strategy::CentCoPartitioned);
        let mut d: DRTbs<u64> = DRTbs::new(cfg, 7);
        d.observe_batch((0..10).collect()).unwrap();
        d.observe_batch(Vec::new()).unwrap(); // decay → fractional weight
        assert!(d.sample_weight().fract() > 0.0, "need a fractional state");
        let blob = d.checkpoint();
        let restored: DRTbs<u64> = DRTbs::restore(blob).expect("restore");
        assert_eq!(
            restored.stored_full_items(),
            restored.sample_weight().floor() as usize
        );
        assert!((restored.sample_weight() - d.sample_weight()).abs() < 1e-12);
    }

    #[test]
    fn corrupted_blob_is_rejected() {
        let cfg = DrtbsConfig::new(0.1, 10, 2, Strategy::DistCoPartitioned);
        let mut d: DRTbs<u64> = DRTbs::new(cfg, 7);
        d.observe_batch((0..20).collect()).unwrap();
        let blob = d.checkpoint();
        // Flip the magic.
        let mut bad = blob.to_vec();
        bad[0] ^= 0xFF;
        assert!(DRTbs::<u64>::restore(bytes::Bytes::from(bad)).is_err());
        // Truncate mid-stream.
        let truncated = blob.slice(0..blob.len() / 2);
        assert!(DRTbs::<u64>::restore(truncated).is_err());
    }

    #[test]
    fn restore_rejects_undecodable_reservoir_payloads() {
        // Structurally valid blob, wrong item width: the stored 8-byte
        // u64 values cannot be [f64; 2] (16 bytes). Restore must reject
        // the blob with a typed error at the trust boundary instead of
        // letting the mismatch panic later inside the ingest path.
        let cfg = DrtbsConfig::new(0.1, 10, 2, Strategy::CentKvCoLocatedJoin);
        let mut d: DRTbs<u64> = DRTbs::new(cfg, 7);
        d.observe_batch((0..20).collect()).unwrap();
        let blob = d.checkpoint();
        assert!(matches!(
            DRTbs::<[f64; 2]>::restore(blob),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn checkpoint_is_deterministic() {
        let cfg = DrtbsConfig::new(0.1, 20, 2, Strategy::CentKvCoLocatedJoin);
        let mut d: DRTbs<u64> = DRTbs::new(cfg, 3);
        d.observe_batch((0..50).collect()).unwrap();
        // KV snapshots iterate hash maps — order may vary between calls in
        // principle, so compare restored state rather than raw bytes.
        let r1: DRTbs<u64> = DRTbs::restore(d.checkpoint()).unwrap();
        let r2: DRTbs<u64> = DRTbs::restore(d.checkpoint()).unwrap();
        assert_eq!(r1.stored_full_items(), r2.stored_full_items());
        assert_eq!(r1.total_weight(), r2.total_weight());
    }
}
