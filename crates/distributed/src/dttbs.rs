//! D-T-TBS — distributed targeted-size time-biased sampling (§5.1).
//!
//! "Embarrassingly parallel, requiring no coordination": every worker
//! independently Bernoulli-downsamples its reservoir partition at rate
//! `p = e^{−λ}` and its local batch partition at rate `q`, then unions
//! them. A sum of independent `Binomial(n_j, p)` draws is exactly
//! `Binomial(Σn_j, p)`, so the distributed algorithm is distributionally
//! identical to single-node T-TBS — which the tests verify. One parallel
//! phase, no master work, no data over the network: this is why D-T-TBS is
//! the fastest bar in Figure 7 (and why it inherits T-TBS's breakdown when
//! the assumed mean batch size is wrong).

use crate::cluster::WorkerPool;
use crate::cost::{CostModel, CostTracker};
use crate::partition::Partitioned;
use rand::SeedableRng;
use tbs_core::util::retain_random;
use tbs_stats::binomial::binomial;
use tbs_stats::rng::Xoshiro256PlusPlus;

/// Configuration of a D-T-TBS instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DttbsConfig {
    /// Decay rate λ.
    pub lambda: f64,
    /// Target sample size n.
    pub target: usize,
    /// Assumed mean batch size b (must satisfy `b ≥ n(1 − e^{−λ})`).
    pub assumed_mean_batch: f64,
    /// Number of workers.
    pub workers: usize,
    /// Cluster cost constants.
    pub cost_model: CostModel,
    /// Run worker phases on real threads.
    pub threaded: bool,
}

impl DttbsConfig {
    /// Defaults mirroring §6.1.
    pub fn new(lambda: f64, target: usize, assumed_mean_batch: f64, workers: usize) -> Self {
        Self {
            lambda,
            target,
            assumed_mean_batch,
            workers,
            cost_model: CostModel::default(),
            threaded: false,
        }
    }
}

/// Distributed T-TBS instance (co-partitioned sample, distributed
/// decisions — the only configuration it needs).
pub struct DTTbs<T: Send + 'static> {
    cfg: DttbsConfig,
    /// Retention probability `p = e^{−λ}`.
    p: f64,
    /// Batch acceptance rate `q = n(1 − e^{−λ})/b`.
    q: f64,
    partitions: Vec<Vec<T>>,
    worker_rngs: Vec<Xoshiro256PlusPlus>,
    pool: WorkerPool,
    steps: u64,
    last_cost: CostTracker,
    cumulative_cost: CostTracker,
}

impl<T: Send + 'static> DTTbs<T> {
    /// Create an empty distributed T-TBS sampler.
    ///
    /// # Panics
    ///
    /// Panics if the feasibility condition `b ≥ n(1 − e^{−λ})` fails or the
    /// worker count is zero.
    pub fn new(cfg: DttbsConfig, seed: u64) -> Self {
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(
            cfg.lambda.is_finite() && cfg.lambda >= 0.0,
            "decay rate must be finite and non-negative"
        );
        let p = (-cfg.lambda).exp();
        let min_b = cfg.target as f64 * (1.0 - p);
        assert!(
            cfg.assumed_mean_batch >= min_b,
            "mean batch size {} below feasibility bound {min_b}",
            cfg.assumed_mean_batch
        );
        let q = if cfg.assumed_mean_batch > 0.0 {
            (min_b / cfg.assumed_mean_batch).min(1.0)
        } else {
            1.0
        };
        let base = Xoshiro256PlusPlus::seed_from_u64(seed);
        Self {
            p,
            q,
            partitions: (0..cfg.workers).map(|_| Vec::new()).collect(),
            worker_rngs: base.split_streams(cfg.workers),
            pool: if cfg.threaded {
                WorkerPool::threaded()
            } else {
                WorkerPool::sequential()
            },
            cfg,
            steps: 0,
            last_cost: CostTracker::new(),
            cumulative_cost: CostTracker::new(),
        }
    }

    /// Current total sample size.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Batch acceptance probability q.
    pub fn batch_acceptance(&self) -> f64 {
        self.q
    }

    /// Simulated cost of the most recent batch.
    pub fn last_cost(&self) -> CostTracker {
        self.last_cost
    }

    /// Simulated cost accumulated over all batches.
    pub fn cumulative_cost(&self) -> CostTracker {
        self.cumulative_cost
    }

    /// Process one arriving batch, returning its simulated cost.
    pub fn observe_batch(&mut self, batch: Vec<T>) -> CostTracker {
        let model = self.cfg.cost_model;
        let mut cost = CostTracker::new();
        let k = self.cfg.workers;
        let batch = Partitioned::from_items(batch, k);

        // Single embarrassingly-parallel phase: each worker touches its
        // local sample partition and its local batch partition.
        let work: Vec<u64> = (0..k)
            .map(|j| (self.partitions[j].len() + batch.partition(j).len()) as u64)
            .collect();
        cost.parallel_phase(&model, &work);

        let p = self.p;
        let q = self.q;
        // Pair each worker's sample partition with its batch slice and RNG.
        let mut jobs: Vec<(Vec<T>, Vec<T>, Xoshiro256PlusPlus)> = Vec::with_capacity(k);
        let mut batch = batch;
        for j in (0..k).rev() {
            let local_batch = std::mem::take(batch.partition_mut(j));
            let local_sample = std::mem::take(&mut self.partitions[j]);
            let rng = std::mem::replace(
                &mut self.worker_rngs[j],
                Xoshiro256PlusPlus::seed_from_u64(0),
            );
            jobs.push((local_sample, local_batch, rng));
        }
        jobs.reverse();

        self.pool
            .run_over(&mut jobs, move |_, (sample, incoming, rng)| {
                // Decay survivors: Binomial(|S_j|, p) retained.
                let keep = binomial(rng, sample.len() as u64, p) as usize;
                retain_random(sample, keep, rng);
                // Down-sample the local batch at rate q.
                let accept = binomial(rng, incoming.len() as u64, q) as usize;
                retain_random(incoming, accept, rng);
                sample.append(incoming);
            });

        for (j, (sample, _, rng)) in jobs.into_iter().enumerate() {
            self.partitions[j] = sample;
            self.worker_rngs[j] = rng;
        }

        self.steps += 1;
        self.last_cost = cost;
        self.cumulative_cost.merge(&cost);
        cost
    }

    /// Collect the current sample (driver-side).
    pub fn collect(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.partitions.iter().flatten().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equilibrium_matches_single_node_ttbs() {
        // Time-averaged size converges to the target n, like T-TBS.
        let cfg = DttbsConfig::new(0.1, 1000, 100.0, 4);
        let mut d = DTTbs::new(cfg, 1);
        for t in 0..300u64 {
            d.observe_batch((0..100).map(|i| t * 100 + i).collect());
        }
        let mut acc = 0.0;
        let rounds = 400;
        for t in 0..rounds {
            d.observe_batch((0..100).map(|i| t * 100 + i).collect());
            acc += d.len() as f64;
        }
        let mean = acc / rounds as f64;
        assert!((mean / 1000.0 - 1.0).abs() < 0.05, "mean size {mean}");
    }

    #[test]
    fn single_phase_and_zero_network() {
        let cfg = DttbsConfig::new(0.1, 100, 50.0, 4);
        let mut d = DTTbs::new(cfg, 2);
        let cost = d.observe_batch((0..50u64).collect());
        assert_eq!(cost.phases, 1, "must be a single parallel phase");
        assert_eq!(cost.bytes_shipped, 0, "no data may cross the network");
        assert_eq!(cost.master_time, 0.0, "no master work");
    }

    #[test]
    fn faster_than_every_drtbs_strategy() {
        // Figure 7: the grey D-T-TBS bar is the lowest.
        use crate::drtbs::{DRTbs, DrtbsConfig, Strategy};
        let mut slowest_ttbs = 0.0f64;
        let cfg = DttbsConfig::new(0.07, 20_000, 10_000.0, 8);
        let mut d = DTTbs::new(cfg, 3);
        d.observe_batch((0..30_000u64).collect());
        for _ in 0..5 {
            slowest_ttbs = slowest_ttbs.max(d.observe_batch((0..10_000u64).collect()).elapsed);
        }
        for strategy in Strategy::all() {
            let rcfg = DrtbsConfig::new(0.07, 20_000, 8, strategy);
            let mut r = DRTbs::new(rcfg, 4);
            r.observe_batch((0..30_000u64).collect()).unwrap();
            let elapsed = r.observe_batch((0..10_000u64).collect()).unwrap().elapsed;
            assert!(
                elapsed > slowest_ttbs,
                "{strategy:?} ({elapsed:.4}s) should be slower than D-T-TBS \
                 ({slowest_ttbs:.4}s)"
            );
        }
    }

    #[test]
    fn threaded_equals_sequential_size_statistics() {
        // Same seeds → same per-worker RNG streams → identical samples
        // regardless of threading.
        let mut cfg = DttbsConfig::new(0.1, 200, 100.0, 4);
        let mut seq = DTTbs::new(cfg, 5);
        cfg.threaded = true;
        let mut par = DTTbs::new(cfg, 5);
        for t in 0..50u64 {
            let batch: Vec<u64> = (0..100).map(|i| t * 100 + i).collect();
            seq.observe_batch(batch.clone());
            par.observe_batch(batch);
        }
        let mut a = seq.collect();
        let mut b = par.collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "threading changed the sampling outcome");
    }

    #[test]
    fn overflow_under_growing_batches() {
        // Inherits T-TBS's Figure-1(a) breakdown.
        let cfg = DttbsConfig::new(0.05, 1000, 100.0, 4);
        let mut d = DTTbs::new(cfg, 6);
        for t in 0..200u64 {
            d.observe_batch((0..100).map(|i| t * 100 + i).collect());
        }
        let mut b = 100.0f64;
        for t in 0..800u64 {
            b *= 1.004;
            d.observe_batch((0..b.round() as u64).map(|i| t * 10_000 + i).collect());
        }
        assert!(d.len() > 1500, "expected overflow, got {}", d.len());
    }

    #[test]
    #[should_panic(expected = "feasibility")]
    fn rejects_infeasible_config() {
        DTTbs::<u64>::new(DttbsConfig::new(0.5, 1000, 10.0, 2), 1);
    }
}
