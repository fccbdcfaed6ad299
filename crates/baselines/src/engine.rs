//! Shared discrete-event engine for the single-model baseline systems.
//!
//! Vanilla, Nirvana and Pinecone all serve from one FIFO queue onto a
//! homogeneous pool of large-model workers; they differ only in how a
//! request is classified and what artifact a completed job produces. That
//! policy is the [`BaselinePolicy`] trait; the engine supplies the clock,
//! queueing, workers and metrics, reusing the exact types the MoDM system
//! reports with so results are directly comparable.

use modm_cluster::{ClusterEnergy, GpuKind, Worker};
use modm_core::report::{
    fold_terminals, Outcome, ServingReport, Terminal, TerminalKind, TerminalLog,
};
use modm_core::RunOptions;
use modm_diffusion::{GeneratedImage, ModelId, K_CHOICES};
use modm_embedding::Embedding;
use modm_metrics::{LatencyReport, QualityAggregator, SloThresholds, ThroughputReport};
use modm_simkit::{EventQueue, FifoQueue, SimRng, SimTime};
use modm_workload::{QosClass, Request, TenantId, Trace};

/// What a completed job should produce.
#[derive(Debug, Clone)]
pub enum JobPayload {
    /// Full from-scratch generation.
    FullGeneration,
    /// Resume denoising from a cached latent (Nirvana), skipping `k` steps.
    ResumeLatent {
        /// The latent to resume from.
        latent: modm_diffusion::Latent,
        /// Steps skipped.
        k: u32,
    },
    /// Serve a cached image verbatim (Pinecone); costs zero steps.
    ServeCached {
        /// The image to return.
        image: GeneratedImage,
    },
}

/// A classified request ready for the queue.
#[derive(Debug, Clone)]
pub struct BaselineJob {
    /// Originating request id.
    pub request_id: u64,
    /// Arrival time.
    pub arrival: SimTime,
    /// The prompt's text embedding.
    pub prompt_embedding: Embedding,
    /// Denoising steps to run (0 = served instantly without a GPU).
    pub steps: u32,
    /// Steps skipped thanks to the policy's cache (0 on a miss).
    pub k: u32,
    /// Whether the policy counts this as a cache hit.
    pub is_hit: bool,
    /// What to produce at completion.
    pub payload: JobPayload,
}

/// A baseline's serving policy.
pub trait BaselinePolicy {
    /// The single model this baseline runs.
    fn model(&self) -> ModelId;

    /// Warm the policy's cache with one request (never timed or measured).
    fn warm(&mut self, request: &Request, rng: &mut SimRng);

    /// Classifies an arriving request into a job.
    fn classify(&mut self, now: SimTime, request: &Request, rng: &mut SimRng) -> BaselineJob;

    /// Materializes the image for a completed job.
    fn produce(&mut self, job: &BaselineJob, rng: &mut SimRng) -> GeneratedImage;

    /// Observes a completion (e.g. to populate the cache).
    fn on_complete(&mut self, now: SimTime, job: &BaselineJob, image: &GeneratedImage);

    /// Cache statistics for the report (empty for cacheless baselines).
    fn cache_stats(&self) -> modm_cache::CacheStats {
        modm_cache::CacheStats::new()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival(usize),
    WorkerFree(usize),
}

/// RNG seed of every baseline run.
const BASELINE_SEED: u64 = 0xBA5E;

/// Runs a [`BaselinePolicy`] over a trace on a homogeneous GPU pool.
pub struct BaselineEngine<P> {
    policy: P,
    gpu: GpuKind,
    num_gpus: usize,
}

impl<P: BaselinePolicy> BaselineEngine<P> {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus == 0`.
    pub fn new(policy: P, gpu: GpuKind, num_gpus: usize) -> Self {
        assert!(num_gpus > 0, "need at least one GPU");
        BaselineEngine {
            policy,
            gpu,
            num_gpus,
        }
    }

    /// Access to the policy (e.g. to inspect caches after a run).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Serves the trace with default options.
    pub fn run(&mut self, trace: &Trace) -> ServingReport {
        self.run_with(trace, RunOptions::default())
    }

    /// Serves the trace.
    ///
    /// # Panics
    ///
    /// Panics if `options.warmup >= trace.len()`.
    pub fn run_with(&mut self, trace: &Trace, options: RunOptions) -> ServingReport {
        assert!(
            options.warmup < trace.len(),
            "warmup consumes the whole trace"
        );
        let mut rng = SimRng::seed_from(BASELINE_SEED);
        for req in trace.iter().take(options.warmup) {
            self.policy.warm(req, &mut rng);
        }
        let serving = &trace.requests()[options.warmup..];
        let base = serving.first().map_or(SimTime::ZERO, |r| r.arrival);
        let requests: Vec<Request> = serving
            .iter()
            .map(|r| {
                let arrival = if options.saturate {
                    SimTime::ZERO
                } else {
                    SimTime::ZERO + r.arrival.saturating_since(base)
                };
                Request::new(r.id, r.prompt.clone(), arrival)
            })
            .collect();

        let model = self.policy.model();
        let mut workers: Vec<Worker> = (0..self.num_gpus)
            .map(|i| Worker::new(i, self.gpu, model))
            .collect();
        let mut in_flight: Vec<Option<BaselineJob>> = (0..self.num_gpus).map(|_| None).collect();
        let mut queue: FifoQueue<BaselineJob> = FifoQueue::new();
        let mut events = EventQueue::with_capacity(requests.len() + 64);
        // Under saturation, admit closed-loop (deep constant backlog) so
        // routing sees the cache as it fills; otherwise replay timestamps.
        let mut next_admission = if options.saturate {
            let initial = (self.num_gpus * 2).min(requests.len());
            for i in 0..initial {
                events.schedule(SimTime::ZERO, Event::Arrival(i));
            }
            initial
        } else {
            for (i, r) in requests.iter().enumerate() {
                events.schedule(r.arrival, Event::Arrival(i));
            }
            requests.len()
        };

        let mut terminals = TerminalLog::with_capacity(requests.len());
        let mut quality = QualityAggregator::new();
        while let Some((now, event)) = events.pop() {
            let finished = match event {
                Event::Arrival(i) => {
                    let job = self.policy.classify(now, &requests[i], &mut rng);
                    if job.steps == 0 {
                        // Served straight from the cache, no GPU involved.
                        Some(job)
                    } else {
                        queue.push(now, job);
                        None
                    }
                }
                Event::WorkerFree(w) => in_flight[w].take(),
            };
            if let Some(job) = finished {
                let image = self.policy.produce(&job, &mut rng);
                let served = Terminal {
                    arrival: job.arrival,
                    at: now,
                    node: 0,
                    tenant: TenantId::DEFAULT,
                    qos: QosClass::default(),
                    outcome: Outcome::new(TerminalKind::Served, job.is_hit.then_some(job.k)),
                };
                terminals.push(job.request_id, served);
                quality.record(&job.prompt_embedding, &image);
                self.policy.on_complete(now, &job, &image);
                if options.saturate && next_admission < requests.len() {
                    events.schedule(now, Event::Arrival(next_admission));
                    next_admission += 1;
                }
            }
            // Dispatch idle workers.
            for w in 0..workers.len() {
                if in_flight[w].is_some() || !workers[w].is_idle(now) {
                    continue;
                }
                let Some(queued) = queue.pop(now) else { break };
                let job = queued.item;
                let done = workers[w].assign(now, model, job.steps);
                events.schedule(done, Event::WorkerFree(w));
                in_flight[w] = Some(job);
            }
        }

        terminals.assert_covers(requests.iter().map(|r| r.id));
        let finished_at = terminals.finished_at();
        let energy = ClusterEnergy::aggregate(
            workers.iter().map(|w| (w.energy(), w.gpu())),
            SimTime::ZERO,
            finished_at,
        );
        // Baselines are tenant-blind: the fold lands every completion on
        // one default-tenant slice.
        let mut report = ServingReport {
            latency: LatencyReport::new(),
            throughput: ThroughputReport::new(),
            quality,
            energy,
            slo: SloThresholds::for_deployment(self.gpu, model),
            cache_stats: self.policy.cache_stats(),
            hits: 0,
            misses: 0,
            rejected: 0,
            shed: 0,
            k_histogram: [0; K_CHOICES.len()],
            allocation_series: Vec::new(),
            tenant_slices: Vec::new(),
            model_switches: 0,
            finished_at,
        };
        fold_terminals(&terminals, None, std::slice::from_mut(&mut report));
        report
    }
}
