//! The three closed-loop workloads: their inputs, their set-up through the
//! public serving stack (`Ferex` → `Ferex::replica_set` → `ServeLoop`), the
//! closed-loop clients, and the check of every served answer against the
//! exact digital nearest neighbour.

use crate::stats::{window_medians, Accounting, Checksum};
use crate::trace::Tracer;
use ferex_core::{
    Admission, Backend, BreakerState, CircuitConfig, CostModel, DistanceMetric, Ferex, FerexArray,
    FerexError, MutationPolicy, QuorumPolicy, RepairPolicy, ReplicaPolicy, Request, ServeLoop,
    ServePolicy, ServeSource,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Symbols per vector.
const DIM: usize = 64;
/// Bits per symbol.
const BITS: u32 = 2;
/// Served answers, in completion order, folded into the output checksum.
const CHECK_PREFIX: usize = 512;
/// Served answers whose recall is reported: a fixed prefix, so the figure
/// depends on the seed alone, never on how fast the host ran.
const RECALL_PREFIX: usize = 1000;
/// An untraced phase serves at least this many searches, the fewest that
/// support the p99 of `serve.sim_p99_ticks` under
/// `stats::supported_percentile`...
const MIN_SEARCHES: u64 = 1000;
/// ... and at least this many batches, enough for several windows.
const MIN_BATCHES: u64 = 100;
/// Batches per window, at least. Searches served in one batch share its
/// latency, so a percentile's "ten samples beyond" must be ten batches: 20
/// batches support a window's p50.
const WINDOW_BATCHES: usize = 20;
/// Most windows a phase is cut into for its end-to-end median.
const MAX_WINDOWS: usize = 10;
/// The traced phase serves at least this many searches; its per-layer
/// figures are means, which need fewer samples than a p99.
const MIN_TRACED_SEARCHES: u64 = 100;
/// A workload that writes makes at least this many writes per phase.
const MIN_WRITES: u64 = 100;
/// Searches served between two `ServeLoop::maintenance` calls.
const MAINTENANCE_EVERY: u64 = 128;
/// Serving polls between two traced scrub samples.
const SCRUB_SAMPLE_EVERY: u64 = 64;
/// Most scrub samples one traced phase takes.
const SCRUB_SAMPLES: u64 = 5;
/// Lowest recall a Noisy workload may serve before the run counts as wrong.
const NOISY_RECALL_FLOOR: f64 = 0.9;

/// One workload: array shape, serving policy and client population.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub metric: DistanceMetric,
    pub noisy: bool,
    /// Live rows at the start of the run.
    pub rows: usize,
    /// Slot-table capacity when the array takes online writes.
    pub capacity: Option<usize>,
    pub replicas: usize,
    pub reads: usize,
    pub agree: usize,
    pub target_batch: usize,
    pub queue_capacity: usize,
    /// Requests each tenant keeps outstanding (one closed-loop client per
    /// outstanding request).
    pub windows: &'static [usize],
    /// Admission priority per tenant.
    pub priorities: &'static [u32],
    /// Deadline in full-batch service times; 0 means no deadline.
    pub deadline_batches: u64,
    /// Searches served per write; 0 means the workload never writes.
    pub searches_per_write: u64,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "b1-hamming-10k",
        metric: DistanceMetric::Hamming,
        noisy: false,
        rows: 10_000,
        capacity: None,
        replicas: 3,
        reads: 1,
        agree: 1,
        target_batch: 1,
        queue_capacity: 0,
        windows: &[1],
        priorities: &[1],
        deadline_batches: 0,
        searches_per_write: 0,
    },
    Spec {
        name: "b16-manhattan-10k-tenants",
        metric: DistanceMetric::Manhattan,
        noisy: false,
        rows: 10_000,
        capacity: None,
        replicas: 3,
        reads: 2,
        agree: 2,
        target_batch: 16,
        queue_capacity: 32,
        // One hot tenant with three times the others' outstanding requests,
        // at a lower priority, so capacity shedding evicts it first.
        windows: &[24, 8, 8, 8],
        priorities: &[0, 1, 1, 1],
        deadline_batches: 2,
        searches_per_write: 0,
    },
    Spec {
        name: "noisy-churn-euclid-2k",
        metric: DistanceMetric::EuclideanSquared,
        noisy: true,
        rows: 2_000,
        capacity: Some(2_250),
        replicas: 3,
        reads: 2,
        agree: 2,
        target_batch: 16,
        queue_capacity: 0,
        windows: &[16],
        priorities: &[1],
        deadline_batches: 0,
        searches_per_write: 8,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// SplitMix64 stream: every input of a run derives from the seed.
#[derive(Debug, Clone)]
pub struct Mix(u64);

impl Mix {
    /// Stream `domain` of `seed`; distinct domains never share draws.
    pub fn new(seed: u64, domain: u64) -> Self {
        let mut m = Mix(seed ^ domain.wrapping_mul(0xA076_1D64_78BD_642F));
        m.next();
        m
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn vector(&mut self) -> Vec<u32> {
        (0..DIM).map(|_| (self.next() % (1 << BITS)) as u32).collect()
    }
}

const DOMAIN_ROWS: u64 = 1;
const DOMAIN_QUERIES: u64 = 2;
const DOMAIN_WRITES: u64 = 3;
/// Variation and sensing-noise seed of the simulated Noisy device.
const DEVICE_SEED: u64 = 0xFE12EC5;

/// The stored rows of a run, generated from its seed.
pub fn initial_rows(spec: &Spec, seed: u64) -> Vec<Vec<u32>> {
    let mut m = Mix::new(seed, DOMAIN_ROWS);
    (0..spec.rows).map(|_| m.vector()).collect()
}

/// Wall-clock seconds of the three set-up steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub engine_build_s: f64,
    pub engine_program_s: f64,
    pub replica_build_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.engine_build_s + self.engine_program_s + self.replica_build_s
    }
}

fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = match tracer {
        Some(t) => t.time(name, None, u64::MAX, f).0,
        None => f(),
    };
    (out, start.elapsed().as_secs_f64())
}

/// Builds a serving-ready loop: engine (CSP sizing and encoding), store and
/// program, then the replica set and the serving loop around it.
pub fn setup(
    spec: &Spec,
    rows: &[Vec<u32>],
    mut tracer: Option<&mut Tracer>,
) -> Result<(ServeLoop<FerexArray>, SetupTimes), FerexError> {
    let backend = if spec.noisy {
        // The device is part of the system under test, not of its input:
        // every run simulates the same chips, whatever its seed.
        Backend::Noisy(Box::new(CircuitConfig { seed: DEVICE_SEED, ..Default::default() }))
    } else {
        Backend::Ideal
    };
    let (engine, engine_build_s) = timed(&mut tracer, "engine.build", || {
        let b = Ferex::builder().metric(spec.metric).bits(BITS).dim(DIM).backend(backend);
        // Online writes go through write-verify, which needs a repair policy.
        let b = if spec.capacity.is_some() { b.repair_policy(RepairPolicy::default()) } else { b };
        b.build()
    });
    let mut engine = engine?;
    let (programmed, engine_program_s) = timed(&mut tracer, "engine.program", || {
        match spec.capacity {
            Some(capacity) => {
                let mut policy = MutationPolicy::with_capacity(capacity);
                // Compact at 5% tombstones, so maintenance compacts within a run.
                policy.compact_tombstone_milli = 50;
                engine.enable_mutation(policy)?;
                for (id, v) in rows.iter().enumerate() {
                    engine.insert(id as u64, v.clone())?;
                }
            }
            None => engine.store_all(rows.iter().cloned())?,
        }
        engine.ensure_programmed()
    });
    programmed?;
    let (serving, replica_build_s) = timed(&mut tracer, "replica.build", || {
        let policy = ReplicaPolicy {
            quorum: QuorumPolicy { reads: spec.reads, agree: spec.agree },
            ..Default::default()
        };
        let set = engine.replica_set(spec.replicas, policy)?;
        let serve_policy = ServePolicy {
            target_batch: spec.target_batch,
            queue_capacity: spec.queue_capacity,
            ..Default::default()
        };
        ServeLoop::new(set, spec.windows.len(), serve_policy)
    });
    Ok((serving?, SetupTimes { engine_build_s, engine_program_s, replica_build_s }))
}

/// One served answer, kept for the correctness check.
#[derive(Debug, Clone)]
pub struct Served {
    pub qid: u64,
    pub query: Vec<u32>,
    pub nearest: usize,
    pub oracle: bool,
    /// Live id at the served slot (slot-table workloads only).
    pub served_id: Option<u64>,
    /// Writes applied before this answer was served.
    pub writes_before: usize,
}

/// One write of the churn schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    Insert(u64, Vec<u32>),
    Update(u64, Vec<u32>),
    Delete(u64),
}

/// What one timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub acc: Accounting,
    pub elapsed_s: f64,
    /// CPU time of the whole process over the phase, every thread included.
    pub cpu_s: f64,
    /// Time spent in shadow replays and scrub samples (traced phase only).
    pub shadow_s: f64,
    /// Host latency of each answered search, in answer order.
    pub search_ns: Vec<u64>,
    /// Searches answered by the end of each serving poll.
    pub answered_after: Vec<usize>,
    pub write_ns: Vec<u64>,
    pub sim_ticks: Vec<u64>,
    pub serving_polls: u64,
}

impl Phase {
    /// Median search latency of each window of at least
    /// [`WINDOW_BATCHES`] batches.
    pub fn window_medians(&self) -> Vec<u64> {
        window_medians(&self.answered_after, &self.search_ns, WINDOW_BATCHES, MAX_WINDOWS)
    }

    /// Searches served per host second over the whole phase, shadow work
    /// excluded.
    pub fn throughput_qps(&self) -> f64 {
        self.acc.searches_served as f64 / (self.elapsed_s - self.shadow_s).max(1e-9)
    }
}

#[derive(Debug, Clone, Copy)]
struct Client {
    tenant: usize,
    ready_tick: u64,
    waiting: bool,
}

#[derive(Debug)]
struct InFlight {
    client: usize,
    submitted: Instant,
    query: Vec<u32>,
}

/// A running workload: the serving loop plus the closed-loop clients.
pub struct Bench {
    spec: Spec,
    serving: ServeLoop<FerexArray>,
    initial: Vec<Vec<u32>>,
    /// Live ids, in the order the write schedule picks from.
    live: Vec<u64>,
    next_id: u64,
    queries: Mix,
    writes: Mix,
    clients: Vec<Client>,
    inflight: BTreeMap<u64, InFlight>,
    tick: u64,
    deadline_ticks: u64,
    retry_ticks: u64,
    served: Vec<Served>,
    write_log: Vec<WriteOp>,
    checksum: Checksum,
    served_total: u64,
    searches_since_write: u64,
    next_maintenance: u64,
}

impl Bench {
    pub fn new(
        spec: &Spec,
        serving: ServeLoop<FerexArray>,
        rows: Vec<Vec<u32>>,
        seed: u64,
    ) -> Self {
        let full_batch = CostModel::default().service_ticks(spec.target_batch);
        let clients = spec
            .windows
            .iter()
            .enumerate()
            .flat_map(|(tenant, &w)| {
                (0..w).map(move |_| Client { tenant, ready_tick: 0, waiting: false })
            })
            .collect();
        Bench {
            spec: *spec,
            serving,
            live: (0..rows.len() as u64).collect(),
            next_id: rows.len() as u64,
            initial: rows,
            queries: Mix::new(seed, DOMAIN_QUERIES),
            writes: Mix::new(seed, DOMAIN_WRITES),
            clients,
            inflight: BTreeMap::new(),
            tick: 0,
            deadline_ticks: if spec.deadline_batches == 0 {
                u64::MAX / 4
            } else {
                spec.deadline_batches * full_batch
            },
            retry_ticks: (full_batch / 2).max(1),
            served: Vec::new(),
            write_log: Vec::new(),
            checksum: Checksum::default(),
            served_total: 0,
            searches_since_write: 0,
            next_maintenance: MAINTENANCE_EVERY,
        }
    }

    pub fn serving(&self) -> &ServeLoop<FerexArray> {
        &self.serving
    }

    pub fn checksum(&self) -> Checksum {
        self.checksum
    }

    fn next_write(&mut self) -> WriteOp {
        let draw = self.writes.next();
        let live = self.live.len();
        let capacity = self.spec.capacity.unwrap_or(live);
        let pick = self.live.get(((draw >> 8) % live.max(1) as u64) as usize).copied().unwrap_or(0);
        match draw % 4 {
            0 if live + 2 <= capacity => WriteOp::Insert(self.next_id, self.writes.vector()),
            1 if live > self.spec.rows / 2 => WriteOp::Delete(pick),
            _ => WriteOp::Update(pick, self.writes.vector()),
        }
    }

    /// Applies one write through the serving loop; returns its host time.
    fn write(&mut self, op: WriteOp, tracer: &mut Option<&mut Tracer>) -> Result<u64, FerexError> {
        let idx = self.write_log.len() as u64;
        let start = Instant::now();
        let t0 = tracer.as_ref().map(|t| t.now_ns());
        let (name, result) = match &op {
            WriteOp::Insert(id, v) => ("mutate.insert", self.serving.insert(*id, v.clone())),
            WriteOp::Update(id, v) => ("mutate.update", self.serving.update(*id, v.clone())),
            WriteOp::Delete(id) => ("mutate.delete", self.serving.delete(*id)),
        };
        let ns = start.elapsed().as_nanos() as u64;
        if let (Some(t), Some(t0)) = (tracer.as_mut(), t0) {
            let t1 = t.now_ns();
            t.record(name, t0, t1, None, idx);
        }
        result?;
        match &op {
            WriteOp::Insert(id, _) => {
                self.live.push(*id);
                self.next_id += 1;
            }
            WriteOp::Update(..) => {}
            WriteOp::Delete(id) => {
                if let Some(pos) = self.live.iter().position(|x| x == id) {
                    self.live.swap_remove(pos);
                }
            }
        }
        self.write_log.push(op);
        Ok(ns)
    }

    fn maintenance(&mut self, tracer: &mut Option<&mut Tracer>) {
        let id = self.next_maintenance / MAINTENANCE_EVERY;
        match tracer {
            Some(t) => {
                black_box(t.time("mutate.maintenance", None, id, || self.serving.maintenance()));
            }
            None => {
                black_box(self.serving.maintenance());
            }
        }
    }

    /// Replicas a batch read would use now, in routing order: the public
    /// status of each replica replays the set's own eligibility and ranking.
    fn read_replicas(&self) -> Vec<usize> {
        let set = self.serving.set();
        let tick = set.tick();
        let mut eligible: Vec<(usize, f64)> = (0..set.n_replicas())
            .filter_map(|i| {
                let s = set.status(i);
                let open =
                    matches!(s.breaker, BreakerState::Open { until_tick } if tick < until_tick);
                (!s.dead && !open).then_some((i, s.score))
            })
            .collect();
        eligible.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        eligible.into_iter().take(set.policy().quorum.reads).map(|(i, _)| i).collect()
    }

    /// Re-runs a served batch's reads through the `&self` array calls, as
    /// children of the poll span, on the replicas' state after the poll
    /// (an escalated scrub may have run in between). Returns the host
    /// seconds spent.
    fn shadow_reads(
        &self,
        t: &mut Tracer,
        poll: usize,
        batch: u64,
        reads: &[usize],
        queries: &[Vec<u32>],
        qids: &[u64],
    ) -> Result<f64, FerexError> {
        let start = Instant::now();
        for &r in reads {
            let replica = self.serving.set().replica(r);
            let (outcomes, lta) = t.time("lta.search_batch_at", Some(poll), batch, || {
                replica.search_batch_at(queries, qids)
            });
            black_box(outcomes?);
            let (distances, _) = t.time("array.distances_batch", Some(lta), batch, || {
                replica.distances_batch(queries)
            });
            black_box(distances?);
        }
        Ok(start.elapsed().as_secs_f64())
    }

    /// Times `FerexArray::scrub` on a clone of replica 0, leaving the
    /// serving replicas untouched. Returns the host seconds spent.
    fn sample_scrub(&self, t: &mut Tracer, batch: u64) -> Result<f64, FerexError> {
        let start = Instant::now();
        let mut clone = self.serving.set().replica(0).clone();
        black_box(t.time("replica.scrub", None, batch, || clone.scrub()).0?);
        Ok(start.elapsed().as_secs_f64())
    }

    /// Runs the closed loop for at least `seconds` of host time (longer if
    /// the search or write floors are not met yet), then stops submitting
    /// and polls until every outstanding request has resolved.
    pub fn run_phase(
        &mut self,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Phase, FerexError> {
        let mut phase = Phase::default();
        let start = Instant::now();
        let cpu0 = process_cpu_s();
        let mut stopping = false;
        let min_searches = if tracer.is_some() { MIN_TRACED_SEARCHES } else { MIN_SEARCHES };
        loop {
            if !stopping {
                self.submit_ready(&mut phase, &mut tracer)?;
            }
            self.poll_once(&mut phase, &mut tracer)?;
            while self.spec.searches_per_write > 0
                && self.searches_since_write >= self.spec.searches_per_write
            {
                self.searches_since_write -= self.spec.searches_per_write;
                let op = self.next_write();
                phase.write_ns.push(self.write(op, &mut tracer)?);
                phase.acc.writes += 1;
            }
            // Only slot-table sets take maintenance: on a set without
            // online writes it has nothing to do.
            if self.spec.capacity.is_some() && self.served_total >= self.next_maintenance {
                self.next_maintenance += MAINTENANCE_EVERY;
                self.maintenance(&mut tracer);
            }
            if !stopping
                && start.elapsed().as_secs_f64() >= seconds
                && phase.acc.searches_served >= min_searches
                && (tracer.is_some() || phase.serving_polls >= MIN_BATCHES)
                && (self.spec.searches_per_write == 0 || phase.acc.writes >= MIN_WRITES)
            {
                stopping = true;
            }
            if stopping && self.inflight.is_empty() {
                break;
            }
            self.tick += 1;
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase.cpu_s = process_cpu_s() - cpu0;
        Ok(phase)
    }

    fn submit_ready(
        &mut self,
        phase: &mut Phase,
        tracer: &mut Option<&mut Tracer>,
    ) -> Result<(), FerexError> {
        for c in 0..self.clients.len() {
            let Some(client) = self.clients.get(c).copied() else { continue };
            if client.waiting || client.ready_tick > self.tick {
                continue;
            }
            let query = self.queries.vector();
            let request = Request {
                tenant: client.tenant,
                priority: self.spec.priorities.get(client.tenant).copied().unwrap_or(0),
                arrival_tick: self.tick,
                deadline_ticks: self.deadline_ticks,
                query: query.clone(),
            };
            phase.acc.searches_attempted += 1;
            let submitted = Instant::now();
            let admission = match tracer {
                Some(t) => {
                    let t0 = t.now_ns();
                    let a = self.serving.submit(request);
                    let t1 = t.now_ns();
                    let id = match &a {
                        Ok(Admission::Queued { qid } | Admission::QueuedEvicting { qid, .. }) => {
                            *qid
                        }
                        Ok(Admission::Shed(ev)) => ev.qid,
                        Err(_) => u64::MAX,
                    };
                    t.record("serve.submit", t0, t1, None, id);
                    a
                }
                None => self.serving.submit(request),
            };
            let retry = self.tick + self.retry_ticks;
            match admission {
                Ok(Admission::Queued { qid }) => {
                    self.inflight.insert(qid, InFlight { client: c, submitted, query });
                    self.set_waiting(c, true, 0);
                }
                Ok(Admission::QueuedEvicting { qid, shed }) => {
                    self.inflight.insert(qid, InFlight { client: c, submitted, query });
                    self.set_waiting(c, true, 0);
                    if let Some(victim) = self.inflight.remove(&shed.qid) {
                        self.set_waiting(victim.client, false, retry);
                    }
                    phase.acc.shed_capacity += 1;
                }
                Ok(Admission::Shed(_)) => {
                    self.set_waiting(c, false, retry);
                    phase.acc.shed_capacity += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn set_waiting(&mut self, c: usize, waiting: bool, ready_tick: u64) {
        if let Some(client) = self.clients.get_mut(c) {
            client.waiting = waiting;
            if !waiting {
                client.ready_tick = ready_tick;
            }
        }
    }

    fn poll_once(
        &mut self,
        phase: &mut Phase,
        tracer: &mut Option<&mut Tracer>,
    ) -> Result<(), FerexError> {
        let tick = self.tick;
        let (result, traced) = match tracer {
            Some(t) => {
                let may_serve = self.serving.idle_at(tick) && self.serving.queue_depth() > 0;
                let reads = if may_serve { self.read_replicas() } else { Vec::new() };
                let t0 = t.now_ns();
                let r = self.serving.poll(tick);
                let t1 = t.now_ns();
                let batch = match &r {
                    Ok((c, _)) => c.first().map_or(u64::MAX, |c| c.batch),
                    Err(_) => u64::MAX,
                };
                let span = t.record("serve.poll", t0, t1, None, batch);
                (r, Some((span, reads)))
            }
            None => (self.serving.poll(tick), None),
        };
        let returned = Instant::now();
        let (completions, sheds) = result?;
        for ev in &sheds {
            if let Some(f) = self.inflight.remove(&ev.qid) {
                self.set_waiting(f.client, false, tick + self.retry_ticks);
            }
            phase.acc.shed_deadline += 1;
        }
        if completions.is_empty() {
            return Ok(());
        }
        phase.serving_polls += 1;
        let batch = completions.first().map_or(0, |c| c.batch);
        let mut batch_queries = Vec::with_capacity(completions.len());
        let mut batch_qids = Vec::with_capacity(completions.len());
        for c in completions {
            let Some(f) = self.inflight.remove(&c.qid) else { continue };
            phase.search_ns.push(returned.duration_since(f.submitted).as_nanos() as u64);
            phase.sim_ticks.push(c.latency());
            phase.acc.searches_served += 1;
            self.set_waiting(f.client, false, c.completion_tick);
            let nearest = c.outcome.outcome.nearest;
            let (oracle, source) = match c.outcome.source {
                ServeSource::Replica(r) => (false, r as u64),
                ServeSource::OracleFallback => (true, u64::MAX),
            };
            if self.served.len() < CHECK_PREFIX {
                self.checksum.fold(c.qid, nearest as u64, source);
            }
            let served_id = match self.spec.capacity {
                Some(_) => self.serving.set().replica(0).id_at(nearest),
                None => Some(nearest as u64),
            };
            if tracer.is_some() {
                batch_queries.push(f.query.clone());
                batch_qids.push(c.qid);
            }
            self.served.push(Served {
                qid: c.qid,
                query: f.query,
                nearest,
                oracle,
                served_id,
                writes_before: self.write_log.len(),
            });
            self.served_total += 1;
            self.searches_since_write += 1;
        }
        phase.answered_after.push(phase.search_ns.len());
        if let (Some(t), Some((span, reads))) = (tracer.as_mut(), traced) {
            phase.shadow_s +=
                self.shadow_reads(t, span, batch, &reads, &batch_queries, &batch_qids)?;
            let polls = phase.serving_polls - 1;
            if polls.is_multiple_of(SCRUB_SAMPLE_EVERY)
                && polls / SCRUB_SAMPLE_EVERY < SCRUB_SAMPLES
            {
                phase.shadow_s += self.sample_scrub(t, batch)?;
            }
        }
        Ok(())
    }

    /// Checks every served answer against the exact digital nearest
    /// neighbour at the moment it was served.
    pub fn verify(&self) -> Verdict {
        let metric = self.spec.metric;
        let exact: Vec<bool> = if self.spec.capacity.is_none() {
            exact_against_fixed_rows(metric, &self.initial, &self.served)
        } else {
            exact_against_replayed_writes(metric, &self.initial, &self.write_log, &self.served)
        };
        let mut problems = Vec::new();
        let wrong = |s: &&Served, ok: &bool| !*ok && (s.oracle || !self.spec.noisy);
        if let Some((s, _)) = self.served.iter().zip(&exact).find(|(s, ok)| wrong(s, ok)) {
            problems.push(format!(
                "query {} served row {} ({}), not a nearest row",
                s.qid,
                s.nearest,
                if s.oracle { "oracle" } else { "device" }
            ));
        }
        if let Some(s) = self.served.iter().find(|s| s.served_id.is_none()) {
            problems.push(format!(
                "query {} served slot {}, which holds no live row",
                s.qid, s.nearest
            ));
        }
        let ratio = |xs: &[bool]| xs.iter().filter(|&&x| x).count() as f64 / xs.len().max(1) as f64;
        let recall_all = ratio(&exact);
        if self.spec.noisy && recall_all < NOISY_RECALL_FLOOR {
            problems.push(format!("recall {recall_all:.4} below the {NOISY_RECALL_FLOOR} floor"));
        }
        let prefix = &exact[..exact.len().min(RECALL_PREFIX)];
        Verdict { recall_prefix: ratio(prefix), recall_all, problems }
    }
}

/// Result of [`Bench::verify`].
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Recall@1 over the first [`RECALL_PREFIX`] served answers.
    pub recall_prefix: f64,
    /// Recall@1 over every served answer.
    pub recall_all: f64,
    pub problems: Vec<String>,
}

/// `true` per answer whose row is at the exact minimum distance (ties
/// count as correct); the store never changes. Splits the work over the
/// available cores.
fn exact_against_fixed_rows(
    metric: DistanceMetric,
    rows: &[Vec<u32>],
    served: &[Served],
) -> Vec<bool> {
    let check = |s: &Served| {
        let best = rows.iter().map(|r| metric.vector_distance(&s.query, r)).min();
        let got = rows.get(s.nearest).map(|r| metric.vector_distance(&s.query, r));
        got.is_some() && got == best
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    let chunk = served.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(check).collect::<Vec<bool>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("verification thread panicked")).collect()
    })
}

/// As [`exact_against_fixed_rows`] for a store that takes writes: the
/// write log is replayed so each answer is judged against the live rows of
/// its own moment.
fn exact_against_replayed_writes(
    metric: DistanceMetric,
    initial: &[Vec<u32>],
    writes: &[WriteOp],
    served: &[Served],
) -> Vec<bool> {
    let mut live: BTreeMap<u64, Vec<u32>> =
        initial.iter().enumerate().map(|(i, v)| (i as u64, v.clone())).collect();
    let mut applied = 0;
    served
        .iter()
        .map(|s| {
            while applied < s.writes_before {
                match writes.get(applied) {
                    Some(WriteOp::Insert(id, v) | WriteOp::Update(id, v)) => {
                        live.insert(*id, v.clone());
                    }
                    Some(WriteOp::Delete(id)) => {
                        live.remove(id);
                    }
                    None => {}
                }
                applied += 1;
            }
            let best = live.values().map(|r| metric.vector_distance(&s.query, r)).min();
            let got = s
                .served_id
                .and_then(|id| live.get(&id))
                .map(|r| metric.vector_distance(&s.query, r));
            got.is_some() && got == best
        })
        .collect()
}

/// User plus system CPU seconds this process has used, threads that have
/// exited included (`/proc/self/stat`, in 1/100 s ticks); 0 when unreadable.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let s = spec("noisy-churn-euclid-2k").expect("known workload");
        let a = initial_rows(s, 7);
        assert_eq!(a, initial_rows(s, 7));
        assert_ne!(a, initial_rows(s, 8));
        assert_eq!(a.len(), s.rows);
        assert!(a.iter().all(|v| v.len() == DIM && v.iter().all(|&x| x < 4)));
    }

    #[test]
    fn run_floors_support_their_percentiles() {
        use crate::stats::supported_percentile;
        let s: Vec<u64> = (0..MIN_SEARCHES).collect();
        assert!(supported_percentile(&s, 99, 100).is_some());
        assert!(supported_percentile(&s[1..], 99, 100).is_none());
        let b: Vec<u64> = (0..MIN_BATCHES).collect();
        assert!(supported_percentile(&b, 90, 100).is_some());
        assert!(supported_percentile(&b[1..], 90, 100).is_none());
    }

    #[test]
    fn replayed_writes_judge_each_answer_at_its_own_moment() {
        let m = DistanceMetric::Hamming;
        let initial = vec![vec![0u32; DIM], vec![3u32; DIM]];
        let q = vec![3u32; DIM];
        let served = |id, writes_before| Served {
            qid: 0,
            query: q.clone(),
            nearest: 0,
            oracle: false,
            served_id: Some(id),
            writes_before,
        };
        let writes = vec![WriteOp::Delete(1), WriteOp::Insert(2, vec![3u32; DIM])];
        let got = exact_against_replayed_writes(
            m,
            &initial,
            &writes,
            &[served(1, 0), served(0, 0), served(0, 1), served(0, 2), served(2, 2)],
        );
        assert_eq!(got, vec![true, false, true, false, true]);
    }

    #[test]
    fn fixed_rows_accept_ties_at_the_minimum() {
        let m = DistanceMetric::Manhattan;
        let rows = vec![vec![1u32; DIM], vec![1u32; DIM], vec![3u32; DIM]];
        let at = |nearest| Served {
            qid: 0,
            query: vec![1u32; DIM],
            nearest,
            oracle: true,
            served_id: Some(nearest as u64),
            writes_before: 0,
        };
        assert_eq!(
            exact_against_fixed_rows(m, &rows, &[at(0), at(1), at(2), at(9)]),
            vec![true, true, false, false]
        );
    }
}
