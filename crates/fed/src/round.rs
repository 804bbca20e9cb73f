//! The federated round driver: participation sampling, per-round
//! evaluation, wall-clock accounting (the machinery behind Figs. 4–6) —
//! and, when a [`CommsConfig`] is attached, the straggler-tolerant
//! transport orchestrator: oversampling, per-round deadlines in simulated
//! time, first-K acceptance, quorum checks with bounded re-sampling, and
//! graceful round skipping.

use crate::client::Client;
use crate::eval::micro_average;
use crate::faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, RoundScript};
use crate::kit::{Kit, Pool};
use crate::strategies::{RoundCtx, RoundStats, Strategy};
use crate::transport::{ChannelTransport, CommsRound, Legs};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of communication rounds (paper default 100).
    pub rounds: usize,
    /// Local epochs per round (paper: 3 small / 5 large datasets).
    pub local_epochs: usize,
    /// Fraction of clients participating per round (Fig. 6 sweeps this).
    pub participation: f64,
    /// Evaluate every `eval_every` rounds (0 = only at the end).
    pub eval_every: usize,
    /// Seed for participation sampling.
    pub seed: u64,
    /// Worker threads for client-parallel local training (0 = auto:
    /// `FEDGTA_THREADS` env var, else available parallelism). Results are
    /// bit-identical for any value — this knob only changes wall clock.
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self { rounds: 50, local_epochs: 3, participation: 1.0, eval_every: 1, seed: 0, threads: 0 }
    }
}

impl SimConfig {
    /// Refuses a `participation` outside (0, 1] or NaN, which
    /// [`participation_k`] would run as one client or all, and zero
    /// `rounds`, a run that never evaluates.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // NaN fails both comparisons.
        let p = self.participation;
        ConfigError::check(p > 0.0 && p <= 1.0, "participation", "lie in (0, 1]", p)?;
        ConfigError::check(self.rounds > 0, "rounds", "be at least 1", self.rounds as f64)
    }
}

/// A [`SimConfig`] or [`CommsConfig`] field that would run something other
/// than what it asks for: `"{field} must {rule}, got {got}"`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    /// The field's name.
    pub field: &'static str,
    /// What its value must do.
    pub rule: &'static str,
    /// The value it has.
    pub got: f64,
}

impl ConfigError {
    fn check(ok: bool, field: &'static str, rule: &'static str, got: f64) -> Result<(), Self> {
        ok.then_some(()).ok_or(Self { field, rule, got })
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} must {}, got {}", self.field, self.rule, self.got)
    }
}

impl std::error::Error for ConfigError {}

/// Transport + robustness configuration, attached to a [`Simulation`]
/// via [`Simulation::with_comms`]: rounds then run their wire stages over
/// a [`ChannelTransport`]. With the default fault model (all rates zero)
/// and no codec the wire round is bit-identical to the in-process one
/// (`comms: None`).
#[derive(Debug, Clone)]
pub struct CommsConfig {
    /// The fault model (defaults to fault-free).
    pub faults: FaultConfig,
    /// Chaos seed — independent of the sampling/training seed, so the
    /// same experiment can be replayed under different weather.
    pub fault_seed: u64,
    /// Straggler deadline per round in simulated ms (0 = wait forever).
    pub deadline_ms: u64,
    /// Minimum accepted uploads for a round to aggregate; below it the
    /// round is re-sampled (up to `max_resamples`) and then skipped.
    pub min_quorum: usize,
    /// Over-sampling factor ≥ 1: the server invites
    /// `round(k · oversample)` clients but accepts only the first `k`
    /// arrivals (first-K acceptance).
    pub oversample: f64,
    /// Bounded re-sampling attempts after a quorum failure.
    pub max_resamples: usize,
    /// Upload codec chain (`None` = plain uploads). Lossless chains are
    /// contractually bit-identical to the plain path; lossy chains stay
    /// bit-deterministic at any thread count.
    pub codec: Option<crate::codec::CodecSpec>,
    /// Download codec chain for the server→client model broadcast
    /// (`None` = the broadcast stays in-process and never crosses the
    /// wire — requests keep their empty-payload frames byte for byte).
    pub codec_down: Option<crate::codec::CodecSpec>,
    /// Sketch codec chain for the strategy's auxiliary upload tensors
    /// (payload tensors after the model parameters — FedGTA's Eq. 4/5
    /// moment vectors). `None` routes them through `codec`.
    pub codec_sketch: Option<crate::codec::CodecSpec>,
    /// Arms per-client error feedback on the upload leg: clients send
    /// residual-folded deltas against a server-mirrored reference (see
    /// [`crate::ef`]). Requires a lossy `codec` to be useful; a no-op
    /// with no upload codec armed.
    pub error_feedback: bool,
}

impl Default for CommsConfig {
    fn default() -> Self {
        Self {
            faults: FaultConfig::default(),
            fault_seed: 0,
            deadline_ms: 0,
            min_quorum: 1,
            oversample: 1.0,
            max_resamples: 2,
            codec: None,
            codec_down: None,
            codec_sketch: None,
            error_feedback: false,
        }
    }
}

impl CommsConfig {
    /// Refuses an `oversample` below 1 or not finite, which the
    /// orchestrator would run as 1.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let o = self.oversample;
        let rule = "be a finite factor of at least 1";
        ConfigError::check(o >= 1.0 && o.is_finite(), "oversample", rule, o)
    }
}

/// One round's record.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round index (1-based).
    pub round: usize,
    /// Mean local training loss over participants.
    pub mean_loss: f32,
    /// Global test accuracy after this round (`None` when not evaluated).
    pub test_acc: Option<f64>,
    /// Wall-clock seconds of **this round** (training + aggregation,
    /// excluding evaluation). The seed accumulated the running total into
    /// this field; per-round time is the honest reading, and the running
    /// total now lives in [`RoundRecord::cumulative_s`].
    pub elapsed_s: f64,
    /// Running total of `elapsed_s` through this round — the x-axis of
    /// the paper's time-to-accuracy curves (Figs. 4–5).
    pub cumulative_s: f64,
    /// Seconds of this round spent in client-parallel local training.
    pub train_s: f64,
    /// Seconds of this round spent in aggregation + distribution (the
    /// strategy's round minus local training).
    pub aggregate_s: f64,
    /// Seconds spent evaluating after this round (0 when not evaluated;
    /// *not* part of `elapsed_s` — evaluation is measurement, not cost).
    pub eval_s: f64,
    /// Bytes uploaded by participants this round.
    pub bytes_uploaded: usize,
    /// Bytes the server pushed back down this round.
    pub bytes_downloaded: usize,
    /// Plain-encoding wire bytes of every upload body sent this round —
    /// what the round would have cost with no codec. Transport mode
    /// meters this on the actual bodies (all trainers, including lost
    /// uploads); direct mode mirrors `bytes_uploaded`.
    pub bytes_uploaded_raw: usize,
    /// Upload body bytes that actually crossed the wire after the armed
    /// codec (equals `bytes_uploaded_raw` when no codec is armed).
    pub bytes_uploaded_encoded: usize,
    /// Plain-encoding wire bytes of every broadcast body built this
    /// round. 0 unless a download codec is armed (without one the
    /// broadcast is applied in-process and never becomes wire bytes).
    pub bytes_downloaded_raw: usize,
    /// Broadcast body bytes that actually crossed the wire after the
    /// armed download codec.
    pub bytes_downloaded_encoded: usize,
    /// Resolved worker-thread count local training ran with (the
    /// determinism contract says this never affects the other fields).
    pub threads: usize,
    /// Participants whose uploads the server accepted and aggregated.
    /// Direct mode: every participant completes.
    pub participants_completed: usize,
    /// Sampled participants whose updates never made it into the
    /// aggregate — crashed, unreachable, lost uploads, stragglers past
    /// the deadline, or oversampled arrivals beyond first-K.
    pub participants_dropped: usize,
    /// Total message retransmissions this round (both directions, all
    /// sampling attempts).
    pub retries: u64,
}

/// A federated simulation binding clients to a strategy.
pub struct Simulation {
    /// The federation.
    pub clients: Vec<Client>,
    /// The optimization strategy under test.
    pub strategy: Box<dyn Strategy>,
    /// Driver configuration.
    pub config: SimConfig,
    /// Transport + fault configuration (`None` = direct in-process
    /// rounds, exactly the pre-transport simulator).
    pub comms: Option<CommsConfig>,
    /// Every fault the orchestrator observed, in deterministic order —
    /// the chaos-reproducibility contract says two runs with the same
    /// fault seed produce identical logs.
    pub fault_events: Vec<FaultEvent>,
    /// Where to write a postmortem dump when a round is skipped after
    /// exhausting its resample budget (`None` = no dump). The dump is a
    /// deterministic function of the fault seed — see
    /// [`fedgta_obs::recorder::dump_string`].
    pub postmortem: Option<std::path::PathBuf>,
    /// The run's pool of per-worker training scratch ([`crate::kit`]):
    /// every round and every evaluation lends from it, so it holds at most
    /// one kit per worker thread, whatever the client count.
    pub kits: Pool<Kit>,
}

impl Simulation {
    /// Creates a simulation.
    ///
    /// # Panics
    ///
    /// Panics with [`SimConfig::validate`]'s message.
    pub fn new(clients: Vec<Client>, strategy: Box<dyn Strategy>, config: SimConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        Self {
            clients,
            strategy,
            config,
            comms: None,
            fault_events: Vec::new(),
            postmortem: None,
            kits: Pool::default(),
        }
    }

    /// Attaches a transport/fault configuration (builder style).
    ///
    /// # Panics
    ///
    /// Panics with [`CommsConfig::validate`]'s message.
    #[must_use]
    pub fn with_comms(mut self, comms: CommsConfig) -> Self {
        comms.validate().unwrap_or_else(|e| panic!("{e}"));
        self.comms = Some(comms);
        self
    }

    /// Arms a postmortem dump path (builder style): on a terminal quorum
    /// failure the orchestrator writes the flight recorder + fault log +
    /// registry snapshot there before moving on.
    #[must_use]
    pub fn with_postmortem(mut self, path: std::path::PathBuf) -> Self {
        self.postmortem = Some(path);
        self
    }

    /// Runs all rounds; returns per-round records. Always evaluates after
    /// the final round.
    ///
    /// Every round is plan → execute → evaluate → record. With a
    /// [`CommsConfig`] attached the plan stage first scripts the round's
    /// fate: the orchestrator invites `round(k·oversample)` clients,
    /// precomputes every message's fate from the fault seed, accepts the
    /// first `k` uploads inside the deadline, and — if fewer than
    /// `min_quorum` survive — re-samples (bounded) or skips the round
    /// entirely, aggregating nothing. The strategy then replays the
    /// surviving script over real envelopes. With no `CommsConfig` the
    /// plan is a plain participation sample and the round runs
    /// in-process — exactly the pre-transport simulator.
    ///
    /// When tracing is armed each round emits a span tree
    /// `round > { sample, train > client_train×P, aggregate, eval }` with
    /// byte counts and the strategy name on the round span; with metrics
    /// armed the `comms.*` counters and `strategy.aggregate_ns` histogram
    /// accumulate. Neither changes any numeric result.
    pub fn run(&mut self) -> Vec<RoundRecord> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut records = Vec::with_capacity(self.config.rounds);
        let mut cumulative = 0f64;
        let threads = fedgta_graph::par::resolve_threads(Some(self.config.threads));
        let strategy_name = self.strategy.name();
        let wire = self.comms.clone().map(|cc| Wire::new(cc, self.clients.len()));
        for round in 1..=self.config.rounds {
            // Its fields are recorded once the round is over (see
            // `publish_round`).
            let mut round_span = fedgta_obs::span_named("round");
            let plan = self.plan_round(round, wire.as_ref(), &mut rng);
            let train_clock = fedgta_obs::TimeCell::new();
            let t0 = Instant::now();
            let (stats, wire_bytes) = self.execute_round(round, &plan, wire.as_ref(), &train_clock);
            let round_ns = t0.elapsed().as_nanos() as u64;
            let train_ns = train_clock.take_ns().min(round_ns);
            let aggregate_ns = round_ns - train_ns;
            let (test_acc, eval_ns) = self.evaluate(round, threads);
            let elapsed_s = round_ns as f64 / 1e9;
            cumulative += elapsed_s;
            let record = RoundRecord {
                round,
                mean_loss: stats.mean_loss,
                test_acc,
                elapsed_s,
                cumulative_s: cumulative,
                train_s: train_ns as f64 / 1e9,
                aggregate_s: aggregate_ns as f64 / 1e9,
                eval_s: eval_ns as f64 / 1e9,
                bytes_uploaded: stats.bytes_uploaded,
                bytes_downloaded: stats.bytes_downloaded,
                bytes_uploaded_raw: wire_bytes[0],
                bytes_uploaded_encoded: wire_bytes[1],
                bytes_downloaded_raw: wire_bytes[2],
                bytes_downloaded_encoded: wire_bytes[3],
                threads,
                participants_completed: plan.completed,
                participants_dropped: plan.participants.len() - plan.completed,
                retries: plan.retries,
            };
            let held = Held {
                kits: &self.kits,
                clients: &self.clients,
                store: self.strategy.store_bytes(),
            };
            publish_round(&mut round_span, &record, &strategy_name, aggregate_ns, held);
            records.push(record);
        }
        records
    }

    /// Plan stage: sampling — and, on the wire, fault scripting with
    /// quorum checks. Everything here is driver-side arithmetic on the
    /// seeded RNGs, so thread count cannot leak in.
    fn plan_round(&mut self, round: usize, wire: Option<&Wire>, rng: &mut StdRng) -> RoundPlan {
        let (n, p) = (self.clients.len(), self.config.participation);
        let plan = {
            let _g = fedgta_obs::span!("sample");
            match wire {
                Some(w) => w.plan_round(round, n, p, rng, &mut self.fault_events),
                None => {
                    let participants = sample_participants(n, p, rng);
                    let completed = participants.len();
                    RoundPlan { participants, script: None, retries: 0, completed, skipped: false }
                }
            }
        };
        if plan.skipped {
            // Terminal quorum failure: note it in the flight recorder
            // and, if armed, write the postmortem dump — the recorder
            // ring, the deterministic fault log, and the registry
            // correlated into one file. The run itself continues
            // (graceful degradation); the dump is for the operator.
            fedgta_obs::recorder::record_note("round_skip", round as u64, 0);
            if let Some(path) = &self.postmortem {
                let seed = wire.map_or(0, |w| w.cfg.fault_seed);
                let log: Vec<_> = self.fault_events.iter().map(trace_fault).collect();
                let dump = fedgta_obs::recorder::dump_string(
                    "quorum_fail",
                    round as u64,
                    seed,
                    Some(&log),
                    fedgta_obs::global(),
                );
                if let Err(e) = std::fs::write(path, dump) {
                    eprintln!("warning: postmortem dump failed: {e}");
                }
            }
        }
        plan
    }

    /// Execute stage: one strategy round over the planned participants —
    /// over `wire` when the plan carries a script — returning its stats
    /// and the wire-byte tallies `[upload raw, upload encoded, download
    /// raw, download encoded]`.
    fn execute_round(
        &mut self,
        round: usize,
        plan: &RoundPlan,
        wire: Option<&Wire>,
        train_clock: &fedgta_obs::TimeCell,
    ) -> (RoundStats, [usize; 4]) {
        if plan.skipped {
            // Graceful degradation, last resort: nothing arrived even
            // after re-sampling — aggregate nothing, keep all models.
            let stats = RoundStats { mean_loss: 0.0, bytes_uploaded: 0, bytes_downloaded: 0 };
            return (stats, [0; 4]);
        }
        let comms_round = wire.zip(plan.script.as_ref()).map(|(w, script)| CommsRound {
            round,
            transport: &w.transport,
            script,
            legs: &w.legs,
            tally: Default::default(),
        });
        let mut ctx = RoundCtx::with_threads(self.config.local_epochs, self.config.threads)
            .with_train_clock(train_clock);
        ctx.comms = comms_round.as_ref();
        ctx.kits = Some(&self.kits);
        let stats = self.strategy.round(&mut self.clients, &plan.participants, &ctx);
        // Wire-byte truth: what the legs actually built and sent. An
        // in-process round has no wire; mirror the analytic count.
        let wire_bytes = match comms_round.as_ref().map(|cr| &cr.tally) {
            Some(t) => [&t.up_raw, &t.up_encoded, &t.down_raw, &t.down_encoded]
                .map(|bytes| bytes.load(std::sync::atomic::Ordering::Relaxed) as usize),
            None => [stats.bytes_uploaded, stats.bytes_uploaded, 0, 0],
        };
        (stats, wire_bytes)
    }

    /// Evaluate stage: global test accuracy after `round` when it is due
    /// (every `eval_every` rounds and always after the last), with the
    /// nanoseconds it took, on the round's own `threads` workers.
    fn evaluate(&mut self, round: usize, threads: usize) -> (Option<f64>, u64) {
        let every = self.config.eval_every;
        let due = round == self.config.rounds || (every > 0 && round.is_multiple_of(every));
        if !due {
            return (None, 0);
        }
        let mut span = fedgta_obs::span!("eval", threads = threads);
        let e0 = Instant::now();
        let (acc, rows) = micro_average(&mut self.clients, Some(threads), Some(&self.kits));
        span.record("rows", fedgta_obs::JsonVal::from(rows));
        (Some(acc), e0.elapsed().as_nanos() as u64)
    }

    /// Final test accuracy (evaluates now, on [`SimConfig::threads`]
    /// workers like the rounds themselves).
    pub fn test_accuracy(&mut self) -> f64 {
        micro_average(&mut self.clients, Some(self.config.threads), Some(&self.kits)).0
    }
}

/// The run-lifetime transport machinery, built from the run's
/// [`CommsConfig`] in one place: one mailbox set, one fault plan (a pure
/// function of the fault seed), the armed codec legs and the server's
/// error-feedback mirror.
struct Wire {
    cfg: CommsConfig,
    transport: ChannelTransport,
    plan: FaultPlan,
    legs: Legs,
}

impl Wire {
    fn new(cfg: CommsConfig, n: usize) -> Self {
        // A fully lossless chain (identity stages only) is elided at build
        // time: the executor then sends plain frames, so `--codec identity`
        // costs zero header bytes — byte-identical to no codec at all.
        let lossy = |spec: &Option<crate::codec::CodecSpec>| {
            spec.as_ref().filter(|s| !s.is_lossless()).map(|s| s.build())
        };
        let up = lossy(&cfg.codec);
        // The sketch chain routes tensors of a *coded* upload and error
        // feedback folds *coding* error: neither arms without `up`.
        let legs = Legs {
            sketch: up.as_ref().and_then(|_| lossy(&cfg.codec_sketch)),
            down: lossy(&cfg.codec_down),
            ef: (cfg.error_feedback && up.is_some()).then(crate::ef::EfServer::default),
            up,
        };
        Self {
            transport: ChannelTransport::new(n),
            plan: FaultPlan::new(cfg.faults.clone(), cfg.fault_seed),
            legs,
            cfg,
        }
    }

    /// Samples and scripts `round` until a quorum survives or the
    /// re-sample budget runs out (see [`Simulation::run`]), appending
    /// every draw's fault events to `log`.
    fn plan_round(
        &self,
        round: usize,
        n: usize,
        participation: f64,
        rng: &mut StdRng,
        log: &mut Vec<FaultEvent>,
    ) -> RoundPlan {
        let cc = &self.cfg;
        let base_k = participation_k(n, participation);
        let invite_k = ((base_k as f64 * cc.oversample).round() as usize).clamp(base_k, n.max(1));
        let mut retries = 0u64;
        let mut resample = 0usize;
        loop {
            let participants = sample_k(n, invite_k, rng);
            let (plan, deadline) = (&self.plan, cc.deadline_ms);
            let s = RoundScript::build(plan, round, resample, &participants, base_k, deadline);
            retries += s.total_retries();
            observe_draw(&s);
            log.extend(s.events.iter().cloned());
            let quorum = s.accepted.len() >= cc.min_quorum.max(1);
            if !quorum {
                // This draw's traffic never replays through the executor,
                // so account its faults here, then re-sample or give up.
                record_script_faults(&s);
                let accepted = s.accepted.len() as u64;
                fedgta_obs::recorder::record_note("quorum_fail", round as u64, accepted);
            }
            if quorum || resample >= cc.max_resamples {
                let completed = if quorum { s.accepted.len() } else { 0 };
                let script = quorum.then_some(s);
                return RoundPlan { participants, script, retries, completed, skipped: !quorum };
            }
            log.push(FaultEvent {
                round,
                client: usize::MAX,
                kind: FaultKind::Resample,
                sim_ms: cc.deadline_ms,
            });
            resample += 1;
        }
    }
}

/// What the plan stage decided for one round.
struct RoundPlan {
    /// The sampled (on the wire: invited) clients, ascending.
    participants: Vec<usize>,
    /// The surviving fault script of a wire round; `None` in-process and
    /// on a skipped round.
    script: Option<RoundScript>,
    /// Message retransmissions over every draw of this round.
    retries: u64,
    /// Participants whose uploads will be aggregated; the rest are
    /// dropped (in-process: everyone completes).
    completed: usize,
    /// Terminal quorum failure: nothing trains, nothing aggregates.
    skipped: bool,
}

/// What the run holds between rounds, as [`publish_round`] gauges it.
struct Held<'a> {
    kits: &'a Pool<Kit>,
    clients: &'a [Client],
    /// The strategy's model store ([`Strategy::store_bytes`]).
    store: usize,
}

/// Record stage: closes the books on one round — the round's field list
/// (on its span and, when a metrics endpoint serves, as its `/rounds`
/// element), the `comms.*` byte counters, aggregation-latency histogram,
/// what the kit pool, the clients and the model store hold (no-op below
/// [`fedgta_obs::ObsLevel::Metrics`]), and flight-recorder breadcrumbs.
fn publish_round(
    round_span: &mut fedgta_obs::SpanGuard,
    r: &RoundRecord,
    strategy: &str,
    aggregate_ns: u64,
    held: Held<'_>,
) {
    use fedgta_obs::{counter, recorder, serve};
    if round_span.id() != 0 || serve::rounds_armed() {
        let fields = round_fields(r, strategy);
        if serve::rounds_armed() {
            serve::publish_round(&fields);
        }
        for (k, v) in fields {
            round_span.record(k, v);
        }
    }
    if fedgta_obs::metrics_on() {
        counter!("comms.upload_bytes").add(r.bytes_uploaded as u64);
        counter!("comms.download_bytes").add(r.bytes_downloaded as u64);
        fedgta_obs::histogram!("strategy.aggregate_ns").observe(aggregate_ns);
        counter!("comms.upload_bytes_raw").add(r.bytes_uploaded_raw as u64);
        counter!("comms.upload_bytes_encoded").add(r.bytes_uploaded_encoded as u64);
        counter!("comms.download_bytes_raw").add(r.bytes_downloaded_raw as u64);
        counter!("comms.download_bytes_encoded").add(r.bytes_downloaded_encoded as u64);
        let (instances, bytes) = held.kits.held(Kit::bytes);
        fedgta_obs::global().gauge("fed.kits.instances").set(instances as u64);
        fedgta_obs::global().gauge("fed.kits.bytes").set(bytes as u64);
        let clients: usize = held.clients.iter().map(Client::bytes).sum();
        fedgta_obs::global().gauge("fed.clients.bytes").set(clients as u64);
        fedgta_obs::global().gauge("fed.store.bytes").set(held.store as u64);
    }
    // Flight-recorder breadcrumbs: deterministic per-round values only
    // (byte tallies and acceptance counts are functions of the seeds,
    // never of the clock or thread count), so dumps stay byte-identical
    // across invocations.
    if recorder::armed() {
        let round = r.round as u64;
        recorder::record_note("round.completed", round, r.participants_completed as u64);
        recorder::record_note("round.bytes_up_raw", round, r.bytes_uploaded_raw as u64);
        recorder::record_note("round.bytes_up_encoded", round, r.bytes_uploaded_encoded as u64);
        let down_encoded = r.bytes_downloaded_encoded as u64;
        recorder::record_note("round.bytes_down_encoded", round, down_encoded);
    }
}

/// One round's fields: the keys of its `round` span and of its `/rounds`
/// element alike. An unevaluated or diverged round's non-finite
/// `test_acc` / `mean_loss` is written as `null`.
fn round_fields(r: &RoundRecord, strategy: &str) -> Vec<(&'static str, fedgta_obs::JsonVal)> {
    let participants = r.participants_completed + r.participants_dropped;
    vec![
        ("round", r.round.into()),
        ("strategy", strategy.into()),
        ("threads", r.threads.into()),
        ("participants", participants.into()),
        ("completed", r.participants_completed.into()),
        ("dropped", r.participants_dropped.into()),
        ("retries", r.retries.into()),
        ("mean_loss", (r.mean_loss as f64).into()),
        ("test_acc", r.test_acc.unwrap_or(f64::NAN).into()),
        ("elapsed_s", r.elapsed_s.into()),
        ("bytes_up", r.bytes_uploaded.into()),
        ("bytes_down", r.bytes_downloaded.into()),
        ("bytes_up_raw", r.bytes_uploaded_raw.into()),
        ("bytes_up_encoded", r.bytes_uploaded_encoded.into()),
        ("bytes_down_raw", r.bytes_downloaded_raw.into()),
        ("bytes_down_encoded", r.bytes_downloaded_encoded.into()),
    ]
}

/// The per-round participant count: `clamp(round(n · participation), 1, n)`.
pub fn participation_k(n: usize, participation: f64) -> usize {
    ((n as f64 * participation).round() as usize).clamp(1, n.max(1)).min(n)
}

/// Samples a sorted, duplicate-free subset of `0..n` of size `k` by
/// Fisher–Yates shuffle from the given seeded RNG. `k >= n` returns all
/// clients **without consuming the RNG** — the oversampling orchestrator
/// and the direct driver therefore draw identical sequences whenever
/// their `k`s agree.
pub fn sample_k(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..n).collect();
    if k >= n {
        return ids;
    }
    ids.shuffle(rng);
    ids.truncate(k);
    ids.sort_unstable();
    ids
}

/// Samples a round's participants from a federation of `n` clients: a
/// sorted, duplicate-free subset of `0..n` of size
/// [`participation_k`], drawn by Fisher–Yates shuffle from the given
/// seeded RNG (so the sequence is reproducible and independent of the
/// training thread count).
pub fn sample_participants(n: usize, participation: f64, rng: &mut StdRng) -> Vec<usize> {
    sample_k(n, participation_k(n, participation), rng)
}

/// Mirrors a scripted draw into the observability layers: each
/// straggler's lateness (`arrival − deadline`, simulated ms) into the
/// `comms.straggler_ms` histogram at metrics level, and every fault event
/// into the flight recorder while it is armed. Client ids map to the
/// recorder's `NO_CLIENT` sentinel for round-level events so canonical
/// dump lines omit them.
fn observe_draw(script: &RoundScript) {
    use fedgta_obs::recorder;
    // Resolved per draw, not per straggler: a metered wire run without
    // stragglers still exports the (empty) histogram.
    let lateness = fedgta_obs::metrics_on().then(|| fedgta_obs::histogram!("comms.straggler_ms"));
    let recording = recorder::armed();
    for e in &script.events {
        if let (Some(h), FaultKind::Straggler) = (lateness, e.kind) {
            h.observe(e.sim_ms.saturating_sub(script.deadline_ms));
        }
        if recording {
            let client = if e.client == usize::MAX { recorder::NO_CLIENT } else { e.client as u64 };
            recorder::record_fault(e.kind.name(), e.round as u64, client, e.sim_ms);
        }
    }
}

/// An orchestrator fault in the event vocabulary of a postmortem dump;
/// round-level events (resamples) carry no client.
fn trace_fault(e: &FaultEvent) -> fedgta_obs::TraceEvent {
    fedgta_obs::TraceEvent::Fault {
        round: e.round as u64,
        client: (e.client != usize::MAX).then_some(e.client as u64),
        kind: e.kind.name().to_string(),
        sim_ms: e.sim_ms,
    }
}

/// Accounts an *abandoned* draw's faults into the `comms.*` counters —
/// a quorum-failed script never replays through the executor, but its
/// traffic (and its failures) still happened in simulated time.
fn record_script_faults(script: &RoundScript) {
    let (mut dropped, mut corrupted) = (0u64, 0u64);
    for e in &script.events {
        match e.kind {
            FaultKind::DownDrop | FaultKind::UpDrop => dropped += 1,
            FaultKind::DownCorrupt | FaultKind::UpCorrupt => corrupted += 1,
            _ => {}
        }
    }
    crate::exec::record_comms_metrics(dropped, corrupted, script.total_retries());
}

/// The best (maximum) test accuracy across records — the number the
/// paper's tables report (best round over federated training).
pub fn best_accuracy(records: &[RoundRecord]) -> f64 {
    records.iter().filter_map(|r| r.test_acc).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::test_support::small_federation;
    use crate::strategies::FedAvg;
    use fedgta_nn::models::ModelKind;

    #[test]
    fn simulation_runs_and_improves() {
        let clients = small_federation(ModelKind::Sgc, 50);
        let mut sim = Simulation::new(
            clients,
            Box::new(FedAvg::new()),
            SimConfig { rounds: 10, local_epochs: 2, eval_every: 5, ..SimConfig::default() },
        );
        let records = sim.run();
        assert_eq!(records.len(), 10);
        // Only rounds 5 and 10 evaluated.
        assert!(records[0].test_acc.is_none());
        assert!(records[4].test_acc.is_some());
        assert!(records[9].test_acc.is_some());
        assert!(best_accuracy(&records) > 0.5);
        // `elapsed_s` is *per-round* (the seed wrongly accumulated the
        // running total into it); the running total is `cumulative_s`,
        // which must be strictly monotone and equal the per-round sum.
        let mut running = 0f64;
        for w in records.windows(2) {
            assert!(w[1].cumulative_s > w[0].cumulative_s);
        }
        for r in &records {
            running += r.elapsed_s;
            assert!((r.cumulative_s - running).abs() < 1e-9, "round {}", r.round);
            assert!(r.elapsed_s > 0.0);
            // Phase breakdown partitions the round: train + aggregate is
            // the whole round by construction; eval is extra.
            assert!(r.train_s >= 0.0 && r.aggregate_s >= 0.0);
            assert!((r.train_s + r.aggregate_s - r.elapsed_s).abs() < 1e-9);
            // eval_s only on evaluated rounds.
            assert_eq!(r.eval_s > 0.0, r.test_acc.is_some(), "round {}", r.round);
            assert!(r.threads >= 1);
        }
        assert!(records.iter().all(|r| r.bytes_uploaded > 0));
        assert!(records.iter().all(|r| r.bytes_downloaded > 0));
    }

    #[test]
    fn participation_fraction_limits_round_size() {
        let clients = small_federation(ModelKind::Sgc, 51);
        let sim = Simulation::new(
            clients,
            Box::new(FedAvg::new()),
            SimConfig { participation: 0.5, ..SimConfig::default() },
        );
        let mut rng = StdRng::seed_from_u64(0);
        let p = sample_participants(sim.clients.len(), sim.config.participation, &mut rng);
        assert_eq!(p.len(), 2);
        // Sorted and unique.
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn diverged_round_summary_stays_valid_json() {
        let clients = small_federation(ModelKind::Sgc, 53);
        let cfg = SimConfig { rounds: 1, local_epochs: 1, ..SimConfig::default() };
        let mut record = Simulation::new(clients, Box::new(FedAvg::new()), cfg).run().remove(0);
        let healthy = fedgta_obs::json_object(&round_fields(&record, "FedAvg"));
        assert!(fedgta_obs::parse_flat_object(&healthy).is_ok(), "{healthy}");
        assert!(!healthy.contains("null"));
        // A diverged round: the loss is NaN and the accuracy overflowed.
        record.mean_loss = f32::NAN;
        record.test_acc = Some(f64::INFINITY);
        let diverged = fedgta_obs::json_object(&round_fields(&record, "FedAvg"));
        assert!(diverged.contains("\"mean_loss\":null,\"test_acc\":null,"), "{diverged}");
        assert!(fedgta_obs::parse_flat_object(&diverged).is_ok(), "{diverged}");
    }

    #[test]
    fn fault_events_map_to_dump_faults_without_a_round_level_client() {
        let crash = FaultEvent { round: 3, client: 1, kind: FaultKind::Crash, sim_ms: 40 };
        let resample =
            FaultEvent { round: 3, client: usize::MAX, kind: FaultKind::Resample, sim_ms: 0 };
        assert_eq!(
            trace_fault(&crash).to_json(),
            "{\"ev\":\"fault\",\"round\":3,\"client\":1,\"kind\":\"crash\",\"sim_ms\":40}"
        );
        let round_level = "{\"ev\":\"fault\",\"round\":3,\"kind\":\"resample\"}";
        assert_eq!(trace_fault(&resample).to_json(), round_level);
    }

    #[test]
    fn at_least_one_participant() {
        // A valid fraction too small for one client still samples one.
        let clients = small_federation(ModelKind::Sgc, 52);
        let sim = Simulation::new(
            clients,
            Box::new(FedAvg::new()),
            SimConfig { participation: 0.01, ..SimConfig::default() },
        );
        let mut rng = StdRng::seed_from_u64(0);
        let p = sample_participants(sim.clients.len(), sim.config.participation, &mut rng);
        assert_eq!(p.len(), 1);
    }

    #[test]
    #[should_panic(expected = "participation must lie in (0, 1], got 0")]
    fn zero_participation_is_refused() {
        let config = SimConfig { participation: 0.0, ..SimConfig::default() };
        let clients = small_federation(ModelKind::Sgc, 52);
        let _ = Simulation::new(clients, Box::new(FedAvg::new()), config);
    }

    #[test]
    #[should_panic(expected = "oversample must be a finite factor of at least 1, got 0.5")]
    fn an_oversample_below_one_is_refused() {
        let clients = small_federation(ModelKind::Sgc, 52);
        let sim = Simulation::new(clients, Box::new(FedAvg::new()), SimConfig::default());
        let _ = sim.with_comms(CommsConfig { oversample: 0.5, ..CommsConfig::default() });
    }
}
