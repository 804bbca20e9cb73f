//! The staged driver: a FedGTA round rebuilt from the public calls of
//! each layer, serial and in participant order, with a span around each
//! call.
//!
//! The crates carry no spans at these boundaries yet, so the benchmark
//! records them from outside. The price is a second copy of the round's
//! control flow (`FedGta::round`, `train_direct`, `train_over_transport`
//! and the orchestrator loop of `Simulation::run`); it is only trusted
//! because every traced block ends by comparing each client's final
//! parameters — and on the wire workload each round's byte tallies —
//! with what `Simulation::run` produced from the same seed. The product
//! is bit-identical at any thread count, so the serial replay matches
//! the two-thread workload too; there the stage shares are shares of CPU
//! work, not of the (parallel) round's wall time.

use crate::spans::{Recorder, NONE};
use crate::workloads::{Workload, WARMUP_ROUNDS};
use fedgta::{
    label_propagation_into, local_smoothing_confidence, mixed_moments_into,
    personalized_aggregate_into, AggregateOptions, ClientUpload, FedGtaConfig, UploadScratch,
};
use fedgta_fed::client::Client;
use fedgta_fed::codec::Codec;
use fedgta_fed::ef::{EfState, Folded};
use fedgta_fed::eval::global_test_accuracy;
use fedgta_fed::faults::{AttemptFate, FaultPlan, RoundScript};
use fedgta_fed::round::{participation_k, sample_k, CommsConfig};
use fedgta_fed::transport::{
    corrupt_frame, decode_broadcast_coded, decode_upload_routed, encode_broadcast_coded,
    encode_upload, encode_upload_routed, ChannelTransport, Endpoint, MsgKind, Transport,
    WirePayload, SERVER_ID,
};
use fedgta_graph::io::Envelope;
use fedgta_nn::TrainHooks;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every stage, in the order a round runs them. Each yields a
/// `<stage>.ms_p50` and a `<stage>.share` metric.
pub const STAGES: &[&str] = &[
    "fed.sample",
    "fed.load_broadcast",
    "nn.train_local",
    "nn.params_export",
    "nn.predict",
    "core.lp",
    "core.confidence",
    "core.moments",
    "fed.ef_fold",
    "fed.codec_encode",
    "fed.envelope_encode",
    "fed.transport",
    "fed.envelope_decode",
    "fed.codec_decode",
    "fed.ef_commit",
    "core.aggregate",
    "fed.install",
    "fed.eval",
];

/// FedGTA's upload: parameters, confidence `H`, moment sketch `M`,
/// training-set size.
type Upload = (Vec<f32>, f64, Vec<f32>, usize);

/// What one staged round did, mirroring the `RoundRecord` fields the
/// harness compares or reports.
pub struct StagedRound {
    /// Round wall time without evaluation, like `RoundRecord::elapsed_s`.
    pub elapsed_s: f64,
    pub mean_loss: f32,
    pub test_acc: Option<f64>,
    pub bytes_uploaded_encoded: usize,
    pub bytes_downloaded_encoded: usize,
    /// Mean aggregation-set size `|I_i|` over this round's uploads.
    pub members_mean: f64,
    /// Bytes Eq. 7 read and wrote: `Σ|I_i|` member vectors in, one
    /// vector per upload out.
    pub aggregate_bytes: f64,
}

/// The transport state of a wire workload. The staged driver supports
/// the one configuration the benchmark pins — upload, sketch and
/// download codecs all lossy, error feedback on — not every combination
/// `CommsConfig` allows.
struct Wire {
    cc: CommsConfig,
    transport: ChannelTransport,
    plan: FaultPlan,
    codec: Box<dyn Codec>,
    sketch: Box<dyn Codec>,
    down: Box<dyn Codec>,
    /// Server-side error-feedback references by client.
    ef_server: BTreeMap<usize, EfState>,
}

impl Wire {
    fn new(cc: CommsConfig, n: usize) -> Self {
        let lossy = |spec: &Option<fedgta_fed::codec::CodecSpec>| {
            let spec = spec.as_ref().expect("wire workload arms every codec leg");
            assert!(
                !spec.is_lossless(),
                "a lossless chain is elided by the product"
            );
            spec.build()
        };
        assert!(cc.error_feedback, "wire workload arms error feedback");
        Self {
            transport: ChannelTransport::new(n),
            plan: FaultPlan::new(cc.faults.clone(), cc.fault_seed),
            codec: lossy(&cc.codec),
            sketch: lossy(&cc.codec_sketch),
            down: lossy(&cc.codec_down),
            ef_server: BTreeMap::new(),
            cc,
        }
    }
}

pub struct Staged<'w> {
    w: &'w Workload,
    pub clients: Vec<Client>,
    cfg: FedGtaConfig,
    personalized: Vec<Option<Vec<f32>>>,
    scratch: Vec<UploadScratch>,
    rng: StdRng,
    wire: Option<Wire>,
    pub rec: Recorder,
    /// The last round's moment sketches (kept for the similarity replay).
    pub last_sketches: Vec<Vec<f32>>,
}

impl<'w> Staged<'w> {
    pub fn new(w: &'w Workload, clients: Vec<Client>, seed: u64) -> Self {
        let n = clients.len();
        Self {
            w,
            cfg: FedGtaConfig::default(),
            personalized: vec![None; n],
            scratch: (0..n).map(|_| UploadScratch::default()).collect(),
            rng: StdRng::seed_from_u64(seed),
            wire: w.comms(seed).map(|cc| Wire::new(cc, n)),
            rec: Recorder::default(),
            last_sketches: Vec::new(),
            clients,
        }
    }

    /// Runs `WARMUP_ROUNDS + rounds` rounds; returns one record each.
    /// `after_warmup` runs once between the warm-up and the measured
    /// rounds, where per-round counters are read.
    pub fn run(&mut self, rounds: usize, after_warmup: impl FnOnce()) -> Vec<StagedRound> {
        let total = WARMUP_ROUNDS + rounds;
        let mut out: Vec<StagedRound> = (1..=WARMUP_ROUNDS).map(|r| self.round(r, total)).collect();
        after_warmup();
        out.extend((WARMUP_ROUNDS + 1..=total).map(|r| self.round(r, total)));
        out
    }

    fn round(&mut self, round: usize, total: usize) -> StagedRound {
        let root = self.rec.enter_round(round as u32);
        let t0 = Instant::now();
        let n = self.clients.len();
        let mut tally = WireTally::default();
        let results: Vec<(usize, f32, Upload)> = if self.wire.is_some() {
            self.train_over_wire(round, &mut tally)
        } else {
            let rng = &mut self.rng;
            let participation = self.w.participation;
            let participants = self.rec.span("fed.sample", NONE, || {
                sample_k(n, participation_k(n, participation), rng)
            });
            participants
                .into_iter()
                .map(|i| {
                    load_broadcast(
                        &mut self.rec,
                        &mut self.clients[i],
                        self.personalized[i].as_deref(),
                    );
                    let (loss, upload) = self.local_step(i);
                    (i, loss, upload)
                })
                .collect()
        };
        let mean_loss = if results.is_empty() {
            0.0
        } else {
            results.iter().map(|r| r.1).sum::<f32>() / results.len() as f32
        };
        let (members_mean, aggregate_bytes) = if results.is_empty() {
            (0.0, 0.0)
        } else {
            self.aggregate_and_install(results)
        };
        let elapsed_s = t0.elapsed().as_secs_f64();
        let eval_now =
            round == total || (self.w.eval_every > 0 && round.is_multiple_of(self.w.eval_every));
        let clients = &mut self.clients;
        let test_acc = eval_now.then(|| {
            self.rec
                .span("fed.eval", NONE, || global_test_accuracy(clients))
        });
        self.rec.exit(root);
        StagedRound {
            elapsed_s,
            mean_loss,
            test_acc,
            bytes_uploaded_encoded: tally.up_encoded,
            bytes_downloaded_encoded: tally.down_encoded,
            members_mean,
            aggregate_bytes,
        }
    }

    /// Algorithm 1 on client `i`: local training, then the upload
    /// `(W, H, M, n_train)` via non-parametric label propagation.
    fn local_step(&mut self, i: usize) -> (f32, Upload) {
        let Self {
            rec,
            clients,
            scratch,
            cfg,
            w,
            ..
        } = self;
        let (c, s, id) = (&mut clients[i], &mut scratch[i], i as u32);
        let loss = rec.span("nn.train_local", id, || {
            c.train_local(w.epochs, &mut TrainHooks::none())
        });
        let params = rec.span("nn.params_export", id, || c.model.params());
        rec.span("nn.predict", id, || {
            c.model.predict_into(&c.data, &mut s.soft)
        });
        rec.span("core.lp", id, || {
            label_propagation_into(
                &c.data.adj_norm,
                &s.soft,
                cfg.k_lp,
                cfg.alpha,
                &mut s.steps,
                &mut s.prop,
            )
        });
        let h = rec.span("core.confidence", id, || {
            local_smoothing_confidence(s.steps.last().expect("k_lp >= 1"), &c.data.degrees_hat)
        });
        let sketch = rec.span("core.moments", id, || {
            mixed_moments_into(
                &s.steps,
                cfg.moment_order,
                cfg.moment_kind,
                &mut s.acc,
                &mut s.sketch,
            );
            s.sketch.clone()
        });
        (loss, (params, h, sketch, c.n_train()))
    }

    /// Algorithm 2 over whoever reported, then each aggregate installed
    /// into its client. Returns `(mean |I_i|, bytes Eq. 7 moved)`.
    fn aggregate_and_install(&mut self, results: Vec<(usize, f32, Upload)>) -> (f64, f64) {
        let Self {
            rec,
            clients,
            personalized,
            cfg,
            w,
            last_sketches,
            ..
        } = self;
        let agg = rec.enter("core.aggregate", NONE);
        let uploads: Vec<ClientUpload<'_>> = results
            .iter()
            .map(|(_, _, (p, h, m, n))| ClientUpload {
                params: p,
                confidence: *h,
                moments: m,
                n_train: *n,
            })
            .collect();
        let opts = AggregateOptions {
            epsilon: cfg.epsilon,
            epsilon_quantile: cfg.epsilon_quantile,
            similarity: cfg.similarity,
            use_moments: cfg.use_moments,
            use_confidence: cfg.use_confidence,
        };
        let mut aggregated: Vec<Vec<f32>> = results
            .iter()
            .map(|(i, ..)| personalized[*i].take().unwrap_or_default())
            .collect();
        let report = personalized_aggregate_into(&uploads, &opts, w.threads_outer, &mut aggregated);
        rec.exit(agg);
        let plen = uploads[0].params.len() as f64;
        let members: f64 = report.entries.iter().map(|e| e.members.len() as f64).sum();
        let stats = (
            members / uploads.len() as f64,
            (members + uploads.len() as f64) * plen * 4.0,
        );
        rec.span("fed.install", NONE, || {
            for ((i, ..), buf) in results.iter().zip(aggregated) {
                clients[*i].model.set_params(&buf);
                personalized[*i] = Some(buf);
            }
        });
        *last_sketches = results.into_iter().map(|(_, _, (_, _, m, _))| m).collect();
        stats
    }

    /// One round over the channel transport: the orchestrator's scripted
    /// sampling, then `train_over_transport`'s request leg, client tasks,
    /// upload leg and collect leg, in that order, each public call under
    /// its stage span. Returns the accepted uploads in participant order.
    fn train_over_wire(
        &mut self,
        round: usize,
        tally: &mut WireTally,
    ) -> Vec<(usize, f32, Upload)> {
        let n = self.clients.len();
        // Plan: sample and script until a quorum survives (bounded).
        let sample = self.rec.enter("fed.sample", NONE);
        let (participants, script) = {
            let wire = self.wire.as_ref().expect("wire round");
            let base_k = participation_k(n, self.w.participation);
            let invite_k =
                ((base_k as f64 * wire.cc.oversample).round() as usize).clamp(base_k, n.max(1));
            let mut resample = 0usize;
            loop {
                let sampled = sample_k(n, invite_k, &mut self.rng);
                let s = RoundScript::build(
                    &wire.plan,
                    round,
                    resample,
                    &sampled,
                    base_k,
                    wire.cc.deadline_ms,
                );
                if s.accepted.len() >= wire.cc.min_quorum.max(1) {
                    break (sampled, Some(s));
                }
                if resample >= wire.cc.max_resamples {
                    break (sampled, None);
                }
                resample += 1;
            }
        };
        self.rec.exit(sample);
        let Some(script) = script else {
            return Vec::new(); // skipped round: nothing trains, nothing moves
        };
        let round32 = round as u32;

        // Server task, request leg: the coded broadcast rides each
        // scripted attempt.
        for &c in &participants {
            let Some(fate) = script.fate(c) else { continue };
            let Self {
                rec,
                wire,
                personalized,
                ..
            } = self;
            let wire = wire.as_ref().expect("wire round");
            let coded = personalized[c].as_deref().map(|v| {
                let body = rec.span("fed.codec_encode", c as u32, || {
                    encode_broadcast_coded(wire.down.as_ref(), v)
                });
                tally.down_encoded += body.len();
                body
            });
            let (kind, body) = match coded {
                Some(body) => (MsgKind::BroadcastCoded, body),
                None => (MsgKind::TrainRequest, Vec::new()),
            };
            send_attempts(
                rec,
                &wire.transport,
                Endpoint::Client(c),
                &fate.download,
                |seq| Envelope {
                    kind: kind as u8,
                    round: round32,
                    sender: SERVER_ID,
                    seq,
                    trace: None,
                    payload: body.clone(),
                },
            );
        }

        // Client tasks, in participant order.
        for &i in participants
            .iter()
            .filter(|c| script.fate(**c).is_some_and(|f| f.trains))
        {
            let fate = script.fate(i).expect("trainer has a fate");
            let id = i as u32;
            let wire_bcast = {
                let Self { rec, wire, .. } = self;
                let wire = wire.as_ref().expect("wire round");
                let frames = rec.span("fed.transport", id, || {
                    wire.transport.drain(Endpoint::Client(i))
                });
                let mut requested = false;
                let mut bcast: Option<Vec<f32>> = None;
                for frame in frames {
                    let Ok(env) = rec.span("fed.envelope_decode", id, || Envelope::decode(&frame))
                    else {
                        continue; // CRC reject
                    };
                    if env.round != round32 {
                        continue;
                    }
                    if env.kind == MsgKind::BroadcastCoded as u8 {
                        bcast = Some(
                            rec.span("fed.codec_decode", id, || {
                                decode_broadcast_coded(wire.down.as_ref(), &env.payload)
                            })
                            .expect("CRC-valid broadcast decodes"),
                        );
                        requested = true;
                    } else if env.kind == MsgKind::TrainRequest as u8 {
                        requested = true;
                    }
                }
                assert!(requested, "scripted trainer {i} received no valid request");
                bcast
            };
            load_broadcast(&mut self.rec, &mut self.clients[i], wire_bcast.as_deref());
            let (loss, mut payload) = self.local_step(i);

            let Self {
                rec, wire, clients, ..
            } = self;
            let wire = wire.as_ref().expect("wire round");
            // Error feedback: each payload tensor becomes its
            // residual-folded delta against the broadcast anchor.
            let state = clients[i].ef.get_or_insert_with(Default::default);
            let folds: Vec<Folded> = rec.span("fed.ef_fold", id, || {
                if let Some(a) = wire_bcast.as_deref() {
                    state.tensor(0).rebase(a);
                }
                let mut folds = Vec::new();
                payload.visit_tensors(&mut |v| {
                    let folded = state.tensor(folds.len()).fold(v);
                    v.clear();
                    v.extend_from_slice(&folded.fed);
                    folds.push(folded);
                });
                folds
            });
            let body = rec.span("fed.codec_encode", id, || {
                // The product meters the plain encoding's length beside
                // the coded body, so that cost belongs to this stage.
                std::hint::black_box(encode_upload(loss, &payload).len());
                encode_upload_routed(
                    wire.codec.as_ref(),
                    Some(wire.sketch.as_ref()),
                    loss,
                    &payload,
                )
            });
            tally.up_encoded += body.len();
            // Commit against the local decode of the client's own bytes.
            let commit = rec.enter("fed.ef_commit", id);
            let (_, mut dec) = rec
                .span("fed.codec_decode", id, || {
                    decode_upload_routed::<Upload>(
                        wire.codec.as_ref(),
                        Some(wire.sketch.as_ref()),
                        &body,
                    )
                })
                .expect("own coded upload decodes");
            let mut t = 0usize;
            dec.visit_tensors(&mut |d| {
                state.tensor(t).commit(&folds[t], d, fate.accepted);
                t += 1;
            });
            rec.exit(commit);
            send_attempts(
                rec,
                &wire.transport,
                Endpoint::Server,
                &fate.upload,
                |seq| Envelope {
                    kind: MsgKind::UploadCoded as u8,
                    round: round32,
                    sender: id,
                    seq,
                    trace: None,
                    payload: body.clone(),
                },
            );
        }

        let Self {
            rec,
            wire,
            personalized,
            ..
        } = self;
        let wire = wire.as_mut().expect("wire round");
        // Unreachable participants still hold the garbage they were sent.
        for &c in participants
            .iter()
            .filter(|c| script.fate(**c).is_some_and(|f| !f.trains))
        {
            for frame in rec.span("fed.transport", c as u32, || {
                wire.transport.drain(Endpoint::Client(c))
            }) {
                let _ = rec.span("fed.envelope_decode", c as u32, || Envelope::decode(&frame));
            }
        }
        // Server task, collect leg: decode by sender.
        let mut by_sender: BTreeMap<u32, (f32, Upload)> = BTreeMap::new();
        for frame in rec.span("fed.transport", NONE, || {
            wire.transport.drain(Endpoint::Server)
        }) {
            let Ok(env) = rec.span("fed.envelope_decode", NONE, || Envelope::decode(&frame)) else {
                continue;
            };
            if env.kind != MsgKind::UploadCoded as u8 || env.round != round32 {
                continue;
            }
            let decoded = rec.span("fed.codec_decode", env.sender, || {
                decode_upload_routed::<Upload>(
                    wire.codec.as_ref(),
                    Some(wire.sketch.as_ref()),
                    &env.payload,
                )
            });
            if let Ok(v) = decoded {
                by_sender.insert(env.sender, v);
            }
        }
        let mut out = Vec::with_capacity(script.accepted.len());
        for &c in participants
            .iter()
            .filter(|c| script.fate(**c).is_some_and(|f| f.accepted))
        {
            let (loss, mut payload) = by_sender
                .remove(&(c as u32))
                .expect("accepted upload arrived intact");
            // Server half of error feedback: re-derive the anchor the
            // client used by round-tripping its own broadcast encoding,
            // then turn the decoded delta back into the tensor.
            let state = wire.ef_server.entry(c).or_default();
            let commit = rec.enter("fed.ef_commit", c as u32);
            if let Some(v) = personalized[c].as_deref() {
                let body = rec.span("fed.codec_encode", c as u32, || {
                    encode_broadcast_coded(wire.down.as_ref(), v)
                });
                let rt = rec
                    .span("fed.codec_decode", c as u32, || {
                        decode_broadcast_coded(wire.down.as_ref(), &body)
                    })
                    .expect("own broadcast round-trips");
                state.tensor(0).rebase(&rt);
            }
            let mut t = 0usize;
            payload.visit_tensors(&mut |v| {
                state.tensor(t).apply_delta(v);
                t += 1;
            });
            rec.exit(commit);
            out.push((c, loss, payload));
        }
        out
    }
}

/// Loads the start-of-round model `v` into `c` — the client's
/// personalized vector from last round, or its wire-decoded copy — and
/// resets the optimizer; a client with no broadcast yet trains on.
fn load_broadcast(rec: &mut Recorder, c: &mut Client, v: Option<&[f32]>) {
    rec.span("fed.load_broadcast", c.id as u32, || {
        if let Some(v) = v {
            c.model.set_params(v);
            c.opt.reset();
        }
    });
}

/// Encoded wire bytes of one round, as `CommsRound` tallies them: once
/// per trainer up, once per invited participant with a broadcast down.
#[derive(Default)]
struct WireTally {
    up_encoded: usize,
    down_encoded: usize,
}

/// Plays one message's scripted attempts: a dropped attempt is never
/// enqueued, a corrupted one is enqueued with a flipped bit so the
/// receiver's CRC rejection is real.
fn send_attempts(
    rec: &mut Recorder,
    transport: &ChannelTransport,
    to: Endpoint,
    attempts: &[AttemptFate],
    envelope: impl Fn(u32) -> Envelope,
) {
    let client = match to {
        Endpoint::Client(c) => c as u32,
        Endpoint::Server => NONE,
    };
    for (seq, attempt) in attempts.iter().enumerate() {
        let bit_seed = match attempt {
            AttemptFate::Drop => continue,
            AttemptFate::Corrupt { bit_seed } => Some(*bit_seed),
            AttemptFate::Deliver { .. } => None,
        };
        let mut frame = rec.span("fed.envelope_encode", client, || {
            envelope(seq as u32).encode()
        });
        if let Some(bit_seed) = bit_seed {
            corrupt_frame(&mut frame, bit_seed);
        }
        rec.span("fed.transport", client, || {
            let _ = transport.send(to, frame);
        });
    }
}
