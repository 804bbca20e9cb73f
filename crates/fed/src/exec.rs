//! Deterministic client-parallel execution of local training.
//!
//! [`train_participants`] is the one way strategies run their per-client
//! local step. The closure receives `(client_index, &mut Client)` and may
//! run on a worker thread; everything else — parameter aggregation,
//! strategy-state updates, floating-point reductions — stays on the driver
//! thread in **participant order**. Combined with the determinism contract
//! of [`fedgta_graph::par::par_map_indexed`] (contiguous chunking, one
//! worker per disjoint slot, input-order collection, nested-parallelism
//! suppression), every federated round is bit-identical for any thread
//! count: `threads = 1` and `threads = 64` produce the same losses,
//! parameters and accuracies.
//!
//! Why this is safe to parallelize:
//!
//! - each [`Client`] owns its dataset, its model's parameters and, while
//!   nothing will reset them, its optimizer's moments; the scratch it
//!   trains through is a [`crate::kit::Kit`] its worker holds exclusively
//!   for the turn — no shared mutable state between participants;
//! - closures only capture shared *immutable* round state (the global
//!   parameters, per-client anchors, configuration);
//! - any strategy state touched by more than one client (control variates,
//!   drift vectors, momentum buffers) is updated after the parallel
//!   section, on the driver, in participant order.

use crate::client::Client;
use crate::faults::AttemptFate;
use crate::kit::{lend, Kit, Moments, Pool};
use crate::strategies::{Broadcast, RoundCtx};
use crate::transport::{
    corrupt_frame, decode_broadcast_coded, decode_upload, decode_upload_routed,
    encode_broadcast_coded, encode_upload, encode_upload_routed, CommsRound, Endpoint, MsgKind,
    WirePayload, SERVER_ID,
};
use fedgta_graph::io::{Envelope, TraceContext};
use fedgta_graph::par::par_map_indexed;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;

/// The outcome of one participant's local step.
///
/// `payload` carries whatever the strategy needs downstream (uploaded
/// parameters, step counts, sketches); the executor itself only fixes the
/// loss so [`mean_loss`] works uniformly.
pub struct LocalResult<R> {
    /// Client index in the federation (the participant id).
    pub client: usize,
    /// Mean local training loss reported by the per-client closure.
    pub loss: f32,
    /// Strategy-specific payload.
    pub payload: R,
}

/// Runs `f(client_index, &mut client)` for every participant, in parallel
/// across `ctx.threads` workers (0 = auto via `FEDGTA_THREADS` /
/// available parallelism), returning results **in participant order**.
///
/// `participants` may be in any order (GCFL+ clusters are unsorted after
/// a split) but must be unique and in range; the result vector matches
/// the caller's order exactly, so downstream floating-point reductions
/// are order-stable regardless of which worker ran which client.
///
/// One pipeline serves every round: dispatch → per client (receive →
/// load broadcast → timed train → upload) → collect → server-side error
/// feedback. With `ctx.kits` set, the worker lends the client a
/// [`crate::kit::Kit`] for that whole turn: its arena, and — only when the
/// client's slot in the broadcast makes the executor `reset()` the
/// optimizer anyway — its moment vectors (the client's own are dead at
/// that point and are freed). A personal slot that lives in
/// its client's model ([`crate::strategies::Store`]) is loaded by nothing,
/// but resets all the same. A turn that starts from no slot trains on the
/// client's own moments; under a declared broadcast whose upload will
/// reach the server (always in memory, `fate.accepted` on the wire) they
/// die with the turn, because the client then has a slot for its next one
/// ([`Broadcast`]'s arrival contract). A client nobody broadcasts to, or
/// whose upload is lost, keeps them.
///
/// A payload's [`crate::ParamTensor::Resident`] tensor is given bytes of
/// its own ([`WirePayload::own_resident`]) only where a stage needs them:
/// before the error-feedback fold and encoding. In memory it returns still
/// resident, for the strategy to read off the client's model.
///
/// The four wire stages are methods of the
/// round's [`CommsRound`] and run only when `ctx.comms` carries one; without it
/// results return in memory, which *is* the pre-transport simulator. On
/// the wire, three determinism anchors hold:
///
/// 1. *which* clients train, retry, straggle or crash is fixed by the
///    script before any thread spawns;
/// 2. [`WirePayload`] encoding is bit-exact, so a decoded upload equals
///    the in-memory result;
/// 3. uploads may land in the server mailbox in any interleaving, but
///    results are reassembled by sender id **in participant order**.
///
/// With a clean script (no faults, every participant accepted) the
/// training calls, their order, and the returned results are therefore
/// exactly the in-process ones — contract (1) of the transport layer.
///
/// # Panics
///
/// Panics on duplicate or out-of-range participant indices, and
/// propagates any panic raised inside `f`.
pub fn train_participants<R, F>(
    clients: &mut [Client],
    participants: &[usize],
    ctx: &RoundCtx<'_>,
    f: F,
) -> Vec<LocalResult<R>>
where
    R: Send + WirePayload,
    F: Fn(usize, &mut Client) -> (f32, R) + Sync,
{
    let wire = ctx.comms;
    // On the wire exactly the clients whose scripted request leg
    // succeeded train — including ones whose upload will be lost or
    // arrive too late (their local model still moves, like a real
    // deployment's would; the server just never sees the update).
    let trainers: Cow<'_, [usize]> = match wire {
        Some(w) => participants
            .iter()
            .copied()
            .filter(|c| w.script.fate(*c).is_some_and(|fa| fa.trains))
            .collect(),
        None => Cow::Borrowed(participants),
    };
    // The `train` span opens on the driver thread (nesting under the
    // round's span via the thread-local stack); per-client spans run on
    // worker threads and parent onto it explicitly via `span_under`.
    let span = fedgta_obs::span!("train", participants = trainers.len());
    let parent = span.id();
    let sent = wire.map(|w| w.dispatch(participants, ctx.broadcast, parent));
    let t0 = ctx.train_clock.is_some().then(std::time::Instant::now);
    let mut slots = disjoint_slots(clients, &trainers);
    let trained = par_map_indexed(&mut slots, Some(ctx.threads), |_, (i, c)| {
        let i = *i;
        // A client with a slot starts from it — loaded below, or already
        // its model when the slot lives there — with a reset optimizer.
        let holds = ctx.broadcast.is_some_and(|b| b.holds(i));
        let declared = ctx.broadcast.and_then(|b| b.vector_for(i));
        let (span_parent, start) = match wire {
            Some(w) => w.receive(i, parent, declared),
            None => (parent, declared.map(Cow::Borrowed)),
        };
        let cg = fedgta_obs::span_under("client_train", span_parent)
            .with_field("client", fedgta_obs::JsonVal::from(i));
        // The worker's kit for the whole turn — with its moment vectors
        // exactly when the optimizer is reset below. A turn from no slot
        // trains on the client's own, which die with it when the client's
        // next turn is sure to start from a slot (`Broadcast`'s arrival
        // contract).
        let arrives = wire.is_none_or(|w| w.script.fate(i).is_some_and(|fa| fa.accepted));
        let moments = if holds {
            Moments::Lend
        } else if ctx.broadcast.is_some() && arrives {
            Moments::Drop
        } else {
            Moments::Keep
        };
        lend(ctx.kits, c, moments, |c| {
            // Declared start-of-round broadcast: load the strategy's model
            // for this participant before its local step.
            if let Some(v) = start.as_deref() {
                c.model.set_params(v);
            }
            if holds {
                c.opt.reset();
            }
            let ct0 = fedgta_obs::metrics_on().then(std::time::Instant::now);
            let (loss, payload) = f(i, c);
            if let Some(ct0) = ct0 {
                fedgta_obs::histogram!("round.client.train_ns")
                    .observe(ct0.elapsed().as_nanos() as u64);
            }
            match wire {
                Some(w) => {
                    w.upload(i, c, start.as_deref(), loss, payload, cg.id());
                    None
                }
                None => Some(LocalResult { client: i, loss, payload }),
            }
        })
    });
    if let (Some(t0), Some(clock)) = (t0, ctx.train_clock) {
        clock.add_ns(t0.elapsed().as_nanos() as u64);
    }
    drop(span);
    match wire.zip(sent) {
        Some((w, sent)) => {
            let mut out = w.collect(participants);
            w.reconstruct(&mut out, &sent, ctx.broadcast);
            out
        }
        None => trained.into_iter().flatten().collect(),
    }
}

/// The wire stages of [`train_participants`], in pipeline order.
impl CommsRound<'_> {
    /// Plays one message's scripted attempts, one envelope each. Dropped
    /// frames are never enqueued (lost in flight); corrupt frames are
    /// enqueued mangled so the receiver's CRC rejection is real. When
    /// tracing is armed each frame carries `span` as its wire trace
    /// context, so the receiver parents its spans by correlation id off
    /// the frame — not through process-local state — exactly what a real
    /// socket transport will need.
    fn send_attempts(
        &self,
        to: Endpoint,
        attempts: &[AttemptFate],
        kind: MsgKind,
        sender: u32,
        span: u64,
        body: &[u8],
    ) {
        // Attached only when tracing is armed *and* the local span is
        // real, so untraced runs (including recorder-only runs) keep the
        // version-1 wire layout byte for byte.
        let trace = (fedgta_obs::trace_on() && span != 0)
            .then(|| TraceContext { trace_id: fedgta_obs::run_trace_id(), parent_span: span });
        for (seq, a) in attempts.iter().enumerate() {
            let bit_seed = match a {
                AttemptFate::Drop => {
                    self.tally.dropped.fetch_add(1, Relaxed);
                    continue;
                }
                AttemptFate::Corrupt { bit_seed } => Some(*bit_seed),
                AttemptFate::Deliver { .. } => None,
            };
            let mut frame = Envelope {
                kind: kind as u8,
                round: self.round as u32,
                sender,
                seq: seq as u32,
                trace,
                payload: body.to_vec(),
            }
            .encode();
            if let Some(bit_seed) = bit_seed {
                corrupt_frame(&mut frame, bit_seed);
            }
            let _ = self.transport.send(to, frame);
        }
    }

    /// Counts one received frame rejected as garbage.
    fn reject(&self) {
        self.tally.corrupted.fetch_add(1, Relaxed);
    }

    /// Drains the mailbox `at`, CRC-verifying every frame: garbage is
    /// rejected, this round's envelopes are yielded.
    fn inbox(&self, at: Endpoint) -> impl Iterator<Item = Envelope> + '_ {
        let verify = move |frame: Vec<u8>| {
            let env = Envelope::decode(&frame).map_err(|_| self.reject()).ok()?;
            (env.round == self.round as u32).then_some(env)
        };
        self.transport.drain(at).into_iter().filter_map(verify)
    }

    /// Server task, request leg. With a download codec armed and a
    /// broadcast vector declared for a participant, its request carries
    /// the coded model under [`MsgKind::BroadcastCoded`]; otherwise the
    /// frame is the classic empty-payload `TrainRequest`, byte for byte.
    /// Both download-leg byte tallies are metered here, once per invited
    /// participant (driver thread, participant order). Returns the coded
    /// bodies by client for [`Self::reconstruct`].
    fn dispatch(
        &self,
        participants: &[usize],
        broadcast: Option<Broadcast<'_>>,
        parent: u64,
    ) -> BTreeMap<usize, Vec<u8>> {
        let mut coded = BTreeMap::new();
        for &c in participants {
            let Some(fate) = self.script.fate(c) else { continue };
            let vector = broadcast.and_then(|b| b.vector_for(c));
            let body = self.legs.down.as_deref().zip(vector).map(|(down, v)| {
                let body = encode_broadcast_coded(down, v);
                self.tally.down_raw.fetch_add(8 + 4 * v.len() as u64, Relaxed);
                self.tally.down_encoded.fetch_add(body.len() as u64, Relaxed);
                body
            });
            let (kind, bytes) = match &body {
                Some(body) => (MsgKind::BroadcastCoded, body.as_slice()),
                None => (MsgKind::TrainRequest, &[][..]),
            };
            let to = Endpoint::Client(c);
            self.send_attempts(to, &fate.download, kind, SERVER_ID, parent, bytes);
            coded.extend(body.map(|body| (c, body)));
        }
        coded
    }

    /// Client task, receive leg: reads the mailbox and returns the span
    /// to parent under — the server's span id off the frame's trace
    /// context (frames from another run's trace keep the local `parent`)
    /// — plus the model to start from: the wire-decoded (possibly lossy)
    /// broadcast when a download codec is armed, else the strategy's
    /// `declared` vector (no codec = the broadcast never crosses the
    /// transport).
    fn receive<'b>(
        &self,
        i: usize,
        parent: u64,
        declared: Option<&'b [f32]>,
    ) -> (u64, Option<Cow<'b, [f32]>>) {
        let down = self.legs.down.as_deref();
        let mut requested = false;
        let mut wire_parent = parent;
        let mut wire_bcast = None;
        for env in self.inbox(Endpoint::Client(i)) {
            if env.kind == MsgKind::BroadcastCoded as u8 {
                // CRC-valid coded broadcast: decode it with the armed
                // download codec (both ends are configured from the same
                // CommsConfig). A frame that fails here is hostile, not
                // faulted — reject it like any other garbage.
                let Some(Ok(v)) = down.map(|d| decode_broadcast_coded(d, &env.payload)) else {
                    self.reject();
                    continue;
                };
                wire_bcast = Some(v);
            } else if env.kind != MsgKind::TrainRequest as u8 {
                continue;
            }
            requested = true;
            let run = fedgta_obs::run_trace_id();
            if let Some(tc) = env.trace.filter(|tc| tc.trace_id == run) {
                wire_parent = tc.parent_span;
            }
        }
        assert!(requested, "scripted trainer {i} received no valid request");
        let start = match down {
            Some(_) => wire_bcast.map(Cow::Owned),
            None => declared.map(Cow::Borrowed),
        };
        (wire_parent, start)
    }

    /// Client task, upload leg: the real result bytes cross the wire;
    /// scripted corruption mangles the physical frame. With a codec armed
    /// the body is the *encoded* frame — corruption and drops hit the
    /// compressed bytes. Both byte tallies are metered here, once per
    /// trainer. With error feedback armed the payload is first folded
    /// against `start`, the model this client just loaded (see
    /// [`crate::ef`]); fold and commit touch only this client's own state
    /// inside its exclusive worker closure — deterministic at any thread
    /// count.
    fn upload<R: WirePayload>(
        &self,
        i: usize,
        c: &mut Client,
        start: Option<&[f32]>,
        loss: f32,
        mut payload: R,
        client_span: u64,
    ) {
        let fate = self.script.fate(i).expect("trainer has a fate");
        payload.own_resident(c.model.param_slice());
        let (kind, raw_len, body) = match self.legs.up.as_deref() {
            None => {
                let body = encode_upload(loss, &payload);
                (MsgKind::Upload, body.len(), body)
            }
            Some(codec) => {
                let sketch = self.legs.sketch.as_deref();
                let mut state =
                    self.legs.ef.as_ref().map(|_| c.ef.get_or_insert_with(Default::default));
                if let Some(state) = state.as_mut() {
                    state.fold_payload(start, &mut payload);
                }
                let raw_len = loss.encoded_len() + payload.encoded_len();
                let et0 = fedgta_obs::metrics_on().then(std::time::Instant::now);
                let body = encode_upload_routed(codec, sketch, loss, &payload);
                if let Some(et0) = et0 {
                    fedgta_obs::histogram!("comms.codec.encode_ns")
                        .observe(et0.elapsed().as_nanos() as u64);
                }
                if let Some(state) = state {
                    let (_, mut dec) = decode_upload_routed::<R>(codec, sketch, &body)
                        .expect("own coded upload decodes");
                    state.commit_payload(&mut dec, fate.accepted);
                }
                (MsgKind::UploadCoded, raw_len, body)
            }
        };
        self.tally.up_raw.fetch_add(raw_len as u64, Relaxed);
        self.tally.up_encoded.fetch_add(body.len() as u64, Relaxed);
        self.send_attempts(Endpoint::Server, &fate.upload, kind, i as u32, client_span, &body);
    }

    /// Server task, collect leg: mailbox arrival order is a thread-race
    /// artifact; decode by sender, then emit accepted results in
    /// participant order so downstream reductions are order-stable.
    fn collect<R: WirePayload>(&self, participants: &[usize]) -> Vec<LocalResult<R>> {
        // Unreachable participants whose request leg delivered only
        // corrupt frames never train, but their mailbox still holds the
        // garbage — reject it now so no stale frame leaks into the next
        // round.
        for &c in participants {
            if self.script.fate(c).is_some_and(|fate| !fate.trains) {
                self.inbox(Endpoint::Client(c)).for_each(drop);
            }
        }
        let up = self.legs.up.as_deref();
        let expected_kind = if up.is_some() { MsgKind::UploadCoded } else { MsgKind::Upload };
        let mut by_sender: BTreeMap<u32, (f32, R)> = BTreeMap::new();
        for env in self.inbox(Endpoint::Server) {
            if env.kind != expected_kind as u8 {
                continue;
            }
            let decoded = match up {
                None => decode_upload::<R>(&env.payload),
                Some(codec) => {
                    decode_upload_routed::<R>(codec, self.legs.sketch.as_deref(), &env.payload)
                }
            };
            let Ok(v) = decoded else {
                self.reject();
                continue;
            };
            by_sender.insert(env.sender, v);
        }
        record_comms_metrics(
            self.tally.dropped.load(Relaxed),
            self.tally.corrupted.load(Relaxed),
            self.script.total_retries(),
        );
        participants
            .iter()
            .filter(|c| self.script.fate(**c).is_some_and(|fate| fate.accepted))
            .map(|&c| {
                let (loss, payload) =
                    by_sender.remove(&(c as u32)).expect("accepted upload arrived intact");
                LocalResult { client: c, loss, payload }
            })
            .collect()
    }

    /// Server half of error feedback: the wire carried deltas — fold each
    /// into its client's reference to reconstruct the tensors the
    /// strategy aggregates. Driver thread, participant order. The mirror
    /// re-bases at the bits the client loaded: with a download codec
    /// armed that was the *wire-decoded* vector, which the server
    /// re-derives by decoding the body `dispatch` sent.
    fn reconstruct<R: WirePayload>(
        &self,
        results: &mut [LocalResult<R>],
        sent: &BTreeMap<usize, Vec<u8>>,
        broadcast: Option<Broadcast<'_>>,
    ) {
        let (Some(ef), Some(_)) = (&self.legs.ef, &self.legs.up) else { return };
        for r in results {
            let anchor = match self.legs.down.as_deref().zip(sent.get(&r.client)) {
                Some((down, body)) => Some(Cow::Owned(
                    decode_broadcast_coded(down, body).expect("own broadcast round-trips"),
                )),
                None => broadcast.and_then(|b| b.vector_for(r.client)).map(Cow::Borrowed),
            };
            ef.reconstruct(r.client, anchor.as_deref(), &mut r.payload);
        }
    }
}

/// Accumulates the transport fault counters into the global registry
/// (no-op below metrics level).
#[inline]
pub(crate) fn record_comms_metrics(dropped: u64, corrupted: u64, retries: u64) {
    if !fedgta_obs::metrics_on() {
        return;
    }
    fedgta_obs::counter!("comms.dropped").add(dropped);
    fedgta_obs::counter!("comms.corrupted").add(corrupted);
    fedgta_obs::counter!("comms.retries").add(retries);
}

/// Runs `f(client_index, &mut client)` over an arbitrary subset of
/// clients (deterministically parallel, results in `indices` order).
///
/// The evaluation/prediction sibling of [`train_participants`] for code
/// that maps over clients without the loss bookkeeping — e.g. FedGL's
/// prediction fusion or global accuracy. Same ordering and uniqueness
/// contract; `kits` lends each client's model a worker's arena for the
/// call.
pub fn par_clients<R, F>(
    clients: &mut [Client],
    indices: &[usize],
    threads: usize,
    kits: Option<&Pool<Kit>>,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut Client) -> R + Sync,
{
    let mut slots = disjoint_slots(clients, indices);
    par_map_indexed(&mut slots, Some(threads), |_, (i, c)| {
        lend(kits, c, Moments::Keep, |c| f(*i, c))
    })
}

/// Mean loss over local results (0 when empty).
pub fn mean_loss<R>(results: &[LocalResult<R>]) -> f32 {
    let n = results.len();
    if n == 0 {
        return 0.0;
    }
    results.iter().map(|r| r.loss).sum::<f32>() / n as f32
}

/// Collects disjoint `&mut Client` references for `indices`, preserving
/// the caller's order. Panics on duplicates or out-of-range indices.
fn disjoint_slots<'a>(
    clients: &'a mut [Client],
    indices: &[usize],
) -> Vec<(usize, &'a mut Client)> {
    let n = clients.len();
    let mut free: Vec<Option<&mut Client>> = clients.iter_mut().map(Some).collect();
    let mut pick = |i: usize| {
        assert!(i < n, "participant index {i} out of range (federation size {n})");
        free[i].take().unwrap_or_else(|| panic!("duplicate participant index {i}"))
    };
    indices.iter().map(|&i| (i, pick(i))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::test_support::small_federation;
    use fedgta_nn::models::ModelKind;

    #[test]
    fn results_follow_participant_order_even_when_unsorted() {
        let mut clients = small_federation(ModelKind::Sgc, 30);
        let order = [2usize, 0, 3];
        let results =
            train_participants(&mut clients, &order, &RoundCtx::plain(0), |i, c| (i as f32, c.id));
        let got: Vec<usize> = results.iter().map(|r| r.client).collect();
        assert_eq!(got, order);
        for r in &results {
            assert_eq!(r.loss, r.client as f32);
            assert_eq!(r.payload, r.client);
        }
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let train = |threads: usize| {
            let mut clients = small_federation(ModelKind::Sgc, 31);
            let ctx = RoundCtx::with_threads(2, threads);
            let r = train_participants(&mut clients, &[0, 1, 2, 3], &ctx, |i, c| {
                let mut hooks = fedgta_nn::TrainHooks::none();
                let loss = c.train_local(ctx.epochs, &mut hooks);
                (loss, (i, c.model.params()))
            });
            (
                r.iter().map(|x| x.loss.to_bits()).collect::<Vec<_>>(),
                r.into_iter().map(|x| x.payload.1).collect::<Vec<_>>(),
            )
        };
        assert_eq!(train(1), train(4));
    }

    #[test]
    #[should_panic(expected = "duplicate participant index")]
    fn duplicate_participants_panic() {
        let mut clients = small_federation(ModelKind::Sgc, 32);
        train_participants(&mut clients, &[1, 1], &RoundCtx::plain(0), |_, _| (0.0, ()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_participant_panics() {
        let mut clients = small_federation(ModelKind::Sgc, 33);
        train_participants(&mut clients, &[99], &RoundCtx::plain(0), |_, _| (0.0, ()));
    }

    #[test]
    fn empty_participants_give_empty_results() {
        let mut clients = small_federation(ModelKind::Sgc, 34);
        let r = train_participants(&mut clients, &[], &RoundCtx::plain(1), |_, _| (1.0, ()));
        assert!(r.is_empty());
        assert_eq!(mean_loss(&r), 0.0);
    }

    // ---- wire stages, one test each, against a hand-written script ----

    use crate::codec::CodecSpec;
    use crate::faults::{ClientFate, RoundScript};
    use crate::strategies::Store;
    use crate::transport::{ChannelTransport, Legs, Transport};

    const OK: AttemptFate = AttemptFate::Deliver { delay_ms: 0 };
    const BAD: AttemptFate = AttemptFate::Corrupt { bit_seed: 77 };
    const LOST: AttemptFate = AttemptFate::Drop;

    /// A script from `(client, request attempts, upload attempts, accepted)`
    /// rows; a client trains iff its last request attempt delivers.
    fn script(round: usize, rows: &[(usize, &[AttemptFate], &[AttemptFate], bool)]) -> RoundScript {
        let fates: BTreeMap<usize, ClientFate> = rows
            .iter()
            .map(|&(client, download, upload, accepted)| {
                let fate = ClientFate {
                    client,
                    crashed: false,
                    trains: download.last() == Some(&OK),
                    download: download.to_vec(),
                    upload: upload.to_vec(),
                    arrival_ms: accepted.then_some(1),
                    retries: 0,
                    accepted,
                };
                (client, fate)
            })
            .collect();
        let accepted = fates.values().filter(|f| f.accepted).map(|f| f.client).collect();
        RoundScript { round, resample: 0, deadline_ms: 0, fates, accepted, events: Vec::new() }
    }

    fn wire<'a>(
        transport: &'a ChannelTransport,
        script: &'a RoundScript,
        legs: &'a Legs,
    ) -> CommsRound<'a> {
        CommsRound { round: script.round, transport, script, legs, tally: Default::default() }
    }

    fn quant_i8() -> Option<Box<dyn crate::codec::Codec>> {
        Some(CodecSpec::parse("quant-i8").unwrap().build())
    }

    fn frame(kind: MsgKind, round: u32, sender: u32, payload: Vec<u8>) -> Envelope {
        Envelope { kind: kind as u8, round, sender, seq: 0, trace: None, payload }
    }

    #[test]
    fn dispatch_sends_exactly_the_scripted_attempts() {
        let t = ChannelTransport::new(4);
        let s = script(
            5,
            &[(0, &[LOST, BAD, OK], &[], false), (2, &[OK], &[], false), (3, &[LOST], &[], false)],
        );
        let legs = Legs::default();
        let w = wire(&t, &s, &legs);
        // Client 1 is a participant the script never sampled: no traffic.
        let coded = w.dispatch(&[0, 1, 2, 3], None, 0);
        assert!(coded.is_empty(), "no download codec, no coded bodies");
        let to0 = t.drain(Endpoint::Client(0));
        assert_eq!(to0.len(), 2, "the dropped attempt was never enqueued");
        assert!(Envelope::decode(&to0[0]).is_err(), "the corrupt attempt fails its CRC");
        let mut want = frame(MsgKind::TrainRequest, 5, SERVER_ID, Vec::new());
        want.seq = 2;
        assert_eq!(Envelope::decode(&to0[1]).unwrap(), want);
        want.seq = 0;
        assert_eq!(t.drain(Endpoint::Client(2)), vec![want.encode()]);
        assert!(t.drain(Endpoint::Client(1)).is_empty() && t.drain(Endpoint::Client(3)).is_empty());
        assert_eq!(w.tally.dropped.load(Relaxed), 2);

        // With a download codec the request carries the coded broadcast,
        // metered once per invited participant — even one whose every
        // attempt is then lost.
        let legs = Legs { down: quant_i8(), ..Legs::default() };
        let w = wire(&t, &s, &legs);
        let global = [0.5f32, -1.0, 2.0];
        let shared = Store::shared(global.to_vec(), 4);
        let coded = w.dispatch(&[0, 2, 3], Some(&shared), 0);
        let body = encode_broadcast_coded(legs.down.as_deref().unwrap(), &global);
        assert_eq!(
            coded,
            BTreeMap::from([(0, body.clone()), (2, body.clone()), (3, body.clone())])
        );
        assert_eq!(w.tally.down_raw.load(Relaxed), 3 * (8 + 4 * 3));
        assert_eq!(w.tally.down_encoded.load(Relaxed), 3 * body.len() as u64);
        let got = Envelope::decode(&t.drain(Endpoint::Client(2))[0]).unwrap();
        assert_eq!(got, frame(MsgKind::BroadcastCoded, 5, SERVER_ID, body));
    }

    #[test]
    fn receive_rejects_wrong_round_foreign_trace_and_undecodable_broadcasts() {
        let t = ChannelTransport::new(2);
        let s = script(3, &[(1, &[OK], &[], false)]);
        let legs = Legs { down: quant_i8(), ..Legs::default() };
        let down = legs.down.as_deref().unwrap();
        let w = wire(&t, &s, &legs);
        let (stale, fresh) = ([9.0f32, 9.0], [1.0f32, -1.0]);
        let send = |env: Envelope| t.send(Endpoint::Client(1), env.encode()).unwrap();
        // Another round's broadcast: ignored, not loaded.
        send(frame(MsgKind::BroadcastCoded, 2, SERVER_ID, encode_broadcast_coded(down, &stale)));
        // CRC-valid but undecodable under the armed codec: rejected.
        send(frame(MsgKind::BroadcastCoded, 3, SERVER_ID, vec![0xFF; 3]));
        // Physically mangled: rejected by CRC.
        let mut mangled = frame(MsgKind::TrainRequest, 3, SERVER_ID, Vec::new()).encode();
        corrupt_frame(&mut mangled, 13);
        t.send(Endpoint::Client(1), mangled).unwrap();
        // The real request — but stamped with another run's trace id.
        let mut req =
            frame(MsgKind::BroadcastCoded, 3, SERVER_ID, encode_broadcast_coded(down, &fresh));
        let foreign = fedgta_obs::run_trace_id() ^ 2;
        req.trace = Some(TraceContext { trace_id: foreign, parent_span: 999 });
        send(req.clone());
        let (parent, start) = w.receive(1, 42, Some(&stale));
        assert_eq!(parent, 42, "a foreign trace id must not re-parent the client span");
        let want = decode_broadcast_coded(down, &req.payload).unwrap();
        assert_eq!(start.as_deref(), Some(want.as_slice()), "only this round's broadcast loads");
        assert_eq!(w.tally.corrupted.load(Relaxed), 2);
        // Same frame under this run's trace id: the wire parent wins.
        req.trace = Some(TraceContext { trace_id: fedgta_obs::run_trace_id(), parent_span: 777 });
        send(req);
        assert_eq!(w.receive(1, 42, None).0, 777);
    }

    #[test]
    fn upload_meters_raw_and_encoded_bytes_once_per_trainer() {
        let mut clients = small_federation(ModelKind::Sgc, 35);
        let t = ChannelTransport::new(4);
        let s = script(1, &[(0, &[OK], &[BAD, OK], true), (1, &[OK], &[LOST], false)]);
        let legs = Legs { up: quant_i8(), ..Legs::default() };
        let w = wire(&t, &s, &legs);
        let payload = (vec![0.25f32, -3.0, 1.5, 8.0], 0.5f64);
        w.upload(0, &mut clients[0], None, 0.75, payload.clone(), 0);
        w.upload(1, &mut clients[1], None, 0.75, payload.clone(), 0);
        // One tally per trainer, however many attempts its script plays
        // (client 0: two frames; client 1: none — its upload is lost).
        let raw = encode_upload(0.75, &payload).len() as u64;
        let body = encode_upload_routed(legs.up.as_deref().unwrap(), None, 0.75, &payload);
        assert!((body.len() as u64) < raw);
        assert_eq!(w.tally.up_raw.load(Relaxed), 2 * raw);
        assert_eq!(w.tally.up_encoded.load(Relaxed), 2 * body.len() as u64);
        assert_eq!(w.tally.dropped.load(Relaxed), 1);
        let frames = t.drain(Endpoint::Server);
        assert_eq!(frames.len(), 2);
        assert!(Envelope::decode(&frames[0]).is_err());
        let mut want = frame(MsgKind::UploadCoded, 1, 0, body);
        want.seq = 1;
        assert_eq!(Envelope::decode(&frames[1]).unwrap(), want);
    }

    #[test]
    fn collect_returns_accepted_results_in_participant_order() {
        let t = ChannelTransport::new(4);
        // Client 2's upload arrives but the script did not accept it
        // (a straggler); client 0 never trained and holds garbage.
        let s = script(
            4,
            &[
                (3, &[OK], &[OK], true),
                (1, &[OK], &[OK], true),
                (2, &[OK], &[OK], false),
                (0, &[BAD], &[], false),
            ],
        );
        let legs = Legs::default();
        let w = wire(&t, &s, &legs);
        let upload = |round: u32, sender: usize, v: f32| {
            frame(MsgKind::Upload, round, sender as u32, encode_upload(v, &vec![v; 2])).encode()
        };
        let mut mangled = upload(4, 1, 6.0);
        corrupt_frame(&mut mangled, 5);
        // Mailbox order is a thread race: 2, 1, garbage, a stale round-3
        // frame from 3, then 3's real upload.
        for f in
            [upload(4, 2, 2.0), upload(4, 1, 1.0), mangled, upload(3, 3, 9.0), upload(4, 3, 3.0)]
        {
            t.send(Endpoint::Server, f).unwrap();
        }
        w.dispatch(&[0], None, 0);
        let out: Vec<LocalResult<Vec<f32>>> = w.collect(&[3, 1, 2, 0]);
        let got: Vec<(usize, f32, Vec<f32>)> =
            out.into_iter().map(|r| (r.client, r.loss, r.payload)).collect();
        assert_eq!(got, vec![(3, 3.0, vec![3.0; 2]), (1, 1.0, vec![1.0; 2])]);
        assert_eq!(w.tally.corrupted.load(Relaxed), 2, "one mangled upload, one mangled request");
        assert!(
            t.drain(Endpoint::Client(0)).is_empty(),
            "no stale frame leaks into the next round"
        );
    }

    // ---- what a turn leaves the client holding ----

    use crate::transport::ParamTensor;
    use fedgta_nn::TrainHooks;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One epoch, uploading the model as trained.
    fn one_epoch(_: usize, c: &mut Client) -> (f32, ParamTensor) {
        (c.train_local(1, &mut TrainHooks::none()), ParamTensor::Resident)
    }

    #[test]
    fn a_first_turn_whose_upload_arrives_ends_holding_no_moments() {
        // FedGTA's round 1: a declared broadcast with no slot for anyone
        // yet. Every upload arrives, so every client's next turn starts
        // from a vector and a reset — its moments die with this turn.
        let mut clients = small_federation(ModelKind::Sign, 36);
        let (none, kits) = (Store::personal(clients.len()), Pool::default());
        let ctx =
            RoundCtx { broadcast: Some(&none), kits: Some(&kits), ..RoundCtx::with_threads(1, 2) };
        let results = train_participants(&mut clients, &[0, 1, 2, 3], &ctx, one_epoch);
        assert_eq!(results.len(), 4);
        for c in &clients {
            assert_eq!(c.opt.state_bytes(), 0, "client {}", c.id);
        }
        // Nobody broadcasts: the moments stay, as `LocalOnly`'s do.
        let ctx = RoundCtx { broadcast: None, ..ctx };
        train_participants(&mut clients, &[0, 1, 2, 3], &ctx, one_epoch);
        for c in &clients {
            assert_eq!(c.opt.state_bytes(), 2 * 4 * c.model.num_params(), "client {}", c.id);
        }
    }

    #[test]
    fn a_client_whose_upload_is_lost_keeps_its_moments_and_trains_on_them() {
        let mut clients = small_federation(ModelKind::Sign, 37);
        let mut by_hand = small_federation(ModelKind::Sign, 37);
        let (none, kits) = (Store::personal(clients.len()), Pool::default());
        let t = ChannelTransport::new(4);
        let legs = Legs::default();
        let turn = |clients: &mut [Client], s: &RoundScript| {
            let w = wire(&t, s, &legs);
            let ctx = RoundCtx {
                comms: Some(&w),
                broadcast: Some(&none),
                kits: Some(&kits),
                ..RoundCtx::with_threads(1, 2)
            };
            train_participants(clients, &[0, 1], &ctx, one_epoch)
        };
        // Round 1: client 0's upload is lost, client 1's arrives.
        let lost_and_arrived = [(0, &[OK][..], &[LOST][..], false), (1, &[OK], &[OK], true)];
        let got = turn(&mut clients, &script(1, &lost_and_arrived));
        assert_eq!(got.iter().map(|r| r.client).collect::<Vec<_>>(), [1]);
        let p = clients[0].model.num_params();
        assert_eq!(clients[0].opt.state_bytes(), 2 * 4 * p, "the lost upload's moments stay");
        assert_eq!(clients[1].opt.state_bytes(), 0);
        // Round 2: still no vector for client 0, so it trains on from the
        // moments it kept — two epochs trained by hand, bit for bit.
        let got = turn(&mut clients, &script(2, &[(0, &[OK], &[OK], true)]));
        by_hand[0].train_local(2, &mut TrainHooks::none());
        assert_eq!(bits(clients[0].model.param_slice()), bits(by_hand[0].model.param_slice()));
        let ParamTensor::Owned(uploaded) = &got[0].payload else {
            panic!("a decoded upload is owned")
        };
        assert_eq!(bits(uploaded), bits(by_hand[0].model.param_slice()));
        assert_eq!(clients[0].opt.state_bytes(), 0);
    }

    #[test]
    fn after_a_lost_upload_the_next_broadcast_is_encoded_from_the_servers_slot() {
        use crate::strategies::{
            Arrivals, Averaged, Collaboration, Next, Objective, Row, Strategy,
        };
        /// One slot per client, written with the client's own upload.
        struct Own;
        impl Objective for Own {
            const NAME: &'static str = "own";
            type Upload = ParamTensor;
            fn store(&self, clients: &[Client]) -> Store {
                Store::personal(clients.len())
            }
            fn train(&self, i: usize, c: &mut Client, _: &RoundCtx<'_>) -> (f32, ParamTensor) {
                one_epoch(i, c)
            }
            fn server(&mut self, round: Arrivals<'_, ParamTensor>) -> Collaboration {
                let arrived = round.results.iter().enumerate();
                let own =
                    |p| Next::Row(Row { members: vec![p], weights: vec![1.0], divisor: None });
                arrived.map(|(p, r)| (r.client, own(p))).collect()
            }
        }
        let mut clients = small_federation(ModelKind::Sgc, 39);
        let mut own = Averaged::from(Own);
        let (t, legs) = (ChannelTransport::new(4), Legs::default());
        let mut round = |clients: &mut [Client], s: &RoundScript| {
            let w = wire(&t, s, &legs);
            own.round(
                clients,
                &[0, 1],
                &RoundCtx { comms: Some(&w), ..RoundCtx::with_threads(1, 2) },
            );
        };
        // Round 1: both uploads arrive, and each slot is installed.
        round(&mut clients, &script(1, &[(0, &[OK], &[OK], true), (1, &[OK], &[OK], true)]));
        let slot = clients[0].model.params();
        // Round 2: client 0 trains from its slot, but its upload is lost.
        round(&mut clients, &script(2, &[(0, &[OK], &[LOST], false), (1, &[OK], &[OK], true)]));
        assert_ne!(bits(clients[0].model.param_slice()), bits(&slot), "the lost turn trained");
        assert_eq!(own.store().vector_for(0).map(bits), Some(bits(&slot)));
        // Round 3's broadcast to client 0 is the slot's exact bits, coded.
        let down = Legs { down: quant_i8(), ..Legs::default() };
        let s3 = script(3, &[(0, &[OK], &[OK], true)]);
        let coded = wire(&t, &s3, &down).dispatch(&[0], Some(own.store()), 0);
        let codec = quant_i8().unwrap();
        assert_eq!(coded[&0], encode_broadcast_coded(codec.as_ref(), &slot));
        assert_ne!(
            coded[&0],
            encode_broadcast_coded(codec.as_ref(), clients[0].model.param_slice())
        );
    }

    #[test]
    fn an_in_memory_upload_stays_resident_until_a_stage_needs_its_bytes() {
        let mut clients = small_federation(ModelKind::Sgc, 38);
        let got = train_participants(&mut clients, &[0, 1], &RoundCtx::plain(1), one_epoch);
        assert!(got.iter().all(|r| r.payload == ParamTensor::Resident));
    }

    #[test]
    #[should_panic(expected = "a resident parameter tensor reached `encode`")]
    fn a_resident_tensor_that_reaches_encode_panics_naming_the_stage() {
        encode_upload(0.5, &(ParamTensor::Resident, 1.0f64));
    }

    #[test]
    fn mean_loss_averages() {
        let r = vec![
            LocalResult { client: 0, loss: 1.0, payload: () },
            LocalResult { client: 1, loss: 3.0, payload: () },
        ];
        assert_eq!(mean_loss(&r), 2.0);
    }
}
