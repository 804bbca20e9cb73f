//! Error-feedback accumulators for lossy upload codecs.
//!
//! Bare aggressive sparsification collapses accuracy (BENCH_COMMS.json:
//! top-k at k=64 costs −25 pp on FedGTA) because every coordinate the
//! codec drops is lost forever. Error feedback fixes that the classic
//! way (Seide et al., 1-bit SGD; Karimireddy et al., EF-SGD): the client
//! keeps the coding error as a **residual** and folds it into the next
//! round's pre-encode tensor, so every coordinate eventually crosses the
//! wire.
//!
//! ## Delta-vs-reference scheme
//!
//! Plain EF on full parameter vectors cannot work here: a 64-sparse
//! *weight vector* aggregated server-side zeroes most coordinates. So
//! what crosses the wire is a **delta against a mirrored reference**:
//!
//! - both sides track, per client and per tensor, `reference` — the
//!   tensor the server currently holds for this client;
//! - the client encodes `fed = f32(v − reference + residual)` (computed
//!   in f64), where `v` is the tensor it wants the server to hold;
//! - the server reconstructs `v̂ = reference + d` from the decoded delta
//!   `d` and advances `reference ← v̂`; the client mirrors that update
//!   with its own deterministic local decode of its own encoding;
//! - the client's new residual is `target − f64(d)` where
//!   `target = (v − reference) + residual` is the exact f64 pre-encode
//!   delta — the full coding error, carried at f64 precision.
//!
//! Both sides apply the *same* f32 `reference[i] += d[i]` update, so the
//! mirror holds bitwise, and `v̂` converges to `v` as residuals drain.
//!
//! ## Broadcast anchoring
//!
//! For the parameter tensor the reference is additionally **re-based at
//! the round's broadcast vector** ([`EfTensor::rebase`]) by both sides
//! before folding/applying. Without it the uploaded tensor is re-trained
//! from the *aggregated* broadcast every round while the reference only
//! tracks this client's own accepted deltas — the gap is dominated by
//! everyone else's progress, a k-sparse delta never catches up, and the
//! run settles a few points below the plain baseline. Anchored, the
//! pre-encode delta is `local progress + residual` (the classic EF
//! recursion of Karimireddy et al.) and the reference mirror for that
//! tensor is consistent by construction: both sides reset it from the
//! same broadcast bits each round. Auxiliary tensors (FedGTA's moment
//! statistics) have no broadcast and keep the pure mirrored scheme
//! above.
//!
//! ## Replay semantics under faults
//!
//! Acceptance is scripted before any thread spawns
//! ([`crate::faults::RoundScript`]), so client and server agree on every
//! upload's fate without an acknowledgement leg:
//!
//! - **accepted** upload: both references advance by `d`; the residual
//!   keeps only the coding error `target − d`;
//! - **rejected** upload (dropped, corrupted, straggler past deadline,
//!   or beyond first-K acceptance): neither reference moves and the
//!   client's residual carries the *entire* intended delta `target` —
//!   nothing is lost, and because the server never decoded the frame,
//!   nothing can double-apply;
//! - **crashed / unreachable** client (never trained): its state is
//!   untouched — the next round it trains re-folds from exactly where it
//!   left off.
//!
//! Every update happens either inside the client's exclusive per-worker
//! closure or on the driver thread in participant order, so the whole
//! scheme is bit-identical at any thread count.

use crate::transport::WirePayload;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The exact pre-encode delta of one coordinate: `(v − reference) +
/// residual`, in f64.
#[inline(always)]
fn target(v: f32, reference: f32, residual: f64) -> f64 {
    (v as f64 - reference as f64) + residual
}

/// Per-tensor error-feedback state: the server-mirrored reference and
/// the f64 residual (client side only; the server uses `reference`
/// alone).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EfTensor {
    /// Mirror of the server's reconstructed tensor: the running f32 sum
    /// of every accepted decoded delta. Empty until first use.
    pub reference: Vec<f32>,
    /// Coding error carried to the next round, in f64 so the captured
    /// error survives repeated folding.
    pub residual: Vec<f64>,
}

/// The pre-encode fold of one round: the f32 tensor to feed the codec
/// and the exact f64 target it rounds from. What [`EfTensor::fold`]
/// returns; the executor folds in place instead
/// ([`EfState::fold_payload`]), to the same bits.
#[derive(Debug, Clone)]
pub struct Folded {
    /// What the codec encodes: `target` rounded to f32.
    pub fed: Vec<f32>,
    /// The exact intended delta `(v − reference) + residual`, in f64.
    pub target: Vec<f64>,
}

impl EfTensor {
    /// Folds the residual into this round's delta: sizes the state on
    /// first use, then computes `target = (v − reference) + residual` in
    /// f64 and its f32 rounding `fed`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor length changed across rounds — model shapes
    /// are fixed for a federation's lifetime.
    pub fn fold(&mut self, v: &[f32]) -> Folded {
        self.size_for(v.len());
        let target: Vec<f64> = v
            .iter()
            .zip(&self.reference)
            .zip(&self.residual)
            .map(|((&v, &r), &res)| target(v, r, res))
            .collect();
        let fed = target.iter().map(|&t| t as f32).collect();
        Folded { fed, target }
    }

    /// [`EfTensor::fold`] without a [`Folded`]: `v` becomes `fed` in place
    /// and the residual holds `target` until [`EfTensor::commit_in_place`]
    /// — so a round allocates nothing, and the bits are `fold`'s.
    fn fold_in_place(&mut self, v: &mut [f32]) {
        self.size_for(v.len());
        for ((v, &r), res) in v.iter_mut().zip(&self.reference).zip(self.residual.iter_mut()) {
            *res = target(*v, r, *res);
            *v = *res as f32;
        }
    }

    /// [`EfTensor::commit`] after [`EfTensor::fold_in_place`]: the
    /// residual already holds `target`, which is what a rejected upload
    /// carries; an accepted one advances the reference by `decoded` and
    /// keeps `target − decoded`.
    fn commit_in_place(&mut self, decoded: &[f32], accepted: bool) {
        assert_eq!(decoded.len(), self.reference.len(), "EF decode length mismatch");
        if accepted {
            for ((r, res), &d) in
                self.reference.iter_mut().zip(self.residual.iter_mut()).zip(decoded)
            {
                *r += d;
                *res -= d as f64;
            }
        }
    }

    /// Commits one round's outcome. `decoded` is the client's local
    /// decode of its own encoding of `folded.fed` — deterministic, so it
    /// equals bitwise what the server decoded (or would have decoded)
    /// from the wire. `accepted` is the scripted truth of whether the
    /// server aggregated this upload.
    pub fn commit(&mut self, folded: &Folded, decoded: &[f32], accepted: bool) {
        assert_eq!(decoded.len(), self.reference.len(), "EF decode length mismatch");
        if accepted {
            for (i, &d) in decoded.iter().enumerate() {
                self.reference[i] += d;
                self.residual[i] = folded.target[i] - d as f64;
            }
        } else {
            // Rejected upload: the server saw nothing — carry the whole
            // intended delta forward, references untouched on both sides.
            self.residual.copy_from_slice(&folded.target);
        }
    }

    /// Re-anchors the reference at `anchor` — the round's broadcast
    /// vector, which client and server both hold bitwise (see "Broadcast
    /// anchoring" in the module docs for why). The residual is kept.
    ///
    /// # Panics
    ///
    /// Panics if the tensor length changed across rounds.
    pub fn rebase(&mut self, anchor: &[f32]) {
        self.size_for(anchor.len());
        self.reference.copy_from_slice(anchor);
    }

    /// Sizes fresh state for `len`-element tensors; a later length change
    /// panics.
    fn size_for(&mut self, len: usize) {
        if self.reference.is_empty() && self.residual.is_empty() {
            self.reference = vec![0.0; len];
            self.residual = vec![0.0; len];
        }
        assert_eq!(len, self.reference.len(), "EF tensor length changed across rounds");
    }

    /// The server-side inverse of [`EfTensor::commit`]: advances the
    /// reference by the decoded delta `v` and replaces `v` with the
    /// reconstructed tensor (`reference + v`, which *is* the new
    /// reference). The f32 update is the same instruction sequence the
    /// client mirrors, so both references stay bitwise equal.
    pub fn apply_delta(&mut self, v: &mut [f32]) {
        if self.reference.is_empty() {
            self.reference = vec![0.0; v.len()];
        }
        assert_eq!(v.len(), self.reference.len(), "EF tensor length changed across rounds");
        for (r, d) in self.reference.iter_mut().zip(v.iter_mut()) {
            *r += *d;
            *d = *r;
        }
    }
}

/// One client's error-feedback state: one [`EfTensor`] per codec-routed
/// payload tensor, in payload traversal order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EfState {
    /// Per-tensor accumulators, indexed by payload tensor position.
    pub tensors: Vec<EfTensor>,
}

impl EfState {
    /// Heap bytes the references and residuals retain (capacities).
    pub fn bytes(&self) -> usize {
        let tensor = |t: &EfTensor| 4 * t.reference.capacity() + 8 * t.residual.capacity();
        self.tensors.iter().map(tensor).sum()
    }

    /// The accumulator for payload tensor `t`, growing the state on
    /// first touch.
    pub fn tensor(&mut self, t: usize) -> &mut EfTensor {
        if self.tensors.len() <= t {
            self.tensors.resize_with(t + 1, EfTensor::default);
        }
        &mut self.tensors[t]
    }

    /// Client half, before encoding: re-bases the parameter tensor's
    /// reference at `anchor` (the broadcast this client just loaded),
    /// then replaces every codec-routed tensor of `payload` with its
    /// residual-folded delta, in place. Until [`EfState::commit_payload`]
    /// each residual holds its tensor's exact target, so the round needs
    /// no buffer of its own.
    pub fn fold_payload<R: WirePayload>(&mut self, anchor: Option<&[f32]>, payload: &mut R) {
        if let Some(a) = anchor {
            self.tensor(0).rebase(a);
        }
        let mut t = 0usize;
        payload.visit_tensors(&mut |v| {
            self.tensor(t).fold_in_place(v);
            t += 1;
        });
    }

    /// Client half, after encoding: commits every tensor
    /// [`EfState::fold_payload`] folded against `decoded` — the local
    /// decode of this client's own encoding, bitwise what the server
    /// decodes from the wire — resolved by the scripted acceptance fate.
    pub fn commit_payload<R: WirePayload>(&mut self, decoded: &mut R, accepted: bool) {
        let mut t = 0usize;
        decoded.visit_tensors(&mut |d| {
            self.tensor(t).commit_in_place(d, accepted);
            t += 1;
        });
    }
}

/// The server side of the mirror: per-client references, keyed by
/// federation index. Updated only on the driver thread, in participant
/// order, for accepted uploads — a [`Mutex`] only because the round
/// context is shared by reference with worker threads.
#[derive(Debug, Default)]
pub struct EfServer {
    /// Per-client reference state (the `residual` halves stay empty).
    pub clients: Mutex<BTreeMap<usize, EfState>>,
}

impl EfServer {
    /// Server half: mirrors `client`'s anchored rebase (`anchor` must be
    /// the bits that client loaded this round), then folds each decoded
    /// delta of `payload` into the client's reference, leaving the
    /// reconstructed tensors the strategy aggregates in its place.
    pub fn reconstruct<R: WirePayload>(
        &self,
        client: usize,
        anchor: Option<&[f32]>,
        payload: &mut R,
    ) {
        let mut map = self.clients.lock().unwrap_or_else(|e| e.into_inner());
        let state = map.entry(client).or_default();
        if let Some(a) = anchor {
            state.tensor(0).rebase(a);
        }
        let mut t = 0usize;
        payload.visit_tensors(&mut |v| {
            state.tensor(t).apply_delta(v);
            t += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_commit_mirrors_server_reference() {
        let mut client = EfTensor::default();
        let mut server = EfTensor::default();
        let v = [1.5f32, -2.0, 0.25];
        let folded = client.fold(&v);
        assert_eq!(folded.fed, v.to_vec(), "first fold is the raw tensor");
        // A sparsifying codec kept only the largest coordinate.
        let mut d = vec![0.0f32, -2.0, 0.0];
        client.commit(&folded, &d, true);
        server.apply_delta(&mut d);
        assert_eq!(client.reference, server.reference, "mirror holds bitwise");
        assert_eq!(d, vec![0.0, -2.0, 0.0], "reconstruction equals reference");
        // The dropped coordinates live on in the residual, exactly.
        assert_eq!(client.residual, vec![1.5f64, 0.0, 0.25]);
        // Next round re-targets the missing mass plus the new delta.
        let folded2 = client.fold(&v);
        assert_eq!(folded2.fed, vec![3.0, 0.0, 0.5]);
    }

    #[test]
    fn rejected_commit_keeps_reference_and_carries_full_delta() {
        let mut client = EfTensor::default();
        let v = [4.0f32, -1.0];
        let folded = client.fold(&v);
        let d = vec![4.0f32, 0.0];
        client.commit(&folded, &d, false);
        assert_eq!(client.reference, vec![0.0, 0.0], "reference never moves on reject");
        assert_eq!(client.residual, vec![4.0, -1.0], "entire delta carried");
        // Replay next round: the fold re-targets exactly the same delta.
        let replay = client.fold(&v);
        assert_eq!(replay.fed, vec![8.0, -2.0] /* v − 0 + residual */);
    }

    #[test]
    fn rebase_anchors_reference_and_keeps_residual() {
        let mut t = EfTensor::default();
        let v = [2.0f32, -4.0];
        let folded = t.fold(&v);
        // Codec dropped everything; the rejected commit carries it all.
        t.commit(&folded, &[0.0, 0.0], false);
        assert_eq!(t.residual, vec![2.0, -4.0]);
        // Next round's broadcast re-anchors the reference; the residual
        // survives so the dropped mass is still re-targeted on top of
        // the new anchor.
        t.rebase(&[1.0, 1.0]);
        assert_eq!(t.reference, vec![1.0, 1.0]);
        let folded2 = t.fold(&v);
        assert_eq!(folded2.fed, vec![(2.0 - 1.0) + 2.0, (-4.0 - 1.0) + -4.0]);
        // Rebase also sizes fresh state, and length changes still panic.
        let mut fresh = EfTensor::default();
        fresh.rebase(&[0.5]);
        assert_eq!(fresh.reference, vec![0.5]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fresh.rebase(&[0.5, 0.5]);
        }));
        assert!(r.is_err(), "length change must panic");
    }

    #[test]
    fn payload_round_trip_keeps_client_and_server_mirrors_bitwise_equal() {
        use crate::codec::CodecSpec;
        use crate::transport::{decode_upload_routed, encode_upload_routed};
        type Upload = (Vec<f32>, f64, Vec<f32>, usize);
        let codec = CodecSpec::parse("topk=2+quant-i8").unwrap().build();
        let codec = codec.as_ref();
        let mut client = EfState::default();
        let server = EfServer::default();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Rounds 1 and 3 are accepted, round 2's upload is lost in flight.
        for (round, accepted) in [(1usize, true), (2, false), (3, true)] {
            let anchor = vec![0.1f32 * round as f32; 5];
            let r = round as f32;
            let params = vec![1.5 * r, -2.25, 0.125 * r, 7.0, -0.5 * r];
            let mut sent: Upload = (params, 0.75, vec![3.0 * r, -1.0], 11);
            // Client: fold → encode → decode own bytes → commit.
            let mut by_hand = client.clone();
            by_hand.tensor(0).rebase(&anchor);
            let folds = [by_hand.tensor(0).fold(&sent.0), by_hand.tensor(1).fold(&sent.2)];
            client.fold_payload(Some(&anchor), &mut sent);
            assert_eq!(
                bits(&sent.0),
                bits(&folds[0].fed),
                "the payload now carries the folded delta"
            );
            assert_eq!(bits(&sent.2), bits(&folds[1].fed));
            let body = encode_upload_routed(codec, None, 0.5, &sent);
            let (_, mut own): (f32, Upload) = decode_upload_routed(codec, None, &body).unwrap();
            client.commit_payload(&mut own, accepted);
            // In place, bit for bit what `fold` + `commit` leave.
            by_hand.tensor(0).commit(&folds[0], &own.0, accepted);
            by_hand.tensor(1).commit(&folds[1], &own.2, accepted);
            for t in 0..2 {
                let (mine, theirs) = (&client.tensors[t], &by_hand.tensors[t]);
                assert_eq!(
                    bits(&mine.reference),
                    bits(&theirs.reference),
                    "round {round} tensor {t}"
                );
                let res_bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    res_bits(&mine.residual),
                    res_bits(&theirs.residual),
                    "round {round} tensor {t}"
                );
            }
            if !accepted {
                continue; // the server never sees this frame
            }
            // Server: decode the same bytes → rebase → apply_delta.
            let (_, mut got): (f32, Upload) = decode_upload_routed(codec, None, &body).unwrap();
            server.reconstruct(4, Some(&anchor), &mut got);
            let map = server.clients.lock().unwrap();
            for t in 0..2 {
                let (mine, theirs) = (&client.tensors[t].reference, &map[&4].tensors[t].reference);
                assert_eq!(bits(mine), bits(theirs), "round {round} tensor {t}");
            }
            // What the strategy aggregates *is* the mirrored reference.
            assert_eq!(bits(&got.0), bits(&client.tensors[0].reference));
            assert_eq!(bits(&got.2), bits(&client.tensors[1].reference));
            assert_eq!((got.1, got.3), (0.75, 11), "scalars cross untouched");
        }
        // The lost round's coordinates were carried, not dropped.
        assert!(client.tensors[0].residual.iter().any(|r| *r != 0.0));
    }

    #[test]
    fn state_grows_per_tensor_and_length_change_panics() {
        let mut st = EfState::default();
        st.tensor(1).fold(&[1.0]);
        assert_eq!(st.tensors.len(), 2);
        assert!(st.tensors[0].reference.is_empty());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            st.tensor(1).fold(&[1.0, 2.0]);
        }));
        assert!(r.is_err(), "length change must panic");
    }
}
