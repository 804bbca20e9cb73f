//! Explicit client/server message transport.
//!
//! Before this module a federated "round" was a function call and
//! `comms.upload_bytes` an accounting fiction. Here the server task and
//! the client tasks exchange **real bytes**: every local-training request
//! and every parameter upload crosses a [`Transport`] as a versioned,
//! CRC-checksummed [`fedgta_graph::io::Envelope`] (`FGTM` framing, the
//! message sibling of the `FGTA` graph codec). The server aggregates what
//! it can *decode* — a corrupted upload is rejected by checksum exactly
//! like a real deployment would reject it, not silently healed.
//!
//! The first implementation is the in-process [`ChannelTransport`]
//! (per-endpoint mailboxes); the trait is deliberately tiny so a
//! TCP/UDS implementation can slot in without touching the executor.
//!
//! ## Determinism
//!
//! The transport itself is a dumb byte mover. All failure modes —
//! drops, delays, corruption, crashes, stragglers — are injected by the
//! scripted fault layer ([`crate::faults`]), which is a pure function of
//! the fault seed. Worker threads may deliver uploads to the server's
//! mailbox in any order; the executor reassembles them by
//! `(sender, seq)` against the round's script, so results are
//! bit-identical at any thread count.

use crate::codec::{decode_header, encode_header, Codec, Stage};
use fedgta_graph::io::IoError;
use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

/// A party on the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// The aggregation server.
    Server,
    /// Client task `i` (the federation index).
    Client(usize),
}

/// Sender id encoding the server in the envelope's `u32` sender field.
pub const SERVER_ID: u32 = u32::MAX;

/// Message kinds carried in [`Envelope::kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// Server → client: start local training for this round.
    TrainRequest = 1,
    /// Client → server: trained parameters + strategy payload.
    Upload = 2,
    /// Client → server: an upload compressed by an armed
    /// [`crate::codec::Codec`] — a self-describing codec header followed
    /// by the codec-transformed payload. A separate kind keeps the wire
    /// format addition additive: plain uploads are byte-for-byte what
    /// they were before codecs existed.
    UploadCoded = 3,
    /// Server → client: a train request that additionally carries this
    /// round's model broadcast compressed by the armed download codec —
    /// a self-describing codec header followed by one coded tensor.
    /// Another additive kind: with no download codec armed the broadcast
    /// stays in-process and requests keep their empty-payload
    /// [`MsgKind::TrainRequest`] frames byte for byte.
    BroadcastCoded = 4,
}

/// Errors from a transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The destination endpoint does not exist.
    UnknownEndpoint,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownEndpoint => write!(f, "unknown transport endpoint"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A byte-message transport between the server and its clients.
///
/// Implementations move opaque frames; they do not interpret, reorder
/// semantically, or repair them. Fault injection lives *above* the
/// transport (the executor replays a deterministic fault script), so any
/// implementation — in-process channels today, sockets tomorrow — sees
/// identical traffic for identical seeds.
pub trait Transport: Send + Sync {
    /// Enqueues `frame` for `to`. Never blocks.
    fn send(&self, to: Endpoint, frame: Vec<u8>) -> Result<(), TransportError>;
    /// Drains every frame currently queued at `at`, in arrival order.
    fn drain(&self, at: Endpoint) -> Vec<Vec<u8>>;
}

/// In-process transport: one mailbox per endpoint.
pub struct ChannelTransport {
    server: Mutex<VecDeque<Vec<u8>>>,
    clients: Vec<Mutex<VecDeque<Vec<u8>>>>,
}

impl ChannelTransport {
    /// A transport connecting one server with `n` client endpoints.
    pub fn new(n: usize) -> Self {
        Self {
            server: Mutex::new(VecDeque::new()),
            clients: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    fn queue(&self, at: Endpoint) -> Option<&Mutex<VecDeque<Vec<u8>>>> {
        match at {
            Endpoint::Server => Some(&self.server),
            Endpoint::Client(i) => self.clients.get(i),
        }
    }
}

impl Transport for ChannelTransport {
    fn send(&self, to: Endpoint, frame: Vec<u8>) -> Result<(), TransportError> {
        let q = self.queue(to).ok_or(TransportError::UnknownEndpoint)?;
        q.lock().unwrap_or_else(|e| e.into_inner()).push_back(frame);
        Ok(())
    }

    fn drain(&self, at: Endpoint) -> Vec<Vec<u8>> {
        match self.queue(at) {
            Some(q) => q.lock().unwrap_or_else(|e| e.into_inner()).drain(..).collect(),
            None => Vec::new(),
        }
    }
}

/// The codec arming of a run's wire legs plus the server's
/// error-feedback mirror: built once from the run's configuration by the
/// round driver and borrowed by every [`CommsRound`]. All `None` (the
/// default) is the plain channel — bit-identical to in-process rounds.
#[derive(Default)]
pub(crate) struct Legs {
    /// Upload codec (`None` = plain [`MsgKind::Upload`] frames).
    pub(crate) up: Option<Box<dyn Codec>>,
    /// Sketch codec for the strategy's auxiliary tensors (payload
    /// tensors after the first); `None` routes them through `up`.
    pub(crate) sketch: Option<Box<dyn Codec>>,
    /// Download codec: when set, the server→client broadcast rides the
    /// request leg as [`MsgKind::BroadcastCoded`] frames.
    pub(crate) down: Option<Box<dyn Codec>>,
    /// Server-side error-feedback references; `Some` arms error feedback
    /// on both ends of the upload leg.
    pub(crate) ef: Option<crate::ef::EfServer>,
}

/// The transport context of one orchestrated round, handed to the
/// executor via [`crate::strategies::RoundCtx::comms`]. When present,
/// [`crate::exec::train_participants`] runs its four wire stages —
/// dispatch, receive, upload, collect — over `transport` as checksummed
/// envelopes, replaying the round's deterministic fault `script`.
pub struct CommsRound<'a> {
    /// Round index (1-based, stamped into envelopes).
    pub round: usize,
    /// The byte mover.
    pub transport: &'a dyn Transport,
    /// The precomputed fate of every sampled participant.
    pub script: &'a crate::faults::RoundScript,
    /// The run's armed codec legs and error-feedback mirror.
    pub(crate) legs: &'a Legs,
    /// What this round's stages metered.
    pub(crate) tally: Tally,
}

/// One round's wire tallies, filled by the executor's stages. Trainers
/// and attempts are scripted, so every count is deterministic at any
/// thread count.
#[derive(Default)]
pub(crate) struct Tally {
    /// Plain-encoding bytes of every upload body built this round — what
    /// the round would have cost with no codec (lost uploads included).
    pub(crate) up_raw: AtomicU64,
    /// Upload body bytes that actually crossed the wire (equals `up_raw`
    /// when no codec is armed).
    pub(crate) up_encoded: AtomicU64,
    /// Plain-encoding bytes of every broadcast body built this round
    /// (0 with no download codec: the broadcast is then applied
    /// in-process and never crosses the wire).
    pub(crate) down_raw: AtomicU64,
    /// Broadcast body bytes that actually crossed the wire.
    pub(crate) down_encoded: AtomicU64,
    /// Scripted attempts lost in flight (never enqueued).
    pub(crate) dropped: AtomicU64,
    /// Frames a receiver rejected (CRC or codec failure).
    pub(crate) corrupted: AtomicU64,
}

/// Flips one bit of `frame` (index taken modulo the frame length) — the
/// physical corruption the fault layer applies to in-flight envelopes.
/// [`fedgta_graph::io::Envelope::decode`]'s CRC-32 rejects every such
/// mutation.
pub fn corrupt_frame(frame: &mut [u8], bit_seed: u64) {
    if frame.is_empty() {
        return;
    }
    let bit = (bit_seed % (frame.len() as u64 * 8)) as usize;
    frame[bit / 8] ^= 1 << (bit % 8);
}

// ---------------------------------------------------------------------
// Wire payloads: strategy upload types serialized into envelope bytes.
// ---------------------------------------------------------------------

/// Routes each successive payload tensor to its armed codec: the first
/// tensor (the model parameters — ~all upload bytes) to the main chain,
/// every later tensor (strategy sketches and other auxiliaries) to the
/// sketch chain when one is armed, else the main chain too. Payloads
/// are traversed in a fixed field order, so the client's routing and
/// the server's agree tensor for tensor.
pub struct TensorRouter<'a> {
    main: &'a dyn Codec,
    sketch: Option<&'a dyn Codec>,
    seen: usize,
}

impl<'a> TensorRouter<'a> {
    /// A router over the armed chains.
    pub fn new(main: &'a dyn Codec, sketch: Option<&'a dyn Codec>) -> Self {
        Self { main, sketch, seen: 0 }
    }

    /// The codec for the next payload tensor, advancing the cursor.
    pub fn next_codec(&mut self) -> &'a dyn Codec {
        let c = if self.seen == 0 { self.main } else { self.sketch.unwrap_or(self.main) };
        self.seen += 1;
        c
    }
}

/// A value that can cross the transport inside an envelope payload.
///
/// Every implementation must round-trip **bit-exactly** — floats are
/// moved as raw little-endian bit patterns — because the no-fault
/// transport mode is contractually bit-identical to the in-process
/// simulator. Lengths are length-prefixed so tuples concatenate safely.
pub trait WirePayload: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// `encode`'s byte count, computed without encoding: what the round
    /// meters as the upload's raw (plain-encoding) size.
    fn encoded_len(&self) -> usize;
    /// Decodes one value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self, IoError>;
    /// Codec-aware encoding: `Vec<f32>` tensors route through the
    /// router's armed codecs, containers recurse, and every scalar keeps
    /// its plain bit-exact encoding (losses, confidences and counts are
    /// never quantized).
    fn encode_coded(&self, _router: &mut TensorRouter<'_>, out: &mut Vec<u8>) {
        self.encode(out);
    }
    /// Inverse of [`WirePayload::encode_coded`].
    fn decode_coded(input: &mut &[u8], _router: &mut TensorRouter<'_>) -> Result<Self, IoError> {
        Self::decode(input)
    }
    /// Visits every codec-routed tensor in the traversal order
    /// [`WirePayload::encode_coded`] serializes them — the hook the
    /// error-feedback layer folds residuals (client) and applies deltas
    /// (server) through. Non-tensor fields are skipped.
    fn visit_tensors(&mut self, _f: &mut dyn FnMut(&mut Vec<f32>)) {}
    /// Gives every [`ParamTensor::Resident`] field bytes of its own,
    /// copied from `model` — the uploading client's parameters. The
    /// executor calls it before the stages that need a payload's bytes:
    /// the error-feedback fold and encoding.
    fn own_resident(&mut self, _model: &[f32]) {}
    /// Tensor 0 — the parameters, the row this upload adds to the server's
    /// `P` — read off `model`, the uploading client's parameters, when
    /// [`ParamTensor::Resident`]. `None` for a payload without tensors.
    fn params<'a>(&'a self, _model: &'a [f32]) -> Option<&'a [f32]> {
        None
    }
}

/// An upload's parameter tensor, read in place until a stage needs bytes
/// of its own. A strategy that uploads its client's model unchanged
/// returns [`ParamTensor::Resident`] instead of a copy; the executor turns
/// it into [`ParamTensor::Owned`] ([`WirePayload::own_resident`]) before
/// the error-feedback fold and encoding, and a payload that returns in
/// memory reaches the strategy still resident — the strategy reads it off
/// the client's model ([`ParamTensor::resolve`]) before installing
/// anything there. Encodes byte for byte as `Vec<f32>` does and decodes
/// owned.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamTensor {
    /// Its bits are the uploading client's model parameters.
    Resident,
    /// A tensor of its own.
    Owned(Vec<f32>),
}

impl ParamTensor {
    /// The tensor's bits; `model` is the uploading client's parameters.
    pub fn resolve<'a>(&'a self, model: &'a [f32]) -> &'a [f32] {
        match self {
            ParamTensor::Resident => model,
            ParamTensor::Owned(v) => v,
        }
    }
}

/// A stage that needs a tensor's bytes met a [`ParamTensor::Resident`]
/// one: the executor did not own it first.
fn resident_reached(stage: &str) -> ! {
    panic!(
        "a resident parameter tensor reached `{stage}`: the executor must own it first \
         (WirePayload::own_resident)"
    )
}

impl WirePayload for ParamTensor {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ParamTensor::Owned(v) => v.encode(out),
            ParamTensor::Resident => resident_reached("encode"),
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            ParamTensor::Owned(v) => v.encoded_len(),
            ParamTensor::Resident => resident_reached("encoded_len"),
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, IoError> {
        Vec::decode(input).map(ParamTensor::Owned)
    }
    fn encode_coded(&self, router: &mut TensorRouter<'_>, out: &mut Vec<u8>) {
        match self {
            ParamTensor::Owned(v) => v.encode_coded(router, out),
            ParamTensor::Resident => resident_reached("encode_coded"),
        }
    }
    fn decode_coded(input: &mut &[u8], router: &mut TensorRouter<'_>) -> Result<Self, IoError> {
        Vec::decode_coded(input, router).map(ParamTensor::Owned)
    }
    fn visit_tensors(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        match self {
            ParamTensor::Owned(v) => f(v),
            ParamTensor::Resident => resident_reached("visit_tensors"),
        }
    }
    fn own_resident(&mut self, model: &[f32]) {
        if let ParamTensor::Resident = self {
            *self = ParamTensor::Owned(model.to_vec());
        }
    }
    fn params<'a>(&'a self, model: &'a [f32]) -> Option<&'a [f32]> {
        Some(self.resolve(model))
    }
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], IoError> {
    if input.len() < n {
        return Err(IoError::Corrupt("payload truncated"));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

impl WirePayload for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn encoded_len(&self) -> usize {
        0
    }
    fn decode(_input: &mut &[u8]) -> Result<Self, IoError> {
        Ok(())
    }
}

macro_rules! impl_wire_scalar {
    ($($t:ty),+) => {$(
        impl WirePayload for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            fn decode(input: &mut &[u8]) -> Result<Self, IoError> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().unwrap()))
            }
        }
    )+};
}
impl_wire_scalar!(f32, f64, u64);

impl WirePayload for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn encoded_len(&self) -> usize {
        8
    }
    fn decode(input: &mut &[u8]) -> Result<Self, IoError> {
        Ok(u64::decode(input)? as usize)
    }
}

impl WirePayload for Vec<f32> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for v in self {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn encoded_len(&self) -> usize {
        8 + 4 * self.len()
    }
    fn decode(input: &mut &[u8]) -> Result<Self, IoError> {
        let n = u64::decode(input)? as usize;
        let bytes = take(input, n.checked_mul(4).ok_or(IoError::Corrupt("length overflow"))?)?;
        Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
    }
    fn encode_coded(&self, router: &mut TensorRouter<'_>, out: &mut Vec<u8>) {
        router.next_codec().encode_tensor(self, out);
    }
    fn decode_coded(input: &mut &[u8], router: &mut TensorRouter<'_>) -> Result<Self, IoError> {
        router.next_codec().decode_tensor(input)
    }
    fn visit_tensors(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        f(self);
    }
    fn params<'a>(&'a self, _model: &'a [f32]) -> Option<&'a [f32]> {
        Some(self)
    }
}

macro_rules! impl_wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: WirePayload),+> WirePayload for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            fn encoded_len(&self) -> usize {
                0 $(+ self.$idx.encoded_len())+
            }
            fn decode(input: &mut &[u8]) -> Result<Self, IoError> {
                Ok(($($name::decode(input)?,)+))
            }
            fn encode_coded(&self, router: &mut TensorRouter<'_>, out: &mut Vec<u8>) {
                $(self.$idx.encode_coded(router, out);)+
            }
            fn decode_coded(input: &mut &[u8], router: &mut TensorRouter<'_>) -> Result<Self, IoError> {
                Ok(($($name::decode_coded(input, router)?,)+))
            }
            fn visit_tensors(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
                $(self.$idx.visit_tensors(f);)+
            }
            fn own_resident(&mut self, model: &[f32]) {
                $(self.$idx.own_resident(model);)+
            }
            fn params<'a>(&'a self, model: &'a [f32]) -> Option<&'a [f32]> {
                self.0.params(model)
            }
        }
    };
}
impl_wire_tuple!(A: 0, B: 1);
impl_wire_tuple!(A: 0, B: 1, C: 2);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3);

/// Encodes one client upload — local loss plus the strategy payload —
/// into envelope payload bytes.
pub fn encode_upload<R: WirePayload>(loss: f32, payload: &R) -> Vec<u8> {
    let mut out = Vec::new();
    loss.encode(&mut out);
    payload.encode(&mut out);
    out
}

/// Decodes an upload produced by [`encode_upload`]. Trailing bytes are an
/// error: a frame that decodes short is as suspect as one that truncates.
pub fn decode_upload<R: WirePayload>(mut bytes: &[u8]) -> Result<(f32, R), IoError> {
    let loss = f32::decode(&mut bytes)?;
    let payload = R::decode(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(IoError::Corrupt("trailing payload bytes"));
    }
    Ok((loss, payload))
}

fn header_of(codec: &dyn Codec, out: &mut Vec<u8>) {
    let mut stages: Vec<Stage> = Vec::new();
    codec.stages(&mut stages);
    encode_header(&stages, out);
}

fn expect_header(codec: &dyn Codec, bytes: &mut &[u8]) -> Result<(), IoError> {
    let mut expected: Vec<Stage> = Vec::new();
    codec.stages(&mut expected);
    let got = decode_header(bytes)?;
    if got != expected {
        return Err(IoError::Corrupt("codec header does not match armed codec"));
    }
    Ok(())
}

/// Encodes one client upload through an armed codec: the self-describing
/// codec header, then the loss, then the codec-transformed payload.
/// Travels under [`MsgKind::UploadCoded`]. When a sketch codec is armed
/// its header follows the main chain's, and payload tensors after the
/// first route through it (see [`TensorRouter`]); with `sketch = None`
/// the bytes are exactly the pre-sketch single-header layout.
pub fn encode_upload_routed<R: WirePayload>(
    codec: &dyn Codec,
    sketch: Option<&dyn Codec>,
    loss: f32,
    payload: &R,
) -> Vec<u8> {
    let mut out = Vec::new();
    header_of(codec, &mut out);
    if let Some(s) = sketch {
        header_of(s, &mut out);
    }
    loss.encode(&mut out);
    let mut router = TensorRouter::new(codec, sketch);
    payload.encode_coded(&mut router, &mut out);
    out
}

/// Inverse of [`encode_upload_routed`]. Every header must match the
/// server's armed codecs exactly (the sketch chain is config-agreed on
/// both ends) — a mismatched or truncated header is rejected as
/// corruption, like any other mangled frame. Trailing bytes are an error.
pub fn decode_upload_routed<R: WirePayload>(
    codec: &dyn Codec,
    sketch: Option<&dyn Codec>,
    mut bytes: &[u8],
) -> Result<(f32, R), IoError> {
    expect_header(codec, &mut bytes)?;
    if let Some(s) = sketch {
        expect_header(s, &mut bytes)?;
    }
    let loss = f32::decode(&mut bytes)?;
    let mut router = TensorRouter::new(codec, sketch);
    let payload = R::decode_coded(&mut bytes, &mut router)?;
    if !bytes.is_empty() {
        return Err(IoError::Corrupt("trailing payload bytes"));
    }
    Ok((loss, payload))
}

/// Encodes the server→client model broadcast through the armed download
/// codec: the self-describing codec header followed by one coded tensor.
/// Travels under [`MsgKind::BroadcastCoded`] on the request leg.
pub fn encode_broadcast_coded(codec: &dyn Codec, v: &[f32]) -> Vec<u8> {
    let mut out = Vec::new();
    header_of(codec, &mut out);
    codec.encode_tensor(v, &mut out);
    out
}

/// Decodes a broadcast produced by [`encode_broadcast_coded`]. The
/// header must match the client's armed download codec; trailing bytes
/// are an error.
pub fn decode_broadcast_coded(codec: &dyn Codec, mut bytes: &[u8]) -> Result<Vec<f32>, IoError> {
    expect_header(codec, &mut bytes)?;
    let v = codec.decode_tensor(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(IoError::Corrupt("trailing broadcast bytes"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_graph::io::Envelope;

    #[test]
    fn channel_transport_delivers_in_order_per_endpoint() {
        let t = ChannelTransport::new(2);
        t.send(Endpoint::Client(0), vec![1]).unwrap();
        t.send(Endpoint::Client(0), vec![2]).unwrap();
        t.send(Endpoint::Client(1), vec![3]).unwrap();
        t.send(Endpoint::Server, vec![4]).unwrap();
        assert_eq!(t.drain(Endpoint::Client(0)), vec![vec![1], vec![2]]);
        assert!(t.drain(Endpoint::Client(0)).is_empty());
        assert_eq!(t.drain(Endpoint::Client(1)), vec![vec![3]]);
        assert_eq!(t.drain(Endpoint::Server), vec![vec![4]]);
    }

    #[test]
    fn unknown_endpoint_errors() {
        let t = ChannelTransport::new(1);
        assert_eq!(t.send(Endpoint::Client(5), vec![0]), Err(TransportError::UnknownEndpoint));
        assert!(t.drain(Endpoint::Client(5)).is_empty());
    }

    #[test]
    fn upload_roundtrip_is_bit_exact() {
        // The FedGTA-shaped payload: params, confidence, sketch, n_train.
        let payload = (
            vec![1.5f32, -0.0, f32::MIN_POSITIVE, 3.25e-7],
            0.123456789f64,
            vec![9.75f32, 0.5],
            42usize,
        );
        let bytes = encode_upload(0.625f32, &payload);
        let (loss, back): (f32, (Vec<f32>, f64, Vec<f32>, usize)) = decode_upload(&bytes).unwrap();
        assert_eq!(loss.to_bits(), 0.625f32.to_bits());
        assert_eq!(
            back.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            payload.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(back.1.to_bits(), payload.1.to_bits());
        assert_eq!(back.3, 42);
    }

    #[test]
    fn an_owned_param_tensor_is_a_vec_on_the_wire() {
        use crate::codec::CodecSpec;
        let model = vec![1.5f32, -0.0, f32::MIN_POSITIVE, 3.25e-7];
        let mut payload = (ParamTensor::Resident, 0.25f64, vec![9.75f32]);
        payload.own_resident(&model);
        assert_eq!(payload.0, ParamTensor::Owned(model.clone()));
        let plain = (model.clone(), 0.25f64, vec![9.75f32]);
        assert_eq!(encode_upload(0.5, &payload), encode_upload(0.5, &plain));
        let quant = CodecSpec::parse("quant-i8").unwrap().build();
        let coded = encode_upload_routed(quant.as_ref(), None, 0.5, &payload);
        assert_eq!(coded, encode_upload_routed(quant.as_ref(), None, 0.5, &plain));
        let bytes = encode_upload(0.5, &plain);
        let (_, back): (f32, (ParamTensor, f64, Vec<f32>)) = decode_upload(&bytes).unwrap();
        assert_eq!(back, payload);
        // Owning twice keeps the tensor it has.
        payload.own_resident(&[7.0; 4]);
        assert_eq!(payload.0.resolve(&[]), model.as_slice());
    }

    #[test]
    fn encoded_len_is_the_plain_encoding_length() {
        fn check<R: WirePayload>(p: &R) {
            let mut out = Vec::new();
            p.encode(&mut out);
            assert_eq!(p.encoded_len(), out.len());
        }
        check(&());
        check(&(0.5f32, 1.25f64, 7u64, 9usize));
        check(&vec![1.5f32; 13]);
        check(&(ParamTensor::Owned(vec![0.25; 8455]), 0.75f64, vec![3.0f32; 42], 270usize));
        check(&(Vec::<f32>::new(), (1.0f32, vec![2.0f32])));
        // An upload's raw length: the loss, then the payload.
        let payload = (vec![0.25f32; 9], 4usize);
        assert_eq!(
            0.5f32.encoded_len() + payload.encoded_len(),
            encode_upload(0.5, &payload).len()
        );
    }

    #[test]
    fn short_and_trailing_payloads_rejected() {
        let bytes = encode_upload(1.0f32, &(vec![1.0f32], 2.0f64));
        assert!(decode_upload::<(Vec<f32>, f64)>(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_upload::<(Vec<f32>, f64)>(&long).is_err());
        // Decoding as the wrong shape fails rather than aliasing.
        assert!(decode_upload::<(Vec<f32>, f64, Vec<f32>, usize)>(&bytes).is_err());
    }

    #[test]
    fn coded_upload_roundtrips_and_rejects_mismatched_codec() {
        use crate::codec::CodecSpec;
        let payload =
            (vec![1.5f32, -2.0, 0.25, 9.0, -0.125], 0.123456789f64, vec![9.75f32, 0.5], 42usize);
        // Lossless codec: bit-exact round-trip, scalars untouched.
        let ident = CodecSpec::parse("identity").unwrap().build();
        let bytes = encode_upload_routed(ident.as_ref(), None, 0.625, &payload);
        let (loss, back): (f32, (Vec<f32>, f64, Vec<f32>, usize)) =
            decode_upload_routed(ident.as_ref(), None, &bytes).unwrap();
        assert_eq!(loss.to_bits(), 0.625f32.to_bits());
        assert_eq!(back, payload);
        // Lossy codec: shapes and scalars survive, tensors approximate.
        let quant = CodecSpec::parse("quant-i8").unwrap().build();
        let qbytes = encode_upload_routed(quant.as_ref(), None, 0.625, &payload);
        assert!(qbytes.len() < bytes.len());
        let (qloss, qback): (f32, (Vec<f32>, f64, Vec<f32>, usize)) =
            decode_upload_routed(quant.as_ref(), None, &qbytes).unwrap();
        assert_eq!(qloss.to_bits(), 0.625f32.to_bits());
        assert_eq!(qback.1.to_bits(), payload.1.to_bits());
        assert_eq!(qback.3, 42);
        assert_eq!(qback.0.len(), payload.0.len());
        // Decoding under a different armed codec is rejected up front.
        assert!(decode_upload_routed::<(Vec<f32>, f64, Vec<f32>, usize)>(
            quant.as_ref(),
            None,
            &bytes
        )
        .is_err());
        // Plain and coded bodies never alias each other.
        assert!(decode_upload::<(Vec<f32>, f64, Vec<f32>, usize)>(&bytes).is_err());
    }

    #[test]
    fn corrupt_frame_flips_exactly_one_bit() {
        let clean =
            Envelope { kind: 1, round: 1, sender: 0, seq: 0, trace: None, payload: vec![0; 8] }
                .encode();
        for seed in [0u64, 13, 255, u64::MAX] {
            let mut bad = clean.clone();
            corrupt_frame(&mut bad, seed);
            let diff: u32 = clean.iter().zip(&bad).map(|(a, b)| (a ^ b).count_ones()).sum();
            assert_eq!(diff, 1);
            assert!(Envelope::decode(&bad).is_err());
        }
    }
}
