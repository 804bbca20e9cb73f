//! Composable upload codecs: quantization + sparsification for the
//! client→server leg.
//!
//! Uploads dominate federated graph learning at production scale. This
//! module compresses them as a wrapper the strategy never sees. Clients
//! encode their [`crate::transport::WirePayload`] *before* the envelope
//! CRC, the server decodes *after* CRC acceptance, and the fault layer's
//! drop/corrupt semantics apply to the encoded frame — exactly what a real
//! deployment's compression layer would look like on the wire.
//!
//! ## Design
//!
//! A codec is a chain of **stages** transforming a typed intermediate
//! [`Repr`] — a tensor that is dense or sparse (kept indices) with
//! values stored as f32 or 8-bit quantized. Stages compose because
//! they transform the *representation*, not bytes:
//!
//! - [`TopK`] turns a dense f32 tensor into a sparse one (largest-|v|
//!   entries, deterministic tie order);
//! - [`QuantI8`] re-encodes the values of a dense *or* sparse tensor
//!   (per-tensor affine scale+zero-point);
//! - [`Identity`] passes anything through (the lossless reference);
//! - [`Chain`] runs stages forward on encode, backward on decode, so
//!   `topk=64+quant-i8` ships 64 indices + 64 *bytes* per tensor.
//!
//! Only `Vec<f32>` payload fields route through the codec (they carry
//! ~all upload bytes); scalars — losses, confidences, counts — stay
//! bit-exact. Everything here is deterministic: same tensor, same
//! bytes, at any thread count. Non-finite inputs degrade
//! deterministically (quantizers map them to the zero point).
//!
//! ## Wire format
//!
//! Coded uploads travel under their own envelope kind
//! ([`crate::transport::MsgKind::UploadCoded`]) with a self-describing
//! header — `u8` stage count, then `(u8 id, u32 param)` per stage — so
//! the addition is versioned and additive: plain uploads are untouched,
//! and a server decodes only what matches its armed codec.

use fedgta_graph::io::IoError;

/// Wire id of the [`Identity`] stage.
pub const STAGE_IDENTITY: u8 = 0;
/// Wire id of the [`QuantI8`] stage.
pub const STAGE_QUANT_I8: u8 = 1;
/// Wire id of the [`TopK`] stage.
pub const STAGE_TOPK: u8 = 3;
/// Wire id of the [`SketchQuant`] stage (grouped affine i8 with a
/// shared scale table — the moment-sketch codec).
pub const STAGE_SKETCH: u8 = 4;

/// Maximum stages a chain (and its wire header) may carry.
pub const MAX_STAGES: usize = 8;

/// Hostile-input guard: a decoded tensor may not claim more elements
/// than this (16Mi ≈ 64 MB of f32 — far above any model here), so a
/// forged length field cannot force a giant allocation.
pub const MAX_TENSOR_ELEMS: u32 = 1 << 24;

/// One codec stage as advertised in the upload header: `(id, param)`.
/// `param` is stage-specific (TopK's `k`; 0 elsewhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    /// Stage discriminant (`STAGE_*`).
    pub id: u8,
    /// Stage parameter.
    pub param: u32,
}

/// How a [`Repr`]'s values are stored in flight.
#[derive(Debug, Clone, PartialEq)]
pub enum Values {
    /// Raw little-endian f32 bits (lossless).
    F32(Vec<f32>),
    /// Per-tensor affine quantization: `v ≈ zero + q · scale`.
    I8 {
        /// Quantization step `(max − min) / 255` (0 ⇒ constant tensor).
        scale: f32,
        /// Zero point (the tensor's finite minimum).
        zero: f32,
        /// One quantized level `q ∈ 0..=255` per kept value.
        data: Vec<u8>,
    },
    /// Grouped affine quantization with a shared scale table: values are
    /// split into contiguous groups of `group` entries and each group
    /// `g` decodes as `v ≈ zeros[g] + q · scales[g]` — the moment-sketch
    /// storage ([`SketchQuant`]).
    I8Grouped {
        /// Group size (> 0); the last group may be short.
        group: u32,
        /// One quantization step per group.
        scales: Vec<f32>,
        /// One zero point per group.
        zeros: Vec<f32>,
        /// One quantized level `q ∈ 0..=255` per kept value.
        data: Vec<u8>,
    },
}

impl Values {
    fn count(&self) -> usize {
        match self {
            Values::F32(v) => v.len(),
            Values::I8 { data, .. } => data.len(),
            Values::I8Grouped { data, .. } => data.len(),
        }
    }
}

/// The typed intermediate a codec chain transforms: one tensor, dense
/// or sparse, with values in one of the [`Values`] storages.
#[derive(Debug, Clone, PartialEq)]
pub struct Repr {
    /// Dense length of the original tensor.
    pub len: u32,
    /// Kept indices (strictly ascending) when sparse; `None` = dense.
    pub idx: Option<Vec<u32>>,
    /// Stored values: one per kept index, or `len` when dense.
    pub vals: Values,
}

impl Repr {
    /// Wraps a dense f32 tensor.
    pub fn dense(vals: Vec<f32>) -> Self {
        let len = vals.len() as u32;
        Repr { len, idx: None, vals: Values::F32(vals) }
    }

    /// Reconstructs the dense f32 tensor a fully decoded repr holds.
    /// Errors if any lossy/sparse stage was left undecoded (a
    /// codec/header mismatch).
    pub fn into_dense(self) -> Result<Vec<f32>, IoError> {
        match (self.idx, self.vals) {
            (None, Values::F32(v)) => Ok(v),
            _ => Err(IoError::Corrupt("codec chain left tensor undecoded")),
        }
    }

    /// Serializes the repr (self-describing, validated on decode).
    pub fn serialize(&self, out: &mut Vec<u8>) {
        debug_assert_eq!(self.vals.count(), self.idx.as_ref().map_or(self.len as usize, Vec::len),);
        out.extend_from_slice(&self.len.to_le_bytes());
        let kind: u8 = match &self.vals {
            Values::F32(_) => 0,
            Values::I8 { .. } => 2,
            Values::I8Grouped { .. } => 3,
        };
        out.push(kind | if self.idx.is_some() { 4 } else { 0 });
        if let Some(idx) = &self.idx {
            out.extend_from_slice(&(idx.len() as u32).to_le_bytes());
            for i in idx {
                out.extend_from_slice(&i.to_le_bytes());
            }
        }
        match &self.vals {
            Values::F32(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            Values::I8 { scale, zero, data } => {
                out.extend_from_slice(&scale.to_le_bytes());
                out.extend_from_slice(&zero.to_le_bytes());
                out.extend_from_slice(data);
            }
            Values::I8Grouped { group, scales, zeros, data } => {
                out.extend_from_slice(&group.to_le_bytes());
                for s in scales {
                    out.extend_from_slice(&s.to_le_bytes());
                }
                for z in zeros {
                    out.extend_from_slice(&z.to_le_bytes());
                }
                out.extend_from_slice(data);
            }
        }
    }

    /// Deserializes one repr from the front of `input`, advancing it.
    /// Every structural claim is validated before any allocation sized
    /// by it: length caps, index monotonicity and range, byte counts.
    pub fn deserialize(input: &mut &[u8]) -> Result<Repr, IoError> {
        let len = u32::from_le_bytes(take(input, 4)?.try_into().unwrap());
        if len > MAX_TENSOR_ELEMS {
            return Err(IoError::Corrupt("tensor length exceeds cap"));
        }
        let flags = take(input, 1)?[0];
        if flags & !0x07 != 0 {
            return Err(IoError::Corrupt("bad tensor flags"));
        }
        let idx = if flags & 4 != 0 {
            let nnz = u32::from_le_bytes(take(input, 4)?.try_into().unwrap());
            if nnz > len {
                return Err(IoError::Corrupt("sparse tensor has nnz > len"));
            }
            let bytes = take(input, nnz as usize * 4)?;
            let idx: Vec<u32> =
                bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
            for w in idx.windows(2) {
                if w[0] >= w[1] {
                    return Err(IoError::Corrupt("sparse indices not ascending"));
                }
            }
            if idx.last().is_some_and(|&i| i >= len) {
                return Err(IoError::Corrupt("sparse index out of range"));
            }
            Some(idx)
        } else {
            None
        };
        let count = idx.as_ref().map_or(len as usize, Vec::len);
        let vals = match flags & 0x03 {
            0 => Values::F32(
                take(input, count * 4)?
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            1 => return Err(IoError::Corrupt("retired binary16 tensor storage")),
            2 => {
                let scale = f32::from_le_bytes(take(input, 4)?.try_into().unwrap());
                let zero = f32::from_le_bytes(take(input, 4)?.try_into().unwrap());
                Values::I8 { scale, zero, data: take(input, count)?.to_vec() }
            }
            _ => {
                let group = u32::from_le_bytes(take(input, 4)?.try_into().unwrap());
                if group == 0 {
                    return Err(IoError::Corrupt("grouped tensor with zero group size"));
                }
                let ng = count.div_ceil(group as usize);
                let scales: Vec<f32> = take(input, ng * 4)?
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                let zeros: Vec<f32> = take(input, ng * 4)?
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                Values::I8Grouped { group, scales, zeros, data: take(input, count)?.to_vec() }
            }
        };
        Ok(Repr { len, idx, vals })
    }
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], IoError> {
    if input.len() < n {
        return Err(IoError::Corrupt("codec payload truncated"));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// A composable upload codec stage (or chain of stages).
///
/// `stage_encode` must be total and deterministic; `stage_decode` is
/// its inverse over representations (exact for lossless stages, shape-
/// preserving for lossy ones) and must reject any repr the stage could
/// not have produced — the server treats that as corruption.
pub trait Codec: Send + Sync {
    /// Appends this codec's wire stages (a chain appends several).
    fn stages(&self, out: &mut Vec<Stage>);
    /// Transforms a repr on the client (encode direction).
    fn stage_encode(&self, r: Repr) -> Repr;
    /// Inverts the transform on the server (decode direction).
    fn stage_decode(&self, r: Repr) -> Result<Repr, IoError>;
    /// Whether decode ∘ encode is bit-exact on every tensor.
    fn is_lossless(&self) -> bool;

    /// Encodes one dense f32 tensor into `out` (stage transform +
    /// serialized repr).
    fn encode_tensor(&self, t: &[f32], out: &mut Vec<u8>) {
        self.stage_encode(Repr::dense(t.to_vec())).serialize(out);
    }

    /// Decodes one tensor from the front of `input` back to dense f32.
    fn decode_tensor(&self, input: &mut &[u8]) -> Result<Vec<f32>, IoError> {
        self.stage_decode(Repr::deserialize(input)?)?.into_dense()
    }
}

/// The lossless reference codec: passes any repr through unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Codec for Identity {
    fn stages(&self, out: &mut Vec<Stage>) {
        out.push(Stage { id: STAGE_IDENTITY, param: 0 });
    }
    fn stage_encode(&self, r: Repr) -> Repr {
        r
    }
    fn stage_decode(&self, r: Repr) -> Result<Repr, IoError> {
        Ok(r)
    }
    fn is_lossless(&self) -> bool {
        true
    }
}

/// Per-tensor affine 8-bit quantization: `q = round((v − zero)/scale)`
/// clamped to `0..=255`, with `zero` the finite minimum and `scale`
/// `(max − min)/255` computed in f64 (so extreme ranges stay finite).
/// A constant (or empty, or all-non-finite) tensor gets `scale = 0` and
/// decodes exactly to its zero point. Reconstruction error is bounded
/// by `scale` per finite value; non-finite values decode to the zero
/// point. 4 bytes/value → 1 byte/value.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantI8;

impl QuantI8 {
    fn quantize(vals: &[f32]) -> (f32, f32, Vec<u8>) {
        let (lo, hi) = finite_min_max(vals);
        if lo > hi {
            // No finite values at all: everything maps to 0.0.
            return (0.0, 0.0, vec![0; vals.len()]);
        }
        let scale = ((hi as f64 - lo as f64) / 255.0) as f32;
        if scale <= 0.0 {
            return (0.0, lo, vec![0; vals.len()]);
        }
        let (lo64, scale64) = (lo as f64, scale as f64);
        let data = vals.iter().map(|&v| level((v as f64 - lo64) / scale64)).collect();
        (scale, lo, data)
    }

    fn dequantize(scale: f32, zero: f32, data: &[u8]) -> Vec<f32> {
        data.iter().map(|&q| (zero as f64 + q as f64 * scale as f64) as f32).collect()
    }
}

/// Lanes of [`finite_min_max`]'s independent compare-select chains.
const MINMAX_LANES: usize = 16;

/// `(min, max)` over the finite values of `vals`, `(+∞, −∞)` when there
/// are none — bit for bit the sequential `lo.min(v)` / `hi.max(v)` fold
/// over them ([`finite_min_max_seq`]).
///
/// [`MINMAX_LANES`] independent compare-select chains, each seeing a
/// non-finite value as the identity, then the remainder in order. A
/// non-zero extremum is one value with one bit pattern, so any order finds
/// the fold's bits. A zero extremum is not: which of `+0.0` and `−0.0`
/// the fold keeps depends on where each sits, so that rare case re-runs
/// the fold itself.
fn finite_min_max(vals: &[f32]) -> (f32, f32) {
    let mut lo = [f32::INFINITY; MINMAX_LANES];
    let mut hi = [f32::NEG_INFINITY; MINMAX_LANES];
    let mut chunks = vals.chunks_exact(MINMAX_LANES);
    for c in &mut chunks {
        for l in 0..MINMAX_LANES {
            // `|v| < ∞` is false exactly for NaN and ±∞.
            let finite = c[l].abs() < f32::INFINITY;
            let (vl, vh) = if finite { (c[l], c[l]) } else { (f32::INFINITY, f32::NEG_INFINITY) };
            lo[l] = if vl < lo[l] { vl } else { lo[l] };
            hi[l] = if vh > hi[l] { vh } else { hi[l] };
        }
    }
    let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
    for l in 0..MINMAX_LANES {
        min = if lo[l] < min { lo[l] } else { min };
        max = if hi[l] > max { hi[l] } else { max };
    }
    for &v in chunks.remainder() {
        if v.is_finite() {
            min = min.min(v);
            max = max.max(v);
        }
    }
    if min == 0.0 || max == 0.0 {
        return finite_min_max_seq(vals);
    }
    (min, max)
}

/// The sequential fold [`finite_min_max`] reproduces, and its fallback
/// when an extremum is a signed zero.
fn finite_min_max_seq(vals: &[f32]) -> (f32, f32) {
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in vals {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    (lo, hi)
}

/// The quantization level of `x = (v − zero) / scale`: exactly
/// `x.round().clamp(0.0, 255.0) as u8` (round half away from zero; NaN to
/// 0, as the saturating cast takes it), with no libm call and no
/// float-to-int cast, so the map over a tensor vectorizes. Clamping first
/// changes nothing: `round` is monotone and fixes 0 and 255. On the clamped
/// `c ∈ [0, 255]`, adding `2⁵²` rounds `c` to an integer `r`, ties to even,
/// and leaves `r` in the sum's low mantissa bits; `r` and `c − r` are then
/// exact, and `c − r = 0.5` is the one tie that rounding went down from,
/// where half away from zero goes up.
#[inline(always)]
fn level(x: f64) -> u8 {
    const MAGIC: f64 = 4_503_599_627_370_496.0;
    let c = if x >= 0.0 {
        if x <= 255.0 {
            x
        } else {
            255.0
        }
    } else {
        0.0
    };
    let m = c + MAGIC;
    let r = m - MAGIC;
    (m.to_bits() as u8) + (c - r >= 0.5) as u8
}

impl Codec for QuantI8 {
    fn stages(&self, out: &mut Vec<Stage>) {
        out.push(Stage { id: STAGE_QUANT_I8, param: 0 });
    }
    fn stage_encode(&self, r: Repr) -> Repr {
        let Values::F32(vals) = &r.vals else {
            panic!("quant-i8 requires f32 stage input — put quantization last in the chain");
        };
        let (scale, zero, data) = Self::quantize(vals);
        Repr { len: r.len, idx: r.idx, vals: Values::I8 { scale, zero, data } }
    }
    fn stage_decode(&self, r: Repr) -> Result<Repr, IoError> {
        let Values::I8 { scale, zero, data } = &r.vals else {
            return Err(IoError::Corrupt("codec stage mismatch (expected i8 values)"));
        };
        if !scale.is_finite() || !zero.is_finite() || *scale < 0.0 {
            return Err(IoError::Corrupt("bad quantization parameters"));
        }
        let vals = Values::F32(Self::dequantize(*scale, *zero, data));
        Ok(Repr { len: r.len, idx: r.idx, vals })
    }
    fn is_lossless(&self) -> bool {
        false
    }
}

/// Top-k magnitude sparsification: keeps the `k` largest-|v| entries of
/// a dense tensor as (index, value) pairs; everything else decodes to
/// zero. Ties break deterministically — lower index wins — and NaN
/// magnitudes order via `total_cmp` (above +inf), so the kept set is a
/// pure function of the tensor. Tensors with `len ≤ k` pass through
/// dense (the sketch tensors riding alongside model parameters).
#[derive(Debug, Clone, Copy)]
pub struct TopK {
    /// Entries kept per tensor (> 0).
    pub k: u32,
}

impl TopK {
    /// The kept index set: the `k` largest by `(|v| desc, index asc)`,
    /// returned in ascending index order.
    ///
    /// A counting selection over the sign-cleared bits `|v|.to_bits()`,
    /// whose integer order is exactly `|v|`'s `total_cmp` order (NaN above
    /// +∞). One pass counts the keys' top 12 bits (the exponent and three
    /// mantissa bits) and finds the bucket that holds the k-th largest
    /// key. A second pass keeps every index of a higher bucket and gathers
    /// the bucket's own keys, each packed with its index as one `u64` that
    /// orders by `(key desc, index asc)`; selecting among those few picks
    /// the rest — at equal magnitude the lower indices, as a sort by
    /// `(|v| desc, index asc)` does. The two ascending runs then merge, in
    /// place: two allocations per call, the result and the bucket.
    pub fn select(vals: &[f32], k: usize) -> Vec<u32> {
        const SHIFT: u32 = 19;
        let n = vals.len();
        if k >= n {
            return (0..n as u32).collect();
        }
        let mut kept = Vec::with_capacity(k);
        if k == 0 {
            return kept;
        }
        let key = |v: f32| v.to_bits() & 0x7fff_ffff;
        let mut hist = [0u32; 1 << (31 - SHIFT)];
        for &v in vals {
            hist[(key(v) >> SHIFT) as usize] += 1;
        }
        // The bucket of the k-th largest key, and that key's rank in it.
        let (mut bucket, mut rank) = (hist.len(), k);
        loop {
            bucket -= 1;
            let count = hist[bucket] as usize;
            if count >= rank {
                break;
            }
            rank -= count;
        }
        let mut in_bucket: Vec<u64> = Vec::with_capacity(hist[bucket] as usize);
        let bucket = bucket as u32;
        for (i, &v) in vals.iter().enumerate() {
            let kv = key(v);
            match (kv >> SHIFT).cmp(&bucket) {
                std::cmp::Ordering::Greater => kept.push(i as u32),
                std::cmp::Ordering::Equal => {
                    in_bucket.push(u64::from(0x7fff_ffff - kv) << 32 | i as u64)
                }
                std::cmp::Ordering::Less => {}
            }
        }
        in_bucket.select_nth_unstable(rank - 1);
        let chosen = &mut in_bucket[..rank];
        for t in chosen.iter_mut() {
            *t &= 0xffff_ffff;
        }
        chosen.sort_unstable();
        // Merge the two ascending runs from the back, into `kept`'s room.
        let (mut a, mut c) = (kept.len(), rank);
        kept.resize(k, 0);
        for w in (0..k).rev() {
            if c == 0 {
                break;
            }
            if a > 0 && kept[a - 1] > chosen[c - 1] as u32 {
                kept[w] = kept[a - 1];
                a -= 1;
            } else {
                kept[w] = chosen[c - 1] as u32;
                c -= 1;
            }
        }
        debug_assert_eq!(kept.len(), k);
        kept
    }
}

impl Codec for TopK {
    fn stages(&self, out: &mut Vec<Stage>) {
        out.push(Stage { id: STAGE_TOPK, param: self.k });
    }
    fn stage_encode(&self, r: Repr) -> Repr {
        assert!(self.k > 0, "top-k requires k > 0");
        let Values::F32(vals) = &r.vals else {
            panic!("top-k requires f32 stage input — sparsify before quantizing");
        };
        assert!(r.idx.is_none(), "top-k requires a dense stage input");
        if self.k as usize >= vals.len() {
            return r;
        }
        let idx = Self::select(vals, self.k as usize);
        let kept: Vec<f32> = idx.iter().map(|&i| vals[i as usize]).collect();
        Repr { len: r.len, idx: Some(idx), vals: Values::F32(kept) }
    }
    fn stage_decode(&self, r: Repr) -> Result<Repr, IoError> {
        let Some(idx) = r.idx else {
            // len ≤ k pass-through: the tensor was never sparsified.
            return Ok(r);
        };
        let Values::F32(kept) = &r.vals else {
            return Err(IoError::Corrupt("codec stage mismatch (expected f32 values)"));
        };
        let mut dense = vec![0f32; r.len as usize];
        for (&i, &v) in idx.iter().zip(kept) {
            dense[i as usize] = v;
        }
        Ok(Repr { len: r.len, idx: None, vals: Values::F32(dense) })
    }
    fn is_lossless(&self) -> bool {
        false
    }
}

/// The moment-sketch codec: grouped affine 8-bit quantization with a
/// shared scale table, built for FedGTA's Eq. 4/5 smoothed-label moment
/// uploads. Those vectors are the flattened `k_lp × order × classes`
/// tensor whose rows (one per propagation step × moment order) live on
/// wildly different scales — raw moments of order `p` span `p` decades —
/// so one per-tensor scale (plain [`QuantI8`]) wastes most of its 256
/// levels on the largest row. `SketchQuant` quantizes each contiguous
/// group of `group` values (choose `group = classes` for one scale per
/// moment row) against its own `(scale, zero)` pair, shipping
/// `1 byte/value + 8 bytes/group`. Behaves exactly like [`QuantI8`]
/// applied per group: same f64 scale math, same non-finite handling,
/// same error bound (per-group `scale`).
#[derive(Debug, Clone, Copy)]
pub struct SketchQuant {
    /// Values per quantization group (> 0); the last group may be short.
    pub group: u32,
}

impl Codec for SketchQuant {
    fn stages(&self, out: &mut Vec<Stage>) {
        out.push(Stage { id: STAGE_SKETCH, param: self.group });
    }
    fn stage_encode(&self, r: Repr) -> Repr {
        assert!(self.group > 0, "sketch requires group > 0");
        let Values::F32(vals) = &r.vals else {
            panic!("sketch requires f32 stage input — put quantization last in the chain");
        };
        let ng = vals.len().div_ceil(self.group as usize);
        let mut scales = Vec::with_capacity(ng);
        let mut zeros = Vec::with_capacity(ng);
        let mut data = Vec::with_capacity(vals.len());
        for chunk in vals.chunks(self.group as usize) {
            let (scale, zero, q) = QuantI8::quantize(chunk);
            scales.push(scale);
            zeros.push(zero);
            data.extend_from_slice(&q);
        }
        Repr {
            len: r.len,
            idx: r.idx,
            vals: Values::I8Grouped { group: self.group, scales, zeros, data },
        }
    }
    fn stage_decode(&self, r: Repr) -> Result<Repr, IoError> {
        let Values::I8Grouped { group, scales, zeros, data } = &r.vals else {
            return Err(IoError::Corrupt("codec stage mismatch (expected grouped i8 values)"));
        };
        if *group != self.group {
            return Err(IoError::Corrupt("sketch group size does not match armed codec"));
        }
        let ng = data.len().div_ceil(self.group as usize);
        if scales.len() != ng || zeros.len() != ng {
            return Err(IoError::Corrupt("sketch scale table length mismatch"));
        }
        for (s, z) in scales.iter().zip(zeros) {
            if !s.is_finite() || !z.is_finite() || *s < 0.0 {
                return Err(IoError::Corrupt("bad quantization parameters"));
            }
        }
        let mut vals = Vec::with_capacity(data.len());
        for (g, chunk) in data.chunks(self.group as usize).enumerate() {
            vals.extend_from_slice(&QuantI8::dequantize(scales[g], zeros[g], chunk));
        }
        Ok(Repr { len: r.len, idx: r.idx, vals: Values::F32(vals) })
    }
    fn is_lossless(&self) -> bool {
        false
    }
}

/// Runs stages forward on encode and backward on decode, so e.g.
/// `topk=64+quant-i8` ships 64 indices plus 64 quantized bytes.
pub struct Chain {
    stages: Vec<Box<dyn Codec>>,
}

impl Chain {
    /// Chains `stages` in encode order.
    pub fn new(stages: Vec<Box<dyn Codec>>) -> Self {
        assert!(!stages.is_empty(), "empty codec chain");
        Self { stages }
    }
}

impl Codec for Chain {
    fn stages(&self, out: &mut Vec<Stage>) {
        for s in &self.stages {
            s.stages(out);
        }
    }
    fn stage_encode(&self, mut r: Repr) -> Repr {
        for s in &self.stages {
            r = s.stage_encode(r);
        }
        r
    }
    fn stage_decode(&self, mut r: Repr) -> Result<Repr, IoError> {
        for s in self.stages.iter().rev() {
            r = s.stage_decode(r)?;
        }
        Ok(r)
    }
    fn is_lossless(&self) -> bool {
        self.stages.iter().all(|s| s.is_lossless())
    }
}

/// A parsed, validated codec chain description — what [`crate::round::CommsConfig`]
/// carries and what the wire header advertises.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CodecSpec {
    /// The wire stages, in encode order.
    pub stages: Vec<Stage>,
}

impl CodecSpec {
    /// Parses a chain spec like `"identity"`, `"quant-i8"`,
    /// `"topk=64"`, or `"topk=64+quant-i8"`. Stage aliases: `id`,
    /// `i8`, `topk`. A sparsifier must precede a quantizer, and at most
    /// one of each may appear.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut stages = Vec::new();
        for token in spec.split('+') {
            let token = token.trim();
            let (name, param) = match token.split_once('=') {
                Some((n, p)) => (
                    n.trim(),
                    Some(
                        p.trim()
                            .parse::<u32>()
                            .map_err(|_| format!("bad stage parameter in '{token}'"))?,
                    ),
                ),
                None => (token, None),
            };
            let stage = match name {
                "identity" | "id" => Stage { id: STAGE_IDENTITY, param: 0 },
                "quant-i8" | "i8" => Stage { id: STAGE_QUANT_I8, param: 0 },
                "topk" => Stage { id: STAGE_TOPK, param: param.unwrap_or(64) },
                "sketch" | "sketch-i8" => Stage { id: STAGE_SKETCH, param: param.unwrap_or(8) },
                other => {
                    return Err(format!(
                        "unknown codec stage '{other}' \
                         (identity|quant-i8|topk[=k]|sketch[=group])"
                    ))
                }
            };
            if !matches!(stage.id, STAGE_TOPK | STAGE_SKETCH) && param.is_some() {
                return Err(format!("stage '{name}' takes no parameter"));
            }
            stages.push(stage);
        }
        let spec = CodecSpec { stages };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("empty codec spec".into());
        }
        if self.stages.len() > MAX_STAGES {
            return Err(format!("codec chain longer than {MAX_STAGES} stages"));
        }
        let mut seen_quant = false;
        let mut seen_topk = false;
        for s in &self.stages {
            match s.id {
                STAGE_IDENTITY => {}
                STAGE_QUANT_I8 => {
                    if seen_quant {
                        return Err("at most one quantization stage per chain".into());
                    }
                    seen_quant = true;
                }
                STAGE_SKETCH => {
                    if seen_quant {
                        return Err("at most one quantization stage per chain".into());
                    }
                    if s.param == 0 {
                        return Err("sketch requires group > 0".into());
                    }
                    seen_quant = true;
                }
                STAGE_TOPK => {
                    if seen_topk {
                        return Err("at most one top-k stage per chain".into());
                    }
                    if seen_quant {
                        return Err("top-k must precede quantization in the chain".into());
                    }
                    if s.param == 0 {
                        return Err("top-k requires k > 0".into());
                    }
                    seen_topk = true;
                }
                other => return Err(format!("unknown codec stage id {other}")),
            }
        }
        Ok(())
    }

    /// Builds the runnable codec.
    pub fn build(&self) -> Box<dyn Codec> {
        fn one(s: &Stage) -> Box<dyn Codec> {
            match s.id {
                STAGE_IDENTITY => Box::new(Identity),
                STAGE_QUANT_I8 => Box::new(QuantI8),
                STAGE_TOPK => Box::new(TopK { k: s.param }),
                STAGE_SKETCH => Box::new(SketchQuant { group: s.param }),
                other => unreachable!("validated spec with stage id {other}"),
            }
        }
        if self.stages.len() == 1 {
            one(&self.stages[0])
        } else {
            Box::new(Chain::new(self.stages.iter().map(one).collect()))
        }
    }

    /// Canonical display name (`"topk=64+quant-i8"`).
    pub fn name(&self) -> String {
        self.stages
            .iter()
            .map(|s| match s.id {
                STAGE_IDENTITY => "identity".to_string(),
                STAGE_QUANT_I8 => "quant-i8".to_string(),
                STAGE_TOPK => format!("topk={}", s.param),
                STAGE_SKETCH => format!("sketch={}", s.param),
                other => format!("stage{other}"),
            })
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Whether the whole chain is lossless (identity-only).
    pub fn is_lossless(&self) -> bool {
        self.stages.iter().all(|s| s.id == STAGE_IDENTITY)
    }
}

/// Writes the self-describing codec header: `u8` stage count, then
/// `(u8 id, u32 param)` per stage.
pub fn encode_header(stages: &[Stage], out: &mut Vec<u8>) {
    assert!(stages.len() <= MAX_STAGES);
    out.push(stages.len() as u8);
    for s in stages {
        out.push(s.id);
        out.extend_from_slice(&s.param.to_le_bytes());
    }
}

/// Parses a codec header from the front of `input`, advancing it.
pub fn decode_header(input: &mut &[u8]) -> Result<Vec<Stage>, IoError> {
    let n = take(input, 1)?[0] as usize;
    if n == 0 || n > MAX_STAGES {
        return Err(IoError::Corrupt("bad codec stage count"));
    }
    let mut stages = Vec::with_capacity(n);
    for _ in 0..n {
        let id = take(input, 1)?[0];
        if id > STAGE_SKETCH {
            return Err(IoError::Corrupt("unknown codec stage id"));
        }
        let param = u32::from_le_bytes(take(input, 4)?.try_into().unwrap());
        stages.push(Stage { id, param });
    }
    Ok(stages)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quantizer as it was before the lane-split extrema and the
    /// inline rounding: the oracle [`QuantI8::quantize`] must match bit
    /// for bit.
    fn quantize_oracle(vals: &[f32]) -> (f32, f32, Vec<u8>) {
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in vals {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if lo > hi {
            return (0.0, 0.0, vec![0; vals.len()]);
        }
        let scale = ((hi as f64 - lo as f64) / 255.0) as f32;
        if scale <= 0.0 {
            return (0.0, lo, vec![0; vals.len()]);
        }
        let data = vals
            .iter()
            .map(|&v| ((v as f64 - lo as f64) / scale as f64).round().clamp(0.0, 255.0) as u8)
            .collect();
        (scale, lo, data)
    }

    /// The comparator selection [`TopK::select`] replaced: the oracle.
    fn select_oracle(vals: &[f32], k: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..vals.len() as u32).collect();
        if (1..order.len()).contains(&k) {
            order.select_nth_unstable_by(k - 1, |&a, &b| {
                let (ma, mb) = (vals[a as usize].abs(), vals[b as usize].abs());
                mb.total_cmp(&ma).then(a.cmp(&b))
            });
        }
        order.truncate(k);
        order.sort_unstable();
        order
    }

    fn assert_quantize_matches(vals: &[f32], what: &str) {
        let (s, z, d) = QuantI8::quantize(vals);
        let (os, oz, od) = quantize_oracle(vals);
        assert_eq!((s.to_bits(), z.to_bits()), (os.to_bits(), oz.to_bits()), "scale/zero: {what}");
        assert_eq!(d, od, "levels: {what}");
    }

    /// A seeded xorshift stream.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn quantize_equals_the_sequential_quantizer_on_adversarial_tensors() {
        // Exact halves: zero 1.0, scale exactly 1.0, so `x` is the value
        // minus one — every `k + 0.5` level rounds away from zero.
        let halves: Vec<f32> = (0..40).map(|i| 1.0 + i as f32 * 6.5).chain([256.0, 1.0]).collect();
        assert_eq!(QuantI8::quantize(&halves).0, 1.0);
        assert_quantize_matches(&halves, "exact halves");
        // A signed-zero extremum in every lane position and in the
        // remainder, with the other zero before or after it.
        for len in [1usize, 15, 16, 17, 33, 64, 70] {
            for at in 0..len {
                for (first, second) in [(0.0f32, -0.0f32), (-0.0, 0.0)] {
                    let mut t: Vec<f32> = (0..len).map(|i| 1.0 + i as f32).collect();
                    t[at] = first;
                    t[(at + len / 2) % len] = second;
                    assert_quantize_matches(&t, &format!("zero min len {len} at {at}"));
                    let neg: Vec<f32> = t.iter().map(|v| -v).collect();
                    assert_quantize_matches(&neg, &format!("zero max len {len} at {at}"));
                }
            }
        }
        // Raw bit patterns: NaN payloads, infinities, subnormals, extremes.
        let mut next = stream(7);
        for len in [0usize, 1, 5, 16, 31, 100, 257, 1000] {
            for _ in 0..20 {
                let t: Vec<f32> = (0..len).map(|_| f32::from_bits(next() as u32)).collect();
                assert_quantize_matches(&t, &format!("bits len {len}"));
                let few: Vec<f32> = (0..len).map(|_| (next() % 9) as f32 - 4.0).collect();
                assert_quantize_matches(&few, &format!("few levels len {len}"));
            }
        }
        for t in [
            vec![f32::NAN; 20],
            vec![f32::INFINITY, f32::NEG_INFINITY],
            vec![3.5; 33],
            vec![f32::MAX, f32::MIN],
        ] {
            assert_quantize_matches(&t, "degenerate");
        }
    }

    #[test]
    fn level_rounds_half_away_from_zero_exactly() {
        let oracle = |x: f64| x.round().clamp(0.0, 255.0) as u8;
        for x in [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            254.5,
            255.0,
            255.4,
            255.5,
            300.0,
            -0.5,
            -3.0,
            0.49999999999999994,
        ] {
            assert_eq!(level(x), oracle(x), "{x}");
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 5e-324, 1e300] {
            assert_eq!(level(x), oracle(x), "{x}");
        }
        // Every half and quarter step across the range, the neighbours of
        // each half, and raw bit patterns.
        for i in -40..=1100 {
            let x = i as f64 * 0.25;
            for x in
                [x, f64::from_bits(x.to_bits() + 1), f64::from_bits(x.to_bits().wrapping_sub(1))]
            {
                assert_eq!(level(x), oracle(x), "{x:e}");
            }
        }
        let mut next = stream(3);
        for _ in 0..100_000 {
            let x = f64::from_bits(next());
            assert_eq!(level(x), oracle(x), "{x:e}");
            let y = (next() % 600_000) as f64 / 2000.0 - 20.0;
            assert_eq!(level(y), oracle(y), "{y:e}");
        }
    }

    #[test]
    fn counting_selection_equals_the_comparator_selection() {
        let mut next = stream(11);
        // Sign-cleared keys of every kind, and magnitudes that tie.
        let pool = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            3.0,
            -3.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        for len in [1usize, 2, 7, 64, 65, 300, 1000] {
            for trial in 0..12 {
                let t: Vec<f32> = match trial % 3 {
                    0 => (0..len).map(|_| f32::from_bits(next() as u32)).collect(),
                    1 => (0..len).map(|_| pool[(next() % pool.len() as u64) as usize]).collect(),
                    _ => (0..len).map(|_| ((next() % 41) as f32 - 20.0) * 0.25).collect(),
                };
                for k in [0, 1, 2, len / 3, len / 2, len.saturating_sub(1), len, len + 5] {
                    assert_eq!(
                        TopK::select(&t, k),
                        select_oracle(&t, k),
                        "len {len} k {k} trial {trial}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn wire_kernels_equal_their_oracles_on_random_tensors(
            bits in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..600),
            few in proptest::collection::vec(0u32..7, 0..600),
            k in 0usize..700,
        ) {
            let raw: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let tied: Vec<f32> = few.iter().map(|&q| (q as f32 - 3.0) * 0.5).collect();
            for t in [&raw, &tied] {
                proptest::prop_assert_eq!(TopK::select(t, k), select_oracle(t, k));
                let (s, z, d) = QuantI8::quantize(t);
                let (os, oz, od) = quantize_oracle(t);
                proptest::prop_assert_eq!((s.to_bits(), z.to_bits(), d), (os.to_bits(), oz.to_bits(), od));
            }
        }
    }

    fn roundtrip(codec: &dyn Codec, t: &[f32]) -> Vec<f32> {
        let mut buf = Vec::new();
        codec.encode_tensor(t, &mut buf);
        let mut input = buf.as_slice();
        let out = codec.decode_tensor(&mut input).expect("clean tensor decodes");
        assert!(input.is_empty(), "decode left trailing bytes");
        out
    }

    #[test]
    fn identity_is_bit_exact() {
        let t = vec![1.5f32, -0.0, f32::MIN_POSITIVE, f32::NAN, 3.25e-7, f32::INFINITY];
        let back = roundtrip(&Identity, &t);
        assert_eq!(
            t.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn quant_i8_error_is_bounded_by_scale() {
        let t: Vec<f32> = (0..257).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let back = roundtrip(&QuantI8, &t);
        let (lo, hi) = t.iter().fold((f32::MAX, f32::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let scale = (hi - lo) / 255.0;
        for (a, b) in t.iter().zip(&back) {
            assert!((a - b).abs() <= scale, "{a} vs {b} (scale {scale})");
        }
    }

    #[test]
    fn quant_i8_constant_and_hostile_tensors() {
        assert_eq!(roundtrip(&QuantI8, &[2.5; 7]), vec![2.5f32; 7]);
        assert_eq!(roundtrip(&QuantI8, &[]), Vec::<f32>::new());
        // Non-finite values quantize deterministically to the zero point.
        let back = roundtrip(&QuantI8, &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        assert!(back.iter().all(|v| v.is_finite()));
        // Extreme dynamic range must not overflow the scale to inf.
        let back = roundtrip(&QuantI8, &[f32::MAX, f32::MIN]);
        assert!(back.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn topk_keeps_largest_magnitudes_with_deterministic_ties() {
        let t = vec![0.5f32, -3.0, 2.0, -2.0, 0.1, 3.0];
        let codec = TopK { k: 3 };
        let back = roundtrip(&codec, &t);
        // |−3| and |3| tie at the top; then the ±2 tie breaks to the
        // lower index (index 2).
        assert_eq!(back, vec![0.0, -3.0, 2.0, 0.0, 0.0, 3.0]);
        // k ≥ len passes through losslessly.
        assert_eq!(roundtrip(&TopK { k: 100 }, &t), t);
    }

    #[test]
    fn chain_topk_quant_ships_sparse_bytes() {
        let t: Vec<f32> = (0..1000).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        let chain = Chain::new(vec![Box::new(TopK { k: 50 }), Box::new(QuantI8)]);
        let mut buf = Vec::new();
        chain.encode_tensor(&t, &mut buf);
        // 4 len + 1 flags + 4 nnz + 50·4 idx + 8 scale/zero + 50 bytes.
        assert_eq!(buf.len(), 4 + 1 + 4 + 50 * 4 + 8 + 50);
        let mut input = buf.as_slice();
        let back = chain.decode_tensor(&mut input).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.iter().filter(|v| **v != 0.0).count(), 50);
        assert!(!chain.is_lossless());
    }

    #[test]
    fn sketch_quant_bounds_error_per_group() {
        // Moment-sketch shaped tensor: 5 rows of 7 "classes" whose scales
        // differ by orders of magnitude (raw moments of rising order).
        let mut t = Vec::new();
        for row in 0..5 {
            let mag = 10f32.powi(row - 2);
            for c in 0..7 {
                t.push(((row * 7 + c) as f32 * 0.61).sin() * mag);
            }
        }
        let codec = SketchQuant { group: 7 };
        let back = roundtrip(&codec, &t);
        assert_eq!(back.len(), t.len());
        for (g, (orig, dec)) in t.chunks(7).zip(back.chunks(7)).enumerate() {
            let (lo, hi) =
                orig.iter().fold((f32::MAX, f32::MIN), |(l, h), &v| (l.min(v), h.max(v)));
            let scale = (hi - lo) / 255.0;
            for (a, b) in orig.iter().zip(dec) {
                assert!((a - b).abs() <= scale, "group {g}: {a} vs {b} (scale {scale})");
            }
        }
        // Per-group scaling beats one per-tensor scale by construction:
        // the smallest row would be crushed to ~0 error under the global
        // scale; here it reconstructs within its own tiny scale.
        let small_err: f32 =
            t[0..7].iter().zip(&back[0..7]).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
        assert!(small_err <= (0.01 + 0.01) / 255.0 * 2.0, "small row error {small_err}");
    }

    #[test]
    fn sketch_quant_serializes_grouped_and_rejects_hostile_tables() {
        let t: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let codec = SketchQuant { group: 8 };
        let mut buf = Vec::new();
        codec.encode_tensor(&t, &mut buf);
        // 4 len + 1 flags + 4 group + 3·4 scales + 3·4 zeros + 20 data.
        assert_eq!(buf.len(), 4 + 1 + 4 + 12 + 12 + 20);
        let mut input = buf.as_slice();
        let back = codec.decode_tensor(&mut input).unwrap();
        assert!(input.is_empty());
        assert_eq!(back.len(), t.len());
        // A different armed group size rejects the frame.
        assert!(SketchQuant { group: 4 }.decode_tensor(&mut buf.as_slice()).is_err());
        // Non-finite scale in the table rejects.
        let hostile = Repr {
            len: 4,
            idx: None,
            vals: Values::I8Grouped {
                group: 4,
                scales: vec![f32::NAN],
                zeros: vec![0.0],
                data: vec![0; 4],
            },
        };
        assert!(SketchQuant { group: 4 }.stage_decode(hostile).is_err());
        // Chained after top-k: kept values quantize per group.
        let chain = Chain::new(vec![Box::new(TopK { k: 6 }), Box::new(SketchQuant { group: 3 })]);
        let big: Vec<f32> = (0..100).map(|i| ((i * 13) % 17) as f32 - 8.0).collect();
        let mut cbuf = Vec::new();
        chain.encode_tensor(&big, &mut cbuf);
        let dec = chain.decode_tensor(&mut cbuf.as_slice()).unwrap();
        assert_eq!(dec.len(), big.len());
        assert!(dec.iter().filter(|v| **v != 0.0).count() <= 6);
    }

    #[test]
    fn spec_parses_validates_and_names() {
        assert_eq!(CodecSpec::parse("identity").unwrap().name(), "identity");
        assert_eq!(CodecSpec::parse("topk=32+i8").unwrap().name(), "topk=32+quant-i8");
        assert_eq!(CodecSpec::parse("topk").unwrap().name(), "topk=64");
        assert!(CodecSpec::parse("").is_err());
        assert!(CodecSpec::parse("gzip").is_err());
        assert!(CodecSpec::parse("quant-i8+topk=4").is_err(), "topk after quant");
        assert!(CodecSpec::parse("i8+i8").is_err(), "two quantizers");
        assert!(CodecSpec::parse("topk=0").is_err());
        assert!(CodecSpec::parse("i8=2").is_err(), "i8 takes no parameter");
        assert!(CodecSpec::parse("identity").unwrap().is_lossless());
        assert!(!CodecSpec::parse("i8").unwrap().is_lossless());
        // The sketch stage is a quantizer: parameterized, exclusive with
        // the other quantizers, and must follow any sparsifier.
        assert_eq!(CodecSpec::parse("sketch=7").unwrap().name(), "sketch=7");
        assert_eq!(CodecSpec::parse("sketch").unwrap().name(), "sketch=8");
        assert_eq!(CodecSpec::parse("topk=32+sketch-i8=4").unwrap().name(), "topk=32+sketch=4");
        assert!(CodecSpec::parse("sketch=0").is_err());
        assert!(CodecSpec::parse("sketch+i8").is_err(), "two quantizers");
        assert!(CodecSpec::parse("sketch=4+topk=2").is_err(), "topk after quant");
        assert!(!CodecSpec::parse("sketch=7").unwrap().is_lossless());
    }

    #[test]
    fn header_roundtrips_and_rejects_garbage() {
        let spec = CodecSpec::parse("topk=64+quant-i8").unwrap();
        let mut buf = Vec::new();
        encode_header(&spec.stages, &mut buf);
        let mut input = buf.as_slice();
        assert_eq!(decode_header(&mut input).unwrap(), spec.stages);
        assert!(input.is_empty());
        for bad in [&[0u8][..], &[9], &[1, 7, 0, 0, 0, 0], &[2, 0, 0, 0, 0, 0]] {
            assert!(decode_header(&mut { bad }).is_err(), "header {bad:?}");
        }
    }

    #[test]
    fn hostile_reprs_are_rejected_without_allocation_bombs() {
        // Claimed length over the cap.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_TENSOR_ELEMS + 1).to_le_bytes());
        buf.push(0);
        assert!(Repr::deserialize(&mut buf.as_slice()).is_err());
        // Sparse with nnz > len, descending indices, out-of-range index.
        for (len, idx) in [(2u32, vec![0u32, 1, 2]), (5, vec![3, 1]), (5, vec![1, 9])] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&len.to_le_bytes());
            buf.push(4);
            buf.extend_from_slice(&(idx.len() as u32).to_le_bytes());
            for i in &idx {
                buf.extend_from_slice(&i.to_le_bytes());
            }
            buf.extend_from_slice(&vec![0u8; idx.len() * 4]);
            assert!(Repr::deserialize(&mut buf.as_slice()).is_err(), "{len} {idx:?}");
        }
        // Bad flags.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(3);
        buf.extend_from_slice(&[0; 4]);
        assert!(Repr::deserialize(&mut buf.as_slice()).is_err());
    }
}
