//! Golden bits for what crosses the wire: every line of
//! `tests/golden/wire.txt` is one encoded byte string — a codec-coded
//! tensor, a coded broadcast, one upload of an error-feedback sequence, or
//! an envelope frame — pinned by its length, the FNV-1a-64 hash of its
//! bytes and its CRC-32. A change to the codecs, the payload encoding, the
//! error-feedback fold or the envelope that moves a single frame byte moves
//! a line.
//!
//! The inputs are built to reach every rare path: NaN, ±∞, a minimum (and a
//! maximum) that is a signed zero, exact magnitude ties at the top-k rank,
//! tensors no longer than `k`, a constant tensor and an empty one.
//!
//! To re-bless after an intended change:
//! `FEDGTA_GOLDEN_BLESS=1 cargo test --test integration_golden_wire`
//! and commit the diff (the header lines starting with `#` are kept).

use fedgta_fed::codec::{Codec, CodecSpec};
use fedgta_fed::ef::EfState;
use fedgta_fed::transport::{
    decode_upload_routed, encode_broadcast_coded, encode_upload, encode_upload_routed, ParamTensor,
};
use fedgta_graph::io::{crc32, Envelope, TraceContext};

mod golden;

/// The FedGTA upload: parameters, smoothing confidence, moment sketch and
/// training-node count.
type Upload = (ParamTensor, f64, Vec<f32>, usize);

/// Every stage chain the golden file covers, in file order.
const CHAINS: &[&str] =
    &["quant-i8", "topk=512+quant-i8", "topk=64+quant-i8", "sketch", "topk=64+sketch"];

/// The length of the model the `cora_gcn_wire` benchmark workload uploads.
const MODEL_LEN: usize = 8455;

/// One golden line: a name, then the bytes' length, hash and CRC-32.
fn pin(name: &str, bytes: &[u8]) -> String {
    let fnv = golden::fnv1a(bytes.iter().copied());
    format!("{name} len={} fnv={fnv:016x} crc={:08x}", bytes.len(), crc32(bytes))
}

/// A deterministic xorshift stream (no RNG crate, so the inputs can never
/// move under a dependency).
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A value in `[-1, 1)`.
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// The tensors every chain encodes, by name.
fn tensors() -> Vec<(&'static str, Vec<f32>)> {
    let mut s = Stream(0x9e37_79b9_7f4a_7c15);
    // A trained model's spread of magnitudes, with every non-finite kind.
    let mut model: Vec<f32> = (0..MODEL_LEN).map(|_| s.unit() * 0.3).collect();
    for (i, v) in
        [(17, f32::NAN), (4000, f32::INFINITY), (4001, f32::NEG_INFINITY), (8000, -f32::NAN)]
    {
        model[i] = v;
    }
    // Few distinct magnitudes: exact ties at every rank, 64 and 512 among
    // them, with both signs of each magnitude.
    let ties: Vec<f32> = (0..MODEL_LEN).map(|_| ((s.next() % 41) as f32 - 20.0) * 0.25).collect();
    // The minimum is a signed zero, both zeros present (+0 first).
    let mut zero_min: Vec<f32> = (0..300).map(|_| s.unit().abs() + 0.5).collect();
    zero_min[3] = 0.0;
    zero_min[4] = -0.0;
    zero_min[150] = -0.0;
    // The same with −0 first, and a maximum that is a signed zero.
    let mut zero_min_neg: Vec<f32> = (0..300).map(|_| s.unit().abs() + 0.5).collect();
    zero_min_neg[5] = -0.0;
    zero_min_neg[6] = 0.0;
    zero_min_neg[299] = 0.0;
    let mut zero_max: Vec<f32> = (0..300).map(|_| -s.unit().abs() - 0.5).collect();
    zero_max[7] = -0.0;
    zero_max[8] = 0.0;
    zero_max[200] = 0.0;
    // Magnitude ties straddling rank 64 exactly, and a NaN above them all.
    let mut rank64: Vec<f32> = (0..1000).map(|i| 0.001 * (i % 7) as f32).collect();
    for i in 0..50 {
        rank64[i * 19] = 9.0 + i as f32;
    }
    for i in 0..30 {
        rank64[i * 31 + 5] = if i % 2 == 0 { 5.0 } else { -5.0 };
    }
    rank64[999] = f32::NAN;
    // No longer than any chain's k, odd-sized for the sketch groups.
    let short: Vec<f32> = (0..61).map(|_| s.unit() * 4.0).collect();
    // Only non-finite values: no finite minimum at all.
    let non_finite = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    vec![
        ("model", model),
        ("ties", ties),
        ("zero_min", zero_min),
        ("zero_min_neg", zero_min_neg),
        ("zero_max", zero_max),
        ("rank64", rank64),
        ("short", short),
        ("non_finite", non_finite),
        ("constant", vec![2.5; 700]),
        ("empty", Vec::new()),
    ]
}

fn build(spec: &str) -> Box<dyn Codec> {
    CodecSpec::parse(spec).expect("golden chain parses").build()
}

/// One client upload with error feedback armed: fold against `anchor`,
/// encode, decode the client's own bytes and commit them by `accepted`.
fn ef_upload(
    state: &mut EfState,
    codec: &dyn Codec,
    sketch: &dyn Codec,
    anchor: &[f32],
    mut payload: Upload,
    accepted: bool,
) -> Vec<u8> {
    state.fold_payload(Some(anchor), &mut payload);
    let body = encode_upload_routed(codec, Some(sketch), 0.625, &payload);
    let (_, mut own) =
        decode_upload_routed::<Upload>(codec, Some(sketch), &body).expect("own upload decodes");
    state.commit_payload(&mut own, accepted);
    body
}

fn lines() -> Vec<String> {
    let mut out = Vec::new();
    let tensors = tensors();
    for spec in CHAINS {
        let codec = build(spec);
        for (name, t) in &tensors {
            let mut bytes = Vec::new();
            codec.encode_tensor(t, &mut bytes);
            out.push(pin(&format!("tensor {spec} {name}"), &bytes));
        }
    }

    // One coded broadcast of the model, and the plain upload it would be.
    let model = &tensors[0].1;
    let down = build("quant-i8");
    let bcast = encode_broadcast_coded(down.as_ref(), model);
    out.push(pin("broadcast quant-i8 model", &bcast));
    let sketch_of = |r: usize| -> Vec<f32> {
        (0..7 * 2 * 3)
            .map(|i| ((i * 7 + r) as f32 * 0.37).sin() * 10f32.powi((i / 7) as i32 % 3 - 1))
            .collect()
    };
    let plain: Upload = (ParamTensor::Owned(model.clone()), 0.75, sketch_of(0), 270);
    out.push(pin("upload plain", &encode_upload(0.625, &plain)));

    // Three FedGTA uploads with error feedback armed; round 2 is rejected.
    let (codec, sketch) = (build("topk=512+quant-i8"), build("sketch=7"));
    let mut state = EfState::default();
    let mut s = Stream(0x0123_4567_89ab_cdef);
    let mut anchor: Vec<f32> = model.iter().map(|v| if v.is_finite() { *v } else { 0.0 }).collect();
    let mut bodies = Vec::new();
    for (round, accepted) in [(1usize, true), (2, false), (3, true)] {
        let params: Vec<f32> = anchor.iter().map(|a| a + 0.01 * s.unit()).collect();
        let payload: Upload =
            (ParamTensor::Owned(params), 0.5 + 0.1 * round as f64, sketch_of(round), 270);
        let body =
            ef_upload(&mut state, codec.as_ref(), sketch.as_ref(), &anchor, payload, accepted);
        out.push(pin(&format!("ef round={round} accepted={accepted}"), &body));
        bodies.push(body);
        // The next round's broadcast moved the anchor.
        for a in anchor.iter_mut() {
            *a += 0.002 * s.unit();
        }
    }
    let mut state_bits = Vec::new();
    for t in &state.tensors {
        state_bits.extend(t.reference.iter().flat_map(|v| v.to_le_bytes()));
        state_bits.extend(t.residual.iter().flat_map(|v| v.to_le_bytes()));
    }
    out.push(pin("ef state after round 3", &state_bits));

    // Both envelope layouts around the last upload and the broadcast.
    let frame = |kind: u8, sender: u32, trace: Option<TraceContext>, payload: &[u8]| {
        Envelope { kind, round: 3, sender, seq: 1, trace, payload: payload.to_vec() }.encode()
    };
    let trace = Some(TraceContext { trace_id: 0xfeed_beef_0bad_f00d, parent_span: 42 });
    out.push(pin("envelope v1 upload", &frame(3, 4, None, &bodies[2])));
    out.push(pin("envelope v2 upload", &frame(3, 4, trace, &bodies[2])));
    out.push(pin("envelope v1 broadcast", &frame(4, u32::MAX, None, &bcast)));
    out.push(pin("envelope v2 broadcast", &frame(4, u32::MAX, trace, &bcast)));
    out.push(pin("envelope v1 empty", &frame(1, u32::MAX, None, &[])));

    // CRC-32 of every prefix length 0..=67 of one byte string (each tail
    // length of any slicing width) and of an unaligned window.
    let bytes: Vec<u8> = (0..4096).map(|_| s.next() as u8).collect();
    let crcs: Vec<u8> = (0..=67).flat_map(|n| crc32(&bytes[..n]).to_le_bytes()).collect();
    out.push(pin("crc32 prefixes 0..=67", &crcs));
    out.push(pin("crc32 window 3..4093", &crc32(&bytes[3..4093]).to_le_bytes()));
    out
}

#[test]
fn wire_frames_match_the_golden_file() {
    golden::check("wire.txt", &lines());
}
