//! Property-based tests for the upload codec chains — the contracts the
//! Pareto bench and the wire format lean on:
//!
//! 1. lossless chains (identity, and any stack of identities) round-trip
//!    every tensor **bitwise**, NaN payloads and signed zeros included;
//! 2. lossy codecs have *bounded* error: `quant-i8` within the
//!    per-tensor scale;
//! 3. `topk` keeps exactly `min(k, len)` entries, every kept magnitude
//!    dominates every dropped one, ties break deterministically toward
//!    the lower index, and kept values survive bit-exactly; its O(n)
//!    selection keeps the same set as a full sort under heavy ties,
//!    `±0.0` and NaN/Inf bit patterns;
//! 4. a coded frame is still covered end-to-end by the envelope CRC —
//!    any single flipped bit is rejected — and truncated or
//!    codec-mismatched bodies never decode;
//! 5. error feedback captures the coding error **exactly**:
//!    `decode(encode(v + r)) + r′ == v + r` bitwise in f64 — without
//!    qualification for pure sparsifiers, and under an exponent-gap
//!    guard for quantizing chains (a quantized value 2²⁸ smaller than
//!    its target can shift the f64 subtraction's rounding);
//! 6. the moment-sketch codec quantizes each group against its own
//!    scale, so per-value error is bounded by the *group's* range, not
//!    the tensor's.

use fedgta_fed::codec::{Chain, Codec, Identity, QuantI8, SketchQuant, TopK};
use fedgta_fed::ef::EfTensor;
use fedgta_fed::transport::{corrupt_frame, decode_upload_routed, encode_upload_routed};
use fedgta_graph::io::Envelope;
use proptest::prelude::*;

/// Arbitrary f32 bit patterns: covers NaNs, infinities, subnormals and
/// signed zeros, not just the comfortable range.
fn any_bits_tensor(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(any::<u32>().prop_map(f32::from_bits), 0..max_len)
}

/// Tensors built to tie: a handful of magnitudes repeated with both
/// signs — `±0.0`, `±inf`, two NaN payloads of either sign among them —
/// so the rank-k boundary usually falls inside a run of equal `|v|`.
fn tied_bits_tensor(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    const POOL: [u32; 12] = [
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x3f80_0000, // 1.0
        0xbf80_0000, // -1.0
        0x4040_0000, // 3.0
        0xc040_0000, // -3.0
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x7fc0_0000, // NaN
        0xffc0_0000, // -NaN, same payload
        0x7fc0_0001, // NaN, another payload
        0x0000_0001, // smallest subnormal
    ];
    proptest::collection::vec(
        (0usize..POOL.len()).prop_map(|i| f32::from_bits(POOL[i])),
        0..max_len,
    )
}

fn finite_tensor(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1.0e6f32..1.0e6, 0..max_len)
}

/// Values in `{0} ∪ ±[1e-4, 1e4]` — the domain the error-feedback
/// exactness property is stated over (no subnormals, no overflow).
fn ef_value() -> impl Strategy<Value = f32> {
    (0u8..9, 1.0e-4f32..1.0e4).prop_map(|(sel, m)| match sel {
        0 => 0.0,
        1..=4 => m,
        _ => -m,
    })
}

/// An equal-length `(tensor, residual)` pair.
fn ef_pair(max_len: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (1usize..max_len).prop_flat_map(|n| {
        (proptest::collection::vec(ef_value(), n..=n), proptest::collection::vec(ef_value(), n..=n))
    })
}

/// Runs one error-feedback round over `codec`: fold `v` on top of a
/// residual seeded from `r`, encode/decode, commit as accepted. Returns
/// `(target, decoded, residual')`.
fn ef_round(codec: &dyn Codec, v: &[f32], r: &[f32]) -> (Vec<f64>, Vec<f32>, Vec<f64>) {
    let mut ef = EfTensor::default();
    // Seed the residual by folding `r` and rejecting the upload — after
    // which `residual == r` exactly (reference never moved from zero).
    let seeded = ef.fold(r);
    ef.commit(&seeded, &vec![0.0; r.len()], false);
    let folded = ef.fold(v);
    let mut buf = Vec::new();
    codec.encode_tensor(&folded.fed, &mut buf);
    let decoded = codec.decode_tensor(&mut buf.as_slice()).expect("own encoding decodes");
    ef.commit(&folded, &decoded, true);
    (folded.target, decoded, ef.residual)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lossless_chains_roundtrip_bitwise(t in any_bits_tensor(256)) {
        for codec in [
            Box::new(Identity) as Box<dyn Codec>,
            Box::new(Chain::new(vec![Box::new(Identity), Box::new(Identity)])),
        ] {
            prop_assert!(codec.is_lossless());
            let mut buf = Vec::new();
            codec.encode_tensor(&t, &mut buf);
            let mut input = buf.as_slice();
            let back = codec.decode_tensor(&mut input).expect("clean tensor decodes");
            prop_assert!(input.is_empty(), "trailing bytes after decode");
            prop_assert_eq!(back.len(), t.len());
            for (a, b) in t.iter().zip(&back) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn quant_i8_error_is_bounded_by_the_tensor_scale(t in finite_tensor(256)) {
        let codec = QuantI8;
        let mut buf = Vec::new();
        codec.encode_tensor(&t, &mut buf);
        let back = codec.decode_tensor(&mut buf.as_slice()).expect("decodes");
        prop_assert_eq!(back.len(), t.len());
        // The per-tensor scale the quantizer must have used.
        let (lo, hi) = t.iter().fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
        let scale = if t.is_empty() { 0.0 } else { ((hi - lo) as f64 / 255.0) as f32 };
        for (&v, &b) in t.iter().zip(&back) {
            prop_assert!(
                (b - v).abs() <= scale.max(f32::EPSILON),
                "|{b} - {v}| > scale {scale}"
            );
        }
    }

    #[test]
    fn topk_keeps_exactly_the_dominant_entries(
        t in finite_tensor(128),
        k in 1u32..64,
    ) {
        let codec = TopK { k };
        let mut buf = Vec::new();
        codec.encode_tensor(&t, &mut buf);
        let back = codec.decode_tensor(&mut buf.as_slice()).expect("decodes");
        prop_assert_eq!(back.len(), t.len());
        let kept = TopK::select(&t, k as usize);
        prop_assert_eq!(kept.len(), (k as usize).min(t.len()));
        // Kept values survive bit-exactly; everything else is zeroed.
        let mut kept_iter = kept.iter().peekable();
        for (i, (&v, &b)) in t.iter().zip(&back).enumerate() {
            if kept_iter.peek() == Some(&&(i as u32)) {
                kept_iter.next();
                prop_assert_eq!(b.to_bits(), v.to_bits(), "kept entry {i} changed");
            } else {
                prop_assert_eq!(b, 0.0, "dropped entry {i} nonzero");
            }
        }
        // Dominance + deterministic ties: every kept magnitude ≥ every
        // dropped one, and a dropped equal magnitude has a higher index
        // than every kept entry of that magnitude.
        let dropped: Vec<u32> = (0..t.len() as u32).filter(|i| !kept.contains(i)).collect();
        for &ki in &kept {
            for &di in &dropped {
                let (mk, md) = (t[ki as usize].abs(), t[di as usize].abs());
                prop_assert!(
                    mk > md || (mk == md && ki < di),
                    "kept |{}|@{ki} does not dominate dropped |{}|@{di}", mk, md
                );
            }
        }
        // Determinism: a second encode produces identical bytes.
        let mut again = Vec::new();
        codec.encode_tensor(&t, &mut again);
        prop_assert_eq!(&buf, &again);
    }

    #[test]
    fn topk_select_equals_the_full_sort_reference(
        t in tied_bits_tensor(200),
        k_sel in 0usize..4,
        k_any in 0usize..220,
    ) {
        // The reference `select` replaced: sort every index by
        // (|v| desc via total_cmp, index asc), keep the first k, re-sort
        // ascending.
        let full_sort = |k: usize| {
            let mut order: Vec<u32> = (0..t.len() as u32).collect();
            order.sort_by(|&a, &b| {
                let (ma, mb) = (t[a as usize].abs(), t[b as usize].abs());
                mb.total_cmp(&ma).then(a.cmp(&b))
            });
            order.truncate(k);
            order.sort_unstable();
            order
        };
        // The edges (0, 1, len − 1, len) plus an arbitrary k, past len too.
        let k_edge = [0, 1, t.len().saturating_sub(1), t.len()][k_sel];
        for k in [k_edge, k_any] {
            prop_assert_eq!(TopK::select(&t, k), full_sort(k), "k = {}", k);
        }
    }

    #[test]
    fn error_feedback_is_exact_for_sparsifiers((v, r) in ef_pair(96), k in 1u32..32) {
        // `decode(encode(v + r)) + r′ == v + r`, bitwise in f64, with no
        // qualification: top-k transmits kept coordinates as the exact
        // f32 fold and zeros the rest, and `a − RN32(a)` is always
        // representable in f64, so the residual captures the coding
        // error exactly and the sum reconstructs the target exactly.
        let (target, d, r2) = ef_round(&TopK { k }, &v, &r);
        for i in 0..v.len() {
            // The fold itself was exact: v and r live within 2²⁷ of each
            // other, so the f64 sum never rounds.
            prop_assert_eq!(target[i].to_bits(), (v[i] as f64 + r[i] as f64).to_bits());
            prop_assert_eq!(
                (d[i] as f64 + r2[i]).to_bits(),
                target[i].to_bits(),
                "coordinate {}: {} + {} != {}", i, d[i], r2[i], target[i]
            );
        }
    }

    #[test]
    fn error_feedback_is_exact_for_quantizing_chains((v, r) in ef_pair(96), k in 1u32..32) {
        // Same invariant through `topk+quant-i8`, guarded: a dequantized
        // value whose exponent sits more than 2²⁸ away from its target's
        // can push the f64 subtraction into rounding, so those (rare)
        // coordinates are exempt from the bitwise claim.
        let chain = Chain::new(vec![Box::new(TopK { k }), Box::new(QuantI8)]);
        let (target, d, r2) = ef_round(&chain, &v, &r);
        for i in 0..v.len() {
            let (t, dv) = (target[i], d[i] as f64);
            if t != 0.0 && dv != 0.0 && (t.abs().log2() - dv.abs().log2()).abs() > 28.0 {
                continue;
            }
            prop_assert_eq!(
                (dv + r2[i]).to_bits(),
                t.to_bits(),
                "coordinate {}: {} + {} != {}", i, d[i], r2[i], t
            );
        }
    }

    #[test]
    fn sketch_error_is_bounded_per_group(
        t in finite_tensor(256),
        group in 1u32..24,
    ) {
        let codec = SketchQuant { group };
        let mut buf = Vec::new();
        codec.encode_tensor(&t, &mut buf);
        let mut input = buf.as_slice();
        let back = codec.decode_tensor(&mut input).expect("decodes");
        prop_assert!(input.is_empty(), "trailing bytes after decode");
        prop_assert_eq!(back.len(), t.len());
        // Each group is quantized against its own range — the whole
        // point of the sketch: a huge 5th moment in one group cannot
        // blow up the resolution of a small 1st moment in another.
        for (g, (chunk, dchunk)) in t
            .chunks(group as usize)
            .zip(back.chunks(group as usize))
            .enumerate()
        {
            let (lo, hi) = chunk.iter().fold(
                (f32::INFINITY, f32::NEG_INFINITY),
                |(l, h), &v| (l.min(v), h.max(v)),
            );
            let scale = ((hi - lo) as f64 / 255.0) as f32;
            for (&v, &b) in chunk.iter().zip(dchunk) {
                prop_assert!(
                    (b - v).abs() <= scale.max(f32::EPSILON),
                    "group {g}: |{b} - {v}| > group scale {scale}"
                );
            }
        }
        // Determinism: encoding twice yields identical bytes.
        let mut again = Vec::new();
        codec.encode_tensor(&t, &mut again);
        prop_assert_eq!(&buf, &again);
    }

    #[test]
    fn any_bit_flip_on_a_coded_frame_is_rejected(
        loss in -10.0f32..10.0,
        params in finite_tensor(64),
        weight in 0.0f64..100.0,
        bit_seed in any::<u64>(),
    ) {
        let codec = Chain::new(vec![Box::new(TopK { k: 16 }), Box::new(QuantI8)]);
        let body = encode_upload_routed(&codec, None, loss, &(params, weight));
        let env = Envelope { kind: 3, round: 1, sender: 4, seq: 0, trace: None, payload: body };
        let mut frame = env.encode();
        corrupt_frame(&mut frame, bit_seed);
        prop_assert!(
            Envelope::decode(&frame).is_err(),
            "flipped bit {} of a {}-byte coded frame went undetected",
            bit_seed % (frame.len() as u64 * 8),
            frame.len(),
        );
    }

    #[test]
    fn truncated_or_mismatched_coded_bodies_never_decode(
        loss in -10.0f32..10.0,
        params in finite_tensor(64),
        cut in any::<u64>(),
    ) {
        let codec = QuantI8;
        let body = encode_upload_routed(&codec, None, loss, &(params.clone(), 1.0f64));
        // Clean body round-trips (loss bit-exact, shape preserved).
        let (l2, (p2, w2)): (f32, (Vec<f32>, f64)) =
            decode_upload_routed(&codec, None, &body).expect("clean coded body decodes");
        prop_assert_eq!(l2.to_bits(), loss.to_bits());
        prop_assert_eq!(p2.len(), params.len());
        prop_assert_eq!(w2.to_bits(), 1.0f64.to_bits());
        // Every strict prefix fails without panicking.
        let short = &body[..(cut % body.len() as u64) as usize];
        prop_assert!(decode_upload_routed::<(Vec<f32>, f64)>(&codec, None, short).is_err());
        // Padding fails too — coded bodies are exact-length.
        let mut long = body.clone();
        long.push(0);
        prop_assert!(decode_upload_routed::<(Vec<f32>, f64)>(&codec, None, &long).is_err());
        // A body framed by one codec never decodes under another chain.
        prop_assert!(decode_upload_routed::<(Vec<f32>, f64)>(&Identity, None, &body).is_err());
        let chain = Chain::new(vec![Box::new(TopK { k: 8 }), Box::new(QuantI8)]);
        prop_assert!(decode_upload_routed::<(Vec<f32>, f64)>(&chain, None, &body).is_err());
    }
}

/// The binary16 codec is retired: its value-storage byte (1) and stage id
/// (2) are hostile input, and its stage names no longer parse.
#[test]
fn retired_f16_wire_ids_are_rejected() {
    use fedgta_fed::codec::{CodecSpec, Repr};
    // A dense two-value tensor in binary16 storage: len, flags, bits.
    let mut repr = 2u32.to_le_bytes().to_vec();
    repr.push(1);
    repr.extend_from_slice(&[0x00, 0x3c, 0x00, 0xc0]);
    assert!(Repr::deserialize(&mut repr.as_slice()).is_err());
    // The upload the binary16 codec wrote: header advertising stage 2,
    // the loss, then that tensor.
    let mut body = vec![1u8, 2, 0, 0, 0, 0];
    body.extend_from_slice(&0.5f32.to_le_bytes());
    body.extend_from_slice(&repr);
    for spec in
        ["identity", "quant-i8", "topk=64", "sketch=8", "topk=1+quant-i8", "topk=2+sketch=2"]
    {
        let codec = CodecSpec::parse(spec).unwrap().build();
        assert!(decode_upload_routed::<Vec<f32>>(codec.as_ref(), None, &body).is_err(), "{spec}");
        let sketch = SketchQuant { group: 7 };
        assert!(
            decode_upload_routed::<Vec<f32>>(codec.as_ref(), Some(&sketch), &body).is_err(),
            "{spec} + sketch"
        );
    }
    for name in ["quant-f16", "f16", "topk=8+f16"] {
        let err = CodecSpec::parse(name).unwrap_err();
        assert!(err.contains("identity|quant-i8|topk[=k]|sketch[=group]"), "{name}: {err}");
    }
}
