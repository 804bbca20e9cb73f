//! Property-based tests for the wire envelope, the upload codec, and the
//! fault plan — the three determinism/integrity contracts of the
//! transport layer:
//!
//! 1. every envelope round-trips bit-exactly through encode/decode;
//! 2. any single flipped bit anywhere in a frame is rejected (CRC-32
//!    catches all single-bit errors, and structural checks catch the
//!    header fields it shares a frame with);
//! 3. the fault plan is a pure function of its seed — the same seed
//!    scripts the same round, event for event.

use fedgta_fed::codec::{decode_header, Codec, QuantI8};
use fedgta_fed::faults::{FaultConfig, FaultPlan, RoundScript};
use fedgta_fed::transport::{
    corrupt_frame, decode_upload, decode_upload_routed, encode_upload, encode_upload_routed,
};
use fedgta_graph::io::Envelope;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn envelope_roundtrips_any_payload(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        kind in 0u8..8,
        round in any::<u32>(),
        sender in any::<u32>(),
        seq in any::<u32>(),
    ) {
        let env = Envelope { kind, round, sender, seq, trace: None, payload };
        let bytes = env.encode();
        let back = Envelope::decode(&bytes).expect("clean frame decodes");
        prop_assert_eq!(back.kind, env.kind);
        prop_assert_eq!(back.round, env.round);
        prop_assert_eq!(back.sender, env.sender);
        prop_assert_eq!(back.seq, env.seq);
        prop_assert_eq!(back.payload, env.payload);
    }

    #[test]
    fn any_single_bit_flip_is_rejected(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        round in any::<u32>(),
        bit_seed in any::<u64>(),
    ) {
        let env = Envelope { kind: 2, round, sender: 9, seq: 0, trace: None, payload };
        let mut bytes = env.encode();
        corrupt_frame(&mut bytes, bit_seed);
        prop_assert!(
            Envelope::decode(&bytes).is_err(),
            "flipped bit {} of a {}-byte frame went undetected",
            bit_seed % (bytes.len() as u64 * 8),
            bytes.len(),
        );
    }

    #[test]
    fn upload_codec_roundtrips_fedgta_shape(
        loss in -10.0f32..10.0,
        params in proptest::collection::vec(-5.0f32..5.0, 0..64),
        weight in 0.0f64..100.0,
        moments in proptest::collection::vec(-1.0f32..1.0, 0..16),
        n in any::<u32>(),
    ) {
        // The widest payload shape in the simulator (FedGTA core).
        let payload = (params, weight, moments, n as usize);
        let bytes = encode_upload(loss, &payload);
        let (l2, p2): (f32, (Vec<f32>, f64, Vec<f32>, usize)) =
            decode_upload(&bytes).expect("clean upload decodes");
        prop_assert_eq!(l2.to_bits(), loss.to_bits());
        prop_assert_eq!(p2, payload);
    }

    #[test]
    fn upload_codec_rejects_truncation_and_padding(
        loss in -10.0f32..10.0,
        params in proptest::collection::vec(-5.0f32..5.0, 1..32),
        cut in any::<u64>(),
    ) {
        let bytes = encode_upload(loss, &(params, 1.0f64));
        // Strictly shorter or longer byte strings must never decode.
        let short = &bytes[..(cut % bytes.len() as u64) as usize];
        prop_assert!(decode_upload::<(Vec<f32>, f64)>(short).is_err());
        let mut long = bytes.clone();
        long.push(0);
        prop_assert!(decode_upload::<(Vec<f32>, f64)>(&long).is_err());
    }

    #[test]
    fn truncated_coded_headers_are_always_rejected(
        loss in -10.0f32..10.0,
        params in proptest::collection::vec(-5.0f32..5.0, 1..32),
        cut in any::<u64>(),
    ) {
        let codec = QuantI8;
        let body = encode_upload_routed(&codec, None, loss, &(params, 1.0f64));
        // The self-describing header is `u8 count + 5 bytes per stage`;
        // cut inside it specifically — the decoder must fail cleanly on
        // a frame that dies mid-header, not just mid-tensor.
        let mut stages = Vec::new();
        codec.stages(&mut stages);
        let header_len = 1 + 5 * stages.len();
        let short = &body[..(cut % header_len as u64) as usize];
        prop_assert!(decode_upload_routed::<(Vec<f32>, f64)>(&codec, None, short).is_err());
        // And the header decoder itself never panics on arbitrary bytes.
        let mut garbage = body.clone();
        for b in &mut garbage {
            *b = b.wrapping_mul(31).wrapping_add((cut % 251) as u8);
        }
        let mut input = garbage.as_slice();
        let _ = decode_header(&mut input);
    }

    #[test]
    fn fault_plan_is_deterministic_per_seed(
        seed in any::<u64>(),
        round in 1usize..50,
        drop in 0.0f64..0.5,
        corrupt in 0.0f64..0.3,
        crash in 0.0f64..0.3,
        n in 2usize..12,
    ) {
        let cfg = FaultConfig {
            drop,
            corrupt,
            crash,
            delay_ms: 20,
            slow_frac: 0.25,
            ..FaultConfig::default()
        };
        let sampled: Vec<usize> = (0..n).collect();
        let build = |plan: &FaultPlan| RoundScript::build(plan, round, 0, &sampled, n, 200);
        let a = build(&FaultPlan::new(cfg.clone(), seed));
        let b = build(&FaultPlan::new(cfg.clone(), seed));
        // Same seed ⇒ identical script: acceptance set, retry totals, and
        // the fault event log, event for event.
        prop_assert_eq!(&a.accepted, &b.accepted);
        prop_assert_eq!(a.total_retries(), b.total_retries());
        prop_assert_eq!(&a.events, &b.events);
        prop_assert_eq!(a.fates.len(), b.fates.len());
        for (fa, fb) in a.fates.values().zip(b.fates.values()) {
            prop_assert_eq!(fa, fb);
        }
        // And the script never invents clients: every event points at a
        // sampled client or the round itself.
        for e in &a.events {
            prop_assert!(e.client == usize::MAX || e.client < n);
        }
    }
}
