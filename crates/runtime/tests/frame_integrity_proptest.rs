//! Property tests of wire-format integrity: arbitrary bit flips,
//! truncations and extensions of encoded frames must never panic the
//! decoder, which must reject every damaged buffer with a typed error
//! instead of handing corrupt data to a node; and even a frame resealed
//! over damaged bytes (so its CRC holds) must meet the payload decoder's
//! own bounds, which never let bytes past a complete payload pass as a
//! shorter frame.

use ddnn_runtime::{crc32, Frame, NodeId, Payload, RuntimeError, FLAG_RETRANSMIT, HEADER_BYTES};
use ddnn_tensor::Tensor;
use proptest::prelude::*;

/// CRC-32 (IEEE 802.3) one bit at a time: the definition the table-driven
/// `crc32` must agree with.
fn crc32_reference(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

#[test]
fn crc32_known_vectors() {
    // The IEEE 802.3 check value for the standard "123456789" test input.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn checked_frames_of_every_payload_kind_round_trip_and_reject_every_bit_flip() {
    let payloads = [
        Payload::Capture { view: Tensor::from_fn([2, 3, 2], |i| i as f32 - 4.5) },
        Payload::Scores { scores: vec![0.25, -1.0, 3.5] },
        Payload::OffloadRequest,
        Payload::Features { channels: 2, height: 3, width: 4, bits: vec![0xA5; 3].into() },
        Payload::RawImage { pixels: vec![7; 11].into() },
        Payload::Verdict { prediction: 2, exit_tier: 1 },
        Payload::Shutdown,
        Payload::Ping {
            epoch: 3,
            floor: 17,
            live: vec![true, false, true, true, false],
            down: true,
        },
        Payload::Pong,
    ];
    for (i, payload) in payloads.into_iter().enumerate() {
        let frame = Frame::new(i as u64, NodeId::Device(i as u8), payload);
        let (flags, tseq) = (if i % 2 == 0 { 0 } else { FLAG_RETRANSMIT }, 40 + i as u32);
        let wire = frame.encode_checked(flags, tseq);
        let clean = Frame::decode_checked(wire.clone()).expect("clean frame must decode");
        assert_eq!((&clean.frame, clean.flags, clean.tseq), (&frame, flags, tseq));
        for bit in 0..wire.len() * 8 {
            let mut bad = wire.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            let err = Frame::decode_checked(bad).expect_err("flip must be caught");
            assert!(matches!(err, RuntimeError::Corrupt { .. }), "kind {i}, bit {bit}: {err:?}");
        }
    }
}

#[test]
fn a_live_mask_the_bytes_cannot_back_is_corrupt() {
    // A ping's count field claims more nodes than its mask bytes hold: the
    // decoder refuses before allocating the mask, even when the CRC was
    // sealed over the bad claim.
    let live = (0..9).map(|i| i % 3 != 1).collect();
    let ping = Payload::Ping { epoch: 7, floor: 41, live, down: true };
    let wire = Frame::new(1, NodeId::Orchestrator, ping).encode();
    let count_at = HEADER_BYTES + 17; // past epoch, floor and the down bit
    for (claim, cut) in [(u16::MAX, 0), (17, 0), (9, 1)] {
        let mut bad = wire[..wire.len() - cut].to_vec();
        bad[count_at..count_at + 2].copy_from_slice(&claim.to_le_bytes());
        reseal(&mut bad);
        let err = Frame::decode(bad).unwrap_err();
        assert!(matches!(err, RuntimeError::Corrupt { .. }), "claim {claim}: {err}");
        assert!(err.to_string().contains("truncated"), "claim {claim}: {err}");
    }
}

/// Builds one payload of every wire shape from drawn parameters, so the
/// properties cover fixed-size, length-prefixed, bit-packed and empty
/// encodings: kinds `0..6` the length- and count-carrying shapes, `6..9`
/// the rest of the nine payload kinds.
fn payload_of(kind: u8, floats: &[f32], raw: &[u8]) -> Payload {
    match kind % 9 {
        0 => Payload::Scores { scores: floats.to_vec() },
        1 => Payload::OffloadRequest,
        2 => Payload::Features { channels: 2, height: 3, width: 4, bits: raw.into() },
        3 => Payload::Verdict { prediction: 7, exit_tier: 1 },
        4 => Payload::Ping {
            epoch: raw.len() as u64,
            floor: floats.len() as u64,
            live: raw.iter().map(|&b| b & 1 == 1).collect(),
            down: raw.first().is_some_and(|&b| b > 127),
        },
        5 => Payload::RawImage { pixels: raw.into() },
        6 => Payload::Capture { view: Tensor::from_fn([1, 2, 3], |i| i as f32 - raw.len() as f32) },
        7 => Payload::Shutdown,
        _ => Payload::Pong,
    }
}

/// Rewrites a frame's CRC over its current bytes, as a sender that meant
/// exactly those bytes would have sealed them.
fn reseal(wire: &mut [u8]) {
    let at = HEADER_BYTES - 4;
    let crc = crc32(&[&wire[..at], &wire[HEADER_BYTES..]].concat());
    wire[at..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
}

/// Applies the drawn bit flips to `wire`, returning the damaged copy and
/// whether any byte actually changed (flips can cancel each other out).
/// Each flip packs a byte position and a bit index into one draw
/// (`flip / 8` is the position, `flip % 8` the bit).
fn flip_bits(wire: &[u8], flips: &[usize]) -> (Vec<u8>, bool) {
    let mut bad = wire.to_vec();
    for &flip in flips {
        let i = (flip / 8) % bad.len();
        bad[i] ^= 1 << (flip % 8);
    }
    let changed = bad != wire;
    (bad, changed)
}

proptest! {
    #[test]
    fn crc32_agrees_with_the_reference_at_every_length_and_start_offset(
        buf in prop::collection::vec(0u8..=255, 0..4105),
    ) {
        // Every start offset within a 16-byte block, so the table's 8-byte
        // steps, the fold's 16-byte loads, an unaligned head and each
        // 0-15-byte tail are all checked.
        for off in 0..16.min(buf.len() + 1) {
            let data = &buf[off..];
            prop_assert_eq!(crc32(data), crc32_reference(data), "offset {}, {} bytes", off, data.len());
        }
    }

    #[test]
    fn damaged_checked_frames_always_decode_to_a_typed_error(
        seq in 0u64..1_000_000,
        kind in 0u8..6,
        floats in prop::collection::vec(-10.0f32..10.0, 0..6),
        raw in prop::collection::vec(0u8..=255, 0..12),
        flips in prop::collection::vec(0usize..32768, 1..6),
        cut in 0usize..4096,
        tseq in 0u32..1_000_000,
    ) {
        let frame = Frame::new(seq, NodeId::Device(3), payload_of(kind, &floats, &raw));
        let wire = frame.encode_checked(0, tseq);

        // The undamaged buffer round-trips exactly.
        let clean = Frame::decode_checked(wire.clone()).expect("clean frame must decode");
        prop_assert_eq!(&clean.frame, &frame);
        prop_assert_eq!(clean.tseq, tseq);

        // Bit flips: every buffer that differs from the original must be
        // rejected — never accepted, never a panic.
        let (bad, changed) = flip_bits(&wire, &flips);
        if changed {
            let err = Frame::decode_checked(bad).expect_err("damage must be caught");
            prop_assert!(
                matches!(err, RuntimeError::Corrupt { .. }),
                "expected Corrupt, got {err:?}"
            );
        }

        // Truncation to any strictly shorter prefix must be rejected: the
        // CRC covers the whole frame, so a short buffer cannot match.
        let cut = cut % wire.len();
        let err = Frame::decode_checked(&wire[..cut]).expect_err("truncation must be caught");
        prop_assert!(matches!(err, RuntimeError::Corrupt { .. }), "expected Corrupt, got {err:?}");

        // Trailing garbage changes the CRC input, so extension is caught too.
        let mut extended = wire.to_vec();
        extended.push(0xEE);
        prop_assert!(Frame::decode_checked(extended).is_err());
    }

    #[test]
    fn damaged_legacy_frames_never_panic_the_decoder(
        seq in 0u64..1_000_000,
        kind in 0u8..6,
        floats in prop::collection::vec(-10.0f32..10.0, 0..6),
        raw in prop::collection::vec(0u8..=255, 0..12),
        flips in prop::collection::vec(0usize..32768, 1..6),
        cut in 0usize..4096,
    ) {
        // Bit flips resealed into the CRC get past the checksum, so they
        // may decode into a different frame — the property is that the
        // decoder returns (Ok or Err) instead of panicking or
        // over-allocating. A flipped length field makes the buffer short
        // for its own claim, which must classify as Corrupt (truncation),
        // not Protocol.
        let frame = Frame::new(seq, NodeId::Gateway, payload_of(kind, &floats, &raw));
        let wire = frame.encode();
        let (mut bad, _) = flip_bits(&wire, &flips);
        reseal(&mut bad);
        if let Err(e) = Frame::decode(bad) {
            prop_assert!(
                matches!(e, RuntimeError::Corrupt { .. } | RuntimeError::Protocol { .. }),
                "unexpected error class {e:?}"
            );
        }
        // Truncating an honest frame strictly below its full length must be
        // Corrupt even when resealed: the buffer no longer holds what its
        // fields claim.
        let mut short = wire[..cut % wire.len()].to_vec();
        if short.len() >= HEADER_BYTES {
            reseal(&mut short);
        }
        let err = Frame::decode(short).expect_err("truncation must be caught");
        prop_assert!(matches!(err, RuntimeError::Corrupt { .. }), "expected Corrupt, got {err:?}");
    }

    #[test]
    fn bytes_left_over_after_a_complete_payload_are_corrupt(
        seq in 0u64..1_000_000,
        kind in 0u8..9,
        floats in prop::collection::vec(-10.0f32..10.0, 0..6),
        raw in prop::collection::vec(0u8..=255, 0..12),
        extra in prop::collection::vec(0u8..=255, 1..9),
    ) {
        // A header truncated or mis-declared short leaves the rest of the
        // payload behind it; decoding must refuse instead of returning
        // the shorter payload the header describes.
        // The frame is resealed over the longer buffer, so its CRC holds
        // and only the leftover check can refuse it.
        let frame = Frame::new(seq, NodeId::Device(1), payload_of(kind, &floats, &raw));
        let mut checked = frame.encode_checked(0, 9).to_vec();
        reseal(&mut checked);
        prop_assert_eq!(&Frame::decode_checked(&checked).expect("reseal is a no-op").frame, &frame);
        checked.extend_from_slice(&extra);
        reseal(&mut checked);
        let err = Frame::decode_checked(checked).expect_err("leftover bytes must be caught");
        prop_assert!(matches!(err, RuntimeError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn legacy_junk_length_fields_never_over_allocate(
        junk in prop::collection::vec(0u8..=255, 0..64),
    ) {
        // Arbitrary buffers can claim multi-gigabyte payload lengths; the
        // decoder must bound-check the claim against the buffer (and check
        // the element-count arithmetic for overflow) before allocating.
        // Decoding junk must therefore complete instantly with a bounded
        // result — any Ok frame's payload came out of the buffer itself.
        // A long enough buffer is given a DDNN head, a defined tag and
        // flags byte and a CRC sealed over it, so the junk reaches the
        // payload decoder.
        let mut buf = junk;
        let n = buf.len();
        if n >= HEADER_BYTES {
            let head = Frame::new(0, NodeId::Gateway, Payload::Pong).encode();
            buf[..2].copy_from_slice(&head[..2]);
            buf[12] %= 9;
            buf[13] &= FLAG_RETRANSMIT;
            reseal(&mut buf);
        }
        if let Ok(frame) = Frame::decode(buf) {
            let bounded = match frame.payload {
                Payload::Scores { scores } => scores.len() * 4 <= n,
                Payload::Features { bits, .. } => bits.len() <= n,
                Payload::RawImage { pixels } => pixels.len() <= n,
                Payload::Capture { view } => view.data().len() * 4 <= n,
                Payload::Ping { live, .. } => live.len() <= 8 * n,
                _ => true,
            };
            prop_assert!(bounded, "decoded payload larger than its wire buffer");
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_either_decoder(
        junk in prop::collection::vec(0u8..=255, 0..64),
    ) {
        // Fully arbitrary buffers (not derived from any real frame) — the
        // decoder (`decode` is `decode_checked` minus the transport
        // metadata) must treat them as untrusted input.
        let short = junk.len() < HEADER_BYTES;
        let decoded = Frame::decode_checked(junk);
        prop_assert!(!short || decoded.is_err());
    }
}
