//! Property tests of the frame codec: any chunking of the byte stream
//! reassembles the exact frames; truncated, oversized, and garbage
//! inputs surface as typed errors (or "need more bytes"), never panics.

use bytes::Bytes;
use proptest::prelude::*;
use tbs_server::proto::{encode_frame, FrameDecoder, ProtoError, Reply, Request, MAX_FRAME};

/// Deterministic mixed message sequence derived from generated scalars.
fn frame_stream(items: &[u64], epoch: u64) -> (Vec<Request<u64>>, Vec<u8>) {
    let reqs: Vec<Request<u64>> = vec![
        Request::Ping,
        Request::Ingest(items.to_vec()),
        Request::SubscribeEpoch {
            epoch,
            timeout_ms: epoch % 5000,
        },
        Request::CheckpointPush(Bytes::from(
            items.iter().map(|i| *i as u8).collect::<Vec<u8>>(),
        )),
        Request::GetSample,
    ];
    let mut stream = Vec::new();
    for req in &reqs {
        stream.extend_from_slice(&encode_frame(&req.encode()));
    }
    (reqs, stream)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn any_chunking_reassembles_the_exact_frames(
        items in prop::collection::vec(0u64..u64::MAX, 0..40),
        epoch in 0u64..10_000,
        chunk in 1usize..97,
    ) {
        let (reqs, stream) = frame_stream(&items, epoch);
        let mut dec = FrameDecoder::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while let Some(frame) = dec.next_frame().unwrap() {
                decoded.push(Request::<u64>::decode(frame).unwrap());
            }
        }
        prop_assert_eq!(decoded, reqs);
        prop_assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn truncated_streams_yield_only_whole_frames(
        items in prop::collection::vec(0u64..1_000, 0..30),
        epoch in 0u64..10_000,
        keep_permille in 0usize..1000,
    ) {
        let (reqs, stream) = frame_stream(&items, epoch);
        let keep = stream.len() * keep_permille / 1000;
        let mut dec = FrameDecoder::new();
        dec.push(&stream[..keep]);
        let mut whole = 0;
        while let Some(frame) = dec.next_frame().unwrap() {
            // Every frame the decoder yields is complete and decodes
            // back to the message that was sent.
            prop_assert_eq!(Request::<u64>::decode(frame).unwrap(), reqs[whole].clone());
            whole += 1;
        }
        // The tail (a torn frame) stays buffered, never surfaced.
        prop_assert!(whole <= reqs.len());
        // Feeding the rest completes the stream exactly.
        dec.push(&stream[keep..]);
        while let Some(frame) = dec.next_frame().unwrap() {
            prop_assert_eq!(Request::<u64>::decode(frame).unwrap(), reqs[whole].clone());
            whole += 1;
        }
        prop_assert_eq!(whole, reqs.len());
        prop_assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn oversized_length_prefixes_are_rejected(
        excess in 1u64..u32::MAX as u64 - MAX_FRAME as u64,
    ) {
        let len = (MAX_FRAME as u64 + excess) as u32;
        let mut dec = FrameDecoder::new();
        dec.push(&len.to_le_bytes());
        prop_assert_eq!(
            dec.next_frame(),
            Err(ProtoError::Frame("oversized frame length"))
        );
    }

    #[test]
    fn garbage_bytes_never_panic_the_decoder(
        noise in prop::collection::vec(0u8..=255, 0..4096),
        chunk in 1usize..257,
    ) {
        let mut dec = FrameDecoder::new();
        for piece in noise.chunks(chunk) {
            dec.push(piece);
            loop {
                match dec.next_frame() {
                    // A "frame" assembled from noise must still fail
                    // message decode with a typed error, not a panic.
                    Ok(Some(frame)) => {
                        prop_assert!(Request::<u64>::decode(frame).is_err());
                    }
                    Ok(None) => break,
                    // Oversized prefix: stream is dead, stop pushing.
                    Err(ProtoError::Frame(_)) => return,
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
        }
    }

    #[test]
    fn garbage_magic_payloads_fail_with_a_codec_error(
        payload in prop::collection::vec(0u8..=255, 0..256),
    ) {
        // Skip the astronomically unlikely case of noise that starts
        // with the real magic.
        prop_assume!(!payload.starts_with(b"TBSC"));
        let framed = encode_frame(&payload);
        let mut dec = FrameDecoder::new();
        dec.push(&framed);
        let frame = dec.next_frame().unwrap().expect("whole frame buffered");
        prop_assert!(matches!(
            Request::<u64>::decode(frame.clone()),
            Err(ProtoError::Checkpoint(_))
        ));
        prop_assert!(matches!(
            Reply::<u64>::decode(frame),
            Err(ProtoError::Checkpoint(_))
        ));
    }
}

/// Hand-built frame: `u32` LE length prefix, then the payload, which is
/// the checkpoint header (`TBSC` magic, version 6), the tag and `fields`.
fn hand_built_frame(tag: u8, fields: &[&[u8]]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&0x5442_5343u32.to_le_bytes());
    payload.extend_from_slice(&6u32.to_le_bytes());
    payload.push(tag);
    for field in fields {
        payload.extend_from_slice(field);
    }
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

/// The item records of a sequence: a `u32` count, then each item's
/// `u32` length (16) and its two LE `f64`s.
fn point_records(points: &[[f64; 2]]) -> Vec<u8> {
    let mut out = (points.len() as u32).to_le_bytes().to_vec();
    for [x, y] in points {
        out.extend_from_slice(&16u32.to_le_bytes());
        out.extend_from_slice(&x.to_le_bytes());
        out.extend_from_slice(&y.to_le_bytes());
    }
    out
}

#[test]
fn ingest_and_sample_frames_are_pinned() {
    let points = [[1.0f64, -2.5], [0.125, 1e9], [-0.0, f64::MIN_POSITIVE]];

    let ingest = encode_frame(&Request::Ingest(points.to_vec()).encode());
    assert_eq!(ingest, hand_built_frame(7, &[&point_records(&points)]));

    let sample = Reply::Sample {
        epoch: 3,
        batches: 0x0102_0304_0506,
        items: points.to_vec(),
    };
    let frame = encode_frame(&sample.encode());
    assert_eq!(
        frame,
        hand_built_frame(
            65,
            &[
                &3u64.to_le_bytes(),
                &0x0102_0304_0506u64.to_le_bytes(),
                &point_records(&points),
            ],
        )
    );

    let mut dec = FrameDecoder::new();
    dec.push(&ingest);
    let back = Request::<[f64; 2]>::decode(dec.next_frame().unwrap().unwrap()).unwrap();
    assert_eq!(back, Request::Ingest(points.to_vec()));
    dec.push(&frame);
    let back = Reply::<[f64; 2]>::decode(dec.next_frame().unwrap().unwrap()).unwrap();
    assert_eq!(back, sample);
}
