//! Property tests for the serving request codec: encode/decode round
//! trips for every request shape, plus byte-soup fuzzing proving the
//! decoder returns **typed** errors — never panics, never consumes a
//! partial frame.

use bytes::{Buf, Bytes, BytesMut};
use ioguard_serve::wire::{
    decode_request, decode_stream, encode_request, encode_request_frame, Request, WireError,
    MAX_PAYLOAD,
};
use proptest::prelude::*;

/// A strategy over valid requests: `wcet ≥ 1`, `deadline_rel ≥ wcet`,
/// payload within the frame cap.
fn arb_request() -> impl Strategy<Value = Request> {
    (
        any::<u32>(),
        any::<u64>(),
        1..=u64::MAX / 2,
        0..=u64::MAX / 2,
        proptest::collection::vec(any::<u8>(), 0..256),
        any::<bool>(),
    )
        .prop_map(
            |(client, task_id, wcet, slack, payload, critical)| Request {
                client,
                task_id,
                wcet,
                deadline_rel: wcet.saturating_add(slack),
                critical,
                payload: Bytes::from(payload),
            },
        )
}

proptest! {
    /// decode(encode(req)) == req, and the frame is consumed exactly.
    #[test]
    fn request_round_trips(req in arb_request()) {
        let frame = encode_request_frame(&req).expect("valid request encodes");
        let mut buf = frame;
        let back = decode_request(&mut buf).expect("own frame decodes");
        prop_assert_eq!(back, req);
        prop_assert_eq!(buf.remaining(), 0, "no trailing bytes may survive");
    }

    /// A concatenation of valid frames decodes back to the same request
    /// sequence with no error and nothing left over.
    #[test]
    fn request_streams_round_trip(reqs in proptest::collection::vec(arb_request(), 0..12)) {
        let mut wire = BytesMut::new();
        for req in &reqs {
            encode_request(req, &mut wire).expect("valid request encodes");
        }
        let mut buf = wire.freeze();
        let (decoded, error) = decode_stream(&mut buf);
        prop_assert!(error.is_none(), "well-formed stream raised {error:?}");
        prop_assert_eq!(decoded, reqs);
        prop_assert_eq!(buf.remaining(), 0);
    }

    /// Arbitrary byte soup: the decoder returns `Ok` or a typed
    /// [`WireError`] — it never panics, and on error it consumes
    /// nothing (no partial frame reads).
    #[test]
    fn byte_soup_yields_typed_errors(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = Bytes::from(bytes.clone());
        let before = buf.remaining();
        match decode_request(&mut buf) {
            Ok(req) => {
                // A lucky valid frame must re-encode to the bytes read.
                let echo = encode_request_frame(&req).expect("decoded request re-encodes");
                prop_assert_eq!(echo.as_ref(), &bytes[..before - buf.remaining()]);
            }
            Err(error) => {
                prop_assert_eq!(buf.remaining(), before, "failed decode consumed bytes");
                prop_assert!(error.ordinal() >= 1, "error carries a stable ordinal");
            }
        }
    }

    /// Every truncation of a valid frame fails with `Truncated` and
    /// leaves the buffer untouched, so a caller can wait for more bytes.
    #[test]
    fn truncations_are_typed_and_transactional(req in arb_request(), cut in any::<u16>()) {
        let frame = encode_request_frame(&req).expect("valid request encodes");
        let len = frame.remaining();
        let cut = usize::from(cut) % len.max(1);
        let mut buf = frame.slice(..cut);
        match decode_request(&mut buf) {
            Err(WireError::Truncated { need, have }) => {
                prop_assert!(need > have, "truncated error must ask for more bytes");
                prop_assert_eq!(buf.remaining(), cut, "failed decode consumed bytes");
            }
            other => prop_assert!(false, "cut at {cut}/{len} gave {other:?}"),
        }
    }

    /// Oversized payloads are refused at encode time with a typed error
    /// (the frame cap is what bounds per-request memory).
    #[test]
    fn oversized_payloads_are_refused(extra in 1usize..64) {
        let req = Request {
            client: 1,
            task_id: 2,
            wcet: 1,
            deadline_rel: 8,
            critical: false,
            payload: Bytes::from(vec![0u8; MAX_PAYLOAD + extra]),
        };
        let mut out = BytesMut::new();
        match encode_request(&req, &mut out) {
            Err(WireError::PayloadTooLong { len }) => prop_assert_eq!(len, MAX_PAYLOAD + extra),
            other => prop_assert!(false, "expected PayloadTooLong, got {other:?}"),
        }
        prop_assert!(out.is_empty(), "refused encode must write nothing");
    }

    /// `decode_stream` over soup never loses the valid prefix: frames
    /// before the corruption point all come back, and the typed error
    /// describes the first bad frame.
    #[test]
    fn stream_decode_keeps_valid_prefix(
        reqs in proptest::collection::vec(arb_request(), 1..6),
        soup in proptest::collection::vec(any::<u8>(), 1..40),
    ) {
        let mut wire = BytesMut::new();
        for req in &reqs {
            encode_request(req, &mut wire).expect("valid request encodes");
        }
        wire.put_slice_test(&soup);
        let mut buf = wire.freeze();
        let (decoded, _error) = decode_stream(&mut buf);
        prop_assert!(decoded.len() >= reqs.len(), "valid prefix frames were lost");
        for (got, want) in decoded.iter().zip(&reqs) {
            prop_assert_eq!(got, want);
        }
    }
}

/// Tiny extension so the test can append soup without importing BufMut
/// under a name that collides with the prelude.
trait PutSlice {
    fn put_slice_test(&mut self, data: &[u8]);
}

impl PutSlice for BytesMut {
    fn put_slice_test(&mut self, data: &[u8]) {
        use bytes::BufMut as _;
        self.put_slice(data);
    }
}
