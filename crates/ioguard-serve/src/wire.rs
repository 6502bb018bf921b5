//! Zero-copy wire codec for serve requests, and the typed responses the
//! serving layer returns.
//!
//! ## Request frame layout (little-endian, 34-byte header)
//!
//! | offset | size | field          |
//! |-------:|-----:|----------------|
//! |      0 |    2 | magic `0x49C7` |
//! |      2 |    1 | version (`1`)  |
//! |      3 |    1 | flags (bit 0 = critical; other bits reserved) |
//! |      4 |    4 | client id      |
//! |      8 |    8 | task id        |
//! |     16 |    8 | WCET (slots)   |
//! |     24 |    8 | relative deadline (slots) |
//! |     32 |    2 | payload length |
//! |     34 |    n | payload        |
//!
//! Decoding is **zero-copy**: the payload of a decoded [`Request`] is a
//! sub-view ([`Bytes::slice`]-style) of the ingress buffer, sharing its
//! allocation. Decoding is also **transactional**: a malformed frame
//! returns a typed [`WireError`] and leaves the input buffer exactly
//! where it was — validation runs against a cheap cloned view first and
//! the real cursor only advances on success. Byte-soup fuzzing in the
//! crate's proptest suite leans on both properties.
//!
//! Responses are typed values ([`Response`]), not frames: every admission
//! verdict the serving layer can reach — accept, complete, miss,
//! throttle, shed, reject, mode change — is one variant, so clients
//! observe backpressure and graceful degradation in-band.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Magic tag opening every request frame.
pub const REQ_MAGIC: u16 = 0x49C7;
/// The only wire version this codec speaks.
pub const WIRE_VERSION: u8 = 1;
/// Request header length in bytes (fields before the payload).
pub const REQ_HEADER_LEN: usize = 34;
/// Upper bound on a request payload; longer frames are rejected.
pub const MAX_PAYLOAD: usize = 4096;

/// Flag bit marking a request as criticality-high (R-channel).
pub const FLAG_CRITICAL: u8 = 0b0000_0001;

/// One decoded I/O request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client (VM) the request claims to originate from.
    pub client: u32,
    /// Client-chosen request identifier, echoed in responses.
    pub task_id: u64,
    /// Worst-case execution time in slots (must be ≥ 1).
    pub wcet: u64,
    /// Relative deadline in slots (must be ≥ `wcet`).
    pub deadline_rel: u64,
    /// Criticality: `true` routes via the guaranteed R-channel class.
    pub critical: bool,
    /// Opaque payload — a zero-copy view of the ingress buffer.
    pub payload: Bytes,
}

/// Typed decode/encode failures. Decoding never panics and never
/// consumes input on failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// Fewer bytes than the frame needs.
    Truncated {
        /// Bytes the frame requires.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The magic tag did not match.
    BadMagic {
        /// The tag found on the wire.
        found: u16,
    },
    /// Unsupported wire version.
    BadVersion {
        /// The version found on the wire.
        found: u8,
    },
    /// Reserved flag bits were set.
    BadFlags {
        /// The flags byte found on the wire.
        found: u8,
    },
    /// WCET of zero is meaningless.
    ZeroWcet,
    /// Relative deadline below the WCET can never be met.
    DeadlineBeforeWcet {
        /// Claimed WCET.
        wcet: u64,
        /// Claimed relative deadline.
        deadline_rel: u64,
    },
    /// Payload exceeds [`MAX_PAYLOAD`].
    PayloadTooLong {
        /// Claimed payload length.
        len: usize,
    },
}

impl WireError {
    /// Stable small ordinal for trace/counter attribution.
    pub fn ordinal(&self) -> u64 {
        match self {
            WireError::Truncated { .. } => 1,
            WireError::BadMagic { .. } => 2,
            WireError::BadVersion { .. } => 3,
            WireError::BadFlags { .. } => 4,
            WireError::ZeroWcet => 5,
            WireError::DeadlineBeforeWcet { .. } => 6,
            WireError::PayloadTooLong { .. } => 7,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            WireError::BadMagic { found } => write!(f, "bad magic 0x{found:04X}"),
            WireError::BadVersion { found } => write!(f, "unsupported wire version {found}"),
            WireError::BadFlags { found } => write!(f, "reserved flag bits set: 0b{found:08b}"),
            WireError::ZeroWcet => write!(f, "wcet must be >= 1"),
            WireError::DeadlineBeforeWcet { wcet, deadline_rel } => {
                write!(f, "deadline {deadline_rel} below wcet {wcet}")
            }
            WireError::PayloadTooLong { len } => {
                write!(
                    f,
                    "payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Why a connection or request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The frame failed to decode.
    Malformed,
    /// The client's declaration fails the local gate: its server period
    /// does not divide the analysis frame, or its task set fails
    /// Theorem 3. No retry of the same declaration can succeed.
    NotSchedulable,
    /// No shard has ledger headroom (Theorem 1) for the server request.
    NoCapacity,
    /// The client's hypervisor pool is full.
    PoolFull,
    /// The shard is running degraded and refused this class.
    Degraded,
    /// The client id is outside the registry.
    UnknownClient,
    /// Connect for a client that is already connected.
    AlreadyConnected,
    /// Request or disconnect for a client that is not connected.
    NotConnected,
}

impl RejectReason {
    fn label(self) -> &'static str {
        match self {
            RejectReason::Malformed => "malformed",
            RejectReason::NotSchedulable => "not-schedulable",
            RejectReason::NoCapacity => "no-capacity",
            RejectReason::PoolFull => "pool-full",
            RejectReason::Degraded => "degraded",
            RejectReason::UnknownClient => "unknown-client",
            RejectReason::AlreadyConnected => "already-connected",
            RejectReason::NotConnected => "not-connected",
        }
    }
}

/// One typed response returned to a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Response {
    /// The client is connected and placed on `shard`.
    Connected {
        /// The client the response addresses.
        client: u32,
        /// Shard index the client was placed on.
        shard: u32,
    },
    /// The connection request was refused.
    ConnectRejected {
        /// The client the response addresses.
        client: u32,
        /// Why the connection was refused.
        reason: RejectReason,
    },
    /// The client has been disconnected.
    Disconnected {
        /// The client the response addresses.
        client: u32,
    },
    /// The request passed admission and is enqueued for dispatch.
    Accepted {
        /// The client the response addresses.
        client: u32,
        /// Echo of the request's task id.
        task_id: u64,
    },
    /// The request completed within its deadline.
    Completed {
        /// The client the response addresses.
        client: u32,
        /// Echo of the request's task id.
        task_id: u64,
        /// End-to-end latency in slots (submission to completion).
        latency: u64,
    },
    /// The request missed its deadline.
    Missed {
        /// The client the response addresses.
        client: u32,
        /// Echo of the request's task id.
        task_id: u64,
        /// Whether the missed request was criticality-high.
        critical: bool,
    },
    /// The request was refused outright.
    Rejected {
        /// The client the response addresses.
        client: u32,
        /// Echo of the request's task id (0 when undecodable).
        task_id: u64,
        /// Why the request was refused.
        reason: RejectReason,
    },
    /// The client tripped the admission guard and is rate-limited.
    Throttled {
        /// The client the response addresses.
        client: u32,
        /// Echo of the request's task id.
        task_id: u64,
        /// Slot at which the throttle penalty expires.
        until: u64,
    },
    /// A best-effort request was shed under overload.
    Shed {
        /// The client the response addresses.
        client: u32,
        /// Echo of the request's task id (0 for queue-level sheds).
        task_id: u64,
    },
    /// The client's shard changed degradation mode.
    ModeChange {
        /// The client the response addresses.
        client: u32,
        /// Shard index the mode change happened on.
        shard: u32,
        /// New mode ordinal (0 = Normal, 1 = Degraded, 2 = PchannelOnly).
        mode: u32,
    },
}

impl Response {
    /// Stable 1-based ordinal for the response kind.
    pub fn kind_ordinal(&self) -> u8 {
        match self {
            Response::Connected { .. } => 1,
            Response::ConnectRejected { .. } => 2,
            Response::Disconnected { .. } => 3,
            Response::Accepted { .. } => 4,
            Response::Completed { .. } => 5,
            Response::Missed { .. } => 6,
            Response::Rejected { .. } => 7,
            Response::Throttled { .. } => 8,
            Response::Shed { .. } => 9,
            Response::ModeChange { .. } => 10,
        }
    }

    /// Number of distinct response kinds (fold-array size).
    pub const KINDS: usize = 10;

    /// Human-readable label for a 1-based response kind ordinal.
    pub fn kind_label(ordinal: u8) -> &'static str {
        match ordinal {
            1 => "connected",
            2 => "connect-rejected",
            3 => "disconnected",
            4 => "accepted",
            5 => "completed",
            6 => "missed",
            7 => "rejected",
            8 => "throttled",
            9 => "shed",
            10 => "mode-change",
            _ => "unknown",
        }
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Response::Connected { client, shard } => {
                write!(f, "connected client={client} shard={shard}")
            }
            Response::ConnectRejected { client, reason } => {
                write!(
                    f,
                    "connect-rejected client={client} reason={}",
                    reason.label()
                )
            }
            Response::Disconnected { client } => write!(f, "disconnected client={client}"),
            Response::Accepted { client, task_id } => {
                write!(f, "accepted client={client} task={task_id}")
            }
            Response::Completed {
                client,
                task_id,
                latency,
            } => {
                write!(
                    f,
                    "completed client={client} task={task_id} latency={latency}"
                )
            }
            Response::Missed {
                client,
                task_id,
                critical,
            } => {
                write!(
                    f,
                    "missed client={client} task={task_id} critical={}",
                    u64::from(critical)
                )
            }
            Response::Rejected {
                client,
                task_id,
                reason,
            } => {
                write!(
                    f,
                    "rejected client={client} task={task_id} reason={}",
                    reason.label()
                )
            }
            Response::Throttled {
                client,
                task_id,
                until,
            } => {
                write!(f, "throttled client={client} task={task_id} until={until}")
            }
            Response::Shed { client, task_id } => write!(f, "shed client={client} task={task_id}"),
            Response::ModeChange {
                client,
                shard,
                mode,
            } => {
                write!(f, "mode-change client={client} shard={shard} mode={mode}")
            }
        }
    }
}

/// Encodes `req` onto `out`, validating the same invariants decoding
/// enforces so that `decode(encode(req))` round-trips exactly.
pub fn encode_request(req: &Request, out: &mut BytesMut) -> Result<(), WireError> {
    if req.wcet == 0 {
        return Err(WireError::ZeroWcet);
    }
    if req.deadline_rel < req.wcet {
        return Err(WireError::DeadlineBeforeWcet {
            wcet: req.wcet,
            deadline_rel: req.deadline_rel,
        });
    }
    let payload_len = u16::try_from(req.payload.len())
        .ok()
        .filter(|&n| usize::from(n) <= MAX_PAYLOAD)
        .ok_or(WireError::PayloadTooLong {
            len: req.payload.len(),
        })?;
    out.put_u16_le(REQ_MAGIC);
    out.put_u8(WIRE_VERSION);
    out.put_u8(if req.critical { FLAG_CRITICAL } else { 0 });
    out.put_u32_le(req.client);
    out.put_u64_le(req.task_id);
    out.put_u64_le(req.wcet);
    out.put_u64_le(req.deadline_rel);
    out.put_u16_le(payload_len);
    out.put_slice(&req.payload);
    Ok(())
}

/// Encodes `req` into a standalone frame.
pub fn encode_request_frame(req: &Request) -> Result<Bytes, WireError> {
    let mut out = BytesMut::with_capacity(REQ_HEADER_LEN.saturating_add(req.payload.len()));
    encode_request(req, &mut out)?;
    Ok(out.freeze())
}

/// Decodes one request frame off the front of `buf`.
///
/// On success the cursor advances past the frame and the returned
/// payload is a zero-copy sub-view of `buf`'s allocation. On **any**
/// failure `buf` is left untouched — no partial consumption.
pub fn decode_request(buf: &mut Bytes) -> Result<Request, WireError> {
    let have = buf.remaining();
    if have < REQ_HEADER_LEN {
        return Err(WireError::Truncated {
            need: REQ_HEADER_LEN,
            have,
        });
    }
    // Validate against a cheap cloned view; the real cursor moves only
    // once the whole frame has been proven well-formed.
    let mut peek = buf.clone();
    let magic = peek.get_u16_le();
    if magic != REQ_MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = peek.get_u8();
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { found: version });
    }
    let flags = peek.get_u8();
    if flags & !FLAG_CRITICAL != 0 {
        return Err(WireError::BadFlags { found: flags });
    }
    let client = peek.get_u32_le();
    let task_id = peek.get_u64_le();
    let wcet = peek.get_u64_le();
    let deadline_rel = peek.get_u64_le();
    let payload_len = usize::from(peek.get_u16_le());
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::PayloadTooLong { len: payload_len });
    }
    let need = REQ_HEADER_LEN.saturating_add(payload_len);
    if have < need {
        return Err(WireError::Truncated { need, have });
    }
    if wcet == 0 {
        return Err(WireError::ZeroWcet);
    }
    if deadline_rel < wcet {
        return Err(WireError::DeadlineBeforeWcet { wcet, deadline_rel });
    }
    // Commit: advance the real cursor and hand out a zero-copy payload.
    buf.advance(REQ_HEADER_LEN);
    let payload = buf.split_to(payload_len);
    Ok(Request {
        client,
        task_id,
        wcet,
        deadline_rel,
        critical: flags & FLAG_CRITICAL != 0,
        payload,
    })
}

/// Decodes consecutive request frames from `buf` until it is empty or a
/// frame fails; returns the decoded prefix and the terminating error (if
/// any). The buffer is left positioned at the first undecodable byte.
pub fn decode_stream(buf: &mut Bytes) -> (Vec<Request>, Option<WireError>) {
    let mut out = Vec::new();
    while !buf.is_empty() {
        match decode_request(buf) {
            Ok(req) => out.push(req),
            Err(err) => return (out, Some(err)),
        }
    }
    (out, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Request {
        Request {
            client: 7,
            task_id: 99,
            wcet: 3,
            deadline_rel: 40,
            critical: true,
            payload: Bytes::copy_from_slice(b"read sector 12"),
        }
    }

    #[test]
    fn request_round_trip() {
        let req = sample();
        let mut frame = encode_request_frame(&req).unwrap();
        let back = decode_request(&mut frame).unwrap();
        assert_eq!(back, req);
        assert!(frame.is_empty());
    }

    #[test]
    fn decode_is_zero_copy_and_transactional() {
        let req = sample();
        let mut frame = encode_request_frame(&req).unwrap();
        let whole = frame.clone();
        let back = decode_request(&mut frame).unwrap();
        // The payload view aliases the frame allocation (compare via the
        // content of the enclosing region: slicing the original frame at
        // the payload offset yields an equal view).
        assert_eq!(back.payload, whole.slice(REQ_HEADER_LEN..));
        // A bad-magic frame consumes nothing.
        let mut bad = Bytes::copy_from_slice(&[0u8; 64]);
        let before = bad.clone();
        assert_eq!(
            decode_request(&mut bad),
            Err(WireError::BadMagic { found: 0 })
        );
        assert_eq!(bad, before);
    }

    #[test]
    fn truncated_and_invalid_frames_are_typed() {
        let mut short = Bytes::copy_from_slice(&[0u8; 10]);
        assert!(matches!(
            decode_request(&mut short),
            Err(WireError::Truncated { .. })
        ));
        let mut req = sample();
        req.wcet = 0;
        assert_eq!(encode_request_frame(&req), Err(WireError::ZeroWcet));
        let mut req = sample();
        req.deadline_rel = 1;
        assert!(matches!(
            encode_request_frame(&req),
            Err(WireError::DeadlineBeforeWcet { .. })
        ));
    }
}
