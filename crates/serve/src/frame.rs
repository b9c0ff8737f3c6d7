//! The wire format shared by the worker pool and the serve socket:
//! **length-prefixed JSON frames**.
//!
//! A frame is a 4-byte little-endian length `n` followed by exactly `n`
//! bytes of UTF-8 JSON (compact, deterministic — the writer renders
//! through [`Json::to_string_compact`], which sorts object keys). The
//! prefix makes message boundaries unambiguous over byte streams (pipes
//! and Unix sockets) without sentinel scanning, and lets the reader
//! reject oversized or truncated frames before parsing.
//!
//! Every malformed condition — length above [`MAX_FRAME_BYTES`], EOF
//! mid-frame, invalid UTF-8, invalid JSON — surfaces as an
//! [`io::Error`], which the pool treats as a poisoned worker (kill,
//! retry, degrade) and the server treats as a client to disconnect.
//! Clean EOF *before* a length prefix is `Ok(None)`: the peer closed
//! between frames, which is the normal way a conversation ends.

use std::io::{self, Read, Write};

use ehp_sim_core::json::Json;

/// Upper bound on one frame's payload: big enough for a whole sweep's
/// outcomes, small enough that a corrupt length prefix cannot trigger a
/// multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Writes one frame and flushes the stream.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads above [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, frame: &Json) -> io::Result<()> {
    let body = frame.to_string_compact();
    if body.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME_BYTES", body.len()),
        ));
    }
    let len = body.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF before the length prefix.
///
/// # Errors
///
/// EOF mid-frame, an oversized length prefix, invalid UTF-8, and
/// invalid JSON are all `InvalidData`/`UnexpectedEof` errors — the
/// stream is unusable past the first malformed frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Json>> {
    let mut prefix = [0u8; 4];
    // Distinguish clean EOF (zero bytes) from a truncated prefix.
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut prefix[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_BYTES"),
        ));
    }
    // Grow the buffer as bytes arrive instead of trusting the prefix: a
    // peer that claims 64 MiB and hangs up costs nothing.
    let mut body = Vec::new();
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("EOF after {} of {len} frame bytes", body.len()),
        ));
    }
    let text = String::from_utf8(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame not UTF-8: {e}")))?;
    Json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame not JSON: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let a = Json::object([("id", Json::from(1u64)), ("op", Json::from("x"))]);
        let b = Json::Arr(vec![Json::from(2.5), Json::Null]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Some(a));
        assert_eq!(read_frame(&mut r).unwrap(), Some(b));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_prefix_and_body_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::from("hello")).unwrap();
        // Cut inside the body.
        let mut r = &buf[..buf.len() - 2];
        assert!(read_frame(&mut r).is_err());
        // Cut inside the prefix.
        let mut r = &buf[..2];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = (u32::MAX).to_le_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let mut r = buf.as_slice();
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn claimed_length_without_body_is_eof() {
        let mut r: &[u8] = &(MAX_FRAME_BYTES as u32).to_le_bytes();
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn depth_bomb_frame_is_an_error() {
        let body = "[".repeat(100_000);
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(body.as_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn non_json_body_is_an_error() {
        let body = b"not json";
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(body);
        let mut r = buf.as_slice();
        assert!(read_frame(&mut r).is_err());
    }
}
