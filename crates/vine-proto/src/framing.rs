//! Length-prefixed framing for protocol messages on byte streams.
//!
//! Wire format, per frame:
//!
//! ```text
//! +----------------+-------------------------------------------+
//! | length: u32 LE | payload: `length` bytes, one binary value |
//! +----------------+-------------------------------------------+
//! ```
//!
//! The payload is the message's serde [`Value`](serde::Value) in a
//! compact binary encoding (the crate's `codec` module): a tag byte per
//! value, LEB128 varints for integers and lengths, and byte blobs carried
//! raw. Both message planes (worker and routing) use this one format; a
//! peer that frames JSON text is rejected by its first frame. Frames are
//! self-delimiting, so a reader never needs lookahead, and every failure
//! mode is explicit:
//!
//! * a stream that ends **between** frames is a clean close
//!   ([`FrameError::Closed`] — how a worker's death is observed);
//! * a stream that ends **inside** a header or payload is
//!   [`FrameError::Truncated`];
//! * a header announcing more than [`MAX_FRAME`] bytes is
//!   [`FrameError::Oversized`] and is rejected *before* any allocation —
//!   a garbage header cannot make the receiver allocate gigabytes;
//! * a payload that is not one well-formed binary value (unknown tag,
//!   a length past the end, nesting deeper than 64 levels, invalid
//!   UTF-8, trailing bytes) or does not decode to the expected message
//!   type is [`FrameError::Malformed`].

use crate::codec;
use crate::messages::ManagerToWorker;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::sync::Arc;

/// Largest payload a frame may carry (64 MiB). Library images ship whole
/// module sources and serialized functions, so frames are allowed to be
/// large — but never unbounded.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Every way reading or writing a frame can fail.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly on a frame boundary.
    Closed,
    /// The stream ended mid-header or mid-payload.
    Truncated { expected: usize, got: usize },
    /// The header announced a payload larger than [`MAX_FRAME`] (or an
    /// encoder was asked to produce one).
    Oversized { len: usize, max: usize },
    /// The payload was not a valid encoding of the expected message.
    Malformed(String),
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "stream closed"),
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encode one message and write it as a frame.
pub fn write_frame<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), FrameError> {
    // one buffer, one write: header and payload must not straddle writes,
    // or Nagle's algorithm turns every frame into a delayed-ACK stall
    w.write_all(&encode_frame(msg)?)?;
    w.flush()?;
    Ok(())
}

/// Read until `buf` is full or the stream ends; returns bytes read. Unlike
/// `read_exact`, a short read is reported with its exact length so the
/// caller can distinguish a clean close from a truncated frame.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(got)
}

/// Read and decode the next frame.
pub fn read_frame<T: Deserialize>(r: &mut impl Read) -> Result<T, FrameError> {
    let mut header = [0u8; 4];
    match read_full(r, &mut header)? {
        0 => return Err(FrameError::Closed),
        4 => {}
        got => return Err(FrameError::Truncated { expected: 4, got }),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 {
        return Err(FrameError::Malformed("empty frame".into()));
    }
    if len > MAX_FRAME {
        return Err(FrameError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; len];
    let got = read_full(r, &mut payload)?;
    if got < len {
        return Err(FrameError::Truncated { expected: len, got });
    }
    decode_payload(&payload)
}

fn decode_payload<T: Deserialize>(payload: &[u8]) -> Result<T, FrameError> {
    let value = codec::decode(payload).map_err(FrameError::Malformed)?;
    T::from_value(&value).map_err(|e| FrameError::Malformed(e.to_string()))
}

/// Encode one message as a standalone frame (header + payload): the
/// bytes [`write_frame`] writes.
pub fn encode_frame<T: Serialize>(msg: &T) -> Result<Vec<u8>, FrameError> {
    // room for a typical invocation or result frame without regrowing
    let mut frame = Vec::with_capacity(512);
    frame.extend_from_slice(&[0; 4]);
    codec::encode(&mut frame, &msg.to_value());
    let len = frame.len() - 4;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(frame)
}

/// Decode one message from a standalone frame.
pub fn decode_frame<T: Deserialize>(frame: &[u8]) -> Result<T, FrameError> {
    let mut cursor = frame;
    read_frame(&mut cursor)
}

// -------------------------------------------------------- shared frames

/// A manager→worker message encoded **once** into a shared, immutable
/// frame (header + payload, byte-identical to what [`write_frame`] emits —
/// a proptest pins this).
///
/// Broadcasting the same message to N workers through a `Frame` serializes
/// it a single time; each recipient's outbound queue holds an `Arc` clone
/// of the same bytes. A `LibraryImage` install fanned out to a fleet is
/// the motivating case: the image (source + serialized functions +
/// compiled bytecode) is the dominant payload in the system, and without
/// this it would be re-encoded per worker.
///
/// The typed message rides along so substrates that never serialize (the
/// in-process transport moves typed values over channels) can deliver the
/// same `Frame` without a decode round-trip.
#[derive(Clone, Debug)]
pub struct Frame {
    bytes: Arc<[u8]>,
    msg: Arc<ManagerToWorker>,
}

impl Frame {
    /// Encode `msg` exactly as [`write_frame`] would, once.
    pub fn encode_once(msg: ManagerToWorker) -> Result<Frame, FrameError> {
        let bytes = encode_frame(&msg)?;
        Ok(Frame {
            bytes: Arc::from(bytes),
            msg: Arc::new(msg),
        })
    }

    /// The full wire frame (length header + payload).
    pub fn bytes(&self) -> &Arc<[u8]> {
        &self.bytes
    }

    /// Total on-wire size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The typed message this frame encodes.
    pub fn message(&self) -> &ManagerToWorker {
        &self.msg
    }

    /// A typed copy for channel-based substrates (clones the message, not
    /// the bytes).
    pub fn to_message(&self) -> ManagerToWorker {
        (*self.msg).clone()
    }
}

// --------------------------------------------------- incremental decode

/// How far a partially buffered stream can compact before memmoving the
/// tail to the front (amortizes the copy across many small frames).
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Incremental frame decoder for readiness-driven readers.
///
/// A nonblocking socket hands the reactor arbitrary byte chunks: half a
/// header, three frames back to back, a payload split anywhere. The
/// decoder buffers whatever arrives ([`FrameDecoder::extend`]) and yields
/// complete messages as they materialize ([`FrameDecoder::decode`] —
/// `Ok(None)` means "need more bytes"). Error classification matches
/// [`read_frame`] exactly (a proptest pins the equivalence): oversized
/// headers are rejected before any payload is buffered past them, empty
/// and malformed payloads report the same [`FrameError`]s, and
/// [`FrameDecoder::finish`] distinguishes a clean close on a frame
/// boundary from a stream that died mid-frame.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily.
    start: usize,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Buffer freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decode the next complete frame, if one is fully buffered.
    ///
    /// `Ok(None)` asks for more bytes. Any `Err` is fatal to the stream:
    /// the caller cannot resynchronize after a bad header or payload and
    /// should drop the connection.
    pub fn decode<T: Deserialize>(&mut self) -> Result<Option<T>, FrameError> {
        let avail = self.buffered();
        if avail < 4 {
            return Ok(None);
        }
        let header: [u8; 4] = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("4-byte slice");
        let len = u32::from_le_bytes(header) as usize;
        if len == 0 {
            return Err(FrameError::Malformed("empty frame".into()));
        }
        if len > MAX_FRAME {
            return Err(FrameError::Oversized {
                len,
                max: MAX_FRAME,
            });
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let msg = decode_payload(&self.buf[self.start + 4..self.start + 4 + len])?;
        self.start += 4 + len;
        if self.start == self.buf.len() || self.start > COMPACT_THRESHOLD {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(msg))
    }

    /// Classify end-of-stream: `Ok` when the peer closed on a frame
    /// boundary, [`FrameError::Truncated`] when it died mid-frame.
    pub fn finish(&self) -> Result<(), FrameError> {
        let avail = self.buffered();
        if avail == 0 {
            return Ok(());
        }
        let expected = if avail < 4 {
            4
        } else {
            let header: [u8; 4] = self.buf[self.start..self.start + 4]
                .try_into()
                .expect("4-byte slice");
            u32::from_le_bytes(header) as usize
        };
        Err(FrameError::Truncated {
            expected,
            got: avail.min(expected),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::WorkerToManager;
    use vine_core::resources::Resources;

    #[test]
    fn roundtrip_and_clean_close() {
        let msg = WorkerToManager::Join {
            resources: Resources::new(8, 1024, 1024),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        write_frame(&mut buf, &WorkerToManager::Leave).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame::<WorkerToManager>(&mut cursor).unwrap(), msg);
        assert_eq!(
            read_frame::<WorkerToManager>(&mut cursor).unwrap(),
            WorkerToManager::Leave
        );
        assert!(matches!(
            read_frame::<WorkerToManager>(&mut cursor),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_header_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(u32::MAX).to_le_bytes());
        frame.extend_from_slice(b"not that long");
        assert!(matches!(
            decode_frame::<WorkerToManager>(&frame),
            Err(FrameError::Oversized { .. })
        ));
    }
}
