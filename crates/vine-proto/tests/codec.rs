//! The binary payload encoding under hostile and boundary inputs. Every
//! hostile frame must get the same `Malformed` verdict from the blocking
//! reader (`read_frame`) and the reactor's incremental `FrameDecoder`,
//! without panicking, overflowing the stack, or allocating what a forged
//! length claims.

use std::io::Cursor;
use vine_core::ids::{InvocationId, LibraryInstanceId};
use vine_core::task::FunctionCall;
use vine_proto::{
    decode_frame, encode_frame, read_frame, FrameDecoder, FrameError, ManagerToWorker,
    WorkerToManager,
};

// tags of the payload encoding (see `vine_proto::codec`)
const U64: u8 = 4;
const STR: u8 = 7;
const BYTES: u8 = 8;
const SEQ: u8 = 9;
const MAP: u8 = 10;

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(payload);
    f
}

/// The verdict of both decoders on one frame; they must agree, and it
/// must be `Malformed`.
fn malformed(payload: &[u8]) -> String {
    let wire = frame(payload);
    let blocking = read_frame::<WorkerToManager>(&mut Cursor::new(&wire));
    let mut dec = FrameDecoder::new();
    dec.extend(&wire);
    let incremental = dec.decode::<WorkerToManager>();
    match (blocking, incremental) {
        (Err(FrameError::Malformed(a)), Err(FrameError::Malformed(b))) => {
            assert_eq!(a, b, "decoders disagree");
            a
        }
        (a, b) => panic!("expected Malformed from both decoders, got {a:?} and {b:?}"),
    }
}

/// A varint the way the encoder writes one.
fn varint(mut n: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
    out
}

#[test]
fn deep_nesting_is_rejected_without_overflowing_the_stack() {
    let payload: Vec<u8> = std::iter::repeat_n([SEQ, 1], 100_000).flatten().collect();
    let why = malformed(&payload);
    assert!(why.contains("nesting"), "{why}");
    // maps count toward the same cap
    let payload: Vec<u8> = std::iter::repeat_n([MAP, 1, U64, 0], 100_000)
        .flatten()
        .collect();
    assert!(malformed(&payload).contains("nesting"));
}

#[test]
fn forged_lengths_are_rejected_before_allocation() {
    // a string, a byte blob, a sequence and a map each claiming far more
    // than the frame holds; allocating any of these claims would abort
    for tag in [STR, BYTES, SEQ, MAP] {
        let mut payload = vec![tag];
        payload.extend(varint(1 << 60));
        payload.extend_from_slice(b"short");
        let why = malformed(&payload);
        assert!(why.contains("bytes left"), "tag {tag}: {why}");
    }
    // one byte past the end is as wrong as an exabyte past it
    let mut payload = vec![BYTES];
    payload.extend(varint(6));
    payload.extend_from_slice(b"short");
    assert!(malformed(&payload).contains("bytes left"));
}

#[test]
fn unknown_tags_trailing_bytes_and_bad_utf8_are_malformed() {
    assert!(malformed(&[0xee]).contains("unknown tag"));
    // a JSON-era frame: its first byte is `{`, no tag of this encoding
    let json = br#"{"Join":{"resources":{"cores":8}}}"#;
    assert!(malformed(json).contains("unknown tag"));
    // a complete value followed by one more byte
    let mut payload = encode_frame(&WorkerToManager::Leave).unwrap()[4..].to_vec();
    payload.push(0);
    assert!(malformed(&payload).contains("trailing"));
    // a string whose bytes are not UTF-8
    let mut payload = vec![STR];
    payload.extend(varint(2));
    payload.extend_from_slice(&[0xc3, 0x28]);
    assert!(malformed(&payload).contains("UTF-8"));
}

#[test]
fn a_64_kib_argument_blob_ships_raw() {
    let args: Vec<u8> = (0..64 * 1024).map(|i| (i * 7 + 3) as u8).collect();
    let msg = ManagerToWorker::Invoke {
        instance: LibraryInstanceId(3),
        call: FunctionCall::new(InvocationId(9), "lnni", "infer", args),
    };
    let wire = encode_frame(&msg).unwrap();
    assert!(
        wire.len() <= 64 * 1024 + 512,
        "{} bytes for a 64 KiB blob",
        wire.len()
    );
    assert_eq!(decode_frame::<ManagerToWorker>(&wire).unwrap(), msg);
}

#[test]
fn byte_vectors_round_trip_in_every_shape() {
    fn round_trip<T>(v: T)
    where
        T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
    {
        let wire = encode_frame(&v).unwrap();
        assert_eq!(decode_frame::<T>(&wire).unwrap(), v);
    }
    round_trip(vec![vec![0u8, 255], vec![], vec![7]]);
    round_trip(Some(vec![1u8, 2, 3]));
    round_trip(None::<Vec<u8>>);
    round_trip(vec![0u16, 300, u16::MAX]);
    round_trip(vec![-1i64, i64::MIN, i64::MAX]);
    round_trip(vec![String::from("a"), String::from("hé")]);
}
