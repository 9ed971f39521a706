//! Wire-format pins for the streaming encoder/decoder: every frame type
//! of protocol version 1 must still encode byte for byte as it did
//! (only the version field moved to 2), `read_frame` must cope with a
//! stream that yields one byte per call, and a bulk field whose inner
//! length disagrees with the declared payload length is malformed.

use std::io::Read;
use std::sync::Arc;
use versa_mem::AlignedBuf;
use versa_net::protocol::{
    crc32, decode_frame, encode_frame, read_frame, write_frame, Frame, ProtoError, WireAccess,
    HEADER_LEN, MAGIC, VERSION,
};

fn buf(bytes: &[u8]) -> Arc<AlignedBuf> {
    Arc::new(AlignedBuf::from_bytes(bytes))
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// One frame of each version-1 type, with the bytes the version-1
/// encoder produced for it (tag `0x0102030405060700 + index`).
fn golden() -> Vec<(Frame, &'static str)> {
    vec![
        (
            Frame::Hello {
                name: "w0".into(),
                smp_workers: 2,
                simd_tier: "avx2".into(),
                hints: "h".into(),
            },
            "564e01000100070605040302011700000002000000773002000000040000006176783201000000686936bd03",
        ),
        (
            Frame::Welcome { node_id: 3, hints: "warm".into() },
            "564e01000201070605040302010a0000000300040000007761726d2ce2001d",
        ),
        (
            Frame::Ship { data: 7, bytes: buf(&[1, 2, 3, 4, 5]) },
            "564e01000302070605040302010d000000070000000500000001020304057c6bb9b9",
        ),
        (Frame::ShipAck, "564e01000403070605040302010000000000000000"),
        (
            Frame::Exec {
                task: 42,
                template: "scale2".into(),
                version: 1,
                attempt: 2,
                accesses: vec![
                    WireAccess { data: 1, offset: 0, len: 64, alloc_len: 64, mode: 0 },
                    WireAccess { data: 2, offset: 8, len: 56, alloc_len: 128, mode: 2 },
                ],
            },
            "564e0100050407060504030201560000002a00000000000000060000007363616c6532010002000000020000000100000000000000000000004000000000000000400000000000000000020000000800000000000000380000000000000080000000000000000274e3fe1d",
        ),
        (
            Frame::ExecOk { kernel_ns: 123_456_789, writes: vec![(2, buf(&[9, 8, 7])), (5, buf(&[]))] },
            "564e01000605070605040302011f00000015cd5b07000000000200000002000000030000000908070500000000000000354d385d",
        ),
        (
            Frame::ExecErr { message: "boom".into() },
            "564e01000706070605040302010800000004000000626f6f6d8b08aae2",
        ),
        (Frame::Heartbeat, "564e01000807070605040302010000000000000000"),
        (Frame::HeartbeatAck, "564e01000908070605040302010000000000000000"),
        (
            Frame::Shutdown { hints: "bye".into() },
            "564e01000a09070605040302010700000003000000627965c58df224",
        ),
        (Frame::ShutdownAck, "564e01000b0a070605040302010000000000000000"),
    ]
}

#[test]
fn version_one_frames_keep_their_wire_bytes() {
    let frames = golden();
    assert_eq!(frames.len(), 11, "every version-1 frame type is pinned");
    for (i, (frame, hex)) in frames.into_iter().enumerate() {
        let mut want = unhex(hex);
        assert_eq!(want[4], frame.type_byte());
        assert_eq!(want[2..4], 1u16.to_le_bytes(), "golden bytes are version 1");
        want[2..4].copy_from_slice(&VERSION.to_le_bytes());
        let tag = 0x0102_0304_0506_0700 + i as u64;
        assert_eq!(encode_frame(&frame, tag), want, "{frame:?}");
        assert_eq!(decode_frame(&want).unwrap(), (frame, tag, want.len()));
    }
}

#[test]
fn free_is_the_only_new_frame_type() {
    assert_eq!(VERSION, 2);
    let wire = encode_frame(&Frame::Free { data: 0x0403_0201 }, 5);
    let mut want = Vec::new();
    want.extend_from_slice(&MAGIC);
    want.extend_from_slice(&2u16.to_le_bytes());
    want.push(12);
    want.extend_from_slice(&5u64.to_le_bytes());
    want.extend_from_slice(&4u32.to_le_bytes());
    want.extend_from_slice(&[1, 2, 3, 4]);
    want.extend_from_slice(&crc32(&[1, 2, 3, 4]).to_le_bytes());
    assert_eq!(wire, want);
}

#[test]
fn a_version_one_peer_is_rejected_at_its_first_frame() {
    let hello = unhex(golden()[0].1);
    assert_eq!(decode_frame(&hello), Err(ProtoError::BadVersion(1)));
    assert_eq!(read_frame(&mut &hello[..]), Err(ProtoError::BadVersion(1)));
}

/// A reader that hands out at most one byte per `read` call.
struct Trickle<'a>(&'a [u8]);

impl Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        match (self.0.split_first(), out.first_mut()) {
            (Some((&b, rest)), Some(slot)) => {
                *slot = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

#[test]
fn read_frame_copes_with_one_byte_reads() {
    let big: Vec<u8> = (0..20_000u32).map(|i| (i % 253) as u8).collect();
    let mut frames: Vec<Frame> = golden().into_iter().map(|(f, _)| f).collect();
    frames.push(Frame::Ship { data: 1, bytes: buf(&big) });
    frames.push(Frame::ExecOk { kernel_ns: 1, writes: vec![(2, buf(&big)), (3, buf(b"x"))] });
    frames.push(Frame::Free { data: 9 });
    let mut wire = Vec::new();
    for (tag, f) in frames.iter().enumerate() {
        write_frame(&mut wire, f, tag as u64).unwrap();
    }
    let mut trickle = Trickle(&wire);
    for (tag, f) in frames.iter().enumerate() {
        assert_eq!(read_frame(&mut trickle).unwrap(), Some((f.clone(), tag as u64)));
    }
    assert_eq!(read_frame(&mut trickle).unwrap(), None, "clean EOF after the last frame");

    // Cut short anywhere inside a frame: typed truncation, even one
    // byte at a time.
    let one = encode_frame(&Frame::Ship { data: 1, bytes: buf(&big) }, 0);
    for cut in [1, HEADER_LEN, HEADER_LEN + 7, one.len() / 2, one.len() - 1] {
        assert_eq!(read_frame(&mut Trickle(&one[..cut])), Err(ProtoError::Truncated), "cut {cut}");
    }
}

/// A sealed (checksum-correct) frame of type `ty` around `payload`.
fn seal(ty: u8, payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    wire.extend_from_slice(&MAGIC);
    wire.extend_from_slice(&VERSION.to_le_bytes());
    wire.push(ty);
    wire.extend_from_slice(&0u64.to_le_bytes());
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(payload);
    wire.extend_from_slice(&crc32(payload).to_le_bytes());
    wire
}

#[test]
fn bulk_inner_length_must_agree_with_the_declared_length() {
    let bytes = [7u8; 64];
    for inner in [0u32, 63, 65, 1 << 20, u32::MAX] {
        // Ship: data id, inner length, bytes.
        let mut ship = 1u32.to_le_bytes().to_vec();
        ship.extend_from_slice(&inner.to_le_bytes());
        ship.extend_from_slice(&bytes);
        assert_eq!(
            decode_frame(&seal(3, &ship)),
            Err(ProtoError::BadPayload),
            "Ship, inner {inner}"
        );

        // ExecOk: kernel time, one write of (id, inner length, bytes).
        let mut ok = 5u64.to_le_bytes().to_vec();
        ok.extend_from_slice(&1u32.to_le_bytes());
        ok.extend_from_slice(&2u32.to_le_bytes());
        ok.extend_from_slice(&inner.to_le_bytes());
        ok.extend_from_slice(&bytes);
        assert_eq!(
            decode_frame(&seal(6, &ok)),
            Err(ProtoError::BadPayload),
            "ExecOk, inner {inner}"
        );
    }
    // The agreeing length decodes.
    let mut ship = 1u32.to_le_bytes().to_vec();
    ship.extend_from_slice(&64u32.to_le_bytes());
    ship.extend_from_slice(&bytes);
    let (frame, _, _) = decode_frame(&seal(3, &ship)).unwrap();
    assert_eq!(frame, Frame::Ship { data: 1, bytes: buf(&bytes) });
}

#[test]
fn a_checksum_error_outranks_a_structural_one() {
    // An inner length overrunning the payload AND a bad checksum: the
    // checksum speaks first, as when the whole payload was checked
    // before parsing.
    let mut ship = 1u32.to_le_bytes().to_vec();
    ship.extend_from_slice(&1000u32.to_le_bytes());
    ship.extend_from_slice(&[0u8; 8]);
    let mut wire = seal(3, &ship);
    let n = wire.len();
    wire[n - 1] ^= 0xFF;
    assert_eq!(decode_frame(&wire), Err(ProtoError::BadChecksum));
}
