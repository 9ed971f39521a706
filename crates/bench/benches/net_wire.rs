//! Criterion bench for the versa-net data plane: the payload checksum
//! and one 512 KiB tile `Ship` (a 256x256 f64 tile) through the
//! streaming frame writer and reader, the per-crossing work a cluster
//! solve pays on each side of the wire.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use versa_mem::AlignedBuf;
use versa_net::protocol::{crc32, read_frame, write_frame, Frame};

const TILE: usize = 512 << 10;

fn tile() -> Arc<AlignedBuf> {
    let bytes: Vec<u8> =
        (0..TILE as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8).collect();
    Arc::new(AlignedBuf::from_bytes(&bytes))
}

fn bench_net_wire(c: &mut Criterion) {
    let tile = tile();
    let mut group = c.benchmark_group("net_wire");
    group.sample_size(20);

    group.bench_function("crc32/512KiB", |b| b.iter(|| crc32(black_box(tile.as_bytes()))));

    let ship = Frame::Ship { data: 7, bytes: Arc::clone(&tile) };
    let mut wire = Vec::with_capacity(TILE + 64);
    group.bench_function("write_frame/ship-512KiB", |b| {
        b.iter(|| {
            wire.clear();
            write_frame(&mut wire, black_box(&ship), 1).expect("in-memory write");
            wire.len()
        })
    });

    wire.clear();
    write_frame(&mut wire, &ship, 1).expect("in-memory write");
    group.bench_function("read_frame/ship-512KiB", |b| {
        b.iter(|| {
            let (frame, _) =
                read_frame(&mut black_box(&wire[..])).expect("valid").expect("one frame");
            assert_eq!(frame.type_byte(), 3);
            frame
        })
    });
    group.finish();
}

criterion_group!(benches, bench_net_wire);
criterion_main!(benches);
