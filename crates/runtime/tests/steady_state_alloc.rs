//! Allocation pin for the zero-copy receive hot path.
//!
//! The reactor's steady state processes each readiness event with a
//! reusable [`FrameAssembler`] and iterates coalesced frames in place
//! with [`frame_messages`] / [`split_shard_ref`]. This binary installs
//! a counting global allocator and asserts that, once the read buffer
//! has reached its high-water capacity, that whole per-message path
//! performs **zero** heap allocations — the property the e12/e13
//! throughput gains rest on. (The per-*flush* `Bytes` handed to the
//! inbox is the one deliberate allocation left; it is outside the
//! per-message loop and not measured here.)
//!
//! Lives in its own integration-test binary because a global allocator
//! is process-wide: the counter must not see other tests' traffic, and
//! the runtime lib itself is `#![forbid(unsafe_code)]` — the allocator
//! shim below is the one place this crate's tests need `unsafe`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use twostep_runtime::codec::{
    frame_messages, pack_frame, split_shard_ref, tag_shard, FrameAssembler,
};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// One test function so nothing else runs concurrently in this process
/// while the counter is being read.
#[test]
fn steady_state_receive_path_allocates_nothing_per_message() {
    // A realistic flush: 32 shard-tagged messages coalesced into one
    // FRAME_MAGIC frame, shipped as one `[len][payload]` wire frame.
    let msgs: Vec<bytes::Bytes> = (0..32u32)
        .map(|i| tag_shard(i % 8, &bytes::Bytes::from(vec![i as u8; 40])))
        .collect();
    let frame = pack_frame(&msgs);
    let mut wire = Vec::new();
    wire.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    wire.extend_from_slice(frame.as_slice());

    let mut asm = FrameAssembler::new();
    let mut sink = 0u64;

    let round = |asm: &mut FrameAssembler, sink: &mut u64| {
        // Feed the wire in fixed-size chunks, as consecutive readiness
        // events would, and walk every message of every frame.
        for piece in wire.chunks(1024) {
            let slot = asm.read_slot(piece.len());
            slot[..piece.len()].copy_from_slice(piece);
            asm.commit(piece.len());
            while let Some(frame) = asm.next_frame().unwrap() {
                for m in frame_messages(frame).expect("frame parses") {
                    let (shard, inner) = split_shard_ref(m).expect("envelope parses");
                    *sink += shard as u64 + inner.len() as u64;
                }
            }
        }
    };

    // Warm-up: lets the assembler grow to its high-water capacity.
    round(&mut asm, &mut sink);
    let high_water = asm.capacity();

    // Steady state: the same traffic shape must be allocation-free.
    let during = allocations(|| {
        for _ in 0..100 {
            round(&mut asm, &mut sink);
        }
    });
    assert_eq!(
        during, 0,
        "receive hot path allocated {during} times across 100 steady-state rounds"
    );
    assert_eq!(
        asm.capacity(),
        high_water,
        "read buffer must stop growing at its high-water mark"
    );
    assert!(
        sink > 0,
        "sink must observe every message (not optimized out)"
    );
}
