//! Decoder allocation bound: a frame whose collection counts are forged
//! (each count as large as the bytes left in the frame, followed by
//! garbage) must not make the decoder reserve more than the frame it
//! arrived in. Every allocation of the process is seen by a counting
//! global allocator, which is why this test has a binary of its own.

use castor_rpc::codec::ByteWriter;
use castor_rpc::frame::{read_response, FrameAccumulator, HEADER_BYTES};
use castor_rpc::{DEFAULT_MAX_FRAME_BYTES, PROTOCOL_V2};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Records the largest single allocation (or reallocation target) while
/// armed. The flags publish no other data, so relaxed loads suffice in
/// the allocator; arming and reading use `SeqCst` around the decode.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping in `note`
// only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Payload bytes of each forged frame (a quarter MiB).
const PAYLOAD: usize = 256 * 1024;
/// What the decoder may reserve beyond the frame itself.
const SLACK: usize = 64 * 1024;

/// A frame of `kind` whose payload is `prefix`, then a forged count
/// equal to the bytes left after it, then `0xFF` garbage up to
/// [`PAYLOAD`] bytes (an over-long varint wherever an element starts).
fn forged_frame(kind: u8, prefix: &[u8]) -> Vec<u8> {
    let mut count = ByteWriter::new();
    count.put_usize(PAYLOAD);
    let count_len = count.len();
    let mut payload = prefix.to_vec();
    let mut w = ByteWriter::new();
    w.put_usize(PAYLOAD - prefix.len() - count_len);
    assert_eq!(w.len(), count_len, "forged count keeps its varint width");
    payload.extend_from_slice(&w.into_bytes());
    payload.resize(PAYLOAD, 0xFF);

    let mut frame = Vec::with_capacity(4 + HEADER_BYTES + PAYLOAD);
    frame.extend_from_slice(&((HEADER_BYTES + PAYLOAD) as u32).to_le_bytes());
    frame.push(PROTOCOL_V2);
    frame.push(kind);
    frame.extend_from_slice(&7u64.to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Runs `decode` armed and returns the largest single allocation.
fn largest_allocation(decode: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    decode();
    ARMED.store(false, Ordering::SeqCst);
    LARGEST.load(Ordering::SeqCst)
}

fn decode_request(frame: &[u8]) {
    let mut frames = FrameAccumulator::new(DEFAULT_MAX_FRAME_BYTES);
    frames.feed(frame);
    let outcome = frames.next_request().expect("one whole frame was fed");
    assert!(outcome.is_err(), "a forged frame must not decode");
}

fn decode_response(frame: &[u8]) {
    let outcome = read_response(&mut &frame[..], DEFAULT_MAX_FRAME_BYTES);
    assert!(outcome.is_err(), "a forged frame must not decode");
}

#[test]
fn forged_collection_counts_reserve_no_more_than_the_frame() {
    // (what is forged, request or response, frame kind, payload prefix)
    let cases: [(&str, bool, u8, Vec<u8>); 5] = [
        // Coverage: the clause list's count.
        ("Vec<Clause>", true, 0x02, vec![]),
        // Coverage: no clauses, then the example list's count.
        ("Vec<Tuple>", true, 0x02, vec![0]),
        // Coverage: no clauses, one example, then that tuple's arity.
        ("Tuple", true, 0x02, vec![0, 1]),
        // Covered: one set, then that set's count.
        ("HashSet<Tuple>", false, 0x82, vec![1]),
        // Stream (seq 0, not last, covered chunk): the chunk's set count.
        ("Vec<HashSet<Tuple>>", false, 0x8a, vec![0, 0, 1]),
    ];
    for (what, is_request, kind, prefix) in cases {
        let frame = forged_frame(kind, &prefix);
        let largest = if is_request {
            largest_allocation(|| decode_request(&frame))
        } else {
            largest_allocation(|| decode_response(&frame))
        };
        assert!(
            largest <= frame.len() + SLACK,
            "a forged {what} count reserved {largest} bytes in one allocation \
             for a {}-byte frame",
            frame.len()
        );
    }
}
