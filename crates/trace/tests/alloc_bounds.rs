//! Allocation bounds of the trace-file readers on hostile input.
//!
//! A trace file declares its block count, and each block its record
//! count, before the data they describe. The readers take those counts
//! as capacity hints, so a file that lies about them must not make a
//! reader reserve more than the bytes that follow could encode. A
//! counting global allocator records the largest single request made on
//! the test's own thread while a reader runs.
//!
//! This file holds the workspace's only `unsafe` code: the `GlobalAlloc`
//! impl, which forwards every call to [`System`] unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use charisma_trace::codec::{encode_header, DecodeError};
use charisma_trace::file::{read_trace, TraceFileError, TraceStream};
use charisma_trace::TraceHeader;

thread_local! {
    /// The largest allocation or reallocation size requested on this
    /// thread since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    LARGEST.with(|largest| largest.set(largest.get().max(size)));
}

/// [`System`], recording each request's size on the calling thread.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; `note` neither allocates nor
// touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The largest single allocation `f` requests on this thread, with its
/// result.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (LARGEST.with(Cell::get), out)
}

/// Most bytes any one allocation may take while reading a `len`-byte
/// file: a small multiple of the input, plus room for one 4 KB node
/// buffer's worth of decoded records.
fn bound(len: usize) -> usize {
    4 * len + 16 * 1024
}

/// A valid 32-byte header, then a block count of `u64::MAX`, then one
/// 22-byte block header that claims `u32::MAX` records and ends the file.
fn lying_trace() -> Vec<u8> {
    let mut file = Vec::new();
    encode_header(
        &TraceHeader {
            version: TraceHeader::VERSION,
            compute_nodes: 128,
            io_nodes: 10,
            block_bytes: 4096,
            seed: 4994,
        },
        &mut file,
    );
    file.extend_from_slice(&u64::MAX.to_le_bytes());
    file.extend_from_slice(&7u16.to_le_bytes()); // node
    file.extend_from_slice(&1u64.to_le_bytes()); // sent, node clock
    file.extend_from_slice(&2u64.to_le_bytes()); // received, collector clock
    file.extend_from_slice(&u32::MAX.to_le_bytes());
    file
}

#[test]
fn the_lying_trace_is_sixty_two_bytes() {
    assert_eq!(lying_trace().len(), 62);
}

#[test]
fn read_trace_reserves_no_more_than_the_input_can_hold() {
    let file = lying_trace();
    let (largest, result) = largest_allocation(|| read_trace(file.as_slice()));
    assert!(
        matches!(result, Err(TraceFileError::Decode(DecodeError::Truncated))),
        "{result:?}"
    );
    assert!(
        largest <= bound(file.len()),
        "largest allocation {largest} bytes for a {}-byte file",
        file.len()
    );
}

#[test]
fn trace_stream_reserves_at_most_one_node_buffer_of_records() {
    let file = lying_trace();
    let (largest, result) = largest_allocation(|| {
        let mut stream = TraceStream::open(file.as_slice())?;
        stream.next_block()
    });
    assert!(
        matches!(result, Err(TraceFileError::Decode(DecodeError::Truncated))),
        "{result:?}"
    );
    assert!(
        largest <= bound(file.len()),
        "largest allocation {largest} bytes for a {}-byte file",
        file.len()
    );
}
