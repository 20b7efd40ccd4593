//! Scoped worker pool for parameter sweeps.
//!
//! Each cell of a sweep is an independent, deterministic simulation, so the
//! sweep is embarrassingly parallel. Cells fan out over a fixed pool of
//! `std::thread::scope` threads pulling from a shared atomic cursor
//! (dynamic load balancing — simulation time varies wildly across parameter
//! cells), and results land in a pre-sized slot vector so output order
//! equals input order regardless of scheduling.
//!
//! Worker panics are caught per-cell and re-raised on the calling thread
//! with the failing input's index and the original panic payload — a sweep
//! failure names the cell that died instead of a bare "worker panicked".
//!
//! The simulation engine's per-node phases split their nodes into static
//! contiguous chunks instead ([`map_mut`], [`for_chunks_mut`]).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f` over every input, in parallel, preserving input order in the
/// output.
///
/// `threads = 0` selects the available parallelism; any request is clamped
/// to the number of inputs (spawning more workers than cells is pure
/// overhead). `f` must be `Sync` because multiple workers call it
/// concurrently; inputs are only read.
///
/// # Panics
/// If `f` panics on some input, the first such panic is re-raised here with
/// the input index and original message attached; remaining workers stop
/// picking up new cells.
pub fn run_sweep<I, O, F>(inputs: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    if inputs.is_empty() {
        return Vec::new();
    }
    let threads = resolve(threads).min(inputs.len());
    if threads <= 1 {
        return inputs.iter().map(&f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<O>>> = (0..inputs.len()).map(|_| Mutex::new(None)).collect();
    let failure: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= inputs.len() {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| f(&inputs[i]))) {
                    Ok(out) => *slots[i].lock().expect("slot lock") = Some(out),
                    Err(payload) => {
                        abort.store(true, Ordering::Relaxed);
                        let mut first = failure.lock().expect("failure lock");
                        if first.is_none() {
                            *first = Some((i, payload));
                        }
                        break;
                    }
                }
            });
        }
    });

    if let Some((i, payload)) = failure.into_inner().expect("failure lock") {
        match panic_message(payload.as_ref()) {
            Some(msg) => panic!("sweep worker panicked on input {i}: {msg}"),
            None => resume_unwind(payload),
        }
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("every slot filled")
        })
        .collect()
}

/// Run `f(i, &mut items[i])` over every element, in parallel, preserving
/// input order in the output — the mutable sibling of [`run_sweep`] used by
/// the simulation engine's per-node round phases.
///
/// Work is split into `threads` contiguous chunks (one scoped thread each):
/// per-node phase work is uniform enough that static partitioning wins over
/// cursor-based balancing, and contiguous chunks keep each worker streaming
/// through adjacent node state (the flat-arena layout's whole point).
/// `threads = 0` selects the available parallelism; `threads <= 1` or a
/// short input runs inline with no thread overhead.
///
/// # Panics
/// If `f` panics on some element, the first such panic is re-raised here
/// with the element index and original message attached.
pub fn map_mut<T, O, F>(items: &mut [T], threads: usize, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(usize, &mut T) -> O + Sync,
{
    let n = items.len();
    let threads = resolve(threads).min(n);
    if threads <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let failure: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);
    let mut out: Vec<Vec<O>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        let mut rest = items;
        let mut start = 0usize;
        for w in 0..threads {
            // Spread the remainder over the first chunks so sizes differ
            // by at most one.
            let size = (n - start) / (threads - w);
            let (chunk, tail) = rest.split_at_mut(size);
            rest = tail;
            let f = &f;
            let failure = &failure;
            handles.push(scope.spawn(move || {
                let mut res = Vec::with_capacity(chunk.len());
                for (j, t) in chunk.iter_mut().enumerate() {
                    match catch_unwind(AssertUnwindSafe(|| f(start + j, t))) {
                        Ok(o) => res.push(o),
                        Err(payload) => {
                            let mut first = failure.lock().expect("failure lock");
                            if first.is_none() {
                                *first = Some((start + j, payload));
                            }
                            break;
                        }
                    }
                }
                res
            }));
            start += size;
        }
        for h in handles {
            out.push(h.join().expect("worker panics are caught per-element"));
        }
    });

    if let Some((i, payload)) = failure.into_inner().expect("failure lock") {
        match panic_message(payload.as_ref()) {
            Some(msg) => panic!("map_mut worker panicked on element {i}: {msg}"),
            None => resume_unwind(payload),
        }
    }
    out.into_iter().flatten().collect()
}

/// Run `f(start, chunk, &mut workers[w])` over `items` split into
/// `workers.len()` contiguous chunks, where `start` is the index of the
/// chunk's first element — the engine's per-node round phases, whose
/// workers keep reusable scratch buffers from one round to the next.
///
/// Chunk sizes differ by at most one, as in [`map_mut`]. The last chunk
/// runs on the calling thread and every other one on its own scoped
/// thread, so one worker runs inline, spawning and allocating nothing.
///
/// # Panics
/// Panics if `workers` is empty. If `f` panics on some chunk, that panic
/// is re-raised here with its original payload once every chunk is done.
pub fn for_chunks_mut<T, W, F>(items: &mut [T], workers: &mut [W], f: F)
where
    T: Send,
    W: Send,
    F: Fn(usize, &mut [T], &mut W) + Sync,
{
    let (n, threads) = (items.len(), workers.len());
    let (last, spawned) = workers.split_last_mut().expect("at least one worker");
    if spawned.is_empty() {
        return f(0, items, last);
    }
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = items;
        let mut start = 0usize;
        let mut handles = Vec::with_capacity(spawned.len());
        for (w, worker) in spawned.iter_mut().enumerate() {
            let size = (n - start) / (threads - w);
            let (chunk, tail) = rest.split_at_mut(size);
            rest = tail;
            handles.push(scope.spawn(move || f(start, chunk, worker)));
            start += size;
        }
        let inline = catch_unwind(AssertUnwindSafe(|| f(start, rest, last)));
        let mut failure = None;
        for h in handles {
            if let Err(payload) = h.join() {
                failure.get_or_insert(payload);
            }
        }
        if let Some(payload) = failure.or(inline.err()) {
            resume_unwind(payload);
        }
    });
}

/// A requested thread count, with 0 meaning the available parallelism.
/// Only then is the machine asked: on Linux the answer reads cgroup files,
/// which costs tens of microseconds per call.
fn resolve(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(4, |p| p.get())
    } else {
        threads
    }
}

/// Extract the human-readable message from a panic payload, when it has one
/// (`panic!("…")` yields `&str` or `String`).
fn panic_message(payload: &(dyn Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    #[test]
    fn preserves_order() {
        let inputs: Vec<usize> = (0..100).collect();
        let out = run_sweep(&inputs, 8, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let inputs = vec![1, 2, 3];
        assert_eq!(run_sweep(&inputs, 1, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn zero_threads_uses_default() {
        let inputs: Vec<u32> = (0..16).collect();
        assert_eq!(run_sweep(&inputs, 0, |&x| x).len(), 16);
    }

    #[test]
    fn empty_input() {
        let inputs: Vec<u32> = vec![];
        assert!(run_sweep(&inputs, 4, |&x| x).is_empty());
    }

    #[test]
    fn every_input_processed_exactly_once() {
        let inputs: Vec<usize> = (0..57).collect();
        let counter = AtomicUsize::new(0);
        let out = run_sweep(&inputs, 5, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 57);
        assert_eq!(out.len(), 57);
    }

    #[test]
    fn thread_count_clamped_to_inputs() {
        let inputs: Vec<usize> = (0..3).collect();
        let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let out = run_sweep(&inputs, 1000, |&x| {
            ids.lock().unwrap().insert(std::thread::current().id());
            x
        });
        assert_eq!(out, inputs);
        assert!(
            ids.lock().unwrap().len() <= 3,
            "requested 1000 threads must clamp to the 3 inputs"
        );
    }

    #[test]
    fn worker_panic_carries_payload_and_index() {
        let inputs: Vec<usize> = (0..8).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_sweep(&inputs, 4, |&x| {
                if x == 5 {
                    panic!("boom at cell {x}");
                }
                x
            })
        }))
        .expect_err("sweep must propagate the worker panic");
        let msg = panic_message(err.as_ref()).expect("string payload");
        assert!(msg.contains("input 5"), "missing index: {msg}");
        assert!(msg.contains("boom at cell 5"), "missing payload: {msg}");
    }

    #[test]
    fn non_string_panic_payload_resumes_verbatim() {
        let inputs = vec![1u32, 2];
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_sweep(&inputs, 2, |&x| {
                if x == 2 {
                    std::panic::panic_any(x);
                }
                x
            })
        }))
        .expect_err("must propagate");
        assert_eq!(*err.downcast_ref::<u32>().expect("u32 payload"), 2);
    }

    #[test]
    fn map_mut_mutates_in_place_and_preserves_order() {
        let mut items: Vec<u64> = (0..101).collect();
        let out = map_mut(&mut items, 8, |i, x| {
            *x += 1;
            (i as u64) * 10
        });
        assert_eq!(items, (1..=101).collect::<Vec<u64>>());
        assert_eq!(out, (0..101).map(|i| i * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn map_mut_inline_paths() {
        let mut empty: Vec<u32> = vec![];
        assert!(map_mut(&mut empty, 4, |_, x| *x).is_empty());
        let mut one = vec![7u32];
        assert_eq!(map_mut(&mut one, 0, |i, x| (i, *x)), vec![(0, 7)]);
        let mut items = vec![1u32, 2, 3];
        assert_eq!(map_mut(&mut items, 1, |_, x| *x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn map_mut_panic_carries_payload_and_index() {
        let mut items: Vec<usize> = (0..32).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            map_mut(&mut items, 4, |i, _| {
                if i == 13 {
                    panic!("boom at element {i}");
                }
                i
            })
        }))
        .expect_err("map_mut must propagate the worker panic");
        let msg = panic_message(err.as_ref()).expect("string payload");
        assert!(msg.contains("element 13"), "missing index: {msg}");
        assert!(msg.contains("boom at element 13"), "missing payload: {msg}");
    }

    #[test]
    fn for_chunks_mut_covers_every_element_once_in_contiguous_chunks() {
        for workers in [1usize, 2, 3, 8] {
            let mut items: Vec<usize> = (0..21).collect();
            let mut seen: Vec<Vec<usize>> = vec![Vec::new(); workers];
            for_chunks_mut(&mut items, &mut seen, |start, chunk, seen| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    assert_eq!(*x, start + j, "start indexes the chunk");
                    seen.push(*x);
                    *x += 100;
                }
            });
            assert_eq!(items, (100..121).collect::<Vec<_>>());
            let sizes: Vec<usize> = seen.iter().map(Vec::len).collect();
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
            assert_eq!(seen.concat(), (0..21).collect::<Vec<_>>());
        }
    }

    #[test]
    fn for_chunks_mut_reraises_a_chunk_panic_verbatim() {
        let mut items: Vec<usize> = (0..32).collect();
        let mut workers = [(); 4];
        let err = catch_unwind(AssertUnwindSafe(|| {
            for_chunks_mut(&mut items, &mut workers, |start, _, _| {
                if start == 8 {
                    panic!("boom at chunk {start}");
                }
            })
        }))
        .expect_err("for_chunks_mut must propagate the worker panic");
        assert_eq!(panic_message(err.as_ref()), Some("boom at chunk 8"));
    }

    #[test]
    fn uneven_work_balances() {
        // Cells with very different costs still all complete, in order,
        // with the right values.
        let inputs: Vec<u64> = (0..24).collect();
        let out = run_sweep(&inputs, 4, |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        let expect: Vec<u64> = inputs
            .iter()
            .map(|&x| (0..x * 1000).fold(0u64, |a, i| a.wrapping_add(i)))
            .collect();
        assert_eq!(out, expect);
    }
}
