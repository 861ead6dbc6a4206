//! Persistent parallel execution layer for the Chambolle workspace.
//!
//! The paper's whole point is throughput: many PEs chew on a frame
//! concurrently while an operand-reuse network keeps them fed. The software
//! mirror of that substrate is this crate: a [`ThreadPool`] whose workers are
//! spawned **once** and then parked between uses, so the hot loops (the dual
//! update, the sliding-window rounds, the TV-L1 pyramid stages) pay no
//! per-round thread churn — the same reason the hardware keeps its two
//! sliding windows resident instead of reconfiguring them per round.
//!
//! Three execution shapes cover every hot path in the workspace:
//!
//! - [`ThreadPool::broadcast`] — run one closure on every worker (the main
//!   thread participates as worker 0), with borrowed data and panic
//!   propagation; the building block for everything else;
//! - [`ThreadPool::parallel_for_rows`] / [`ThreadPool::parallel_chunks_mut`]
//!   — deterministic row partitions for image kernels (the partition depends
//!   only on the geometry, never on scheduling, so results are bit-identical
//!   across thread counts);
//! - [`ThreadPool::parallel_tiles`] — a work-stealing index queue for
//!   uneven work items (the sliding windows of `core::tiling`), where each
//!   worker drains its own contiguous range and then steals from the most
//!   loaded victim.
//!
//! Determinism is the contract throughout: the pool only decides *who*
//! computes a task, never *what* the task computes or where it writes, so
//! every consumer in this workspace stays bit-identical to its sequential
//! reference (pinned by `tests/tiled_exactness.rs` at the workspace root).
//!
//! The pool is observable through `chambolle_telemetry`: attach a handle
//! with [`ThreadPool::with_telemetry`] and every parallel call records its
//! task count (`par.tasks`), steal count (`par.steal_count`) and a per-stage
//! wall-time span; [`ThreadPool::stats`] exposes the same counters without
//! telemetry.
//!
//! # Examples
//!
//! ```
//! use chambolle_par::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let mut out = vec![0usize; 1000];
//! pool.parallel_chunks_mut("par.square", &mut out, 100, |chunk_index, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = (chunk_index * 100 + i) * (chunk_index * 100 + i);
//!     }
//! });
//! assert_eq!(out[31], 31 * 31);
//! assert!(pool.stats().tasks >= 10);
//! ```

#![warn(missing_docs)]

mod pool;
pub mod simd;
mod slice;

pub use pool::{PoolStats, ThreadPool};
pub use simd::KernelBackend;
pub use slice::UnsafeSharedSlice;
