//! The bounded two-lane submission queue feeding the dispatcher.
//!
//! Admission control happens at push time: a full queue rejects with a
//! structured [`RejectReason::QueueFull`] instead of blocking, and a closed
//! queue rejects with [`RejectReason::ShuttingDown`]. Popping blocks (the
//! dispatcher has nothing else to do) and returns `None` only when the queue
//! is closed *and* drained — which is what makes shutdown graceful: every
//! accepted request is handed to the dispatcher before it exits.
//!
//! Watermark crossings are edge-triggered: the depth rising to
//! `high_watermark` bumps one counter, and only after that does the depth
//! falling to `low_watermark` bump the other — a hysteresis pair an operator
//! can alarm on without per-sample noise.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use chambolle_core::CancelToken;
use chambolle_telemetry::trace::TraceContext;
use chambolle_telemetry::{names, Telemetry};

use crate::request::{Completed, Priority, RejectReason, ServiceError, Workload};

/// One accepted request waiting in (or leaving) the queue.
pub(crate) struct Pending {
    /// Service-assigned id (diagnostics and test assertions only).
    #[cfg_attr(not(test), allow(dead_code))]
    pub id: u64,
    pub workload: Workload,
    pub token: CancelToken,
    pub submitted_at: Instant,
    pub responder: mpsc::Sender<Result<Completed, ServiceError>>,
    /// Lane the request was admitted on (windowed metrics label it).
    pub priority: Priority,
    /// Propagated trace context (NONE when tracing is off).
    pub trace: TraceContext,
}

struct Lanes {
    interactive: VecDeque<Pending>,
    batch: VecDeque<Pending>,
    closed: bool,
    /// Hysteresis state of the watermark pair.
    above_high: bool,
}

impl Lanes {
    fn depth(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }
}

/// Bounded, two-lane, condvar-backed submission queue.
pub(crate) struct SubmitQueue {
    lanes: Mutex<Lanes>,
    ready: Condvar,
    capacity: usize,
    high_watermark: usize,
    low_watermark: usize,
    telemetry: Telemetry,
}

impl SubmitQueue {
    pub fn new(
        capacity: usize,
        high_watermark: usize,
        low_watermark: usize,
        telemetry: Telemetry,
    ) -> Self {
        SubmitQueue {
            lanes: Mutex::new(Lanes {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                closed: false,
                above_high: false,
            }),
            ready: Condvar::new(),
            capacity,
            high_watermark,
            low_watermark,
            telemetry,
        }
    }

    /// Admission: non-blocking push. Returns the depth after the push.
    ///
    /// # Errors
    ///
    /// [`RejectReason::ShuttingDown`] once [`SubmitQueue::close`] has run;
    /// [`RejectReason::QueueFull`] when at capacity.
    pub fn try_push(&self, pending: Pending, priority: Priority) -> Result<usize, RejectReason> {
        let mut lanes = self.lanes.lock().expect("queue lock poisoned");
        if lanes.closed {
            return Err(RejectReason::ShuttingDown);
        }
        let depth = lanes.depth();
        if depth >= self.capacity {
            return Err(RejectReason::QueueFull {
                depth,
                capacity: self.capacity,
            });
        }
        match priority {
            Priority::Interactive => lanes.interactive.push_back(pending),
            Priority::Batch => lanes.batch.push_back(pending),
        }
        let depth = depth + 1;
        if !lanes.above_high && depth >= self.high_watermark {
            lanes.above_high = true;
            self.telemetry.counter_add(names::SERVICE_HIGH_WATERMARK, 1);
        }
        self.telemetry
            .gauge_set(names::SERVICE_QUEUE_DEPTH, depth as f64);
        drop(lanes);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocks until work is available, then returns the head request plus up
    /// to `max_batch - 1` followers from the same lane, in submission order
    /// and whatever their kind, shape or parameters.
    ///
    /// Returns `None` when the queue is closed and fully drained.
    pub fn pop_batch(&self, max_batch: usize) -> Option<Vec<Pending>> {
        let mut lanes = self.lanes.lock().expect("queue lock poisoned");
        loop {
            if lanes.depth() > 0 {
                break;
            }
            if lanes.closed {
                return None;
            }
            lanes = self.ready.wait(lanes).expect("queue lock poisoned");
        }
        // Interactive lane strictly first.
        let lane = if lanes.interactive.is_empty() {
            &mut lanes.batch
        } else {
            &mut lanes.interactive
        };
        let batch: Vec<Pending> = lane.drain(..lane.len().min(max_batch.max(1))).collect();
        let depth = lanes.depth();
        if lanes.above_high && depth <= self.low_watermark {
            lanes.above_high = false;
            self.telemetry.counter_add(names::SERVICE_LOW_WATERMARK, 1);
        }
        self.telemetry
            .gauge_set(names::SERVICE_QUEUE_DEPTH, depth as f64);
        Some(batch)
    }

    /// Stops admission; queued work keeps draining through
    /// [`SubmitQueue::pop_batch`].
    pub fn close(&self) {
        let mut lanes = self.lanes.lock().expect("queue lock poisoned");
        lanes.closed = true;
        drop(lanes);
        self.ready.notify_all();
    }

    /// Current depth across both lanes.
    pub fn depth(&self) -> usize {
        self.lanes.lock().expect("queue lock poisoned").depth()
    }

    /// Whether the queue is inside a congestion episode: depth has risen to
    /// the high watermark and has not yet fallen back to the low watermark.
    /// This is the hysteresis signal brownout degradation keys off.
    pub fn is_congested(&self) -> bool {
        self.lanes.lock().expect("queue lock poisoned").above_high
    }

    /// Whether [`SubmitQueue::close`] has run (admission stopped).
    pub fn is_closed(&self) -> bool {
        self.lanes.lock().expect("queue lock poisoned").closed
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current per-lane depths: `(interactive, batch)`.
    pub fn lane_depths(&self) -> (usize, usize) {
        let lanes = self.lanes.lock().expect("queue lock poisoned");
        (lanes.interactive.len(), lanes.batch.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chambolle_core::ChambolleParams;
    use chambolle_imaging::Grid;

    fn pending(id: u64, iters: u32) -> Pending {
        let workload = Workload::Denoise {
            input: Grid::new(4, 4, 0.0f32),
            params: ChambolleParams::with_iterations(iters),
        };
        let (tx, _rx) = mpsc::channel();
        // Keep the receiver alive long enough for tests that don't care by
        // leaking the sender side only; tests that need responses build
        // their own channel.
        std::mem::forget(_rx);
        Pending {
            id,
            workload,
            token: CancelToken::new(),
            submitted_at: Instant::now(),
            responder: tx,
            priority: Priority::Batch,
            trace: TraceContext::NONE,
        }
    }

    #[test]
    fn full_queue_rejects_with_structured_reason() {
        let q = SubmitQueue::new(2, 2, 0, Telemetry::disabled());
        q.try_push(pending(1, 5), Priority::Batch).unwrap();
        q.try_push(pending(2, 5), Priority::Batch).unwrap();
        let err = q.try_push(pending(3, 5), Priority::Batch).unwrap_err();
        assert_eq!(
            err,
            RejectReason::QueueFull {
                depth: 2,
                capacity: 2
            }
        );
    }

    #[test]
    fn closed_queue_rejects_and_drains() {
        let q = SubmitQueue::new(8, 8, 0, Telemetry::disabled());
        q.try_push(pending(1, 5), Priority::Batch).unwrap();
        q.close();
        assert_eq!(
            q.try_push(pending(2, 5), Priority::Batch).unwrap_err(),
            RejectReason::ShuttingDown
        );
        // The queued request still drains...
        let batch = q.pop_batch(4).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, 1);
        // ...and only then does pop report exhaustion.
        assert!(q.pop_batch(4).is_none());
    }

    #[test]
    fn interactive_lane_preempts_batch_lane() {
        let q = SubmitQueue::new(8, 8, 0, Telemetry::disabled());
        q.try_push(pending(1, 5), Priority::Batch).unwrap();
        q.try_push(pending(2, 5), Priority::Interactive).unwrap();
        q.try_push(pending(3, 5), Priority::Batch).unwrap();
        let first = q.pop_batch(1).unwrap();
        assert_eq!(first[0].id, 2, "interactive must be dequeued first");
        let second = q.pop_batch(1).unwrap();
        assert_eq!(second[0].id, 1);
    }

    #[test]
    fn batch_takes_the_lane_head_and_its_followers_in_order() {
        let q = SubmitQueue::new(8, 8, 0, Telemetry::disabled());
        q.try_push(pending(1, 5), Priority::Batch).unwrap();
        q.try_push(pending(2, 5), Priority::Interactive).unwrap();
        q.try_push(pending(3, 9), Priority::Batch).unwrap(); // other params
        q.try_push(pending(4, 5), Priority::Batch).unwrap();
        let first = q.pop_batch(8).unwrap();
        assert_eq!(
            first.iter().map(|p| p.id).collect::<Vec<_>>(),
            vec![2],
            "a batch never crosses lanes"
        );
        let second = q.pop_batch(8).unwrap();
        assert_eq!(
            second.iter().map(|p| p.id).collect::<Vec<_>>(),
            vec![1, 3, 4],
            "followers join whatever their parameters, in order"
        );
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn max_batch_caps_coalescing() {
        let q = SubmitQueue::new(8, 8, 0, Telemetry::disabled());
        for id in 0..5 {
            q.try_push(pending(id, 5), Priority::Batch).unwrap();
        }
        let batch = q.pop_batch(3).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn lane_depths_report_per_lane_occupancy() {
        let q = SubmitQueue::new(8, 8, 0, Telemetry::disabled());
        q.try_push(pending(1, 5), Priority::Interactive).unwrap();
        q.try_push(pending(2, 5), Priority::Batch).unwrap();
        q.try_push(pending(3, 5), Priority::Batch).unwrap();
        assert_eq!(q.lane_depths(), (1, 2));
        q.pop_batch(1).unwrap();
        assert_eq!(q.lane_depths(), (0, 2));
    }

    #[test]
    fn watermarks_are_edge_triggered() {
        let tele = Telemetry::null();
        let q = SubmitQueue::new(8, 3, 1, tele.clone());
        for id in 0..4 {
            q.try_push(pending(id, 5), Priority::Batch).unwrap();
        }
        // Depth rose 1,2,3,4: exactly one high-watermark edge at 3.
        assert_eq!(
            tele.snapshot().counter(names::SERVICE_HIGH_WATERMARK),
            Some(1)
        );
        q.pop_batch(1).unwrap();
        q.pop_batch(1).unwrap();
        q.pop_batch(1).unwrap(); // depth 1 = low watermark -> falling edge
        let snap = tele.snapshot();
        assert_eq!(snap.counter(names::SERVICE_LOW_WATERMARK), Some(1));
        assert_eq!(snap.gauge(names::SERVICE_QUEUE_DEPTH), Some(1.0));
    }
}
