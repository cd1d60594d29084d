//! Event-queue properties: `EventQueue` must pop exactly what a
//! brute-force model of its `(time, seq)` order pops.
//!
//! The DES engine's determinism contract is a single `(time, seq)`
//! total order over events: earliest time first, FIFO among equal
//! times. The model states that contract directly — a `Vec` of
//! `(time bits, push index)` pairs whose minimum is found by a linear
//! scan — and these properties drive the queue and the model through
//! the same randomized schedule: quantized times to force exact ties,
//! 1e9-scaled times to land events far past everything else, and
//! interleaved `pop` and `peek_time` calls. Every answer must match
//! the model's, times compared bit for bit.

use proptest::prelude::*;
use simcore::queue::EventQueue;
use simcore::time::SimTime;

/// One step of a randomized schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push at this many seconds (payload is the push index).
    Push(f64),
    /// Pop once from the queue and the model and compare.
    Pop,
}

/// Brute-force reference: pending `(time bits, push index)` pairs.
/// Times are non-negative, so bit order is time order, and push
/// indices are unique, so the minimum pair is the `(time, seq)`
/// minimum.
#[derive(Debug, Default)]
struct Model(Vec<(u64, u64)>);

impl Model {
    fn min(&self) -> Option<(usize, (u64, u64))> {
        self.0
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, key)| key)
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let (idx, key) = self.min()?;
        self.0.remove(idx);
        Some(key)
    }

    fn peek_bits(&self) -> Option<u64> {
        self.min().map(|(_, (bits, _))| bits)
    }
}

/// A popped queue entry as the model keys it.
fn key(popped: Option<(SimTime, u64)>) -> Option<(u64, u64)> {
    popped.map(|(t, id)| (t.as_secs().to_bits(), id))
}

/// Mixes three time regimes: quantized times collide exactly (FIFO
/// ties must hold), continuous times scatter, and far-future times
/// land orders of magnitude past the rest. Weights (out of 10): 3
/// quantized pushes, 2 continuous, 1 far-future, 4 pops.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..10, 0u32..200, 0.0f64..100.0).prop_map(|(sel, q, secs)| match sel {
        0..=2 => Op::Push(f64::from(q) * 0.25),
        3 | 4 => Op::Push(secs),
        5 => Op::Push(secs * 1.0e9),
        _ => Op::Pop,
    })
}

/// Runs one schedule against the queue and the model, comparing every
/// pop and peek, then the final drain.
fn check_schedule(ops: &[Op]) {
    let mut queue = EventQueue::new();
    let mut model = Model::default();
    let mut id = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Push(secs) => {
                let time = SimTime::from_secs(secs);
                queue.push(time, id);
                model.0.push((time.as_secs().to_bits(), id));
                id += 1;
            }
            Op::Pop => {
                assert_eq!(key(queue.pop()), model.pop(), "pop diverged at step {step}");
            }
        }
        assert_eq!(
            queue.peek_time().map(|t| t.as_secs().to_bits()),
            model.peek_bits(),
            "peek_time diverged at step {step}"
        );
    }
    while let Some(expected) = model.pop() {
        assert_eq!(key(queue.pop()), Some(expected), "drain diverged");
    }
    assert!(
        queue.pop().is_none() && queue.peek_time().is_none(),
        "queue kept events the model drained"
    );
}

proptest! {
    /// Randomized push/pop interleavings, ties and far-future events
    /// included: every pop and peek matches the model.
    #[test]
    fn pops_match_the_model(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_schedule(&ops);
    }

    /// All-ties schedules: every event at one instant, so the order
    /// is pure FIFO by push index.
    #[test]
    fn exact_ties_stay_fifo(at in 0.0f64..1.0e6, n in 1usize..300) {
        let ops: Vec<Op> = std::iter::repeat_n(Op::Push(at), n)
            .chain(std::iter::repeat_n(Op::Pop, n))
            .collect();
        check_schedule(&ops);
    }
}

/// A directed case no random schedule reliably hits: a dense
/// near-term cluster plus one event far past it, drained past that
/// event, then events pushed *behind* the last popped time.
#[test]
fn far_future_then_backfill() {
    let mut ops: Vec<Op> = (0..64).map(|i| Op::Push(f64::from(i) * 0.125)).collect();
    ops.push(Op::Push(3.0e12));
    ops.extend(std::iter::repeat_n(Op::Pop, 65));
    ops.extend((0..64).map(|i| Op::Push(f64::from(i) * 0.125)));
    ops.extend(std::iter::repeat_n(Op::Pop, 2));
    check_schedule(&ops);
}
