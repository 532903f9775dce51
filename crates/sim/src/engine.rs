//! The simulation run loop.
//!
//! A [`Model`] owns all simulated state and handles one event at a time; the
//! [`Simulation`] drives the future-event list until a horizon, an event
//! budget, or queue exhaustion. Keeping the loop this small pushes all domain
//! logic into the model crates, where it is unit-testable without an engine.

use crate::event::EventQueue;
use crate::time::Time;

/// A discrete-event model: all mutable simulation state plus an event handler.
pub trait Model {
    /// The event payload type dispatched through the queue. The queue
    /// stores it inline in its keys, so it is `Copy` (keep it small).
    type Event: Copy;

    /// Handle one event at its dispatch time. The model schedules follow-up
    /// events on `queue`; `queue.now()` equals `at` for the duration of the
    /// call.
    fn handle(&mut self, at: Time, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Why a [`Simulation::run_until`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The horizon was reached; events at or beyond it remain queued.
    ReachedHorizon,
    /// No events remain before the horizon.
    QueueExhausted,
    /// The event budget was consumed before the horizon.
    BudgetExhausted,
}

/// A model plus its future-event list.
///
/// ```
/// use ceio_sim::{Duration, EventQueue, Model, Simulation, Time};
///
/// struct Counter(u32);
/// impl Model for Counter {
///     type Event = ();
///     fn handle(&mut self, _at: Time, _ev: (), q: &mut EventQueue<()>) {
///         self.0 += 1;
///         if self.0 < 3 {
///             q.schedule_in(Duration::nanos(10), ());
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Counter(0));
/// sim.queue.schedule_at(Time::ZERO, ());
/// sim.run_until(Time::MAX, u64::MAX);
/// assert_eq!(sim.model.0, 3);
/// assert_eq!(sim.now(), Time(20));
/// ```
pub struct Simulation<M: Model> {
    /// The domain model (public: experiments read stats out of it directly).
    pub model: M,
    /// The future-event list (public: scenario drivers pre-seed events).
    pub queue: EventQueue<M::Event>,
    events_processed: u64,
}

impl<M: Model> Simulation<M> {
    /// Wrap a model with an empty event queue at time zero.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            events_processed: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Total events dispatched so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Dispatch a single event, if one is pending strictly before `horizon`.
    /// Returns `false` when the queue is empty or the next event is at or
    /// beyond the horizon (the event stays queued and the clock holds).
    ///
    /// Manual steppers pass the same horizon they would give
    /// [`Simulation::run_until`], so the two paths cannot disagree on
    /// whether a boundary event runs; pass [`Time::MAX`] for "next event,
    /// whenever it is".
    pub fn step(&mut self, horizon: Time) -> bool {
        match self.queue.pop_before(horizon) {
            Some(entry) => {
                self.events_processed += 1;
                self.model.handle(entry.at, entry.event, &mut self.queue);
                true
            }
            None => false,
        }
    }

    /// Run until simulated time reaches `horizon` (exclusive), the queue
    /// drains, or `max_events` more events have been dispatched.
    ///
    /// `max_events` is a runaway guard for experiment harnesses; pass
    /// `u64::MAX` for "no budget".
    ///
    /// The hot loop costs a single queue pop per event
    /// ([`EventQueue::pop_before`]) — there is no separate peek-then-pop.
    pub fn run_until(&mut self, horizon: Time, max_events: u64) -> StepOutcome {
        let mut budget = max_events;
        loop {
            if budget == 0 {
                // Out of budget: classify what stopped us without consuming
                // anything, matching the pre-budget checks of the hot loop.
                return match self.queue.peek_time() {
                    None => StepOutcome::QueueExhausted,
                    Some(t) if t >= horizon => StepOutcome::ReachedHorizon,
                    Some(_) => StepOutcome::BudgetExhausted,
                };
            }
            if !self.step(horizon) {
                return if self.queue.is_empty() {
                    StepOutcome::QueueExhausted
                } else {
                    StepOutcome::ReachedHorizon
                };
            }
            budget -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    /// A model that re-schedules itself `remaining` times at a fixed period,
    /// recording each dispatch.
    struct Ticker {
        period: Duration,
        remaining: u32,
        fired_at: Vec<Time>,
    }

    impl Model for Ticker {
        type Event = ();
        fn handle(&mut self, at: Time, _: (), queue: &mut EventQueue<()>) {
            self.fired_at.push(at);
            if self.remaining > 0 {
                self.remaining -= 1;
                queue.schedule_in(self.period, ());
            }
        }
    }

    fn ticker_sim(remaining: u32) -> Simulation<Ticker> {
        let mut sim = Simulation::new(Ticker {
            period: Duration::nanos(10),
            remaining,
            fired_at: Vec::new(),
        });
        sim.queue.schedule_at(Time(0), ());
        sim
    }

    #[test]
    fn run_until_queue_exhausted() {
        let mut sim = ticker_sim(4);
        let outcome = sim.run_until(Time::MAX, u64::MAX);
        assert_eq!(outcome, StepOutcome::QueueExhausted);
        assert_eq!(
            sim.model.fired_at,
            vec![Time(0), Time(10), Time(20), Time(30), Time(40)]
        );
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn run_until_horizon_stops_before_later_events() {
        let mut sim = ticker_sim(1000);
        let outcome = sim.run_until(Time(35), u64::MAX);
        assert_eq!(outcome, StepOutcome::ReachedHorizon);
        // Events at 0,10,20,30 dispatched; 40 remains queued.
        assert_eq!(sim.model.fired_at.len(), 4);
        assert_eq!(sim.queue.peek_time(), Some(Time(40)));
    }

    #[test]
    fn run_until_budget_exhausted() {
        let mut sim = ticker_sim(1000);
        let outcome = sim.run_until(Time::MAX, 3);
        assert_eq!(outcome, StepOutcome::BudgetExhausted);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn step_returns_false_on_empty_queue() {
        let mut sim = ticker_sim(0);
        assert!(sim.step(Time::MAX));
        assert!(!sim.step(Time::MAX));
    }

    #[test]
    fn step_honors_horizon_like_run_until() {
        let mut stepped = ticker_sim(1000);
        let mut ran = ticker_sim(1000);
        while stepped.step(Time(35)) {}
        ran.run_until(Time(35), u64::MAX);
        // Both paths stop before the boundary event at t=40.
        assert_eq!(stepped.model.fired_at, ran.model.fired_at);
        assert_eq!(stepped.now(), ran.now());
        assert_eq!(stepped.queue.peek_time(), Some(Time(40)));
    }
}
