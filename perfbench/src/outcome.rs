//! What one workload run hands back to `main`.

use crate::report::Metrics;
use crate::stats::{median, ms, Span};
use splendid_serve::StatsSnapshot;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Closed-loop clients (submitter threads or connections), and the
/// service's worker count: the host this benchmark was sized on has two
/// cores.
pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 2;

/// Set-up is repeated and its median reported, so one slow file-system
/// call or page-in does not decide `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// The p90 needs ten samples beyond it.
pub const MIN_REQUESTS: usize = 100;

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Extra report fields (sample counts, digests), already JSON-encoded.
    pub stamp: Vec<(String, String)>,
    /// Spans of the traced run (empty without `--trace 1`).
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn fail(&mut self, requests: u64, why: String) {
        self.failed += requests;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// Wall time of each set-up phase, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub inputs: f64,
    pub service: f64,
    pub warmup: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.inputs + self.service + self.warmup
    }
}

/// Medians over the repeated set-ups.
pub fn put_setup(m: &mut Metrics, all: &[SetupTimes], per_layer: bool) {
    let pick = |f: fn(&SetupTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    if per_layer {
        m.put("setup.inputs_s", pick(|s| s.inputs), "s");
        m.put("setup.service_s", pick(|s| s.service), "s");
        m.put("setup.warmup_s", pick(|s| s.warmup), "s");
    } else {
        m.put("setup_s", pick(SetupTimes::total), "s");
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds the scheduler spent in its timed pipeline stages.
pub fn stage_ms(s: &StatsSnapshot) -> f64 {
    ms(s.parse + s.detransform + s.naming + s.structure + s.emit + s.validate)
}

/// Call `call` on every item from one closed-loop thread per entry of
/// `clients`: each thread takes the next unclaimed index when its previous
/// call returns, with its own client state. Returns the client states and
/// the results in item order.
pub fn closed_loop<T, S, R>(
    items: &[T],
    clients: Vec<S>,
    call: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> (Vec<S>, Vec<R>)
where
    T: Sync,
    S: Send,
    R: Send,
{
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let clients = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let (next, slots, call) = (&next, &slots, &call);
                s.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let r = call(&mut client, i, item);
                        slots.lock().expect("no client panics holding the slots")[i] = Some(r);
                    }
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("clients return errors, not panics"))
            .collect()
    });
    let results = slots
        .into_inner()
        .expect("clients joined")
        .into_iter()
        .map(|r| r.expect("every item answered"))
        .collect();
    (clients, results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_answers_every_item_in_order() {
        let items: Vec<u64> = (0..100).collect();
        let (clients, results) = closed_loop(&items, vec![0u64; CLIENTS], |calls, i, x| {
            *calls += 1;
            (i as u64, x * 2)
        });
        assert_eq!(clients.iter().sum::<u64>(), 100);
        for (i, (j, y)) in results.into_iter().enumerate() {
            assert_eq!((j, y), (i as u64, 2 * i as u64));
        }
    }
}
