//! The serving phase of a workload: a warm-up, a reference-rate phase for
//! latency, a fixed rate ladder for the highest sustainable rate, and the
//! delta publisher that runs beside the reads in `serve-small`.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use atnn_serve::{ModelManager, ServeClient, StatsReport};

use crate::life::Oracle;
use crate::load::{run_phase, Mix, Outcome, Phase, Stall, WINDOW};
use crate::util::{median, quantile, Rng};

/// Offered rate of the latency phase, requests per second.
pub const REF_RPS: f64 = 5_000.0;
/// p99 limit a ladder rung must meet, microseconds.
const P99_LIMIT_US: f64 = 10_000.0;
/// The ladder's rates are `base · STEP^j`. From `j = 0` it moves `COARSE`
/// steps at a time, up while rungs pass or down while they fail, until one
/// rung passes and its neighbour fails (at most `MAX_COARSE` verdicts).
/// Then a staircase of `REFINE` single attempts starts `FIRST` steps above
/// the passing rung: up after a pass, down after a failure, by `FIRST`
/// steps at first, halved at each reversal down to `FINE`.
/// `max_rps` is the median goodput of the passing attempts in the
/// staircase's second half, by when it circles the knee. One verdict near
/// the knee passes or fails by chance; the median over several does not.
const STEP: f64 = 1.06;
const COARSE: f64 = 8.0;
const MAX_COARSE: usize = 5;
const REFINE: usize = 10;
const FIRST: f64 = 2.0;
const FINE: f64 = 0.5;
/// A rung is judged per window of this many seconds, and passes when at
/// least `PASS_SHARE` of its windows meet the p99 limit. A host stall
/// then fails a window or two, while a growing backlog fails them all.
const RUNG_WINDOW_S: f64 = 0.25;
const PASS_SHARE: f64 = 0.5;
/// A passing rung also answers this share of its offered rate correctly
/// within its window. (Passing rungs answered 97.6% or more; an attempt
/// that tipped into shedding and drained just in time answered 86%.)
const MIN_GOODPUT_SHARE: f64 = 0.95;
/// A rung is invalid, and cannot pass, when the generator itself fell
/// behind: half its sends left later than this after their schedule.
/// (Stalls of several milliseconds hit this class of shared two-CPU host
/// many times a second in its busy stretches, even at 1000 req/s; they
/// are latency, not a generator that cannot keep up.)
const LATE_LIMIT_US: f64 = 1_000.0;
/// Every ladder attempt withholds its sends for the length of the p99
/// limit, a quarter second in, then sends them at once. A rung passes only
/// if the serving plane recovers from that burst. Host stalls do the same
/// at random; without this, an attempt that no stall happened to hit
/// passed at rates where the plane cannot recover from one (`train`,
/// whose `TopKAll` requests make it bistable between about 8k and 13k
/// req/s).
const STALL: Stall =
    Stall { at: Duration::from_millis(250), len: Duration::from_micros(P99_LIMIT_US as u64) };
/// Delta publisher cadence in `serve-small`.
const PUBLISH_EVERY: Duration = Duration::from_millis(50);

/// Fixed per-workload serving parameters.
pub struct ServeSpec {
    pub mix: Mix,
    /// The ladder's first rate, well below the workload's capacity.
    pub ladder_base: f64,
    /// Delta publishes run beside the reads.
    pub publish_during: bool,
}

/// A ladder rung's verdict; its samples are dropped once judged, so the
/// benchmark's own memory does not grow with the rates it reaches.
pub struct Rung {
    pub rate: f64,
    pub goodput: f64,
    pub wrong: usize,
    pub pass: bool,
    /// Server `Stats` deltas over the rung.
    pub mean_batch_items: f64,
    pub shed: u64,
}

/// One delta publish as the publisher saw it.
pub struct PubSample {
    pub at: Instant,
    /// Call into `publish_delta` → a `Health` reply shows the new version.
    pub total_ms: f64,
    pub build_ms: f64,
    /// `publish_delta` wall time minus the delta build.
    pub swap_us: f64,
    /// `publish_delta` return → `Health` shows the new version.
    pub visible_us: f64,
    pub moved: usize,
}

pub struct Serving {
    pub reference: Phase,
    pub traced_reference: Option<Phase>,
    pub stats_after_ref: StatsReport,
    pub rungs: Vec<Rung>,
    pub max_rps: f64,
    pub publishes: Vec<PubSample>,
    pub ref_window: (Instant, Instant),
}

/// The strided 1% of the catalogue every delta publish re-embeds.
pub fn delta_ids(n: usize) -> Vec<u32> {
    let count = (n / 100).max(1);
    (0..n as u32).step_by((n / count).max(1)).take(count).collect()
}

/// Republishes the served model as a delta over `changed`: every row is
/// re-embedded by the same weights, so every score stays bit-identical
/// and the oracle holds across versions.
pub fn publish_once(
    manager: &ModelManager,
    control: &Mutex<ServeClient>,
    changed: &[u32],
    epoch: &AtomicU64,
) -> PubSample {
    let prev = manager.load();
    let version = prev.version + 1;
    let (model, index) = (Arc::clone(&prev.model), prev.index.clone());
    drop(prev);
    epoch.fetch_add(1, Ordering::AcqRel);
    let at = Instant::now();
    let report = manager.publish_delta(version, model, index, changed).expect("delta publish");
    let returned = Instant::now();
    epoch.fetch_add(1, Ordering::AcqRel);
    let mut c = control.lock().expect("control connection");
    while c.health().expect("health") < version {}
    let visible = Instant::now();
    let call_s = (returned - at).as_secs_f64();
    PubSample {
        at,
        total_ms: (visible - at).as_secs_f64() * 1e3,
        build_ms: report.build_seconds * 1e3,
        swap_us: (call_s - report.build_seconds) * 1e6,
        visible_us: (visible - returned).as_secs_f64() * 1e6,
        moved: report.moved_lists,
    }
}

/// The passing rung with the highest offered rate.
pub fn highest_pass(rungs: &[Rung]) -> Option<&Rung> {
    rungs.iter().filter(|r| r.pass).max_by(|a, b| a.rate.total_cmp(&b.rate))
}

fn stats(control: &Mutex<ServeClient>) -> StatsReport {
    control.lock().expect("control connection").stats().expect("stats")
}

fn batch_counters(s: &StatsReport) -> (u64, u64, u64) {
    (s.batches, s.batched_items, s.shards.iter().map(|x| x.shed).sum())
}

#[allow(clippy::too_many_arguments)]
pub fn run(
    spec: &ServeSpec,
    addr: SocketAddr,
    manager: &ModelManager,
    control: &Mutex<ServeClient>,
    oracle: &Oracle,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Serving {
    let mut rng = Rng::new(seed);
    let epoch = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let changed = delta_ids(oracle.cold.len());
    let rung_secs = 0.075 * seconds;
    std::thread::scope(|s| {
        let publisher = spec.publish_during.then(|| {
            s.spawn(|| {
                let mut samples = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(PUBLISH_EVERY);
                    samples.push(publish_once(manager, control, &changed, &epoch));
                }
                samples
            })
        });
        let run = |rate: f64, secs: f64, hold, window, rng: &mut Rng, traced: bool| {
            run_phase(addr, &spec.mix, rate, secs, hold, window, rng, oracle, &epoch, traced)
        };
        // The latency phases run below capacity and never overflow the
        // server's queue themselves (see `WINDOW`); the ladder has no
        // window, so its overload shows as sheds.
        let window = Some(WINDOW);
        run(REF_RPS, (0.05 * seconds).max(0.5), None, window, &mut rng, false);
        let ref_start = Instant::now();
        let reference = run(REF_RPS, 0.35 * seconds, None, window, &mut rng, false);
        let ref_window = (ref_start, Instant::now());
        let stats_after_ref = stats(control);
        let traced_reference =
            traced.then(|| run(REF_RPS, 0.35 * seconds, None, window, &mut rng, true));

        let attempt = |j: f64, rng: &mut Rng| {
            let before = batch_counters(&stats(control));
            let phase =
                run(spec.ladder_base * STEP.powf(j), rung_secs, Some(STALL), None, rng, false);
            let after = batch_counters(&stats(control));
            let late = phase.late();
            let valid = quantile(&late, 0.5) <= LATE_LIMIT_US;
            let backlog_limit = phase.rate * P99_LIMIT_US / 1e6 + 2.0;
            let windows = phase.window_p99_with_misses(RUNG_WINDOW_S);
            let met = windows.iter().filter(|&&p| p <= P99_LIMIT_US).count();
            let pass = valid
                && met as f64 >= PASS_SHARE * windows.len() as f64
                && (phase.backlog as f64) <= backlog_limit
                && phase.goodput() >= MIN_GOODPUT_SHARE * phase.rate;
            let batches = (after.0 - before.0).max(1);
            eprintln!(
                "  rung {:>8.1} req/s: sent {} ok {} shed {} error {} wrong {} lost {} | goodput {:.1}/s | p50 {:.0} us p99* {:.0} us | windows within limit {met}/{} | late p90 {:.0} p99 {:.0} max {:.0} us | backlog {} | {}{}",
                phase.rate,
                phase.samples.len(),
                phase.count(Outcome::Ok),
                phase.count(Outcome::Shed),
                phase.count(Outcome::Error),
                phase.count(Outcome::Wrong),
                phase.count(Outcome::Lost),
                phase.goodput(),
                quantile(&phase.latencies(), 0.5),
                phase.p99_with_misses(),
                windows.len(),
                quantile(&late, 0.9),
                quantile(&late, 0.99),
                late.last().copied().unwrap_or(0.0),
                phase.backlog,
                if pass { "pass" } else { "FAIL" },
                if valid { "" } else { " (generator fell behind: invalid)" },
            );
            Rung {
                rate: phase.rate,
                goodput: phase.goodput(),
                wrong: phase.count(Outcome::Wrong),
                pass,
                mean_batch_items: (after.1 - before.1) as f64 / batches as f64,
                shed: after.2 - before.2,
            }
        };
        // Host stalls only ever make a rung look worse, so a failed coarse
        // rung gets one more attempt; a rate the program cannot sustain
        // fails both.
        let rung = |j: f64, rng: &mut Rng| {
            let first = attempt(j, rng);
            if first.pass {
                return first;
            }
            let second = attempt(j, rng);
            Rung { wrong: first.wrong + second.wrong, shed: first.shed + second.shed, ..second }
        };
        let mut rungs = vec![rung(0.0, &mut rng)];
        let dir = if rungs[0].pass { COARSE } else { -COARSE };
        let (mut pass_j, mut fail_j) =
            if rungs[0].pass { (Some(0.0), None) } else { (None, Some(0.0)) };
        let mut j = 0.0;
        while (pass_j.is_none() || fail_j.is_none()) && rungs.len() < MAX_COARSE {
            j += dir;
            rungs.push(rung(j, &mut rng));
            if rungs[rungs.len() - 1].pass {
                pass_j = Some(j);
            } else {
                fail_j = Some(j);
            }
        }
        let mut settled = Vec::new();
        if let (Some(lo), Some(_)) = (pass_j, fail_j) {
            let (mut j, mut step) = (lo + FIRST, FIRST);
            let mut last = None;
            for i in 0..REFINE {
                let r = attempt(j, &mut rng);
                if last.is_some_and(|p| p != r.pass) {
                    step = (step / 2.0).max(FINE);
                }
                if r.pass && i >= REFINE / 2 {
                    settled.push(r.goodput);
                }
                j += if r.pass { step } else { -step };
                last = Some(r.pass);
                rungs.push(r);
            }
        }
        let max_rps = if !settled.is_empty() {
            median(&settled)
        } else if let Some(r) = highest_pass(&rungs) {
            // The staircase's second half never passed, or the coarse
            // search found no failing rung: the best passing attempt.
            r.goodput
        } else {
            // The lowest rate tried was already beyond capacity; what
            // the server answered inside that rung's window is the
            // best bound the ladder has.
            let lowest = rungs.iter().min_by(|a, b| a.rate.total_cmp(&b.rate)).expect("one rung");
            eprintln!(
                "warning: no ladder rung met the limit; max_rps is the goodput of the lowest rung ({:.1} req/s)",
                lowest.rate
            );
            lowest.goodput
        };
        eprintln!(
            "max_rps {max_rps:.1}: median of {} passing attempts in the staircase's second half",
            settled.len()
        );
        stop.store(true, Ordering::Release);
        let publishes = publisher.map(|p| p.join().expect("publisher thread")).unwrap_or_default();
        Serving {
            reference,
            traced_reference,
            stats_after_ref,
            rungs,
            max_rps,
            publishes,
            ref_window,
        }
    })
}
