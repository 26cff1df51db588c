//! The end-to-end measurement protocol: one workload, one process, one
//! thread; a determinism double-run, bracketed set-up chunks, a warm-up
//! batch and the timed batches of fixed work.

use std::time::Instant;

use crate::refkernel::{Calibrator, Timed};
use crate::report::{Report, Value};
use crate::stats::{percentile_nearest_rank, Quartiles};
use crate::workloads::{
    digest, fingerprint_world, run_world, world_seed, Scale, Scenario, Workload, WorldOutcome,
};

/// What to measure.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Nominal length of the timed pass in calibrated seconds; fixes
    /// the number of batches, never a deadline — the work is a function
    /// of `(seed, seconds, scale)` alone so exact counts repeat.
    pub seconds: u32,
    pub scale: Scale,
}

impl Config {
    /// Batches of about 0.3 calibrated seconds each: 31 for the
    /// standard 10 s, 3 for `--quick`.
    pub fn batches(&self) -> usize {
        ((self.seconds as usize * 31 + 5) / 10).max(3)
    }

    /// World `k` of batch `batch` (batch 0 is the warm-up; world 1, the
    /// determinism world, is its first).
    pub fn batch_worlds(&self, batch: usize) -> impl Iterator<Item = u64> {
        let per = self.workload.worlds_per_batch(self.scale) as u64;
        let first = batch as u64 * per + 1;
        let seed = self.seed;
        (first..first + per).map(move |k| world_seed(seed, k))
    }

    pub fn scenario(&self, world_seed: u64) -> Scenario {
        self.workload.scenario(self.scale, world_seed)
    }

    /// The calibrator every measurement uses — except under
    /// `Scale::Test`, whose tiny worlds get a proportionally tiny pass.
    pub fn calibrator(&self) -> Calibrator {
        #[cfg(test)]
        if self.scale == Scale::Test {
            return Calibrator::shrunk(64);
        }
        Calibrator::new()
    }
}

/// World 1 run twice must fingerprint identically; returns the digest.
pub fn determinism_digest(cfg: &Config) -> Result<u64, String> {
    let seed = world_seed(cfg.seed, 1);
    let scenario = cfg.scenario(seed);
    let first = fingerprint_world(cfg.workload, &scenario, seed)?;
    let second = fingerprint_world(cfg.workload, &scenario, seed)?;
    if first != second {
        return Err(format!(
            "{}: world 1 (seed {seed}) fingerprinted differently on its second run",
            cfg.workload.name()
        ));
    }
    Ok(digest(&first))
}

/// Totals over the worlds of a run.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    pub cells: u64,
    pub events: u64,
    pub flows: u64,
    pub failed: u64,
    pub worlds: u64,
    pub ttlb_ns: Vec<u64>,
}

impl Totals {
    pub fn add(&mut self, o: WorldOutcome) {
        self.cells += o.cells;
        self.events += o.events;
        self.flows += o.flows;
        self.failed += o.failed;
        self.worlds += 1;
        self.ttlb_ns.extend(o.ttlb_ns);
    }

    /// `(p50, p99)` of simulated time-to-last-byte in milliseconds.
    pub fn ttlb_ms(&mut self) -> Result<(f64, f64), String> {
        if self.ttlb_ns.is_empty() {
            return Err("no flow completed".to_string());
        }
        let p50 = percentile_nearest_rank(&mut self.ttlb_ns, 50.0);
        let p99 = percentile_nearest_rank(&mut self.ttlb_ns, 99.0);
        Ok((p50 as f64 / 1e6, p99 as f64 / 1e6))
    }
}

/// A calibrated series and its raw twin.
#[derive(Clone, Debug, Default)]
pub struct Series {
    pub cal: Vec<f64>,
    pub raw: Vec<f64>,
}

impl Series {
    /// Records `amount / time` (a rate) or `time / amount` (a cost).
    pub fn push(&mut self, timed: Timed, f: impl Fn(f64) -> f64) {
        self.cal.push(f(timed.cal_s));
        self.raw.push(f(timed.raw_s));
    }

    pub fn value(&self, name: &'static str, unit: &'static str) -> Value {
        Value {
            name,
            unit,
            cal: Quartiles::of(&self.cal),
            raw: Some(Quartiles::of(&self.raw)),
            samples: self.cal.len(),
            series: self
                .cal
                .iter()
                .copied()
                .zip(self.raw.iter().copied())
                .collect(),
            exact: false,
        }
    }
}

/// Median calibrated seconds per `*Scenario::build` call, over one
/// bracketed chunk per batch. The built worlds are dropped outside the
/// timer; scenarios come from a small pre-generated ring so generation
/// is not charged either.
pub fn measure_setup(cfg: &Config, cal: &mut Calibrator) -> Series {
    let chunk = cfg.workload.setup_chunk(cfg.scale);
    let mut series = Series::default();
    for c in 0..cfg.batches() {
        let ring: Vec<(u64, Scenario)> = (0..chunk.min(8) as u64)
            .map(|i| {
                let seed = world_seed(cfg.seed, 1_000_000 + c as u64 * 8 + i);
                (seed, cfg.scenario(seed))
            })
            .collect();
        let timed = cal.bracket(|| {
            let mut in_build = 0.0;
            for i in 0..chunk {
                let (seed, scenario) = &ring[i % ring.len()];
                let t0 = Instant::now();
                let built = std::hint::black_box(scenario.build(*seed));
                in_build += t0.elapsed().as_secs_f64();
                drop(built);
            }
            in_build
        });
        series.push(timed, |s| s / chunk as f64);
    }
    series
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))
}

/// Resets `VmHWM` to the current resident size, so that the next
/// reading is the peak since now (Linux 4.0+: `5` to `clear_refs`).
/// False where the sandbox forbids the write.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The calibrator, and the resident memory its reference kernel added.
/// Created before any world so that its 10 MiB is a constant floor
/// under everything that follows: a `VmHWM` reading minus this is the
/// simulator's own peak.
fn calibrator_and_its_rss(cfg: &Config) -> Result<(Calibrator, f64), String> {
    let before = status_mib("VmRSS")?;
    let cal = cfg.calibrator();
    Ok((cal, status_mib("VmRSS")? - before))
}

/// Runs one batch's worlds back to back; returns their outcomes and the
/// host seconds spent inside `sim.run()`.
pub fn run_batch(cfg: &Config, batch: usize) -> Result<(Vec<WorldOutcome>, f64), String> {
    let mut outcomes = Vec::new();
    let mut in_run = 0.0;
    for seed in cfg.batch_worlds(batch) {
        let (outcome, phases) = run_world(
            cfg.workload,
            &cfg.scenario(seed),
            seed,
            |_| (),
            |_, (), _| (),
        )?;
        in_run += phases.run;
        outcomes.push(outcome);
    }
    Ok((outcomes, in_run))
}

/// The `--trace 0` measurement: every end-to-end metric.
pub fn measure(cfg: &Config) -> Result<Report, String> {
    let (mut cal, kernel_rss_mib) = calibrator_and_its_rss(cfg)?;
    let sim_digest = determinism_digest(cfg)?;
    run_batch(cfg, 0)?; // warm-up
    let setup = measure_setup(cfg, &mut cal);

    let mut rate = Series::default();
    let mut peak_rss = Vec::new();
    let mut totals = Totals::default();
    for batch in 1..=cfg.batches() {
        // One peak per batch, so that the reported median shrugs off
        // the rare world whose reallocations happen to overlap.
        let per_batch = reset_peak_rss();
        let (outcomes, timed) = cal.try_bracket(|| run_batch(cfg, batch))?;
        if per_batch {
            peak_rss.push(status_mib("VmHWM")? - kernel_rss_mib);
        }
        let cells: u64 = outcomes.iter().map(|o| o.cells).sum();
        rate.push(timed, |s| cells as f64 / s);
        for o in outcomes {
            totals.add(o);
        }
    }

    let (p50, p99) = totals.ttlb_ms()?;
    if peak_rss.is_empty() {
        // No per-batch resets here: the whole run's peak, once.
        peak_rss.push(status_mib("VmHWM")? - kernel_rss_mib);
    }
    Ok(Report {
        workload: cfg.workload.name(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: false,
        attempted: totals.flows,
        failed: totals.failed,
        sim_digest,
        values: vec![
            rate.value("cells_per_s", "1/s"),
            setup.value("setup_s", "s"),
            Value::host_series("peak_rss_mib", "MiB", &peak_rss),
            Value::exact("sim_ttlb_p50_ms", "sim_ms", p50),
            Value::exact("sim_ttlb_p99_ms", "sim_ms", p99),
        ],
        exact: vec![
            ("worlds", totals.worlds),
            ("flows", totals.flows),
            ("cells", totals.cells),
            ("events", totals.events),
        ],
        ref_pass_s: Quartiles::of(&cal.ref_passes_s),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL_WORKLOADS;

    #[test]
    fn batch_count_follows_seconds() {
        let cfg = |seconds| Config {
            workload: Workload::Path3Bulk,
            seed: 1,
            seconds,
            scale: Scale::Full,
        };
        assert_eq!(cfg(10).batches(), 31);
        assert_eq!(cfg(1).batches(), 3);
        assert_eq!(cfg(0).batches(), 3);
        assert_eq!(cfg(60).batches(), 186);
    }

    #[test]
    fn batches_partition_the_world_numbers() {
        let cfg = Config {
            workload: Workload::Path3Short,
            seed: 5,
            seconds: 1,
            scale: Scale::Quick,
        };
        let warmup: Vec<u64> = cfg.batch_worlds(0).collect();
        assert_eq!(warmup.len(), 8);
        assert_eq!(warmup[0], world_seed(5, 1));
        let next: Vec<u64> = cfg.batch_worlds(1).collect();
        assert_eq!(next[0], world_seed(5, 9));
    }

    /// Two passes with one seed give identical exact counts, simulated
    /// metrics and `sim_digest` on every workload — at `Scale::Test`,
    /// the `--quick` protocol shrunk to what an unoptimised build runs
    /// in seconds.
    #[test]
    fn two_passes_with_one_seed_agree_exactly() {
        for workload in ALL_WORKLOADS {
            let cfg = Config {
                workload,
                seed: 11,
                seconds: 1,
                scale: Scale::Test,
            };
            let a = measure(&cfg).expect("first pass valid");
            let b = measure(&cfg).expect("second pass valid");
            assert_eq!(a.exact, b.exact, "{}", workload.name());
            assert_eq!(a.sim_digest, b.sim_digest, "{}", workload.name());
            assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
            assert_eq!(a.failed, 0, "{}: failed flows", workload.name());
            for name in ["sim_ttlb_p50_ms", "sim_ttlb_p99_ms"] {
                assert_eq!(a.value(name), b.value(name), "{} {name}", workload.name());
            }
            assert!(a.value("cells_per_s").expect("present").cal.median > 0.0);
            // Another seed is another experiment.
            let c = measure(&Config { seed: 12, ..cfg }).expect("other seed valid");
            assert_ne!(a.sim_digest, c.sim_digest, "{}", workload.name());
        }
    }
}
