//! A self-contained micro-benchmark harness with a criterion-shaped API.
//!
//! The build environment is fully offline, so the `criterion` crate is
//! unavailable; this shim implements the small surface the `benches/`
//! files use (`Criterion::benchmark_group`, `BenchmarkGroup::
//! bench_function`, `Bencher::iter`, the `criterion_group!`/
//! `criterion_main!` macros) with plain `std::time` measurement. Results
//! are median-of-samples over auto-calibrated batches, printed one line
//! per benchmark.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// A benchmark identifier rendered as `function/parameter`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a parameter.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: format!("{function}/{parameter}"),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label)
    }
}

/// The top-level benchmark context.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        let name = name.into();
        println!("\n== {name} ==");
        BenchmarkGroup {
            name,
            sample_size: 10,
        }
    }
}

/// A group of benchmarks sharing a name and sample size.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut BenchmarkGroup {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark: calibrate a batch size, take samples, report
    /// the median per-iteration time.
    pub fn bench_function<I: fmt::Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut BenchmarkGroup {
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                per_iter: Duration::ZERO,
            };
            f(&mut b);
            samples.push(b.per_iter);
        }
        samples.sort();
        let median = samples[samples.len() / 2];
        let best = samples[0];
        println!(
            "{:>40}  median {:>12?}  best {:>12?}  ({} samples)",
            format!("{}/{id}", self.name),
            median,
            best,
            samples.len()
        );
        self
    }

    /// Ends the group (output is already flushed per benchmark).
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; measures the routine under test.
pub struct Bencher {
    per_iter: Duration,
}

impl Bencher {
    /// Times `routine`, auto-batching fast routines so each sample spans
    /// at least ~2 ms of wall clock.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Calibrate: how many iterations fill the floor?
        let floor = Duration::from_millis(2);
        let mut batch: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            let elapsed = t.elapsed();
            if elapsed >= floor || batch >= 1 << 20 {
                self.per_iter = elapsed / (batch as u32).max(1);
                return;
            }
            batch = batch.saturating_mul(
                ((floor.as_nanos() / elapsed.as_nanos().max(1)) as u64 + 1).clamp(2, 128),
            );
        }
    }
}

/// Measures `routine` like [`Bencher::iter`] (auto-batched ~2 ms
/// samples) and returns the median per-iteration time over `samples`
/// samples. The standalone entry point used by the `fig_*` binaries.
pub fn median_time<O>(samples: usize, mut routine: impl FnMut() -> O) -> Duration {
    let n = samples.max(1);
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let mut b = Bencher {
            per_iter: Duration::ZERO,
        };
        b.iter(&mut routine);
        times.push(b.per_iter);
    }
    times.sort();
    times[times.len() / 2]
}

/// Measures `routine` like [`median_time`] but returns the *minimum*
/// per-iteration time over `samples` samples.
///
/// Used by the `--smoke` regression gate: on a noisy shared machine the
/// minimum is the stable estimate of a routine's floor, where the
/// median still carries scheduler bursts.
pub fn best_time<O>(samples: usize, mut routine: impl FnMut() -> O) -> Duration {
    let n = samples.max(1);
    let mut best = Duration::MAX;
    for _ in 0..n {
        let mut b = Bencher {
            per_iter: Duration::ZERO,
        };
        b.iter(&mut routine);
        best = best.min(b.per_iter);
    }
    best
}

/// One machine-readable measurement: a workload run on one engine.
///
/// Serialized (hand-rolled — the environment builds offline, so no
/// `serde`) into `BENCH_vm.json` by [`write_bench_json`] for the
/// driver's ≥2× vectorization acceptance check.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Workload name, e.g. `sum_of_squares`.
    pub workload: String,
    /// Engine name, e.g. `vm_scalar`, `vm_vectorized`, `linq`, `hand`.
    pub engine: String,
    /// Input size in elements.
    pub elements: usize,
    /// Median per-element cost in nanoseconds.
    pub ns_per_elem: f64,
    /// Median throughput in elements per second.
    pub elements_per_sec: f64,
    /// Noise ceiling: the worst per-run ns/elem this row was observed to
    /// produce while the *baseline* was collected (multi-run baselines
    /// only; `None` for single-run records). The smoke gate treats a
    /// measurement at or below this as machine noise, not a regression —
    /// the unchanged binary itself has produced it.
    pub ns_per_elem_noise: Option<f64>,
}

impl BenchRecord {
    /// Builds a record from a median per-iteration wall time over
    /// `elements` inputs. Zero-duration medians (sub-tick clocks) are
    /// clamped to 1 ns to keep the derived rates finite.
    pub fn from_wall(
        workload: impl Into<String>,
        engine: impl Into<String>,
        elements: usize,
        median: Duration,
    ) -> BenchRecord {
        let nanos = (median.as_nanos() as f64).max(1.0);
        let ns_per_elem = nanos / (elements as f64).max(1.0);
        BenchRecord {
            workload: workload.into(),
            engine: engine.into(),
            elements,
            ns_per_elem,
            elements_per_sec: 1e9 / ns_per_elem,
            ns_per_elem_noise: None,
        }
    }
}

/// Renders records as a JSON array (stable field order, one object per
/// line) without any external dependency.
pub fn render_bench_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let noise = r
            .ns_per_elem_noise
            .map(|n| format!(", \"ns_per_elem_noise\": {n:.4}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "  {{\"workload\": \"{}\", \"engine\": \"{}\", \"elements\": {}, \
             \"ns_per_elem\": {:.4}, \"elements_per_sec\": {:.1}{}}}{}\n",
            steno_obs::json::escape(&r.workload),
            steno_obs::json::escape(&r.engine),
            r.elements,
            r.ns_per_elem,
            r.elements_per_sec,
            noise,
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

/// Writes records to `path` as JSON (see [`render_bench_json`]).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bench_json(path: impl AsRef<Path>, records: &[BenchRecord]) -> io::Result<()> {
    fs::write(path, render_bench_json(records))
}

/// Merges `records` into the bench JSON at `path`: rows belonging to a
/// workload re-measured here replace that workload's old rows, while
/// rows from other producers (`BENCH_vm.json` is shared between the
/// `fig_*` binaries) survive untouched. A missing or unparseable file
/// degrades to a plain write.
///
/// # Errors
///
/// Propagates filesystem errors from the final write.
pub fn merge_bench_json(path: impl AsRef<Path>, records: &[BenchRecord]) -> io::Result<()> {
    let path = path.as_ref();
    let mut merged: Vec<BenchRecord> = fs::read_to_string(path)
        .ok()
        .and_then(|s| parse_bench_json(&s).ok())
        .unwrap_or_default();
    let ours: std::collections::HashSet<&str> =
        records.iter().map(|r| r.workload.as_str()).collect();
    merged.retain(|r| !ours.contains(r.workload.as_str()));
    merged.extend(records.iter().cloned());
    write_bench_json(path, &merged)
}

/// Looks up the `hand` row's ns/elem for `workload` in `records`.
pub fn hand_ns(records: &[BenchRecord], workload: &str) -> Option<f64> {
    records
        .iter()
        .find(|r| r.workload == workload && r.engine == "hand")
        .map(|r| r.ns_per_elem)
}

/// The `--smoke` regression gate shared by the `fig_*` binaries.
///
/// A row passes when *either* comparison against the checked-in
/// baseline (`BENCH_VM_BASELINE`, default `BENCH_vm.json`) is within
/// `tolerance`:
///
/// * **absolute** — the row's ns/elem vs the baseline's ns/elem. Valid
///   when the runner is as fast as the baseline machine; over-strict
///   when it is merely slower.
/// * **hand-relative** — the row's cost divided by the same run's
///   `hand` row, vs the same quotient in the baseline. The hand-written
///   loops are reference code this crate never touches, so the quotient
///   cancels machine speed; it skews only when the runner's compute/
///   memory balance differs from the baseline machine's.
///
/// A real code regression moves the engine row and neither reference,
/// so it fails both comparisons.
///
/// One escape hatch remains: rows whose baseline carries a
/// `ns_per_elem_noise` ceiling (the worst per-run value the *unchanged*
/// baseline binary produced across the baseline's measurement runs)
/// also pass when the measured value is at or below that ceiling. The
/// baseline's `ns_per_elem` is a floor across many runs; on a shared
/// box the scalar-interpreter rows swing ~2x between quiet and loaded
/// phases, so "within tolerance of the floor" is unattainable during a
/// loaded phase even with no code change. A measurement the baseline
/// binary itself was observed to produce is machine noise by
/// construction, not a regression.
///
/// Baseline rows for workloads not in `records` are ignored, so each
/// binary gates only the rows it produces.
///
/// # Errors
///
/// Returns the failing rows (empty on success) so the caller can
/// re-measure once before failing the build.
pub fn smoke_gate(records: &[BenchRecord], tolerance: f64) -> Result<(), Vec<String>> {
    let baseline_path =
        std::env::var("BENCH_VM_BASELINE").unwrap_or_else(|_| "BENCH_vm.json".to_string());
    let baseline = fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("smoke gate needs the baseline {baseline_path}: {e}"));
    let baseline = parse_bench_json(&baseline)
        .unwrap_or_else(|e| panic!("baseline {baseline_path} must parse: {e}"));
    println!(
        "\n== smoke gate (tolerance {tolerance:.2}x vs {baseline_path}, \
         absolute or hand-relative) =="
    );
    let mut failures = Vec::new();
    for r in records {
        if r.engine == "hand" {
            continue;
        }
        let Some(b) = baseline
            .iter()
            .find(|b| b.workload == r.workload && b.engine == r.engine)
        else {
            continue;
        };
        let (Some(rh), Some(bh)) = (hand_ns(records, &r.workload), hand_ns(&baseline, &r.workload))
        else {
            continue;
        };
        let abs_ratio = r.ns_per_elem / b.ns_per_elem;
        let rel_ratio = (r.ns_per_elem / rh) / (b.ns_per_elem / bh);
        let ratio = abs_ratio.min(rel_ratio);
        let within_noise = b
            .ns_per_elem_noise
            .is_some_and(|ceiling| r.ns_per_elem <= ceiling);
        let pass = ratio <= tolerance || within_noise;
        let verdict = if pass {
            if ratio <= tolerance {
                "ok"
            } else {
                "ok (within baseline noise)"
            }
        } else {
            "FAIL"
        };
        println!(
            "{:>22} / {:>14}  abs {abs_ratio:>5.2}x  hand-rel {rel_ratio:>5.2}x  {verdict}",
            r.workload, r.engine
        );
        if !pass {
            failures.push(format!(
                "{}/{} regressed (abs {abs_ratio:.2}x, hand-relative {rel_ratio:.2}x, \
                 both over {tolerance:.2}x{})",
                r.workload,
                r.engine,
                b.ns_per_elem_noise
                    .map(|c| format!(
                        "; {:.2} ns/elem over the {c:.2} observed-noise ceiling",
                        r.ns_per_elem
                    ))
                    .unwrap_or_default()
            ));
        }
    }
    if failures.is_empty() {
        println!("smoke gate passed: no engine regressed past tolerance");
        Ok(())
    } else {
        Err(failures)
    }
}

/// Parses the JSON emitted by [`render_bench_json`] back into records.
///
/// The inverse guarantees `BENCH_vm.json` stays machine-readable: any
/// drift between writer and reader fails the round-trip test below.
///
/// # Errors
///
/// Returns a message naming the malformed element when `input` is not a
/// valid record array.
pub fn parse_bench_json(input: &str) -> Result<Vec<BenchRecord>, String> {
    let v = steno_obs::json::parse(input).map_err(|e| e.to_string())?;
    let arr = v.as_array().ok_or("bench JSON must be an array")?;
    let mut records = Vec::with_capacity(arr.len());
    for (i, obj) in arr.iter().enumerate() {
        let str_field = |name: &str| -> Result<String, String> {
            obj.get(name)
                .and_then(|f| f.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("record {i}: missing string field {name:?}"))
        };
        let num_field = |name: &str| -> Result<f64, String> {
            obj.get(name)
                .and_then(|f| f.as_f64())
                .ok_or_else(|| format!("record {i}: missing number field {name:?}"))
        };
        records.push(BenchRecord {
            workload: str_field("workload")?,
            engine: str_field("engine")?,
            elements: num_field("elements")? as usize,
            ns_per_elem: num_field("ns_per_elem")?,
            elements_per_sec: num_field("elements_per_sec")?,
            ns_per_elem_noise: obj.get("ns_per_elem_noise").and_then(|f| f.as_f64()),
        });
    }
    Ok(records)
}

/// Collects benchmark functions into a runnable group function, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Expands to `main`, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_round_trips() {
        let records = vec![
            BenchRecord::from_wall(
                "sum_of_squares",
                "vm_vectorized",
                1_000_000,
                Duration::from_micros(750),
            ),
            BenchRecord {
                workload: "join \"quoted\"".to_string(),
                engine: "linq".to_string(),
                elements: 4096,
                ns_per_elem: 12.5,
                elements_per_sec: 8e7,
                ns_per_elem_noise: Some(19.75),
            },
        ];
        let json = render_bench_json(&records);
        let parsed = parse_bench_json(&json).unwrap();
        assert_eq!(parsed.len(), records.len());
        for (p, r) in parsed.iter().zip(&records) {
            assert_eq!(p.workload, r.workload);
            assert_eq!(p.engine, r.engine);
            assert_eq!(p.elements, r.elements);
            // Rendering rounds to 4 (ns) / 1 (rate) decimal places.
            assert!((p.ns_per_elem - r.ns_per_elem).abs() < 1e-3);
            assert!((p.elements_per_sec - r.elements_per_sec).abs() < 1.0);
            match (p.ns_per_elem_noise, r.ns_per_elem_noise) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-3),
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_records() {
        assert!(parse_bench_json("{}").is_err());
        assert!(parse_bench_json("[{\"workload\": \"w\"}]").is_err());
        assert!(parse_bench_json("[").is_err());
    }

    #[test]
    fn empty_record_list_round_trips() {
        assert!(parse_bench_json(&render_bench_json(&[])).unwrap().is_empty());
    }

    #[test]
    fn merge_replaces_own_workloads_and_keeps_others() {
        let dir = std::env::temp_dir().join("steno_bench_merge_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_merge.json");
        let old = vec![
            BenchRecord::from_wall("kept", "vm_scalar", 10, Duration::from_micros(10)),
            BenchRecord::from_wall("replaced", "vm_scalar", 10, Duration::from_micros(50)),
        ];
        write_bench_json(&path, &old).unwrap();
        let new = vec![
            BenchRecord::from_wall("replaced", "vm_scalar", 10, Duration::from_micros(20)),
            BenchRecord::from_wall("added", "hand", 10, Duration::from_micros(5)),
        ];
        merge_bench_json(&path, &new).unwrap();
        let merged = parse_bench_json(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(merged.len(), 3);
        assert!(merged.iter().any(|r| r.workload == "kept"));
        let replaced: Vec<_> = merged.iter().filter(|r| r.workload == "replaced").collect();
        assert_eq!(replaced.len(), 1);
        assert!((replaced[0].ns_per_elem - 2000.0).abs() < 1e-6);
        assert!(merged.iter().any(|r| r.workload == "added"));
        fs::remove_file(&path).ok();
    }
}
