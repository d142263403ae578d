//! The SLO view of a serving run: throughput, tail latency, shedding.
//!
//! A [`SaturationReport`] is derived from the `serve.*` metrics a
//! [`QueryService`](crate::QueryService) emits into a
//! [`MemoryCollector`], plus the run's wall clock. It is what the load
//! generator prints and what `BENCH_serve.json` records: queries/sec at
//! saturation and p50/p99 end-to-end latency, next to the overload
//! counters (shed, failed, contained panics) that explain *how* the
//! service stayed up.

use std::time::Duration;

use steno_obs::MemoryCollector;

/// Counters and quantiles summarizing one serving run.
#[derive(Clone, Debug, Default)]
pub struct SaturationReport {
    /// Wall-clock length of the run, in seconds.
    pub duration_s: f64,
    /// Queries offered (admitted + shed).
    pub submitted: u64,
    /// Queries admitted past admission control.
    pub admitted: u64,
    /// Queries shed with `Rejected` at admission.
    pub shed: u64,
    /// Queries answered with a value.
    pub completed: u64,
    /// Queries failed (excluding deadline/cancel, counted separately).
    pub failed: u64,
    /// Queries that exceeded their deadline.
    pub deadline_exceeded: u64,
    /// Queries cancelled by their caller.
    pub cancelled: u64,
    /// Panics contained while a query ran (each is also `failed`).
    pub panics_contained: u64,
    /// Completed queries per second of wall clock.
    pub qps: f64,
    /// Median end-to-end latency (submit → reply), microseconds.
    pub p50_latency_us: Option<u64>,
    /// 99th-percentile end-to-end latency, microseconds.
    pub p99_latency_us: Option<u64>,
    /// Median queue wait (submit → dequeue), microseconds. Kept apart
    /// from execution time: under load the end-to-end latency is their
    /// sum, and only the split says whether the service is slow or full.
    pub p50_queue_wait_us: Option<u64>,
    /// 99th-percentile queue wait, microseconds.
    pub p99_queue_wait_us: Option<u64>,
    /// Median execution time (dequeue → outcome), microseconds.
    pub p50_exec_us: Option<u64>,
    /// 99th-percentile execution time, microseconds.
    pub p99_exec_us: Option<u64>,
}

impl SaturationReport {
    /// Derives the report from a collector the service reported into.
    pub fn from_collector(metrics: &MemoryCollector, wall: Duration) -> SaturationReport {
        let snapshot = metrics.snapshot();
        let hist = |name: &str| snapshot.histograms.iter().find(|h| h.name == name);
        let latency = hist("serve.latency_ns");
        let queue_wait = hist("serve.queue_wait_ns");
        let exec = hist("serve.exec_ns");
        let completed = metrics.counter_value("serve.completed");
        let duration_s = wall.as_secs_f64();
        SaturationReport {
            duration_s,
            submitted: metrics.counter_value("serve.submitted"),
            admitted: metrics.counter_value("serve.admitted"),
            shed: metrics.counter_value("serve.shed"),
            completed,
            failed: metrics.counter_value("serve.failed"),
            deadline_exceeded: metrics.counter_value("serve.deadline_exceeded"),
            cancelled: metrics.counter_value("serve.cancelled"),
            panics_contained: metrics.counter_value("serve.panics_contained"),
            qps: if duration_s > 0.0 {
                completed as f64 / duration_s
            } else {
                0.0
            },
            p50_latency_us: latency.and_then(|h| h.quantile(0.5)).map(|ns| ns / 1000),
            p99_latency_us: latency.and_then(|h| h.quantile(0.99)).map(|ns| ns / 1000),
            p50_queue_wait_us: queue_wait.and_then(|h| h.quantile(0.5)).map(|ns| ns / 1000),
            p99_queue_wait_us: queue_wait
                .and_then(|h| h.quantile(0.99))
                .map(|ns| ns / 1000),
            p50_exec_us: exec.and_then(|h| h.quantile(0.5)).map(|ns| ns / 1000),
            p99_exec_us: exec.and_then(|h| h.quantile(0.99)).map(|ns| ns / 1000),
        }
    }

    /// Renders the report as a JSON object (hand-rolled: the build has
    /// no serde), the `BENCH_serve.json` format.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        format!(
            "{{\n  \"duration_s\": {:.3},\n  \"submitted\": {},\n  \"admitted\": {},\n  \
             \"shed\": {},\n  \"completed\": {},\n  \"failed\": {},\n  \
             \"deadline_exceeded\": {},\n  \"cancelled\": {},\n  \
             \"panics_contained\": {},\n  \"qps\": {:.1},\n  \
             \"p50_latency_us\": {},\n  \"p99_latency_us\": {},\n  \
             \"p50_queue_wait_us\": {},\n  \"p99_queue_wait_us\": {},\n  \
             \"p50_exec_us\": {},\n  \"p99_exec_us\": {}\n}}\n",
            self.duration_s,
            self.submitted,
            self.admitted,
            self.shed,
            self.completed,
            self.failed,
            self.deadline_exceeded,
            self.cancelled,
            self.panics_contained,
            self.qps,
            opt(self.p50_latency_us),
            opt(self.p99_latency_us),
            opt(self.p50_queue_wait_us),
            opt(self.p99_queue_wait_us),
            opt(self.p50_exec_us),
            opt(self.p99_exec_us),
        )
    }

    /// A one-screen human transcript of the run.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serving run: {:.2}s wall, {:.0} queries/sec completed\n",
            self.duration_s, self.qps
        ));
        out.push_str(&format!(
            "  offered {} = admitted {} + shed {}\n",
            self.submitted, self.admitted, self.shed
        ));
        out.push_str(&format!(
            "  outcomes: {} completed, {} failed, {} deadline-exceeded, {} cancelled\n",
            self.completed, self.failed, self.deadline_exceeded, self.cancelled
        ));
        out.push_str(&format!("  panics contained: {}\n", self.panics_contained));
        let quantile_line = |label: &str, p50: Option<u64>, p99: Option<u64>| match (p50, p99) {
            (Some(p50), Some(p99)) => format!("  {label}: p50 {p50} us, p99 {p99} us\n"),
            _ => format!("  {label}: no samples\n"),
        };
        out.push_str(&quantile_line(
            "latency",
            self.p50_latency_us,
            self.p99_latency_us,
        ));
        out.push_str(&quantile_line(
            "queue wait",
            self.p50_queue_wait_us,
            self.p99_queue_wait_us,
        ));
        out.push_str(&quantile_line("exec", self.p50_exec_us, self.p99_exec_us));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steno_obs::Collector;

    #[test]
    fn report_derives_counters_and_quantiles() {
        let m = MemoryCollector::new();
        m.add("serve.submitted", 10);
        m.add("serve.admitted", 8);
        m.add("serve.shed", 2);
        m.add("serve.completed", 7);
        m.add("serve.failed", 1);
        for i in 1..=100u64 {
            m.observe_ns("serve.latency_ns", i * 1000);
            m.observe_ns("serve.queue_wait_ns", i * 100);
            m.observe_ns("serve.exec_ns", i * 900);
        }
        let r = SaturationReport::from_collector(&m, Duration::from_secs(2));
        assert_eq!(r.submitted, 10);
        assert_eq!(r.shed, 2);
        assert_eq!(r.completed, 7);
        assert!((r.qps - 3.5).abs() < 1e-9);
        let p50 = r.p50_latency_us.unwrap();
        let p99 = r.p99_latency_us.unwrap();
        assert!(p50 <= p99, "p50 {p50} must not exceed p99 {p99}");
        // Log2 bucketing is coarse, but the medians land in-range.
        assert!(p50 >= 1 && p99 <= 200, "p50 {p50} p99 {p99}");
        // Queue wait and exec time surface as their own quantiles.
        assert!(r.p50_queue_wait_us.is_some());
        assert!(r.p99_exec_us.is_some());
        assert!(
            r.p50_queue_wait_us <= r.p50_latency_us,
            "queue wait is a component of end-to-end latency"
        );
    }

    #[test]
    fn json_and_transcript_render() {
        let m = MemoryCollector::new();
        m.add("serve.completed", 5);
        let r = SaturationReport::from_collector(&m, Duration::from_secs(1));
        let json = r.to_json();
        assert!(steno_obs::json::parse(&json).is_ok(), "{json}");
        assert!(json.contains("\"p50_latency_us\": null"));
        assert!(json.contains("\"p99_queue_wait_us\": null"));
        assert!(json.contains("\"p50_exec_us\": null"));
        let text = r.render();
        assert!(text.contains("5 completed"), "{text}");
        assert!(text.contains("queue wait: no samples"), "{text}");
    }
}
