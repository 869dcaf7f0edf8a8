//! Live campaign progress: one status line the executor re-renders as
//! units finish.
//!
//! The ETA is not `remaining / rate`: computed cells dominate the wall
//! time while cache hits are effectively free, so the view keeps the
//! per-computed-run wall times, estimates the still-to-compute count
//! from the computed:cached mix seen so far, and reports the 95%
//! confidence half-width of the mean wall time as an ETA error bar —
//! the same trajectory the acceptance criteria track.

/// Student-t 97.5% quantiles for small samples (ν = 1..30), then the
/// normal approximation.
fn t_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        n if n <= TABLE.len() => TABLE[n - 1],
        _ => 1.96,
    }
}

/// Snapshot of a running campaign, renderable as one status line.
#[derive(Debug, Clone, Default)]
pub struct ProgressView {
    /// Cells this drain covers.
    pub total: usize,
    /// Cells finished from cache.
    pub cached: usize,
    /// Cells computed (wall times recorded below).
    pub computed: usize,
    /// Cells that panicked.
    pub failed: usize,
    /// Cells skipped by a convergence rule (fleet runners / report).
    pub skipped: usize,
    /// Cells currently claimed by a lease (fleet view; 0 hides the
    /// segment).
    pub claimed: usize,
    /// Live runners behind the active leases (fleet status view; 0
    /// hides the segment).
    pub runners: usize,
    /// Wall time spent so far, milliseconds.
    pub elapsed_ms: u64,
    /// Fleet-reported throughput (sum of runner heartbeat rates). When
    /// set it overrides the elapsed-time rate estimate and drives a
    /// rate-based ETA — heartbeats know the *current* rate, while
    /// `done / elapsed` averages over warm-up and cache replay.
    pub rate_per_s: Option<f64>,
    /// Per-runner detail rows sourced from heartbeats (status view;
    /// empty for single-process runs).
    pub runner_rows: Vec<RunnerRow>,
    wall_ms: Vec<u64>,
}

/// One runner's heartbeat, rendered as an indented detail line under
/// the fleet status line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunnerRow {
    /// Runner id (`--runner-id`, default `host-pid`).
    pub id: String,
    /// Units this runner computed.
    pub computed: usize,
    /// Units this runner finished from cache.
    pub cached: usize,
    /// Units this runner failed.
    pub failed: usize,
    /// Units currently claimed by this runner.
    pub in_flight: usize,
    /// This runner's recent throughput.
    pub runs_per_s: f64,
    /// Cache key of the unit being worked on, if any.
    pub current: Option<String>,
    /// Seconds since the last heartbeat was written.
    pub age_s: u64,
}

impl RunnerRow {
    /// The detail line, without trailing newline.
    pub fn render(&self) -> String {
        let mut line = format!(
            "  {}: {} computed, {} cached, {} failed",
            self.id, self.computed, self.cached, self.failed
        );
        if self.in_flight > 0 {
            line.push_str(&format!(", {} in flight", self.in_flight));
        }
        line.push_str(&format!(", {:.2} runs/s", self.runs_per_s));
        if let Some(current) = &self.current {
            line.push_str(&format!(", on {current}"));
        }
        line.push_str(&format!(" (beat {}s ago)", self.age_s));
        line
    }
}

impl ProgressView {
    /// A view over a campaign of `total` cells.
    pub fn new(total: usize) -> ProgressView {
        ProgressView {
            total,
            ..ProgressView::default()
        }
    }

    /// Record a computed cell and its wall time.
    pub fn on_computed(&mut self, wall_ms: u64) {
        self.computed += 1;
        self.wall_ms.push(wall_ms);
    }

    /// Record a cache hit.
    pub fn on_cached(&mut self) {
        self.cached += 1;
    }

    /// Record a failed cell.
    pub fn on_failed(&mut self) {
        self.failed += 1;
    }

    /// Record a convergence-skipped cell.
    pub fn on_skipped(&mut self) {
        self.skipped += 1;
    }

    /// Cells finished, however they finished.
    pub fn done(&self) -> usize {
        self.computed + self.cached + self.failed + self.skipped
    }

    /// Mean and 95% CI half-width of the per-computed-run wall time, in
    /// milliseconds (`None` until something was computed).
    pub fn wall_ms_ci(&self) -> Option<(f64, f64)> {
        let n = self.wall_ms.len();
        if n == 0 {
            return None;
        }
        let mean = self.wall_ms.iter().sum::<u64>() as f64 / n as f64;
        if n == 1 {
            return Some((mean, f64::INFINITY));
        }
        let var = self
            .wall_ms
            .iter()
            .map(|&w| (w as f64 - mean).powi(2))
            .sum::<f64>()
            / (n - 1) as f64;
        Some((mean, t_975(n - 1) * (var / n as f64).sqrt()))
    }

    /// `(eta, half_width)` in seconds: expected still-to-compute count
    /// times the mean computed wall time, with the CI half-width scaled
    /// the same way. `None` until the first computed cell.
    pub fn eta_secs(&self) -> Option<(f64, f64)> {
        let (mean, half) = self.wall_ms_ci()?;
        let done = self.done();
        let remaining = (self.total - done.min(self.total)) as f64;
        // Fraction of finished cells that needed computing predicts how
        // many of the remaining will.
        let compute_frac = if done == 0 {
            1.0
        } else {
            self.computed as f64 / done as f64
        };
        let to_compute = remaining * compute_frac;
        Some((to_compute * mean / 1e3, to_compute * half / 1e3))
    }

    /// The status line, without trailing newline.
    pub fn render(&self) -> String {
        let done = self.done();
        let width = self.total.to_string().len();
        let mut line = format!(
            "[{done:>width$}/{}] {} computed, {} cached, {} failed",
            self.total, self.computed, self.cached, self.failed,
        );
        if self.skipped > 0 {
            line.push_str(&format!(", {} skipped", self.skipped));
        }
        if self.runners > 0 {
            line.push_str(&format!(" | {} runner(s)", self.runners));
        }
        if self.claimed > 0 {
            line.push_str(&format!(" | {} claimed", self.claimed));
        }
        if let Some(rate) = self.rate_per_s {
            // Heartbeat-sourced throughput: the fleet's current rate,
            // with a rate-based ETA (no CI — heartbeats carry a point
            // estimate, not a sample distribution).
            line.push_str(&format!(" | {rate:.2} runs/s"));
            if rate > 0.0 && done < self.total {
                let eta = (self.total - done) as f64 / rate;
                line.push_str(&format!(" | ETA {eta:.0}s"));
            }
            return line;
        }
        if self.elapsed_ms > 0 && done > 0 {
            line.push_str(&format!(
                " | {:.1} runs/s",
                done as f64 / (self.elapsed_ms as f64 / 1e3)
            ));
        }
        match self.eta_secs() {
            Some((eta, half)) if done < self.total => {
                if half.is_finite() {
                    line.push_str(&format!(" | ETA {eta:.0}s ±{half:.0}s"));
                } else {
                    line.push_str(&format!(" | ETA {eta:.0}s"));
                }
            }
            _ => {}
        }
        line
    }

    /// Render the per-runner detail rows, one line per runner.
    pub fn render_runners(&self) -> Vec<String> {
        self.runner_rows.iter().map(RunnerRow::render).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_render() {
        let mut p = ProgressView::new(10);
        assert_eq!(p.done(), 0);
        assert!(p.eta_secs().is_none());
        p.on_cached();
        p.on_computed(100);
        p.on_computed(120);
        p.on_failed();
        p.elapsed_ms = 2_000;
        assert_eq!(p.done(), 4);
        let line = p.render();
        assert!(
            line.starts_with("[ 4/10] 2 computed, 1 cached, 1 failed"),
            "{line}"
        );
        assert!(line.contains("runs/s"), "{line}");
        assert!(line.contains("ETA"), "{line}");
    }

    #[test]
    fn fleet_segments_render_only_when_present() {
        let mut p = ProgressView::new(10);
        p.on_computed(100);
        p.on_cached();
        assert!(
            !p.render().contains("skipped")
                && !p.render().contains("claimed")
                && !p.render().contains("runner"),
            "zero fleet counters must not change the classic line: {}",
            p.render()
        );
        p.on_skipped();
        p.on_skipped();
        p.claimed = 3;
        p.runners = 2;
        let line = p.render();
        assert!(
            line.starts_with("[ 4/10] 1 computed, 1 cached, 0 failed, 2 skipped"),
            "{line}"
        );
        assert!(line.contains("2 runner(s)"), "{line}");
        assert!(line.contains("3 claimed"), "{line}");
        assert_eq!(p.done(), 4, "skipped cells count as done");
    }

    #[test]
    fn heartbeat_rate_overrides_elapsed_estimate_and_eta() {
        let mut p = ProgressView::new(10);
        p.on_computed(100);
        p.on_computed(100);
        p.elapsed_ms = 2_000;
        p.rate_per_s = Some(0.5);
        let line = p.render();
        assert!(line.contains("| 0.50 runs/s"), "{line}");
        // Rate-based ETA: 8 remaining / 0.5 per s = 16s, no ± bar.
        assert!(line.contains("| ETA 16s"), "{line}");
        assert!(!line.contains('±'), "{line}");
        // Zero rate renders the rate but suppresses the ETA.
        p.rate_per_s = Some(0.0);
        let line = p.render();
        assert!(line.contains("| 0.00 runs/s"), "{line}");
        assert!(!line.contains("ETA"), "{line}");
    }

    #[test]
    fn runner_rows_render_as_indented_detail_lines() {
        let mut p = ProgressView::new(10);
        p.runner_rows.push(RunnerRow {
            id: "ci-a".into(),
            computed: 5,
            cached: 1,
            failed: 0,
            in_flight: 1,
            runs_per_s: 0.42,
            current: Some("jun/homog/none".into()),
            age_s: 1,
        });
        p.runner_rows.push(RunnerRow {
            id: "ci-b".into(),
            computed: 2,
            cached: 0,
            failed: 1,
            in_flight: 0,
            runs_per_s: 0.2,
            current: None,
            age_s: 3,
        });
        let rows = p.render_runners();
        assert_eq!(
            rows[0],
            "  ci-a: 5 computed, 1 cached, 0 failed, 1 in flight, 0.42 runs/s, on jun/homog/none (beat 1s ago)"
        );
        assert_eq!(
            rows[1],
            "  ci-b: 2 computed, 0 cached, 1 failed, 0.20 runs/s (beat 3s ago)"
        );
    }

    #[test]
    fn ci_half_width_narrows_with_samples() {
        let mut p = ProgressView::new(100);
        p.on_computed(100);
        let (_, wide) = p.wall_ms_ci().unwrap();
        assert!(wide.is_infinite(), "one sample has no finite CI");
        for _ in 0..20 {
            p.on_computed(100);
            p.on_computed(110);
        }
        let (mean, half) = p.wall_ms_ci().unwrap();
        assert!((mean - 105.0).abs() < 1.0);
        assert!(half < 5.0, "41 samples tighten the CI, got ±{half}");
    }

    #[test]
    fn eta_scales_by_compute_fraction() {
        let mut p = ProgressView::new(100);
        // Half the finished cells were cache hits → only half the
        // remaining 96 should count toward the ETA.
        p.on_computed(1_000);
        p.on_computed(1_000);
        p.on_cached();
        p.on_cached();
        let (eta, _) = p.eta_secs().unwrap();
        assert!((eta - 48.0).abs() < 1e-9, "expected 48s, got {eta}");
    }

    #[test]
    fn finished_campaign_renders_without_eta() {
        let mut p = ProgressView::new(1);
        p.on_computed(50);
        assert!(!p.render().contains("ETA"));
    }

    #[test]
    fn t_table_matches_aggregate_convention() {
        assert!(t_975(1) > 12.0);
        assert!((t_975(30) - 2.042).abs() < 1e-9);
        assert!((t_975(200) - 1.96).abs() < 1e-9);
    }
}
