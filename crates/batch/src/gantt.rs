//! ASCII Gantt charts.
//!
//! The paper illustrates the reallocation mechanism with two Gantt figures
//! (Figure 1: a reallocation between two clusters; Figure 2: its side
//! effects). This module renders cluster execution histories in the same
//! style so the `figures` binary (`crates/bench/src/bin/figures.rs`) can
//! regenerate them in a terminal.

use std::collections::BTreeMap;

use grid_des::SimTime;

use crate::job::JobId;
use crate::profile::Profile;

/// Render a [`Profile`]'s free-capacity step function as a one-line ASCII
/// lane over `[t0, t1)`: each of the `width` cells shows the free count at
/// its left edge as a single character (`0`–`9` up to nine processors,
/// then `a`–`z` in coarse steps, `#` beyond). Consumes the public
/// [`Profile::breakpoints`] iterator — renderers never poke at the
/// availability engine's internals.
///
/// # Panics
/// Panics on an empty window or a width below 2, like
/// [`GanttChart::render`].
pub fn availability_lane(profile: &Profile, t0: SimTime, t1: SimTime, width: usize) -> String {
    assert!(t1 > t0, "empty time window");
    assert!(width >= 2, "width too small");
    let span = t1.since(t0).as_secs().max(1);
    let glyph = |free: u32| -> char {
        match free {
            0..=9 => (b'0' + free as u8) as char,
            10..=35 => (b'a' + (free - 10) as u8) as char,
            _ => '#',
        }
    };
    let mut cells = String::with_capacity(width + 2);
    cells.push('|');
    // Walk the breakpoint stream once, advancing it lazily as the cell
    // cursor crosses each breakpoint.
    let mut bps = profile.breakpoints().peekable();
    let mut free = profile.free_at(t0);
    for cell in 0..width {
        let at = SimTime(t0.as_secs() + (cell as u128 * span as u128 / width as u128) as u64);
        while let Some(&(bt, bf)) = bps.peek() {
            if bt <= at {
                free = bf;
                bps.next();
            } else {
                break;
            }
        }
        cells.push(glyph(free));
    }
    cells.push('|');
    cells.push('\n');
    cells
}

/// One executed (or planned) job occupation: `procs` processors over
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GanttEntry {
    /// The job.
    pub job: JobId,
    /// Processors occupied.
    pub procs: u32,
    /// Start instant.
    pub start: SimTime,
    /// End instant (exclusive).
    pub end: SimTime,
}

/// A renderable chart: entries are packed onto processor rows first-fit,
/// then drawn as a `procs × time` character grid.
#[derive(Debug, Clone, Default)]
pub struct GanttChart {
    entries: Vec<GanttEntry>,
}

impl GanttChart {
    /// Empty chart.
    pub fn new() -> Self {
        GanttChart::default()
    }

    /// Build from a history slice (e.g. [`Cluster::history`]).
    ///
    /// [`Cluster::history`]: crate::cluster::Cluster::history
    pub fn from_entries(entries: &[GanttEntry]) -> Self {
        GanttChart {
            entries: entries.to_vec(),
        }
    }

    /// Add one occupation.
    pub fn push(&mut self, entry: GanttEntry) {
        self.entries.push(entry);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the chart has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Assign each entry a contiguous band of processor rows, first-fit by
    /// start time. Returns `(entry, first_row)` pairs. Purely cosmetic: the
    /// simulator itself never needs per-processor placement.
    fn layout(&self, total_procs: u32) -> Vec<(GanttEntry, u32)> {
        let mut entries = self.entries.clone();
        entries.sort_by_key(|e| (e.start, e.job));
        // `rows[r]` = time until which row r is busy.
        let mut rows: Vec<SimTime> = vec![SimTime::ZERO; total_procs as usize];
        let mut out = Vec::with_capacity(entries.len());
        'entry: for e in entries {
            let need = e.procs as usize;
            if need == 0 || e.start >= e.end {
                continue;
            }
            // Find `need` contiguous rows free at e.start.
            let mut run = 0usize;
            for r in 0..rows.len() {
                if rows[r] <= e.start {
                    run += 1;
                    if run == need {
                        let first = r + 1 - need;
                        for row in &mut rows[first..=r] {
                            *row = e.end;
                        }
                        out.push((e, first as u32));
                        continue 'entry;
                    }
                } else {
                    run = 0;
                }
            }
            // Fragmented: fall back to any rows (non-contiguous rendering
            // uses the first free row found for the whole band height).
            let mut picked = Vec::with_capacity(need);
            for (r, busy_until) in rows.iter().enumerate() {
                if *busy_until <= e.start {
                    picked.push(r);
                    if picked.len() == need {
                        break;
                    }
                }
            }
            if picked.len() == need {
                for &r in &picked {
                    rows[r] = e.end;
                }
                out.push((e, picked[0] as u32));
            }
            // Over-capacity entries are skipped (cannot happen for real
            // cluster histories, which respect capacity).
        }
        out
    }

    /// Render as ASCII art: one text row per processor (top row = highest
    /// processor index, like the paper's figures), `width` characters of
    /// time axis spanning `[t0, t1)`. Jobs are labelled with letters
    /// `a..z` in start order (then `A..Z`, then `#`).
    pub fn render(&self, total_procs: u32, t0: SimTime, t1: SimTime, width: usize) -> String {
        assert!(t1 > t0, "empty time window");
        assert!(width >= 2, "width too small");
        let span = t1.since(t0).as_secs().max(1);
        let scale = |t: SimTime| -> usize {
            let dt = t.since(t0).as_secs().min(span);
            ((dt as u128 * width as u128) / span as u128) as usize
        };
        let layout = self.layout(total_procs);
        // Label assignment in start order.
        let mut labels: BTreeMap<JobId, char> = BTreeMap::new();
        {
            let mut ordered: Vec<(SimTime, JobId)> =
                layout.iter().map(|(e, _)| (e.start, e.job)).collect();
            ordered.sort();
            for (i, (_, id)) in ordered.iter().enumerate() {
                let c = if i < 26 {
                    (b'a' + i as u8) as char
                } else if i < 52 {
                    (b'A' + (i - 26) as u8) as char
                } else {
                    '#'
                };
                labels.entry(*id).or_insert(c);
            }
        }
        let mut grid = vec![vec![' '; width]; total_procs as usize];
        for (e, first_row) in &layout {
            let x0 = scale(e.start);
            let x1 = scale(e.end).max(x0 + 1).min(width);
            let label = labels[&e.job];
            for row in *first_row..(first_row + e.procs).min(total_procs) {
                for cell in &mut grid[row as usize][x0..x1] {
                    *cell = label;
                }
            }
        }
        let mut out = String::with_capacity((width + 8) * (total_procs as usize + 2));
        for row in grid.iter().rev() {
            out.push('|');
            out.extend(row.iter());
            out.push('|');
            out.push('\n');
        }
        out.push('+');
        out.extend(std::iter::repeat_n('-', width));
        out.push('+');
        out.push('\n');
        out.push_str(&format!(
            " t={}..{} ({} procs)\n",
            t0.as_secs(),
            t1.as_secs(),
            total_procs
        ));
        out
    }

    /// The legend mapping labels to job ids, matching [`GanttChart::render`].
    pub fn legend(&self, total_procs: u32) -> Vec<(char, JobId)> {
        let layout = self.layout(total_procs);
        let mut ordered: Vec<(SimTime, JobId)> =
            layout.iter().map(|(e, _)| (e.start, e.job)).collect();
        ordered.sort();
        ordered
            .into_iter()
            .enumerate()
            .map(|(i, (_, id))| {
                let c = if i < 26 {
                    (b'a' + i as u8) as char
                } else if i < 52 {
                    (b'A' + (i - 26) as u8) as char
                } else {
                    '#'
                };
                (c, id)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(job: u64, procs: u32, start: u64, end: u64) -> GanttEntry {
        GanttEntry {
            job: JobId(job),
            procs,
            start: SimTime(start),
            end: SimTime(end),
        }
    }

    #[test]
    fn render_single_job() {
        let mut g = GanttChart::new();
        g.push(e(1, 2, 0, 10));
        let s = g.render(2, SimTime(0), SimTime(10), 10);
        // Both processor rows fully covered by label 'a'.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "|aaaaaaaaaa|");
        assert_eq!(lines[1], "|aaaaaaaaaa|");
    }

    #[test]
    fn render_sequential_jobs_share_row() {
        let mut g = GanttChart::new();
        g.push(e(1, 1, 0, 5));
        g.push(e(2, 1, 5, 10));
        let s = g.render(1, SimTime(0), SimTime(10), 10);
        assert!(s.lines().next().unwrap().contains("aaaaabbbbb"), "{s}");
    }

    #[test]
    fn render_parallel_jobs_stack_rows() {
        let mut g = GanttChart::new();
        g.push(e(1, 1, 0, 10));
        g.push(e(2, 1, 0, 10));
        let s = g.render(2, SimTime(0), SimTime(10), 10);
        let lines: Vec<&str> = s.lines().collect();
        // One row 'a', one row 'b' (order depends on stacking).
        let body: Vec<char> = lines[0].chars().chain(lines[1].chars()).collect();
        assert!(body.contains(&'a') && body.contains(&'b'));
    }

    #[test]
    fn legend_lists_jobs_in_start_order() {
        let mut g = GanttChart::new();
        g.push(e(10, 1, 5, 10));
        g.push(e(20, 1, 0, 5));
        let legend = g.legend(1);
        assert_eq!(legend, vec![('a', JobId(20)), ('b', JobId(10))]);
    }

    #[test]
    fn zero_length_entries_are_skipped() {
        let mut g = GanttChart::new();
        g.push(e(1, 1, 5, 5));
        let s = g.render(1, SimTime(0), SimTime(10), 10);
        assert!(!s.contains('a'));
    }

    #[test]
    fn minimum_one_cell_for_short_jobs() {
        let mut g = GanttChart::new();
        // 1-second job in a 1000-second window still shows one cell.
        g.push(e(1, 1, 0, 1));
        let s = g.render(1, SimTime(0), SimTime(1000), 20);
        assert!(s.contains('a'));
    }

    #[test]
    fn availability_lane_tracks_the_breakpoints() {
        use grid_des::Duration;
        let mut p = Profile::flat(8, SimTime(0));
        p.reserve(SimTime(0), Duration(5), 8); // fully busy [0,5)
        p.reserve(SimTime(5), Duration(5), 3); // 5 free over [5,10)
        let lane = availability_lane(&p, SimTime(0), SimTime(20), 20);
        assert_eq!(lane, "|00000555558888888888|\n");
        // Clamped before the origin, wide counts collapse to letters.
        let big = Profile::flat(12, SimTime(10));
        let lane = availability_lane(&big, SimTime(0), SimTime(20), 10);
        assert_eq!(lane, "|cccccccccc|\n");
    }

    #[test]
    fn empty_chart_renders_blank() {
        let g = GanttChart::new();
        assert!(g.is_empty());
        let s = g.render(2, SimTime(0), SimTime(10), 10);
        assert!(s
            .lines()
            .take(2)
            .all(|l| l.trim_matches('|').trim().is_empty()));
    }
}
