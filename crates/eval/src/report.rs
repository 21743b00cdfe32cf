//! Result containers and paper-style printing.

/// A named (x, y) series — one curve of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label (e.g. `"Avg over 100"`).
    pub name: String,
    /// Points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Build from any point iterator.
    pub fn new(name: impl Into<String>, points: impl IntoIterator<Item = (f64, f64)>) -> Series {
        Series {
            name: name.into(),
            points: points.into_iter().collect(),
        }
    }

    /// Last y value (steady state of a converging curve).
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|&(_, y)| y)
    }

    /// Mean of y over the final `frac` (0..1] of points.
    pub fn tail_mean(&self, frac: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let n = self.points.len();
        let k = ((n as f64 * frac).ceil() as usize).clamp(1, n);
        let tail = &self.points[n - k..];
        tail.iter().map(|&(_, y)| y).sum::<f64>() / k as f64
    }

    /// Downsample to at most `n` evenly spaced points (for printing).
    pub fn downsample(&self, n: usize) -> Series {
        if self.points.len() <= n || n == 0 {
            return self.clone();
        }
        let step = self.points.len() as f64 / n as f64;
        let pts = (0..n)
            .map(|i| self.points[(i as f64 * step) as usize])
            .collect();
        Series {
            name: self.name.clone(),
            points: pts,
        }
    }

    /// Render as a fixed-width ASCII chart (y rescaled to `[0, ymax]`).
    pub fn ascii_chart(&self, width: usize, height: usize) -> String {
        if self.points.is_empty() {
            return format!("{}: (empty)\n", self.name);
        }
        let s = self.downsample(width);
        let ymax = s
            .points
            .iter()
            .map(|&(_, y)| y)
            .fold(f64::MIN, f64::max)
            .max(1e-12);
        let mut grid = vec![vec![b' '; s.points.len()]; height];
        for (x, &(_, y)) in s.points.iter().enumerate() {
            let row = (((y / ymax) * (height - 1) as f64).round() as usize).min(height - 1);
            grid[height - 1 - row][x] = b'*';
        }
        let mut out = format!("{} (ymax = {ymax:.3})\n", self.name);
        for row in grid {
            out.push('|');
            out.push_str(std::str::from_utf8(&row).expect("ascii"));
            out.push('\n');
        }
        out.push('+');
        out.push_str(&"-".repeat(s.points.len()));
        out.push('\n');
        out
    }
}

/// A paper-vs-measured comparison row for EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Experiment id (e.g. "Fig 5b").
    pub experiment: String,
    /// What the paper reports.
    pub paper: String,
    /// What this reproduction measures.
    pub measured: String,
    /// Does the shape hold?
    pub holds: bool,
}

/// Print comparisons as a markdown table (pasteable into EXPERIMENTS.md).
pub fn print_comparisons(rows: &[Comparison]) {
    println!("| experiment | paper | measured | shape holds |");
    println!("|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {} | {} |",
            r.experiment,
            r.paper,
            r.measured,
            if r.holds { "yes" } else { "NO" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_helpers() {
        let s = Series::new("t", (0..100).map(|i| (i as f64, i as f64)));
        assert_eq!(s.last_y(), Some(99.0));
        assert!(s.tail_mean(0.1) > 90.0);
        assert_eq!(s.downsample(10).points.len(), 10);
        let chart = s.ascii_chart(40, 8);
        assert!(chart.contains('*'));
        assert!(chart.lines().count() >= 9);
    }

    #[test]
    fn empty_series() {
        let s = Series::new("e", []);
        assert_eq!(s.last_y(), None);
        assert_eq!(s.tail_mean(0.5), 0.0);
        assert!(s.ascii_chart(10, 4).contains("empty"));
    }
}
