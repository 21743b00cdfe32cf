//! Figure 8(b) — memory scaling: running time vs buffer-pool size.
//!
//! The paper plots relative time per document as the DB2 buffer pool is
//! swept from 128 to 928 4 KB frames: `SingleProbe` "shows continual
//! reduction in running time as buffer pool is increased" (no locality),
//! while `BulkProbe`'s "running time steeply drops and stabilizes" once
//! sort memory suffices. We sweep minirel's pool; sort memory is derived
//! from it, exactly the coupling the paper describes.

use crate::bulk_probe::bulk_posterior;
use crate::common::Scale;
use crate::fig8a_classifier::setup;
use crate::report::Series;
use crate::single_probe::SingleProbeBlob;
use focus_types::ClassId;
use std::time::Instant;

/// Figure 8(b) output.
#[derive(Debug, Clone)]
pub struct Fig8b {
    /// (frames, µs/doc) for SingleProbe.
    pub single: Series,
    /// (frames, µs/doc) for BulkProbe.
    pub bulk: Series,
    /// (frames, physical reads) for SingleProbe.
    pub single_io: Series,
    /// (frames, physical reads) for BulkProbe.
    pub bulk_io: Series,
}

impl Fig8b {
    /// The paper's two shapes, or why the sweep misses them:
    /// SingleProbe's physical reads keep falling across the sweep, and
    /// BulkProbe's stabilize — the last two sweep points are close
    /// (within 25% or 200 reads) while the first point is the worst.
    pub fn holds(&self) -> Result<(), String> {
        let (s, b) = (&self.single_io.points, &self.bulk_io.points);
        let (Some(first), Some(last)) = (s.first(), s.last()) else {
            return Err("empty sweep".into());
        };
        if first.1 <= last.1 {
            return Err(format!(
                "single-probe I/O should fall with more frames: {s:?}"
            ));
        }
        let [.., prev, last] = b.as_slice() else {
            return Err(format!("bulk sweep too short: {b:?}"));
        };
        if (last.1 - prev.1).abs() > (prev.1 * 0.25).max(200.0) {
            return Err(format!("bulk should have stabilized: {b:?}"));
        }
        if b[0].1 < last.1 {
            return Err(format!(
                "bulk I/O at the smallest pool should be the worst: {b:?}"
            ));
        }
        Ok(())
    }
}

/// Sweep the buffer pool.
pub fn run(scale: Scale) -> Fig8b {
    let sweeps: Vec<usize> = match scale {
        Scale::Tiny => vec![16, 32, 64, 128],
        Scale::Small => vec![16, 32, 64, 128, 256, 512],
        Scale::Full => vec![32, 64, 128, 228, 328, 528, 728, 928],
    };
    let mut single = Vec::new();
    let mut bulk = Vec::new();
    let mut single_io = Vec::new();
    let mut bulk_io = Vec::new();
    for &frames in &sweeps {
        let (mut db, tables, batch) = setup(scale, frames);
        let n = batch.len() as f64;

        db.reset_io_stats();
        let t = Instant::now();
        let sp = SingleProbeBlob { tables: &tables };
        for d in &batch {
            sp.posterior(&mut db, ClassId::ROOT, &d.terms)
                .expect("probe");
        }
        single.push((frames as f64, t.elapsed().as_micros() as f64 / n));
        single_io.push((frames as f64, db.io_stats().physical_reads as f64));

        db.reset_io_stats();
        let t = Instant::now();
        bulk_posterior(&mut db, &tables, ClassId::ROOT).expect("bulk");
        bulk.push((frames as f64, t.elapsed().as_micros() as f64 / n));
        bulk_io.push((frames as f64, db.io_stats().physical_reads as f64));
    }
    Fig8b {
        single: Series::new("SingleProbe us/doc", single),
        bulk: Series::new("BulkProbe us/doc", bulk),
        single_io: Series::new("SingleProbe physical reads", single_io),
        bulk_io: Series::new("BulkProbe physical reads", bulk_io),
    }
}

/// Print the sweep.
pub fn print(f: &Fig8b) {
    println!("--- Figure 8(b): memory scaling (buffer pool x 4kB) ---");
    println!(
        "{:>8} {:>16} {:>16} {:>14} {:>14}",
        "frames", "single us/doc", "bulk us/doc", "single phys", "bulk phys"
    );
    for i in 0..f.single.points.len() {
        println!(
            "{:>8} {:>16.1} {:>16.1} {:>14} {:>14}",
            f.single.points[i].0,
            f.single.points[i].1,
            f.bulk.points[i].1,
            f.single_io.points[i].1,
            f.bulk_io.points[i].1
        );
    }
    println!(
        "paper: SingleProbe improves continually (no locality); \
         BulkProbe steeply drops then stabilizes"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_paper() {
        if let Err(why) = run(Scale::Tiny).holds() {
            panic!("{why}");
        }
    }
}
