//! Figure 2: OHR (and disk-write) grids over (f, s) for different traces.
//!
//! Paper expectations:
//! * 2a/2b — two mixed-traffic windows have *different* optimal (f, s), and
//!   deploying one window's optimum on the other loses OHR;
//! * 2c — the Image class optimum sits at high f / small s (paper: f=5,
//!   s=20 KB);
//! * 2d — the Download class optimum sits at low f / large s (paper: f=1,
//!   s=5 MB), and 2e — its disk-write-optimal s differs from the
//!   OHR-optimal one.

use crate::report::{f4, Report};
use crate::scale::Scale;
use darwin_cache::{EvictionKind, HocSim, ThresholdPolicy};
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};
use std::path::Path;

/// The motivation grid is wider than the evaluation grid: it includes f=1
/// and multi-MB size thresholds so the Download optimum is expressible.
fn motivation_grid() -> (Vec<u32>, Vec<u64>) {
    let fs = vec![1u32, 2, 3, 4, 5, 6, 7];
    let ss_kb = vec![10u64, 20, 50, 100, 500, 1000, 5000, 10000];
    (fs, ss_kb)
}

struct GridResult {
    /// (f, s_kb, ohr, hoc_miss_bytes_per_request)
    cells: Vec<(u32, u64, f64, f64)>,
}

/// Selection key that makes a NaN cell lose: `total_cmp` alone would rank
/// positive NaN above every real value in a max, so a degenerate simulation
/// result could masquerade as the optimum.
fn nan_loses(x: f64, worst: f64) -> f64 {
    if x.is_nan() {
        worst
    } else {
        x
    }
}

impl GridResult {
    fn best_by_ohr(&self) -> (u32, u64, f64) {
        let c = self
            .cells
            .iter()
            .max_by(|a, b| {
                nan_loses(a.2, f64::NEG_INFINITY).total_cmp(&nan_loses(b.2, f64::NEG_INFINITY))
            })
            .unwrap();
        (c.0, c.1, c.2)
    }

    fn best_by_disk_write(&self) -> (u32, u64, f64) {
        let c = self
            .cells
            .iter()
            .min_by(|a, b| nan_loses(a.3, f64::INFINITY).total_cmp(&nan_loses(b.3, f64::INFINITY)))
            .unwrap();
        (c.0, c.1, c.3)
    }

    fn ohr_at(&self, f: u32, s_kb: u64) -> f64 {
        self.cells.iter().find(|c| c.0 == f && c.1 == s_kb).map(|c| c.2).expect("cell in grid")
    }
}

/// Sweeps the full (f, s) grid on one trace, fanned out deterministically
/// (`threads` 0 = auto): each worker simulates its share of the cells as
/// lanes of one simulator in one pass, and each lane's result is its
/// cell's alone, so the grid is bitwise identical at any thread count.
fn sweep(trace: &Trace, hoc_bytes: u64, threads: usize) -> GridResult {
    let (fs, ss) = motivation_grid();
    let grid_points: Vec<(u32, u64)> =
        fs.iter().flat_map(|&f| ss.iter().map(move |&s| (f, s))).collect();
    let cells = darwin_parallel::par_ranges(threads, grid_points.len(), |share| {
        let share = &grid_points[share];
        let mut sim = HocSim::bank(
            share
                .iter()
                .map(|&(f, s)| (hoc_bytes, EvictionKind::Lru, ThresholdPolicy::new(f, s * 1024))),
        );
        let windows = sim.run_trace(trace);
        share
            .iter()
            .zip(windows)
            .map(|(&(f, s), m)| (f, s, m.hoc_ohr(), m.hoc_miss_bytes_per_request()))
            .collect()
    });
    GridResult { cells }
}

/// Runs the Fig 2 family and writes `fig2*.csv`.
pub fn run(scale: &Scale, out: &Path) {
    let hoc = scale.hoc_bytes();
    // The motivation grids use the paper's actual window length (2 M
    // requests): high-f admission only pays off once an object's 6th+
    // requests arrive, so short windows would bias every grid toward f=1.
    // This experiment needs no training, so the full length is affordable.
    let len = (scale.online_trace_len() * 7).max(2_000_000);

    // 2a/2b: two windows of a production-like mixed trace with different
    // class mixes (the load balancer changed the mix between windows);
    // 2c/2d: single-class Image and Download traces. Generation is seeded
    // per trace, so the four builds fan out in parallel.
    let specs = [
        (MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.8), 2001u64),
        (MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.25), 2002),
        (MixSpec::single(TrafficClass::image()), 2003),
        (MixSpec::single(TrafficClass::download()), 2004),
    ];
    let traces = darwin_parallel::par_map(0, &specs, |(spec, seed)| {
        TraceGenerator::new(spec.clone(), *seed).generate(len)
    });

    let names = ["win1", "win2", "image", "download"];
    // Grids run one after another so each sweep gets the full worker pool
    // for its 56 cells.
    let grids: Vec<GridResult> = traces.iter().map(|t| sweep(t, hoc, 0)).collect();

    let mut rep = Report::new(
        "fig2_grids",
        "Fig 2: HOC OHR / disk-write grids over (f, s)",
        &["trace", "f", "s_kb", "ohr", "miss_bytes_per_req"],
        out,
    );
    for (name, grid) in names.iter().zip(&grids) {
        for &(f, s, ohr, dw) in &grid.cells {
            rep.row(&[name.to_string(), f.to_string(), s.to_string(), f4(ohr), format!("{dw:.1}")]);
        }
    }
    rep.finish().expect("write fig2 csv");

    // Headline checks the paper narrates.
    let mut sum = Report::new(
        "fig2_summary",
        "Fig 2 summary: optima and cross-window degradation",
        &["quantity", "value"],
        out,
    );
    let (f1, s1, o1) = grids[0].best_by_ohr();
    let (f2, s2, o2) = grids[1].best_by_ohr();
    sum.row(&["win1 best (f,s_kb,ohr)".into(), format!("f{f1} s{s1} {}", f4(o1))]);
    sum.row(&["win2 best (f,s_kb,ohr)".into(), format!("f{f2} s{s2} {}", f4(o2))]);
    // Degradation from deploying the other window's optimum (paper: 1.19 % /
    // 7.83 % on its randomly picked windows).
    let w1_with_w2_best = grids[0].ohr_at(f2, s2);
    let w2_with_w1_best = grids[1].ohr_at(f1, s1);
    sum.row(&[
        "win1 loss with win2 optimum (%)".into(),
        format!("{:.2}", (o1 - w1_with_w2_best) / o1 * 100.0),
    ]);
    sum.row(&[
        "win2 loss with win1 optimum (%)".into(),
        format!("{:.2}", (o2 - w2_with_w1_best) / o2 * 100.0),
    ]);
    let (fi, si, oi) = grids[2].best_by_ohr();
    let (fd, sd, od) = grids[3].best_by_ohr();
    sum.row(&["image best (paper: f5 s20)".into(), format!("f{fi} s{si} {}", f4(oi))]);
    sum.row(&["download best (paper: f1 s5000)".into(), format!("f{fd} s{sd} {}", f4(od))]);
    let (fw, sw, dw) = grids[3].best_by_disk_write();
    sum.row(&[
        "download disk-write best (paper: f1 s10000)".into(),
        format!("f{fw} s{sw} {dw:.1} B/req"),
    ]);
    sum.finish().expect("write fig2 summary");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The motivation grid — the heaviest sweep in the harness — is bitwise
    /// identical at 1 and 8 worker threads, cell for cell.
    #[test]
    fn grid_is_thread_count_invariant() {
        let trace = TraceGenerator::new(
            MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
            77,
        )
        .generate(30_000);
        let hoc = 4 * 1024 * 1024;
        let one = sweep(&trace, hoc, 1);
        let eight = sweep(&trace, hoc, 8);
        assert_eq!(one.cells.len(), eight.cells.len());
        for (a, b) in one.cells.iter().zip(&eight.cells) {
            assert_eq!((a.0, a.1), (b.0, b.1), "cell order must match");
            assert_eq!(a.2.to_bits(), b.2.to_bits(), "ohr at f{} s{}", a.0, a.1);
            assert_eq!(a.3.to_bits(), b.3.to_bits(), "disk write at f{} s{}", a.0, a.1);
        }
        // The selected optima therefore agree too.
        assert_eq!(one.best_by_ohr(), eight.best_by_ohr());
        assert_eq!(one.best_by_disk_write(), eight.best_by_disk_write());
    }

    /// `total_cmp`-based selection tolerates NaN cells (a sim returning a
    /// degenerate metric must not panic the whole experiment run).
    #[test]
    fn best_selection_survives_nan_cells() {
        let grid = GridResult {
            cells: vec![(1, 10, f64::NAN, 5.0), (2, 20, 0.4, f64::NAN), (3, 50, 0.6, 3.0)],
        };
        assert_eq!(grid.best_by_ohr(), (3, 50, 0.6));
        assert_eq!(grid.best_by_disk_write(), (3, 50, 3.0));
    }
}
