//! The benchmark's three workloads, built from a seed.
//!
//! Every workload is a closed-loop batch of [`SweepPoint`]s: a worker
//! starts the next point only when its previous one has finished. The
//! library only ever sees the generated points; the seed never reaches
//! it except through the points' [`ExperimentScale::seed`].

use std::sync::Arc;

use nucanet::experiments::{cell_point, ExperimentScale};
use nucanet::sweep::derive_seed;
use nucanet::{Design, Scheme, SweepPoint};
use nucanet_workload::BenchmarkProfile;

/// The seed used when `--seed` is not given; the recorded digests in
/// `digests/default_seed.txt` belong to it.
pub const DEFAULT_SEED: u64 = 0xCAFE;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Six paper-scale Fig. 8 points on the Design A mesh, 1 worker.
    Fig8Mesh,
    /// 1 000 screening points through the warm sweep path, 1 worker.
    ScreenSweep,
    /// Two paper-scale 4-core CMP points on the Design E halo, 1 worker.
    HaloCmp,
}

/// How large a batch to build: the benchmark's own scale, or a tiny one
/// for the benchmark's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Paper,
    /// A few milliseconds per batch, same structure.
    Tiny,
}

/// Benchmarks the screening workload rotates through, as the library's
/// own screening perf config does.
const SCREEN_BENCHES: [&str; 8] = [
    "gcc", "twolf", "vpr", "art", "mesa", "parser", "mcf", "apsi",
];

/// Sweep workers of every workload. One: with two workers on a 2-core
/// host, `screen-sweep` throughput varied about twice as much from run
/// to run as with one, too much for a usable regression bound.
pub const WORKERS: usize = 1;

/// Cores of every `halo-cmp` point.
pub const HALO_CORES: u16 = 4;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Fig8Mesh, Workload::ScreenSweep, Workload::HaloCmp];

    /// The name the command line and the records use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Mesh => "fig8-mesh",
            Workload::ScreenSweep => "screen-sweep",
            Workload::HaloCmp => "halo-cmp",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scale of one point (screening points share it; the seed is
    /// the workload seed, and screening points derive their own).
    pub fn scale(self, size: Size, seed: u64) -> ExperimentScale {
        let (warmup, measured, active_sets) = match (self, size) {
            (Workload::ScreenSweep, _) => (40, 10, 32),
            (_, Size::Paper) => (30_000, 3_000, 256),
            (_, Size::Tiny) => (1_500, 150, 32),
        };
        ExperimentScale {
            warmup,
            measured,
            active_sets,
            seed,
        }
    }

    /// Builds the workload's point list from `seed`.
    pub fn points(self, size: Size, seed: u64) -> Vec<SweepPoint> {
        let scale = self.scale(size, seed);
        match self {
            Workload::Fig8Mesh => {
                let mut points = Vec::new();
                for bench in ["gcc", "mcf", "art"] {
                    for scheme in [Scheme::UnicastLru, Scheme::MulticastFastLru] {
                        points.push(cell_point(Design::A, scheme, &profile(bench), scale));
                    }
                }
                points
            }
            Workload::ScreenSweep => {
                let n = match size {
                    Size::Paper => 1_000,
                    Size::Tiny => 16,
                };
                let config: Arc<_> = Design::A.config(Scheme::MulticastFastLru).into();
                (0..n)
                    .map(|i| SweepPoint {
                        label: format!("screen-{i}").into(),
                        config: Arc::clone(&config),
                        profile: profile(SCREEN_BENCHES[i % SCREEN_BENCHES.len()]),
                        scale: ExperimentScale {
                            seed: derive_seed(seed, i as u64),
                            ..scale
                        },
                    })
                    .collect()
            }
            Workload::HaloCmp => ["mcf", "gcc"]
                .into_iter()
                .map(|bench| {
                    let mut point =
                        cell_point(Design::E, Scheme::MulticastFastLru, &profile(bench), scale);
                    Arc::make_mut(&mut point.config).cores = HALO_CORES;
                    point
                })
                .collect(),
        }
    }
}

fn profile(name: &str) -> BenchmarkProfile {
    BenchmarkProfile::by_name(name).expect("benchmark profile exists")
}
