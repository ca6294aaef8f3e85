//! Trace generation: Poisson-arrival, Zipf-popularity request streams mixed
//! across traffic classes (the Tragen-style corpus generator of §6).
//!
//! Each class contributes requests at `rate_rps × share`; class arrival
//! processes are independent Poisson processes, so the merged stream is a
//! Poisson process whose thinning probabilities equal the shares. Object IDs
//! are namespaced per class in the high bits so classes never collide.

use crate::class::TrafficClass;
use crate::request::{ObjectId, Request, Trace};
use crate::zipf::{ZipfSampler, CACHED_RANKS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::mpsc;

/// Number of low bits of an [`ObjectId`] reserved for the per-class object
/// rank; the class index lives above them.
const CLASS_SHIFT: u32 = 48;

/// Builds the [`ObjectId`] for object `rank` of class `class_idx`.
pub fn object_id(class_idx: usize, rank: u64) -> ObjectId {
    debug_assert!(rank < (1 << CLASS_SHIFT));
    ((class_idx as u64) << CLASS_SHIFT) | rank
}

/// Extracts `(class_idx, rank)` from an [`ObjectId`] minted by [`object_id`].
pub fn split_id(id: ObjectId) -> (usize, u64) {
    ((id >> CLASS_SHIFT) as usize, id & ((1 << CLASS_SHIFT) - 1))
}

/// A mix specification: a set of traffic classes with their traffic shares.
///
/// Shares are normalized at generation time; a share of 0 removes the class
/// from the mix (the paper sweeps 100:0 → 0:100 over Image/Download).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixSpec {
    /// The classes in the mix.
    pub classes: Vec<TrafficClass>,
    /// Relative traffic shares (any non-negative weights; normalized).
    pub shares: Vec<f64>,
}

impl MixSpec {
    /// A mix of exactly one class.
    pub fn single(class: TrafficClass) -> Self {
        Self { classes: vec![class], shares: vec![1.0] }
    }

    /// A two-class mix where `share_a` ∈ `[0,1]` is the traffic share of `a`.
    pub fn two_class(a: TrafficClass, b: TrafficClass, share_a: f64) -> Self {
        assert!((0.0..=1.0).contains(&share_a), "share_a must be in [0,1]");
        Self { classes: vec![a, b], shares: vec![share_a, 1.0 - share_a] }
    }

    /// Arbitrary mix. `classes` and `shares` must have equal lengths and at
    /// least one positive share.
    pub fn new(classes: Vec<TrafficClass>, shares: Vec<f64>) -> Self {
        assert_eq!(classes.len(), shares.len(), "classes/shares length mismatch");
        assert!(shares.iter().any(|&s| s > 0.0), "at least one share must be positive");
        assert!(shares.iter().all(|&s| s >= 0.0), "shares must be non-negative");
        Self { classes, shares }
    }

    /// Normalized shares.
    pub fn normalized_shares(&self) -> Vec<f64> {
        let sum: f64 = self.shares.iter().sum();
        self.shares.iter().map(|s| s / sum).collect()
    }

    /// Aggregate request rate of the mix (sum of class rates weighted by
    /// normalized share), in requests/second. Mirrors the paper's "sum of the
    /// request rates for the two traffic classes … is 265.9 req/s".
    pub fn aggregate_rate_rps(&self) -> f64 {
        let shares = self.normalized_shares();
        self.classes
            .iter()
            .zip(&shares)
            .map(|(c, &sh)| c.rate_rps * sh)
            .sum::<f64>()
            .max(f64::MIN_POSITIVE)
    }

    /// The standard evaluation sweep of the paper: `steps` two-class mixes
    /// with share of `a` going 1.0 → 0.0 inclusive.
    pub fn sweep(a: TrafficClass, b: TrafficClass, steps: usize) -> Vec<MixSpec> {
        assert!(steps >= 2, "a sweep needs at least its two endpoints");
        (0..steps)
            .map(|i| {
                let share_a = 1.0 - i as f64 / (steps - 1) as f64;
                MixSpec::two_class(a.clone(), b.clone(), share_a)
            })
            .collect()
    }
}

/// Deterministic trace generator for a [`MixSpec`].
///
/// The generator draws, per request: the class (categorical over shares), the
/// object (Zipf over the class catalog with per-class random rank permutation
/// so two classes' popular objects are unrelated), and the inter-arrival gap
/// (exponential at the aggregate mix rate).
///
/// What depends only on a class and a popularity rank — the Zipf acceptance
/// ratio, the permuted rank and the object's size — is computed the first
/// time the rank is drawn and kept for the generator's lifetime, in
/// per-class tables over the first 2²⁰ ranks; a one-hit wonder's size is
/// computed per request.
///
/// A request is made in two stages: the walk draws its uniforms and rank,
/// and the assembly turns them into a [`Request`]. Above one chunk of
/// 4096 requests, and with a second core to run on, the walk runs on a
/// thread of its own, ahead of the assembly; the trace and the
/// generator's state after the call are the same either way.
pub struct TraceGenerator {
    spec: MixSpec,
    walk: Walk,
    catalogs: Vec<Catalog>,
    lambda_per_us: f64,
}

/// Requests the walk hands the assembly at a time when the two run on two
/// threads; a trace of at most this many is made on the calling thread.
const CHUNK: usize = 4096;

/// Chunk buffers passed between the two threads: one being walked, one
/// being assembled, and the rest queued between them.
const BUFFERS: usize = 4;

/// The first stage: everything that draws from the generator's RNG or
/// moves sampler state.
struct Walk {
    rng: SmallRng,
    /// Each class's popularity sampler.
    zipf: Vec<ZipfSampler>,
    cum_shares: Vec<f64>,
    /// Next fresh one-hit-wonder rank per class (offset past the catalog).
    one_hit_next: Vec<u64>,
}

/// One request as the walk leaves it for the assembly.
#[derive(Debug, Clone, Copy)]
struct Draw {
    /// The arrival gap's uniform.
    u: f64,
    class: usize,
    /// A one-hit wonder's rank, or a catalog object's 0-based popularity
    /// rank.
    rank: u64,
    one_hit: bool,
}

impl Walk {
    /// Draws the next request's uniforms and rank.
    #[inline]
    fn step(&mut self, classes: &[TrafficClass]) -> Draw {
        // Exponential inter-arrival at the aggregate rate.
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let class = self.draw_class();
        // With probability `one_hit_fraction`, mint a brand-new object
        // (one-hit wonder); otherwise draw from the Zipf catalog.
        let fraction = classes[class].one_hit_fraction;
        if fraction > 0.0 && self.rng.gen::<f64>() < fraction {
            let rank = self.one_hit_next[class];
            self.one_hit_next[class] += 1;
            Draw { u, class, rank, one_hit: true }
        } else {
            let rank = self.zipf[class].sample(&mut self.rng) - 1;
            Draw { u, class, rank, one_hit: false }
        }
    }

    fn draw_class(&mut self) -> usize {
        let u: f64 = self.rng.gen::<f64>();
        self.cum_shares.iter().position(|&c| u < c).unwrap_or(self.cum_shares.len() - 1)
    }
}

/// One class's catalog: the objects drawn so far.
struct Catalog {
    /// Seed of the rank permutation.
    permute_seed: u64,
    /// Seed of the object sizes (one-hit wonders' too); fixed per generator
    /// so re-generating with the same seed reproduces the trace exactly.
    size_seed: u64,
    /// `objects[k]` is `[rank, size]` of the object at 0-based popularity
    /// rank `k` — its rank after the permutation and its size — for `k`
    /// below [`CACHED_RANKS`]. A size of 0 marks a rank not yet drawn, so the
    /// table starts as zeroed pages.
    objects: Vec<[u64; 2]>,
}

impl Catalog {
    /// The catalog object of `class` at 0-based popularity rank `k`: its
    /// rank and its size.
    fn object(&mut self, class: &TrafficClass, k: u64) -> (u64, u64) {
        // A size of 0 (a class whose `min_bytes` is 0) is merely recomputed.
        if let Some(&[rank, size]) = self.objects.get(k as usize) {
            if size != 0 {
                return (rank, size);
            }
        }
        let rank = permute_rank(k, class.num_objects, self.permute_seed);
        let size = class.object_size(rank, self.size_seed);
        if let Some(slot) = self.objects.get_mut(k as usize) {
            *slot = [rank, size];
        }
        (rank, size)
    }
}

/// The second stage: a [`Draw`] made a [`Request`], on the clock of one
/// [`TraceGenerator::generate`] call.
struct Assembly<'a> {
    classes: &'a [TrafficClass],
    catalogs: &'a mut [Catalog],
    lambda_per_us: f64,
    t_us: u64,
}

impl Assembly<'_> {
    #[inline]
    fn request(&mut self, d: Draw) -> Request {
        let gap = (-d.u.ln() / self.lambda_per_us).round() as u64;
        self.t_us = self.t_us.saturating_add(gap.max(1));
        let class = &self.classes[d.class];
        let catalog = &mut self.catalogs[d.class];
        // Catalog popularity ranks are permuted deterministically per
        // class, so popularity order differs between classes/seeds.
        let (rank, size) = if d.one_hit {
            (d.rank, class.object_size(d.rank, catalog.size_seed))
        } else {
            catalog.object(class, d.rank)
        };
        Request::new(object_id(d.class, rank), size, self.t_us)
    }
}

impl TraceGenerator {
    /// Creates a generator for `spec` with the given RNG seed.
    ///
    /// # Panics
    ///
    /// If a class's `zipf_alpha` is infinite, or so steep that the Zipf
    /// rejection loop would not finish (rank 1 accepted with probability
    /// below 10⁻⁶ — `zipf_alpha` above ≈ 25.6 on a catalog of more than one
    /// object).
    pub fn new(spec: MixSpec, seed: u64) -> Self {
        let shares = spec.normalized_shares();
        let mut cum = 0.0;
        let cum_shares: Vec<f64> = shares
            .iter()
            .map(|s| {
                cum += s;
                cum
            })
            .collect();
        let zipf = spec
            .classes
            .iter()
            .map(|c| {
                ZipfSampler::new(c.num_objects.max(1), c.zipf_alpha.max(1e-9))
                    .unwrap_or_else(|why| panic!("traffic class `{}`: {why}", c.name))
            })
            .collect();
        let catalogs = spec
            .classes
            .iter()
            .enumerate()
            .map(|(i, c)| Catalog {
                permute_seed: seed ^ i as u64,
                size_seed: seed ^ (i as u64) << 32,
                objects: vec![[0; 2]; c.num_objects.clamp(1, CACHED_RANKS) as usize],
            })
            .collect();
        let lambda_per_us = spec.aggregate_rate_rps() / 1_000_000.0;
        let one_hit_next = spec.classes.iter().map(|c| c.num_objects).collect();
        Self {
            walk: Walk { rng: SmallRng::seed_from_u64(seed), zipf, cum_shares, one_hit_next },
            spec,
            catalogs,
            lambda_per_us,
        }
    }

    /// The spec this generator draws from.
    pub fn spec(&self) -> &MixSpec {
        &self.spec
    }

    /// Generates a trace of exactly `n` requests starting at t = 0.
    ///
    /// Above one chunk, the walk runs on a second thread unless this
    /// thread is a sweep worker ([`darwin_parallel::in_pool`]) or fewer than
    /// two cores are available to it ([`darwin_parallel::resolve_threads`]).
    pub fn generate(&mut self, n: usize) -> Trace {
        let inline = n <= CHUNK || darwin_parallel::in_pool() || darwin_parallel::resolve_threads(0) < 2;
        self.make(n, !inline)
    }

    /// [`generate`](Self::generate), with the walk on a second thread or
    /// not.
    fn make(&mut self, n: usize, two_threads: bool) -> Trace {
        let mut requests = Vec::with_capacity(n);
        let Self { spec, walk, catalogs, lambda_per_us } = self;
        let classes = &spec.classes[..];
        let mut assembly = Assembly { classes, catalogs, lambda_per_us: *lambda_per_us, t_us: 0 };
        if !two_threads {
            requests.extend((0..n).map(|_| assembly.request(walk.step(classes))));
            return Trace::from_sorted(requests);
        }
        // A fixed set of buffers goes round: the walk fills an empty one
        // and sends it on, the assembly empties it and sends it back. Both
        // channels hold every buffer, so no send waits, and every buffer is
        // allocated here, so the walk's thread allocates nothing.
        let (full, walked) = mpsc::sync_channel::<Vec<Draw>>(BUFFERS);
        let (spent, empty) = mpsc::sync_channel::<Vec<Draw>>(BUFFERS);
        for _ in 0..BUFFERS {
            spent.send(Vec::with_capacity(CHUNK)).expect("the receiver is held");
        }
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for start in (0..n).step_by(CHUNK) {
                    // Either fails only once the assembly has unwound.
                    let Ok(mut chunk) = empty.recv() else { return };
                    chunk.clear();
                    chunk.extend((start..n.min(start + CHUNK)).map(|_| walk.step(classes)));
                    if full.send(chunk).is_err() {
                        return;
                    }
                }
            });
            // Ends when the walk has sent its last chunk (or unwound, which
            // the scope then re-raises).
            for chunk in walked {
                requests.extend(chunk.iter().map(|&d| assembly.request(d)));
                // Fails only once the walk is done with buffers.
                let _ = spent.send(chunk);
            }
        });
        Trace::from_sorted(requests)
    }
}

/// A cheap measure-preserving permutation of `[0, n)` (two rounds of a
/// multiply-xor hash reduced modulo n with linear probing offset). It does not
/// need to be a true bijection for trace realism — collisions merely merge two
/// popularity ranks — but it must be deterministic.
fn permute_rank(rank: u64, n: u64, seed: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    let mut x = rank.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x % n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::TrafficClass;
    use std::collections::HashMap;

    #[test]
    fn generates_requested_length_and_ordering() {
        let spec = MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5);
        let t = TraceGenerator::new(spec, 1).generate(5000);
        assert_eq!(t.len(), 5000);
        assert!(t.requests().windows(2).all(|w| w[0].timestamp_us <= w[1].timestamp_us));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let spec = MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.3);
        let a = TraceGenerator::new(spec.clone(), 9).generate(2000);
        let b = TraceGenerator::new(spec, 9).generate(2000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = MixSpec::single(TrafficClass::image());
        let a = TraceGenerator::new(spec.clone(), 1).generate(1000);
        let b = TraceGenerator::new(spec, 2).generate(1000);
        assert_ne!(a, b);
    }

    #[test]
    fn share_zero_excludes_class() {
        let spec = MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.0);
        let t = TraceGenerator::new(spec, 3).generate(3000);
        // All IDs must belong to class 1 (download).
        assert!(t.iter().all(|r| split_id(r.id).0 == 1));
    }

    #[test]
    fn mix_ratio_roughly_respected() {
        let spec = MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.7);
        let t = TraceGenerator::new(spec, 4).generate(20_000);
        let image_reqs = t.iter().filter(|r| split_id(r.id).0 == 0).count();
        let frac = image_reqs as f64 / t.len() as f64;
        assert!((frac - 0.7).abs() < 0.02, "image share {frac} too far from 0.7");
    }

    #[test]
    fn object_sizes_consistent_within_trace() {
        let spec = MixSpec::single(TrafficClass::download());
        let t = TraceGenerator::new(spec, 5).generate(20_000);
        let mut seen: HashMap<u64, u64> = HashMap::new();
        for r in &t {
            let prev = seen.insert(r.id, r.size);
            if let Some(p) = prev {
                assert_eq!(p, r.size, "object {} changed size", r.id);
            }
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let spec = MixSpec::single(TrafficClass::download());
        let t = TraceGenerator::new(spec, 6).generate(50_000);
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for r in &t {
            *counts.entry(r.id).or_default() += 1;
        }
        let mut v: Vec<usize> = counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = v.iter().take(10).sum();
        // Zipf(1.05) over 8k objects: top-10 objects should dominate.
        assert!(top10 as f64 / 50_000.0 > 0.15, "top-10 share too small: {top10}");
    }

    #[test]
    fn sweep_endpoints_are_pure() {
        let sweep = MixSpec::sweep(TrafficClass::image(), TrafficClass::download(), 5);
        assert_eq!(sweep.len(), 5);
        assert!((sweep[0].shares[0] - 1.0).abs() < 1e-12);
        assert!(sweep[4].shares[0].abs() < 1e-12);
    }

    #[test]
    fn refuses_a_skew_the_rejection_loop_cannot_finish() {
        let class =
            |zipf_alpha| TrafficClass { name: "steep".into(), zipf_alpha, ..TrafficClass::download() };
        for alpha in [50.0, 1000.0, 2000.0] {
            let refused =
                std::panic::catch_unwind(|| TraceGenerator::new(MixSpec::single(class(alpha)), 1));
            let why = refused.err().and_then(|p| p.downcast::<String>().ok()).expect("a panic message");
            assert!(why.contains("traffic class `steep`") && why.contains("would not finish"), "{why}");
        }
        // A steep skew, far above every preset's, still generates.
        let t = TraceGenerator::new(MixSpec::single(class(16.0)), 1).generate(1000);
        assert_eq!(t.len(), 1000);
    }

    /// A class with (or without) one-hit wonders over a small catalog.
    fn small(one_hit_fraction: f64) -> TrafficClass {
        TrafficClass { num_objects: 50_000, one_hit_fraction, ..TrafficClass::image() }
    }

    /// The walk on a second thread makes the trace the calling thread
    /// makes, and leaves the generator as it does: two calls in a row on
    /// each, over single- and two-class mixes with one-hit wonders on and
    /// off, at lengths on and around the chunk.
    #[test]
    fn two_threads_make_the_inline_trace_and_state() {
        let mixes = [
            MixSpec::single(small(0.0)),
            MixSpec::single(small(0.3)),
            MixSpec::two_class(small(0.0), TrafficClass::download(), 0.4),
            MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
        ];
        for (m, spec) in mixes.into_iter().enumerate() {
            for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
                let mut inline = TraceGenerator::new(spec.clone(), 40 + m as u64);
                let mut piped = TraceGenerator::new(spec.clone(), 40 + m as u64);
                for call in 0..2 {
                    let want = darwin_parallel::inline_sweeps(|| inline.generate(n));
                    let got = piped.make(n, true);
                    assert_eq!(got, want, "mix {m}, n {n}, call {call}");
                    assert_eq!(piped.walk.rng, inline.walk.rng, "mix {m}, n {n}, call {call}");
                    assert_eq!(piped.walk.one_hit_next, inline.walk.one_hit_next);
                    let tables = piped.catalogs.iter().zip(&inline.catalogs);
                    assert!(tables.into_iter().all(|(p, i)| p.objects == i.objects), "mix {m}, n {n}");
                }
            }
        }
    }

    /// `generate`, on whichever path this host gives it, makes the trace
    /// of either path.
    #[test]
    fn generate_is_the_same_inline_and_on_two_threads() {
        let spec = MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5);
        let n = 5 * CHUNK + 3;
        let free = TraceGenerator::new(spec.clone(), 8).generate(n);
        let inline = darwin_parallel::inline_sweeps(|| TraceGenerator::new(spec.clone(), 8).generate(n));
        assert_eq!(free, inline);
        assert_eq!(free, TraceGenerator::new(spec, 8).make(n, true));
    }

    #[test]
    fn split_id_roundtrip() {
        let id = object_id(3, 12345);
        assert_eq!(split_id(id), (3, 12345));
    }

    #[test]
    fn aggregate_rate_matches_paper_total() {
        // Image (150 rps) + Download (115.9 rps) at any split stays within
        // the two class rates; at 50:50 it is their average.
        let spec = MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5);
        let r = spec.aggregate_rate_rps();
        assert!((r - (150.0 + 115.9) / 2.0).abs() < 1e-9);
    }
}
