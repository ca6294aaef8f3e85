//! Future-work demonstration (§7/§8): extending Darwin's learning paradigm
//! from *admission* experts to *eviction* experts.
//!
//! "While Darwin focuses on studying HOC admissions, we argue that our
//! approach can be flexibly extended to learn CDN eviction decisions with
//! multiple objectives; we leave a systematic exploration for future work."
//!
//! This example instantiates the offline half of that extension with the
//! machinery already in the workspace: experts are *(admission, eviction)*
//! pairs; traces are featurized and clustered exactly as in Darwin; each
//! cluster gets the eviction expert that maximizes the chosen objective on
//! its member traces; held-out traces then look up their cluster and deploy
//! its eviction choice.
//!
//! ```text
//! cargo run --release --example eviction_futurework
//! ```

use darwin_cache::{EvictionKind, HocSim, Objective, ThresholdPolicy};
use darwin_cluster::{KMeans, Normalizer};
use darwin_features::FeatureExtractor;
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};

const HOC: u64 = 16 * 1024 * 1024;
const ADMISSION: ThresholdPolicy =
    ThresholdPolicy { freq_threshold: 2, size_threshold: 500 * 1024, max_recency_us: None };

fn eviction_experts() -> Vec<(&'static str, EvictionKind)> {
    vec![
        ("lru", EvictionKind::Lru),
        ("fifo", EvictionKind::Fifo),
        ("lfu", EvictionKind::Lfu),
        ("s2lru", EvictionKind::SegmentedLru { segments: 2 }),
        ("s4lru", EvictionKind::SegmentedLru { segments: 4 }),
    ]
}

/// Every eviction expert's reward on `trace`: one lane each, one pass.
fn evaluate(trace: &Trace) -> Vec<f64> {
    let mut sim = HocSim::bank(eviction_experts().into_iter().map(|(_, kind)| (HOC, kind, ADMISSION)));
    sim.run_trace(trace).iter().map(|m| Objective::HocOhr.reward(m)).collect()
}

fn main() {
    // Offline corpus across the mix sweep.
    println!("evaluating {} eviction experts offline ...", eviction_experts().len());
    let corpus: Vec<Trace> = (0..8)
        .map(|i| {
            let mix =
                MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), i as f64 / 7.0);
            TraceGenerator::new(mix, 3000 + i as u64).generate(60_000)
        })
        .collect();

    // Features + clustering (identical pipeline to admission-Darwin).
    let rows: Vec<Vec<f64>> =
        corpus.iter().map(|t| FeatureExtractor::extract(&t.slice(0, 2_000)).into_values()).collect();
    let norm = Normalizer::fit(&rows);
    let z: Vec<Vec<f64>> = rows.iter().map(|r| norm.transform(r)).collect();
    let km = KMeans::fit(&z, 3, 100, 7);

    // Per-cluster best eviction expert (mean reward over member traces).
    let names: Vec<&str> = eviction_experts().iter().map(|&(n, _)| n).collect();
    let mut sums = vec![vec![0.0; names.len()]; km.k()];
    let mut counts = vec![0usize; km.k()];
    for (zrow, trace) in z.iter().zip(&corpus) {
        let c = km.assign(zrow);
        counts[c] += 1;
        for (acc, r) in sums[c].iter_mut().zip(evaluate(trace)) {
            *acc += r;
        }
    }
    let mut cluster_choice = Vec::new();
    println!("\nper-cluster eviction selection:");
    for c in 0..km.k() {
        if counts[c] == 0 {
            cluster_choice.push(0);
            continue;
        }
        let best =
            (0..names.len()).max_by(|&a, &b| sums[c][a].partial_cmp(&sums[c][b]).unwrap()).unwrap();
        cluster_choice.push(best);
        let means: Vec<String> =
            sums[c].iter().map(|s| format!("{:.4}", s / counts[c] as f64)).collect();
        println!(
            "  cluster {c} ({} traces): best = {:6}  [{}]",
            counts[c],
            names[best],
            names.iter().zip(&means).map(|(n, m)| format!("{n}={m}")).collect::<Vec<_>>().join(" ")
        );
    }

    // Held-out deployment: cluster lookup → deploy the learned eviction.
    println!("\nheld-out deployment:");
    let mut learned_total = 0.0;
    let mut lru_total = 0.0;
    for (i, share) in [0.2, 0.5, 0.8].iter().enumerate() {
        let mix = MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), *share);
        let test = TraceGenerator::new(mix, 4000 + i as u64).generate(60_000);
        let features = FeatureExtractor::extract(&test.slice(0, 2_000)).into_values();
        let c = km.assign(&norm.transform(&features));
        let choice = cluster_choice[c];
        let rewards = evaluate(&test);
        learned_total += rewards[choice];
        lru_total += rewards[0];
        println!(
            "  mix {:.1}: cluster {c} -> {:6}  ohr {:.4}  (lru {:.4}, hindsight {:.4})",
            share,
            names[choice],
            rewards[choice],
            rewards[0],
            rewards.iter().cloned().fold(f64::MIN, f64::max),
        );
    }
    println!(
        "\nlearned eviction selection vs always-LRU: {:+.2}%",
        (learned_total - lru_total) / lru_total * 100.0
    );
}
