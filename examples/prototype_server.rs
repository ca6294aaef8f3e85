//! Prototype-style run (§5/§6.4): drive the discrete-event client/proxy/
//! origin testbed with Darwin and with a static expert, and report the
//! numbers the paper's prototype section reports — OHR, first-byte latency
//! percentiles, goodput, and HOC critical-section utilization.
//!
//! ```text
//! cargo run --release --example prototype_server
//! ```

use darwin::prelude::*;
use darwin::{DarwinDriver, StaticDriver};
use darwin_testbed::{Testbed, TestbedConfig};
use darwin_trace::{concat_traces, MixSpec, TraceGenerator, TrafficClass};
use std::sync::Arc;

fn main() {
    let cache = CacheConfig {
        hoc_bytes: 16 * 1024 * 1024,
        dc_bytes: 1024 * 1024 * 1024,
        ..CacheConfig::paper_default()
    };

    println!("training Darwin offline ...");
    let corpus: Vec<_> = (0..6)
        .map(|i| {
            let mix =
                MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), i as f64 / 5.0);
            TraceGenerator::new(mix, 60 + i as u64).generate(40_000)
        })
        .collect();
    let offline = OfflineConfig {
        hoc_bytes: cache.hoc_bytes,
        feature_prefix_requests: 1_200,
        ..OfflineConfig::default()
    };
    let model = Arc::new(OfflineTrainer::new(offline).train(&corpus));

    // A workload that shifts mid-way (two 40 k-request phases).
    let a = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.85),
        700,
    )
    .generate(40_000);
    let b = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.15),
        701,
    )
    .generate(40_000);
    let workload = concat_traces(&[a, b]);

    let online = OnlineConfig {
        epoch_requests: 40_000,
        warmup_requests: 1_200,
        round_requests: 400,
        ..OnlineConfig::default()
    };

    println!("replaying through the testbed (concurrency sweep) ...\n");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "conc", "driver", "ohr", "p50 ms", "p99 ms", "goodput Gbps", "lock busy %"
    );
    for concurrency in [4usize, 32, 128] {
        let tb = Testbed::new(TestbedConfig { concurrency, ..TestbedConfig::default() });

        let mut dd = DarwinDriver::new(Arc::clone(&model), online);
        let rd = tb.run(&workload, &cache, &mut dd);
        let mut sd = StaticDriver::new(Expert::new(2, 100).policy);
        let rs = tb.run(&workload, &cache, &mut sd);

        for (name, r) in [("darwin", rd), ("f2s100", rs)] {
            let mut lat = r.latency.clone();
            println!(
                "{:>6} {:>10} {:>10.4} {:>10.1} {:>10.1} {:>12.3} {:>12.2}",
                concurrency,
                name,
                r.cache.hoc_ohr(),
                lat.percentile(50.0) as f64 / 1000.0,
                lat.percentile(99.0) as f64 / 1000.0,
                r.goodput_gbps,
                r.hoc_busy_fraction * 100.0,
            );
        }
    }
    println!(
        "\nDarwin's higher hit rate skips origin round trips, which shows up\n\
         as both lower tail latency and higher goodput — the Fig 7 effect."
    );
}
