//! # darwin-bench
//!
//! The experiment harness: one module per table/figure of the paper, all
//! reachable from the `experiments` binary. Each experiment prints the rows
//! or series the paper reports and writes a CSV under `results/`.
//!
//! The paper's evaluation runs 10 M–100 M-request traces against a 100 MB
//! HOC on a 16-core testbed; this reproduction defaults to a proportionally
//! scaled-down setup (see [`scale::Scale`]) so the full suite completes on a
//! laptop core. Pass `--scale N` to the binary to move toward paper scale.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod report;
pub mod runs;
pub mod scale;
pub mod watch;

pub mod experiments {
    //! One module per paper table/figure (see DESIGN.md's experiment index).
    pub mod ablations;
    pub mod fig2;
    pub mod fig4;
    pub mod fig5;
    pub mod fig6;
    pub mod fig7;
    pub mod fig8_11;
    pub mod hindsight;
    pub mod switching;
    pub mod table2;
    pub mod timeline;
}

pub use corpus::{Corpus, SharedContext};
pub use report::Report;
pub use scale::Scale;
