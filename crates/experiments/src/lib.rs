//! Regenerators for every table and figure in the paper's evaluation.
//!
//! Each `figXX` module computes the data behind the corresponding figure
//! of the paper and renders it as [`spb_stats::Table`]s whose rows and
//! columns mirror the publication, so shape can be compared directly.
//! Every module is listed in [`registry`], and `spbsim experiment fig05`
//! runs it by id; the `all` binary regenerates the whole evaluation and
//! writes `EXPERIMENTS.md`-ready output.
//!
//! Budgets: [`Budget::Paper`] runs the default µop budget used for the
//! recorded results; [`Budget::Quick`] is for smoke tests and CI. Pass
//! `--quick` to `spbsim experiment` or to any binary to use it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod coalescing;
pub mod grid;
pub mod registry;
pub mod smt_validation;
pub mod spatial;
pub mod squash;
pub mod variance;

pub mod fig01;
pub mod fig03;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod sb20;
pub mod sens_n;
pub mod tab1;

use spb_sim::SimConfig;

/// How much simulation to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Small budgets for smoke tests and benches.
    Quick,
    /// The budget used for the recorded EXPERIMENTS.md results.
    Paper,
}

impl Budget {
    /// Parses `--quick` from argv (default: [`Budget::Paper`]).
    pub fn from_args() -> Budget {
        if std::env::args().any(|a| a == "--quick") {
            Budget::Quick
        } else {
            Budget::Paper
        }
    }

    /// The base simulation configuration for this budget.
    pub fn sim_config(self) -> SimConfig {
        match self {
            Budget::Quick => SimConfig::quick(),
            Budget::Paper => SimConfig::paper_default(),
        }
    }

    /// A scaled-down configuration for 8-thread PARSEC runs, keeping
    /// total simulated work comparable to a single-threaded run.
    pub fn parsec_sim_config(self) -> SimConfig {
        let mut cfg = self.sim_config();
        cfg.warmup_uops /= 4;
        cfg.measure_uops /= 4;
        cfg
    }
}

/// Prints a list of tables with blank lines between them (the common
/// tail of every experiment binary).
pub fn print_tables(tables: &[spb_stats::Table]) {
    for t in tables {
        println!("{t}");
    }
}
