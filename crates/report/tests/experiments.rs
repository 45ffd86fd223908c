//! Drift guard for the paper experiments' setups: every spec a binary renders
//! and a claim evaluates parses, validates and is written canonically, and
//! every machine exists, at both scales.  (That each claim's cells lie
//! inside its experiment's grid is checked next to the claims, in
//! `src/paper.rs`.)

use pdfws_cmp_model::sweep::sweep_l2_fraction;
use pdfws_core::prelude::*;
use pdfws_report::experiments::{CLASS_A, CLASS_B, COARSE_VS_FINE, CONFIGS, FIG1, POWER};

#[test]
fn every_setup_is_canonical_and_valid() {
    for experiment in [FIG1, CLASS_A, CLASS_B, COARSE_VS_FINE, POWER, CONFIGS] {
        for quick in [false, true] {
            let setup = experiment.at(quick);
            for &w in setup.workloads {
                let spec: WorkloadSpec = w.parse().unwrap_or_else(|e| panic!("{w}: {e}"));
                assert_eq!(spec.canonical(), w);
            }
            for &s in setup.schedulers {
                let spec: SchedulerSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
                assert_eq!(spec.canonical(), s);
            }
            assert!(setup.cores.windows(2).all(|w| w[0] < w[1]));
            for &cores in setup.cores {
                let config = default_config(cores).expect("default machine exists");
                sweep_l2_fraction(&config, setup.l2_fractions).expect("valid L2 fractions");
            }
        }
    }
}
