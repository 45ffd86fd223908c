//! The four spec grammars as one surface: the `--list` help text is pinned
//! byte for byte under `tests/golden/`, and no input to any grammar's
//! `FromStr` reaches a panic — it parses, or it is a typed `SpecError`.

use pdfws::cmp_model::default_config;
use pdfws::memsys::{MemSysDomain, MemSysSpec};
use pdfws::schedulers::{make_policy, simulate, SchedulerDomain, SchedulerSpec, SimOptions};
use pdfws::spec::{Domain, Registry, SpecError, SpecFamily};
use pdfws::stream::{ArrivalDomain, ArrivalSpec};
use pdfws::task_dag::builder::SpTree;
use pdfws::task_dag::{AccessPattern, TaskDag};
use pdfws::workloads::{WorkloadDomain, WorkloadSpec};
use pdfws_bench::list_text;
use proptest::prelude::*;

// Any change to a registry's names, parameter declarations or doc lines shows
// up as a golden diff — regenerate with
// `UPDATE_GOLDEN=1 cargo test --test spec_grammars` and review it.  CI diffs
// `fig1_mergesort --list` against the same file.
#[test]
fn list_output_matches_the_golden_file() {
    let text = list_text();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/list.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("write golden list");
        return;
    }
    assert_eq!(
        text,
        include_str!("golden/list.txt"),
        "--list output changed (UPDATE_GOLDEN=1 to regenerate)"
    );
}

/// Every registered name of a domain with its declared parameter keys.
fn grammar<D: Domain>() -> Vec<(String, Vec<&'static str>)> {
    let registry = Registry::<D>::global();
    registry
        .names()
        .into_iter()
        .map(|name| {
            let keys = registry.factory(&name).expect("listed").params();
            (name, keys.iter().map(|p| p.key).collect())
        })
        .collect()
}

/// Values that sit on the edges of every declared parameter type.
const EDGE_VALUES: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "64",
    "1024",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "0.5",
    "1.0000001",
    "1e-300",
    "1e300",
    "inf",
    "NaN",
    "half",
    "random",
    "hier",
    "round-robin",
    "x",
];

/// A two-leaf DAG that misses in every cache and dirties what it writes, so
/// one `simulate` drives the hierarchy, writebacks and the off-chip model.
fn tiny_dag() -> TaskDag {
    SpTree::Par(vec![
        SpTree::leaf_with_accesses("read", 50, vec![AccessPattern::range_read(0, 64 * 64)]),
        SpTree::leaf_with_accesses(
            "write",
            50,
            vec![AccessPattern::range_write(1 << 20, 64 * 64)],
        ),
    ])
    .into_dag()
    .expect("tiny DAG")
}

/// Parse `input` in all four grammars; build every accepted spec where that
/// is cheap, and run one `simulate` of a tiny DAG under every accepted memsys
/// spec.  Any panic fails the calling property.
fn parse_and_build(input: &str, cores: usize, seed: u64) {
    fn typed<T>(result: Result<T, SpecError>) -> Option<T> {
        // An error must render (Display is part of the typed contract).
        result.map_err(|e| e.to_string()).ok()
    }
    if let Some(spec) = typed(input.parse::<SchedulerSpec>()) {
        let policy = make_policy(&spec, cores);
        assert_eq!(policy.name(), spec.canonical(), "{input}");
    }
    if let Some(spec) = typed(input.parse::<MemSysSpec>()) {
        let mut cfg = default_config(8).expect("8-core default");
        cfg.memsys = spec.memsys_params();
        assert_eq!(cfg.validate(), Ok(()), "{input}");
        let _ = cfg.resolved_memsys();
        let dag = tiny_dag();
        let r = simulate(&dag, &cfg, &SchedulerSpec::ws(), &SimOptions::default());
        assert_eq!(r.tasks, dag.len(), "{input}");
    }
    if let Some(spec) = typed(input.parse::<ArrivalSpec>()) {
        let mut arrivals = spec.generator(seed);
        let times: Vec<u64> = (0..8).map(|_| arrivals.next_arrival()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{input}: {times:?}");
    }
    // DAG size has no bound, so workload specs are only parsed.
    let _ = typed(input.parse::<WorkloadSpec>());
}

/// A `name:key=value,...` string drawn from one domain's own declarations.
fn declared_spec(
    grammar: &[(String, Vec<&'static str>)],
    pick: u64,
    params: &[(u64, u64)],
) -> String {
    let (name, keys) = &grammar[pick as usize % grammar.len()];
    let mut s = name.clone();
    for (i, &(key, value)) in params.iter().enumerate() {
        if keys.is_empty() {
            break;
        }
        s.push(if i == 0 { ':' } else { ',' });
        let value = match EDGE_VALUES.get(value as usize) {
            Some(edge) => edge.to_string(),
            None => (value * 7919).to_string(),
        };
        s.push_str(&format!("{}={value}", keys[key as usize % keys.len()]));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn arbitrary_strings_never_panic_any_grammar(
        chars in prop::collection::vec(
            prop::sample::select(vec![
                'a', 'e', 'p', 'd', 'f', 'w', 's', 'b', 'u', 'r', '0', '1', '9', ':', ',', '=',
                ' ', '-', '.', '_', 'é', '∞', '\u{0}',
            ]),
            0..24,
        ),
        cores in 1usize..65,
        seed in 0u64..1_000,
    ) {
        parse_and_build(&chars.into_iter().collect::<String>(), cores, seed);
    }

    #[test]
    fn declared_names_and_keys_with_arbitrary_values_never_panic(
        domain in 0usize..4,
        pick in 0u64..64,
        params in prop::collection::vec((0u64..16, 0u64..40), 0..4),
        cores in 1usize..65,
        seed in 0u64..1_000,
    ) {
        let grammar = match domain {
            0 => grammar::<SchedulerDomain>(),
            1 => grammar::<WorkloadDomain>(),
            2 => grammar::<MemSysDomain>(),
            _ => grammar::<ArrivalDomain>(),
        };
        parse_and_build(&declared_spec(&grammar, pick, &params), cores, seed);
    }
}
