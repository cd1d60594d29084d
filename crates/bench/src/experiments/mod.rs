//! The paper scorecard: every experiment of the paper's evaluation and
//! of its extensions, in one registry in paper order. Each experiment
//! writes its report (its series and its paper-vs-measured rows) into
//! a `String`; `output/experiments/<name>.txt` pins each report byte
//! for byte.

use std::error::Error;
use std::fmt::Write as _;

mod ablations;
mod characterization;
mod extensions;
mod placement;
mod serving;

/// An experiment: writes its report into the `String`.
type Experiment = fn(&mut String) -> Result<(), Box<dyn Error>>;

/// Every experiment by name: the paper's tables and figures first, in
/// the order the paper presents them, then the extensions beyond it.
pub(crate) const EXPERIMENTS: &[(&str, Experiment)] = &[
    // The paper's tables and figures.
    ("table1_system", characterization::table1_system),
    ("table2_configs", characterization::table2_configs),
    ("table3_cxl", characterization::table3_cxl),
    ("fig3_bandwidth", characterization::fig3_bandwidth),
    ("fig4_llm_perf", serving::fig4_llm_perf),
    ("fig5_overlap", serving::fig5_overlap),
    ("fig6_compression", serving::fig6_compression),
    ("fig7_placement", serving::fig7_placement),
    ("fig8_mha_ffn", serving::fig8_mha_ffn),
    ("fig10_helm_dist", placement::fig10_helm_dist),
    ("fig11_helm", placement::fig11_helm),
    ("fig12_allcpu", placement::fig12_allcpu),
    ("fig13_cxl", placement::fig13_cxl),
    ("table4_overlap", placement::table4_overlap),
    // Extensions beyond the paper (ablations and future work).
    ("ablation_kv_offload", ablations::ablation_kv_offload),
    ("ablation_numa", ablations::ablation_numa),
    ("ablation_pinning", ablations::ablation_pinning),
    ("ablation_sweeps", ablations::ablation_sweeps),
    ("ablation_tiering", ablations::ablation_tiering),
    ("energy_efficiency", extensions::energy_efficiency),
    ("generalization_models", extensions::generalization_models),
    ("online_serving", extensions::online_serving),
    ("online_scaling", extensions::online_scaling),
    ("platform_sensitivity", extensions::platform_sensitivity),
];

/// The reports of the named experiments, in the order given, or of
/// every experiment in registry order when `names` is empty. Each
/// report follows a banner naming its experiment.
///
/// # Errors
///
/// An unknown name, listing the known ones; every name is checked
/// before any experiment runs. Otherwise the first experiment that
/// fails, prefixed with its name.
pub fn run_experiments<S: AsRef<str>>(names: &[S]) -> Result<String, Box<dyn Error>> {
    render(EXPERIMENTS, names)
}

/// [`run_experiments`] over `registry`, which the tests replace.
fn render<S: AsRef<str>>(
    registry: &[(&'static str, Experiment)],
    names: &[S],
) -> Result<String, Box<dyn Error>> {
    let mut chosen = Vec::new();
    for name in names {
        let name = name.as_ref();
        let entry = registry.iter().find(|&&(known, _)| known == name);
        chosen.push(*entry.ok_or_else(|| {
            let known: Vec<_> = registry.iter().map(|&(known, _)| known).collect();
            format!(
                "unknown experiment `{name}`; known experiments: {}",
                known.join(", ")
            )
        })?);
    }
    if names.is_empty() {
        chosen = registry.to_vec();
    }
    let rule = "#".repeat(56);
    let mut out = String::new();
    for (name, experiment) in chosen {
        let _ = write!(out, "\n{rule}\n# {name}\n{rule}\n");
        experiment(&mut out).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fails(_: &mut String) -> Result<(), Box<dyn Error>> {
        Err("ran".into())
    }

    fn hello(out: &mut String) -> Result<(), Box<dyn Error>> {
        out.push_str("hello\n");
        Ok(())
    }

    fn banner(name: &str) -> String {
        let rule = "#".repeat(56);
        format!("\n{rule}\n# {name}\n{rule}\n")
    }

    #[test]
    fn unknown_name_lists_the_known_ones_before_anything_runs() {
        let registry: &[(&str, Experiment)] = &[("fails", fails), ("hello", hello)];
        let err = render(registry, &["fails", "nope"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown experiment `nope`"), "{err}");
        assert!(err.contains("fails, hello"), "{err}");
        let err = run_experiments(&["nope"]).unwrap_err().to_string();
        for (name, _) in EXPERIMENTS {
            assert!(err.contains(name), "{name} missing from `{err}`");
        }
    }

    #[test]
    fn names_render_in_the_order_given_each_after_its_banner() {
        let registry: &[(&str, Experiment)] = &[("a", hello), ("b", hello), ("c", fails)];
        let text = render(registry, &["b", "a", "b"]).unwrap();
        let want = [banner("b"), banner("a"), banner("b")].join("hello\n") + "hello\n";
        assert_eq!(text, want);
        let err = render(registry, &["a", "c"]).unwrap_err().to_string();
        assert_eq!(err, "c: ran");
    }

    #[test]
    fn no_names_render_every_experiment_in_registry_order() {
        assert_eq!(EXPERIMENTS.len(), 24);
        let text = run_experiments::<&str>(&[]).unwrap();
        let mut rest = text.as_str();
        for (name, _) in EXPERIMENTS {
            let at = rest.find(&banner(name)).unwrap_or_else(|| panic!("{name}"));
            rest = &rest[at + banner(name).len()..];
        }
    }
}
