//! The standard family registry and label constructors.
//!
//! [`standard_families`] assembles the workspace's built-in algorithm
//! families into one [`FamilyRegistry`]:
//!
//! | key | params | family | home crate |
//! |-----|--------|--------|-----------|
//! | `sdr-agreement` | domain, e.g. `sdr-agreement(8)` | pure SDR over the rule-less agreement input | `ssr-core` |
//! | `unison-sdr` | — | `U ∘ SDR` (Thm 6/7) | `ssr-unison` |
//! | `unison` | — | standalone Algorithm U | `ssr-unison` |
//! | `cfg-unison` | — | uncoordinated-local-reset baseline | `ssr-baselines` |
//! | `mono-reset` | — | mono-initiator reset baseline | `ssr-baselines` |
//! | `fga-sdr` | §6.1 preset, e.g. `fga-sdr:domination(1,0)` | `FGA ∘ SDR` (Thm 12/14) | `ssr-alliance` |
//! | `fga` | §6.1 preset, e.g. `fga:powerful` | standalone FGA (Cor. 11/12) | `ssr-alliance` |
//!
//! The registry is **open**: build your own input algorithm, wrap it
//! with [`ssr_core::family::composed`], and register it next to the
//! standard ones — `examples/custom_family.rs` runs a full campaign
//! plus an exhaustive sweep over a family defined entirely outside the
//! workspace. [`default_registry`] is the shared instance behind
//! [`crate::run_scenario`] and the experiment harness.

use std::sync::{Arc, OnceLock};

use ssr_alliance::{FgaSdrFamily, FgaStandaloneFamily, PresetSpec};
use ssr_baselines::{CfgUnisonFamily, MonoResetFamily};
use ssr_core::family::sdr_agreement_family;
use ssr_runtime::family::{AlgorithmSpec, Family, FamilyRegistry};
use ssr_unison::{UnisonFamily, UnisonSdrFamily};

/// Builds a fresh registry holding every standard family.
pub fn standard_families() -> FamilyRegistry {
    let mut registry = FamilyRegistry::new();
    registry.register_parametric(
        "sdr-agreement",
        vec![sdr_agreement(8).label()],
        Box::new(|params| {
            let domain: u32 = params?.parse().ok()?;
            (domain > 0).then(|| Arc::new(sdr_agreement_family(domain)) as Arc<dyn Family>)
        }),
    );
    registry.register(Arc::new(UnisonSdrFamily));
    registry.register(Arc::new(UnisonFamily));
    registry.register(Arc::new(CfgUnisonFamily));
    registry.register(Arc::new(MonoResetFamily));
    registry.register_parametric(
        "fga-sdr",
        PresetSpec::all()
            .iter()
            .map(|p| fga_sdr(*p).label())
            .collect(),
        Box::new(|params| {
            let preset = PresetSpec::from_label(params?)?;
            Some(Arc::new(FgaSdrFamily::new(preset)) as Arc<dyn Family>)
        }),
    );
    registry.register_parametric(
        "fga",
        PresetSpec::all()
            .iter()
            .map(|p| fga_standalone(*p).label())
            .collect(),
        Box::new(|params| {
            let preset = PresetSpec::from_label(params?)?;
            Some(Arc::new(FgaStandaloneFamily::new(preset)) as Arc<dyn Family>)
        }),
    );
    registry
}

/// The shared standard registry ([`standard_families`], built once) —
/// what [`crate::run_scenario`] and the experiment harness resolve
/// against. To *extend* the set, build your own registry with
/// [`standard_families`] + [`FamilyRegistry::register`] and drive it
/// through [`Sweep::registry`](crate::Sweep::registry).
pub fn default_registry() -> &'static FamilyRegistry {
    static REGISTRY: OnceLock<FamilyRegistry> = OnceLock::new();
    REGISTRY.get_or_init(standard_families)
}

/// The handle `sdr-agreement(domain)`: pure SDR over the rule-less
/// agreement input.
pub fn sdr_agreement(domain: u32) -> AlgorithmSpec {
    ssr_core::family::sdr_agreement_spec(domain)
}

/// The handle `unison-sdr`: self-stabilizing unison `U ∘ SDR`.
pub fn unison_sdr() -> AlgorithmSpec {
    ssr_unison::family::unison_sdr_spec()
}

/// The handle `unison`: standalone Algorithm U.
pub fn unison() -> AlgorithmSpec {
    ssr_unison::family::unison_spec()
}

/// The handle `cfg-unison`: the uncoordinated-local-reset baseline.
pub fn cfg_unison() -> AlgorithmSpec {
    ssr_baselines::family::cfg_unison_spec()
}

/// The handle `mono-reset`: the mono-initiator reset baseline.
pub fn mono_reset() -> AlgorithmSpec {
    ssr_baselines::family::mono_reset_spec()
}

/// The handle `fga-sdr:<preset>`: the silent composition `FGA ∘ SDR`.
pub fn fga_sdr(preset: PresetSpec) -> AlgorithmSpec {
    ssr_alliance::family::fga_sdr_spec(preset)
}

/// The handle `fga:<preset>`: standalone FGA from `γ_init`.
pub fn fga_standalone(preset: PresetSpec) -> AlgorithmSpec {
    ssr_alliance::family::fga_standalone_spec(preset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_standard_label_resolves_to_its_own_id() {
        let registry = standard_families();
        let labels = registry.labels();
        assert_eq!(labels.len(), 5 + 2 * PresetSpec::all().len());
        for label in labels {
            let family = registry
                .resolve_label(&label)
                .unwrap_or_else(|| panic!("{label:?} must resolve"));
            assert_eq!(family.id(), label, "id/label agreement for {label:?}");
        }
    }

    #[test]
    fn every_standard_label_round_trips_through_parsing() {
        for label in standard_families().labels() {
            let spec: AlgorithmSpec = label.parse().unwrap();
            assert_eq!(spec.label(), label, "round-trip of {label:?}");
        }
    }

    #[test]
    fn constructors_match_registry_keys() {
        let registry = default_registry();
        for spec in [
            sdr_agreement(5),
            unison_sdr(),
            unison(),
            cfg_unison(),
            mono_reset(),
            fga_sdr(PresetSpec::Defensive),
            fga_standalone(PresetSpec::TwoTuple),
        ] {
            assert!(
                registry.resolve(&spec).is_some(),
                "{} must resolve",
                spec.label()
            );
        }
    }

    #[test]
    fn bad_parameters_do_not_resolve() {
        let registry = default_registry();
        assert!(registry.resolve_label("sdr-agreement(0)").is_none());
        assert!(registry.resolve_label("sdr-agreement(x)").is_none());
        assert!(registry.resolve_label("sdr-agreement").is_none());
        assert!(registry.resolve_label("fga-sdr:unknown").is_none());
        assert!(registry.resolve_label("nope").is_none());
    }

    /// Every standard label exposes the analysis hook — the release
    /// gate (`analyze` bin) certifies them at full depth; here a
    /// debug-affordable slice must already come back clean.
    #[test]
    fn standard_families_are_analyzable_and_a_sample_certifies() {
        use ssr_runtime::analysis::AnalyzeOptions;

        let registry = default_registry();
        for label in registry.labels() {
            let family = registry.resolve_label(&label).unwrap();
            assert!(
                family.analysis().is_some(),
                "{label} must expose the analysis hook"
            );
        }
        let opts = AnalyzeOptions {
            max_configs: 200,
            samples: 2,
            audit_runs: 1,
            audit_steps: 15,
            ..AnalyzeOptions::default()
        };
        for label in ["unison-sdr", "cfg-unison", "fga:domination(1,0)"] {
            let family = registry.resolve_label(label).unwrap();
            let analyze = family.analysis().unwrap();
            let g = ssr_graph::generators::path(3);
            let fp = analyze.footprints(&g, "path3", &opts);
            assert!(
                fp.findings.is_empty(),
                "{label} on path3 must be clean: {:?}",
                fp.findings
            );
            let audit = analyze.audit(&g, &opts);
            assert!(
                audit.findings.is_empty(),
                "{label} audit must be clean: {:?}",
                audit.findings
            );
            assert_eq!(audit.apply_draws + audit.guards_draws, 0);
        }
    }
}
