//! Adapter exposing the paper's transformed-circuit sampler through the
//! common sampler traits, so the benchmark harness can drive it next to
//! the baselines.

use crate::SatSampler;
use htsat_cnf::Cnf;
use htsat_core::{PreparedFormula, SampleEngine, SamplerConfig, SessionConfig, TransformError};

/// The paper's gradient-descent sampler behind the [`SatSampler`] trait.
///
/// The engine it prepares is [`htsat_core::PreparedFormula`] itself (the
/// native `"gd"` implementation of [`SampleEngine`]), with this adapter's
/// [`SamplerConfig`] installed as the session template — so GD-specific
/// knobs (iterations, learning rate, batch size) ride along
/// while seed and backend come from the per-request [`SessionConfig`].
#[derive(Debug, Clone, Default)]
pub struct TransformedGdSampler {
    /// Configuration forwarded to the minted samplers.
    pub config: SamplerConfig,
}

impl TransformedGdSampler {
    /// Creates an adapter with the default sampler configuration.
    pub fn new() -> Self {
        TransformedGdSampler::default()
    }

    /// Creates an adapter with an explicit configuration.
    pub fn with_config(config: SamplerConfig) -> Self {
        TransformedGdSampler { config }
    }
}

impl SatSampler for TransformedGdSampler {
    fn name(&self) -> &'static str {
        "gd"
    }

    fn engine(&self, cnf: &Cnf) -> Result<Box<dyn SampleEngine>, TransformError> {
        let prepared = PreparedFormula::prepare(cnf, &self.config.transform)?
            .with_template(self.config.clone());
        Ok(Box::new(prepared))
    }

    fn session_config(&self) -> SessionConfig {
        SessionConfig {
            seed: self.config.seed,
            backend: self.config.backend,
            batch: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_valid_unique, gate_cnf, loose_cnf};
    use std::time::Duration;

    #[test]
    fn adapter_samples_valid_solutions() {
        let cnf = gate_cnf();
        let mut sampler = TransformedGdSampler::new();
        let run = sampler.sample(&cnf, 5, Duration::from_secs(10));
        assert!(!run.solutions.is_empty());
        assert_valid_unique(&run, &cnf);
    }

    #[test]
    fn adapter_handles_loose_formulas() {
        let cnf = loose_cnf();
        let run = TransformedGdSampler::new().sample(&cnf, 10, Duration::from_secs(10));
        assert!(run.solutions.len() >= 5);
        assert_valid_unique(&run, &cnf);
    }

    #[test]
    fn unsatisfiable_input_yields_empty_run() {
        let mut cnf = Cnf::new(1);
        cnf.add_dimacs_clause([1]);
        cnf.add_dimacs_clause([-1]);
        let run = TransformedGdSampler::new().sample(&cnf, 3, Duration::from_secs(2));
        assert!(run.solutions.is_empty());
    }

    #[test]
    fn adapter_engine_matches_the_native_sampler_bit_for_bit() {
        // The engine path must reproduce GdSampler::stream exactly: the
        // adapter adds no sampling logic of its own.
        let cnf = gate_cnf();
        let config = SamplerConfig {
            seed: 17,
            batch_size: 64,
            ..SamplerConfig::default()
        };
        let engine = TransformedGdSampler::with_config(config.clone())
            .engine(&cnf)
            .expect("engine");
        let via_engine: Vec<Vec<bool>> = engine
            .stream(&SessionConfig::with_seed(17))
            .expect("stream")
            .take(4)
            .collect();
        let mut native = htsat_core::GdSampler::new(&cnf, config).expect("native");
        let direct: Vec<Vec<bool>> = native.stream().take(4).collect();
        assert_eq!(via_engine, direct);
    }
}
