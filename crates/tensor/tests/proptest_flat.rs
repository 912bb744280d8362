//! Property tests: the flat fused kernel is bit-identical to the reference
//! `SoftCircuit` on random circuits, and its hard-logic pass over a group of
//! words equals one-word passes.

use htsat_tensor::{ops, FlatKernel, SoftCircuit, SoftGate};
use proptest::prelude::*;

/// Deterministically builds a random-but-valid circuit from generated specs:
/// all input columns, two constants, then one gate per spec whose fan-in
/// indices are reduced modulo the nodes built so far (so topological order
/// holds by construction), then one output constraint per entry.
fn build_circuit(
    num_inputs: usize,
    specs: &[(u8, u64)],
    constraints: &[(u64, bool)],
) -> SoftCircuit {
    let mut c = SoftCircuit::new(num_inputs);
    for col in 0..num_inputs {
        c.input(col);
    }
    c.constant(0.0);
    c.constant(1.0);
    for &(kind, seed) in specs {
        let n = c.num_nodes() as u64;
        let pick = |s: u64| (s % n) as usize;
        let width = 1 + ((seed >> 32) % 3) as usize;
        let fanin: Vec<usize> = (0..width as u64)
            .map(|j| pick(seed.wrapping_mul(2 * j + 1).wrapping_add(j)))
            .collect();
        match kind % 8 {
            0 => c.gate(SoftGate::Buf, vec![pick(seed)]),
            1 => c.gate(SoftGate::Not, vec![pick(seed)]),
            2 => c.gate(SoftGate::And, fanin),
            3 => c.gate(SoftGate::Or, fanin),
            4 => c.gate(SoftGate::Nand, fanin),
            5 => c.gate(SoftGate::Nor, fanin),
            6 => c.gate(SoftGate::Xor, fanin),
            _ => c.gate(SoftGate::Xnor, fanin),
        };
    }
    for &(seed, target) in constraints {
        let node = (seed % c.num_nodes() as u64) as usize;
        c.constrain(node, if target { 1.0 } else { 0.0 });
    }
    c
}

fn arb_specs() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((any::<u8>(), any::<u64>()), 1..24)
}

fn arb_constraints() -> impl Strategy<Value = Vec<(u64, bool)>> {
    prop::collection::vec((any::<u64>(), any::<bool>()), 1..6)
}

/// Probabilities in `[0, 1]` from generated integers.
fn arb_probs(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(0u32..=1000, n)
        .prop_map(|vs| vs.into_iter().map(|v| v as f32 / 1000.0).collect())
}

/// Logits in `[-20, 20]` — wide enough to hit the sigmoid's saturated
/// region where the clamp matters.
fn arb_logits(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(0u32..=4000, n)
        .prop_map(|vs| vs.into_iter().map(|v| v as f32 / 100.0 - 20.0).collect())
}

const NUM_INPUTS: usize = 4;

proptest! {
    #[test]
    fn flat_forward_matches_reference_bit_for_bit(
        specs in arb_specs(),
        constraints in arb_constraints(),
        inputs in arb_probs(NUM_INPUTS),
    ) {
        let circuit = build_circuit(NUM_INPUTS, &specs, &constraints);
        let kernel = FlatKernel::compile(&circuit);
        let mut ws = kernel.workspace();
        let mut ref_acts = Vec::new();
        circuit.forward_single(&inputs, &mut ref_acts);
        kernel.forward(&inputs, &mut ws);
        prop_assert_eq!(ws.activations(), ref_acts.as_slice());
    }

    #[test]
    fn flat_loss_and_grads_match_reference_bit_for_bit(
        specs in arb_specs(),
        constraints in arb_constraints(),
        inputs in arb_probs(NUM_INPUTS),
    ) {
        let circuit = build_circuit(NUM_INPUTS, &specs, &constraints);
        let kernel = FlatKernel::compile(&circuit);
        let mut ws = kernel.workspace();
        let mut ref_grad = vec![0.0f32; NUM_INPUTS];
        let mut flat_grad = vec![0.0f32; NUM_INPUTS];
        let ref_loss = circuit.loss_and_grad_single(&inputs, &mut ref_grad);
        let flat_loss = kernel.loss_and_grad(&inputs, &mut flat_grad, &mut ws);
        prop_assert_eq!(ref_loss.to_bits(), flat_loss.to_bits());
        prop_assert_eq!(ref_grad, flat_grad);
    }

    #[test]
    fn fused_step_matches_the_staged_reference_composition_bit_for_bit(
        specs in arb_specs(),
        constraints in arb_constraints(),
        logits in arb_logits(NUM_INPUTS),
    ) {
        let circuit = build_circuit(NUM_INPUTS, &specs, &constraints);
        let kernel = FlatKernel::compile(&circuit);
        let mut ws = kernel.workspace();
        let learning_rate = 10.0f32;

        // Staged reference: embed, loss+grad, chain rule, descend — the
        // composition the kernel oracle replays for one row.
        let probs: Vec<f32> = logits.iter().map(|&v| ops::embed_logit(v)).collect();
        let mut grad_p = vec![0.0f32; NUM_INPUTS];
        let ref_loss = circuit.loss_and_grad_single(&probs, &mut grad_p);
        let mut ref_logits = logits.clone();
        for ((v, &g), &p) in ref_logits.iter_mut().zip(grad_p.iter()).zip(probs.iter()) {
            let grad_v = g * ops::sigmoid_grad_from_output(p);
            *v -= learning_rate * grad_v;
        }

        // Fused: one kernel call.
        let mut fused_logits = logits.clone();
        let fused_loss = kernel.fused_gd_step(&mut fused_logits, learning_rate, &mut ws);

        prop_assert_eq!(ref_loss.to_bits(), fused_loss.to_bits());
        prop_assert_eq!(ref_logits, fused_logits);
    }

    #[test]
    fn a_group_of_words_evaluates_as_one_word_at_a_time(
        specs in arb_specs(),
        constraints in arb_constraints(),
        words in prop::collection::vec(any::<u64>(), 4 * NUM_INPUTS),
    ) {
        let circuit = build_circuit(NUM_INPUTS, &specs, &constraints);
        let kernel = FlatKernel::compile(&circuit);
        // Random bits in every lane and word stand in for the unused lanes
        // of a partial group.
        let inputs: Vec<[u64; 4]> = words.as_chunks().0.to_vec();
        let mut group = vec![[0u64; 4]; kernel.num_nodes()];
        kernel.forward_words(&inputs, &mut group);
        for w in 0..4 {
            let alone: Vec<[u64; 1]> = inputs.iter().map(|g| [g[w]]).collect();
            let mut nodes = vec![[!0u64]; kernel.num_nodes()];
            kernel.forward_words(&alone, &mut nodes);
            let column: Vec<[u64; 1]> = group.iter().map(|g| [g[w]]).collect();
            prop_assert_eq!(column, nodes, "word {}", w);
        }
    }
}
