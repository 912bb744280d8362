//! Multi-level, multi-output Boolean functions (netlists).
//!
//! A [`Netlist`] is the target representation of the paper's transformation
//! algorithm: an acyclic, gate-level description of the CNF in which
//! variables are classified as primary inputs, intermediate variables and
//! primary outputs, and constrained outputs carry an explicit target value.

use crate::{Expr, GateKind, VarId};
use std::collections::HashMap;
use std::fmt;

/// Index of a node inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a node id from a dense index (the inverse of
    /// [`NodeId::index`], for artifact deserialization). Returns `None`
    /// when the index does not fit the id's backing width; range checking
    /// against an actual netlist is [`Netlist::from_raw_parts`]'s job.
    pub fn from_index(index: usize) -> Option<NodeId> {
        u32::try_from(index).ok().map(NodeId)
    }
}

/// A single node of the netlist.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// A primary-input node carrying a CNF variable.
    Input(VarId),
    /// A constant node.
    Const(bool),
    /// A logic gate over previously created nodes.
    Gate {
        /// The gate function.
        kind: GateKind,
        /// Fan-in nodes, all strictly earlier in the node list.
        fanin: Vec<NodeId>,
    },
}

/// An explicitly constrained primary output of the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputConstraint {
    /// The node whose value is constrained.
    pub node: NodeId,
    /// The value the node must take in any satisfying assignment.
    pub target: bool,
    /// The CNF variable associated with this output, if any.
    pub var: Option<VarId>,
}

/// A multi-level, multi-output Boolean function.
///
/// Nodes are stored in topological order by construction (gates may only
/// reference already existing nodes), and structurally identical gates are
/// hash-consed so shared logic is represented once.
#[derive(Clone, Default)]
pub struct Netlist {
    nodes: Vec<NodeRef>,
    /// Hash-consing table: structural node → id.
    dedup: HashMap<NodeRef, NodeId>,
    /// CNF variable → node currently driving it.
    driver: HashMap<VarId, NodeId>,
    /// Variables introduced as primary inputs, in first-use order.
    primary_inputs: Vec<VarId>,
    /// Explicitly constrained outputs.
    outputs: Vec<OutputConstraint>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Number of nodes (inputs, constants and gates).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes in topological order.
    pub fn nodes(&self) -> &[NodeRef] {
        &self.nodes
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &NodeRef {
        &self.nodes[id.index()]
    }

    /// Primary-input variables in first-use order.
    pub fn primary_inputs(&self) -> &[VarId] {
        &self.primary_inputs
    }

    /// The constrained primary outputs.
    pub fn outputs(&self) -> &[OutputConstraint] {
        &self.outputs
    }

    /// The node currently bound as the driver of `var`, if any.
    pub fn driver_of(&self, var: VarId) -> Option<NodeId> {
        self.driver.get(&var).copied()
    }

    /// Variables bound to a driver node (primary inputs and intermediate
    /// variables alike).
    pub fn bound_vars(&self) -> impl Iterator<Item = (VarId, NodeId)> + '_ {
        self.driver.iter().map(|(&v, &n)| (v, n))
    }

    fn intern(&mut self, node: NodeRef) -> NodeId {
        if let Some(&id) = self.dedup.get(&node) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.dedup.insert(node.clone(), id);
        self.nodes.push(node);
        id
    }

    /// Adds (or reuses) a constant node.
    pub fn add_const(&mut self, value: bool) -> NodeId {
        self.intern(NodeRef::Const(value))
    }

    /// Adds (or reuses) a primary-input node for `var` and registers the
    /// variable as a primary input.
    pub fn add_input(&mut self, var: VarId) -> NodeId {
        if let Some(id) = self.driver.get(&var) {
            return *id;
        }
        let id = self.intern(NodeRef::Input(var));
        self.driver.insert(var, id);
        self.primary_inputs.push(var);
        id
    }

    /// Adds (or reuses) a gate node.
    ///
    /// # Panics
    ///
    /// Panics if any fan-in node id is out of range, or if a unary gate is
    /// given a fan-in of length other than one.
    pub fn add_gate(&mut self, kind: GateKind, fanin: Vec<NodeId>) -> NodeId {
        assert!(
            fanin.iter().all(|f| f.index() < self.nodes.len()),
            "fan-in node out of range"
        );
        if kind.is_unary() {
            assert_eq!(fanin.len(), 1, "unary gate must have exactly one input");
        }
        // Single-input AND/OR collapse to a buffer of their operand.
        if matches!(kind, GateKind::And | GateKind::Or | GateKind::Xor) && fanin.len() == 1 {
            return fanin[0];
        }
        self.intern(NodeRef::Gate { kind, fanin })
    }

    /// Binds `var` to be driven by `node` (declaring it an intermediate or
    /// output variable rather than a primary input).
    ///
    /// # Panics
    ///
    /// Panics if `var` is already bound to a different node.
    pub fn bind_var(&mut self, var: VarId, node: NodeId) {
        if let Some(&existing) = self.driver.get(&var) {
            assert_eq!(existing, node, "variable {var} already bound to a driver");
            return;
        }
        self.driver.insert(var, node);
    }

    /// Adds an expression to the netlist, resolving variable references to
    /// their current drivers (creating primary inputs for unbound variables),
    /// and returns the node computing the expression.
    pub fn add_expr(&mut self, expr: &Expr) -> NodeId {
        match expr {
            Expr::Const(b) => self.add_const(*b),
            Expr::Var(v) => match self.driver.get(v) {
                Some(&id) => id,
                None => self.add_input(*v),
            },
            Expr::Not(e) => {
                let inner = self.add_expr(e);
                self.add_gate(GateKind::Not, vec![inner])
            }
            Expr::And(es) => {
                let fanin: Vec<NodeId> = es.iter().map(|e| self.add_expr(e)).collect();
                self.add_gate(GateKind::And, fanin)
            }
            Expr::Or(es) => {
                let fanin: Vec<NodeId> = es.iter().map(|e| self.add_expr(e)).collect();
                self.add_gate(GateKind::Or, fanin)
            }
            Expr::Xor(es) => {
                let fanin: Vec<NodeId> = es.iter().map(|e| self.add_expr(e)).collect();
                self.add_gate(GateKind::Xor, fanin)
            }
        }
    }

    /// Declares a constrained primary output.
    pub fn add_output(&mut self, node: NodeId, target: bool, var: Option<VarId>) {
        self.outputs.push(OutputConstraint { node, target, var });
    }

    /// Rebuilds a netlist from its serialized parts (the inverse of reading
    /// [`Netlist::nodes`], [`Netlist::primary_inputs`],
    /// [`Netlist::bound_vars`] and [`Netlist::outputs`] back out), restoring
    /// every builder invariant: topological order, hash-consing, collapsed
    /// single-input associative gates, and driver bindings.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant — the caller
    /// (an on-disk artifact cache) treats any error as a cache miss, so a
    /// corrupt or hand-edited file can never produce a structurally invalid
    /// netlist.
    pub fn from_raw_parts(
        nodes: Vec<NodeRef>,
        primary_inputs: Vec<VarId>,
        bound_vars: Vec<(VarId, NodeId)>,
        outputs: Vec<OutputConstraint>,
    ) -> Result<Netlist, String> {
        let mut dedup = HashMap::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            if let NodeRef::Gate { kind, fanin } = node {
                if let Some(bad) = fanin.iter().find(|f| f.index() >= i) {
                    return Err(format!(
                        "node {i}: fan-in {} is not strictly earlier",
                        bad.index()
                    ));
                }
                if kind.is_unary() && fanin.len() != 1 {
                    return Err(format!("node {i}: unary gate with {} inputs", fanin.len()));
                }
                if matches!(kind, GateKind::And | GateKind::Or | GateKind::Xor) && fanin.len() < 2 {
                    return Err(format!(
                        "node {i}: associative gate with {} inputs (should have \
                         collapsed at build time)",
                        fanin.len()
                    ));
                }
            }
            let id = NodeId(i as u32);
            if dedup.insert(node.clone(), id).is_some() {
                return Err(format!("node {i}: duplicate structural node"));
            }
        }
        let mut driver = HashMap::with_capacity(bound_vars.len());
        for &(var, node) in &bound_vars {
            if node.index() >= nodes.len() {
                return Err(format!("binding of variable {var}: node out of range"));
            }
            if driver.insert(var, node).is_some() {
                return Err(format!("variable {var} bound twice"));
            }
        }
        for &var in &primary_inputs {
            match driver.get(&var).map(|id| &nodes[id.index()]) {
                Some(NodeRef::Input(v)) if *v == var => {}
                _ => {
                    return Err(format!(
                        "primary input {var} is not driven by its own input node"
                    ))
                }
            }
        }
        if let Some(bad) = outputs.iter().find(|o| o.node.index() >= nodes.len()) {
            return Err(format!(
                "output constraint on node {} out of range",
                bad.node.index()
            ));
        }
        Ok(Netlist {
            nodes,
            dedup,
            driver,
            primary_inputs,
            outputs,
        })
    }

    /// Evaluates every node under the given primary-input values.
    ///
    /// Unlisted primary inputs default to `false`. Returns the value of every
    /// node indexed by [`NodeId::index`]; the returned vector is the only
    /// allocation (each gate folds its fan-in values in place).
    pub fn evaluate<F: Fn(VarId) -> bool>(&self, input_value: F) -> Vec<bool> {
        let mut values = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match node {
                NodeRef::Input(v) => input_value(*v),
                NodeRef::Const(b) => *b,
                NodeRef::Gate { kind, fanin } => kind.eval(fanin.iter().map(|f| values[f.index()])),
            };
        }
        values
    }

    /// Evaluates the netlist and checks every output constraint.
    pub fn outputs_satisfied<F: Fn(VarId) -> bool>(&self, input_value: F) -> bool {
        let values = self.evaluate(input_value);
        self.outputs
            .iter()
            .all(|o| values[o.node.index()] == o.target)
    }

    /// Total 2-input gate-equivalent operation count of the netlist.
    ///
    /// This is the circuit-side quantity of the paper's Fig. 4 ops-reduction
    /// metric.
    pub fn op_count(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match n {
                NodeRef::Input(_) | NodeRef::Const(_) => 0,
                NodeRef::Gate { kind, fanin } => kind.op_count(fanin.len()),
            })
            .sum()
    }

    /// Longest input-to-node path length (logic depth) of the netlist.
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        let mut max = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            if let NodeRef::Gate { fanin, .. } = node {
                depth[i] = 1 + fanin.iter().map(|f| depth[f.index()]).max().unwrap_or(0);
                max = max.max(depth[i]);
            }
        }
        max
    }

    /// Nodes reachable (transitively, through fan-in) from the constrained
    /// outputs. These form the *constrained paths* of the paper; inputs not in
    /// this cone lie on unconstrained paths and may be assigned freely.
    pub fn constrained_cone(&self) -> Vec<bool> {
        let mut in_cone = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|o| o.node).collect();
        while let Some(id) = stack.pop() {
            if in_cone[id.index()] {
                continue;
            }
            in_cone[id.index()] = true;
            if let NodeRef::Gate { fanin, .. } = &self.nodes[id.index()] {
                stack.extend(fanin.iter().copied());
            }
        }
        in_cone
    }

    /// Splits the primary inputs into (constrained, unconstrained) sets
    /// according to whether they feed a constrained output.
    pub fn partition_inputs(&self) -> (Vec<VarId>, Vec<VarId>) {
        let cone = self.constrained_cone();
        let mut constrained = Vec::new();
        let mut unconstrained = Vec::new();
        for &v in &self.primary_inputs {
            let id = self.driver[&v];
            if cone[id.index()] {
                constrained.push(v);
            } else {
                unconstrained.push(v);
            }
        }
        (constrained, unconstrained)
    }
}

impl fmt::Debug for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Netlist{{nodes: {}, inputs: {}, outputs: {}, ops: {}}}",
            self.nodes.len(),
            self.primary_inputs.len(),
            self.outputs.len(),
            self.op_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's Fig. 1 example circuit directly.
    fn fig1_netlist() -> Netlist {
        let mut nl = Netlist::new();
        // x2 = ¬x1 ; x3 = x2 ; x4 = x3
        let x1 = nl.add_input(1);
        let x2 = nl.add_gate(GateKind::Not, vec![x1]);
        nl.bind_var(2, x2);
        nl.bind_var(3, x2);
        nl.bind_var(4, x2);
        // x5 = (x4 ∧ x11) ∨ (¬x4 ∧ x12)
        let x11 = nl.add_input(11);
        let x12 = nl.add_input(12);
        let a = nl.add_gate(GateKind::And, vec![x2, x11]);
        let nx4 = nl.add_gate(GateKind::Not, vec![x2]);
        let b = nl.add_gate(GateKind::And, vec![nx4, x12]);
        let x5 = nl.add_gate(GateKind::Or, vec![a, b]);
        nl.bind_var(5, x5);
        // x9 = ¬x6 (through buffers x7, x8)
        let x6 = nl.add_input(6);
        let x9 = nl.add_gate(GateKind::Not, vec![x6]);
        nl.bind_var(9, x9);
        // x10 = (x9 ∧ x13) ∨ (¬x9 ∧ x14), constrained to 1
        let x13 = nl.add_input(13);
        let x14 = nl.add_input(14);
        let c = nl.add_gate(GateKind::And, vec![x9, x13]);
        let nx9 = nl.add_gate(GateKind::Not, vec![x9]);
        let d = nl.add_gate(GateKind::And, vec![nx9, x14]);
        let x10 = nl.add_gate(GateKind::Or, vec![c, d]);
        nl.bind_var(10, x10);
        nl.add_output(x10, true, Some(10));
        nl
    }

    #[test]
    fn evaluation_follows_gate_semantics() {
        let nl = fig1_netlist();
        // x6=0 → x9=1 → x10 = x13
        let sat = nl.outputs_satisfied(|v| matches!(v, 13));
        assert!(sat);
        let unsat = nl.outputs_satisfied(|v| matches!(v, 14));
        assert!(!unsat); // x9=1 selects x13 which is 0
    }

    #[test]
    fn hash_consing_shares_structure() {
        let mut nl = Netlist::new();
        let a = nl.add_input(1);
        let b = nl.add_input(2);
        let g1 = nl.add_gate(GateKind::And, vec![a, b]);
        let g2 = nl.add_gate(GateKind::And, vec![a, b]);
        assert_eq!(g1, g2);
        assert_eq!(nl.num_nodes(), 3);
    }

    #[test]
    fn single_input_gates_collapse() {
        let mut nl = Netlist::new();
        let a = nl.add_input(1);
        let g = nl.add_gate(GateKind::And, vec![a]);
        assert_eq!(g, a);
    }

    #[test]
    fn add_expr_resolves_bound_and_unbound_vars() {
        let mut nl = Netlist::new();
        let x1 = nl.add_input(1);
        let not1 = nl.add_gate(GateKind::Not, vec![x1]);
        nl.bind_var(2, not1);
        // x3 = x2 ∧ x4: x2 resolves to the NOT gate, x4 becomes a new PI.
        let expr = Expr::and(vec![Expr::var(2), Expr::var(4)]);
        let n = nl.add_expr(&expr);
        nl.bind_var(3, n);
        assert_eq!(nl.primary_inputs(), &[1, 4]);
        let values = nl.evaluate(|v| v == 4);
        assert!(values[n.index()]); // ¬x1 ∧ x4 with x1=0, x4=1
    }

    #[test]
    fn op_count_counts_two_input_equivalents() {
        let nl = fig1_netlist();
        // 2 NOT (x2, nx4) reused... count explicitly instead of guessing:
        let expected: u64 = nl
            .nodes()
            .iter()
            .map(|n| match n {
                NodeRef::Gate { kind, fanin } => kind.op_count(fanin.len()),
                _ => 0,
            })
            .sum();
        assert_eq!(nl.op_count(), expected);
        assert!(nl.op_count() >= 8);
    }

    #[test]
    fn constrained_partition_matches_paper_example() {
        let nl = fig1_netlist();
        let (constrained, unconstrained) = nl.partition_inputs();
        // x6, x13, x14 feed the constrained output x10; x1, x11, x12 do not.
        assert_eq!(constrained, vec![6, 13, 14]);
        assert_eq!(unconstrained, vec![1, 11, 12]);
    }

    #[test]
    fn depth_reflects_longest_path() {
        let nl = fig1_netlist();
        assert!(nl.depth() >= 3);
        let empty = Netlist::new();
        assert_eq!(empty.depth(), 0);
    }

    #[test]
    fn raw_parts_round_trip_preserves_structure_and_semantics() {
        let nl = fig1_netlist();
        let rebuilt = Netlist::from_raw_parts(
            nl.nodes().to_vec(),
            nl.primary_inputs().to_vec(),
            nl.bound_vars().collect(),
            nl.outputs().to_vec(),
        )
        .expect("round trip");
        assert_eq!(rebuilt.nodes(), nl.nodes());
        assert_eq!(rebuilt.primary_inputs(), nl.primary_inputs());
        assert_eq!(rebuilt.outputs(), nl.outputs());
        assert_eq!(rebuilt.op_count(), nl.op_count());
        assert!(rebuilt.outputs_satisfied(|v| matches!(v, 13)));
        // Hash-consing is restored: re-adding an existing gate reuses it.
        let mut rebuilt = rebuilt;
        let before = rebuilt.num_nodes();
        let x1 = rebuilt.driver_of(1).expect("x1 bound");
        let again = rebuilt.add_gate(GateKind::Not, vec![x1]);
        assert_eq!(rebuilt.num_nodes(), before);
        assert_eq!(again, rebuilt.driver_of(2).expect("x2 bound"));
    }

    #[test]
    fn raw_parts_reject_invalid_structure() {
        let fwd = NodeRef::Gate {
            kind: GateKind::Not,
            fanin: vec![NodeId::from_index(1).unwrap()],
        };
        assert!(Netlist::from_raw_parts(vec![fwd], vec![], vec![], vec![])
            .unwrap_err()
            .contains("strictly earlier"));
        let nodes = vec![NodeRef::Input(1)];
        assert!(Netlist::from_raw_parts(
            nodes.clone(),
            vec![],
            vec![],
            vec![OutputConstraint {
                node: NodeId::from_index(7).unwrap(),
                target: true,
                var: None,
            }],
        )
        .unwrap_err()
        .contains("out of range"));
        assert!(
            Netlist::from_raw_parts(nodes.clone(), vec![1], vec![], vec![])
                .unwrap_err()
                .contains("not driven"),
            "primary input without a driver binding"
        );
        let dup = vec![NodeRef::Input(1), NodeRef::Input(1)];
        assert!(Netlist::from_raw_parts(dup, vec![], vec![], vec![])
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn rebinding_variable_to_different_node_panics() {
        let mut nl = Netlist::new();
        let a = nl.add_input(1);
        let b = nl.add_input(2);
        nl.bind_var(3, a);
        nl.bind_var(3, b);
    }
}
