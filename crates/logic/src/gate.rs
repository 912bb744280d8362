//! Logic gate kinds shared by the netlist and the differentiable circuit.

use std::borrow::Borrow;
use std::fmt;

/// The kind of a logic gate in a multi-level netlist.
///
/// Gates are n-ary where that is meaningful (`And`, `Or`, `Xor` and their
/// complemented forms); `Not` and `Buf` are unary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Unary buffer (identity).
    Buf,
    /// Unary inverter.
    Not,
    /// n-ary conjunction.
    And,
    /// n-ary disjunction.
    Or,
    /// Complemented conjunction.
    Nand,
    /// Complemented disjunction.
    Nor,
    /// n-ary exclusive OR (odd parity).
    Xor,
    /// Complemented exclusive OR (even parity).
    Xnor,
}

impl GateKind {
    /// Evaluates the gate over boolean fan-in values, folding them as they
    /// arrive: an array, a slice or any iterator of `bool`s, so a caller
    /// can stream fan-in values without collecting them first.
    ///
    /// # Panics
    ///
    /// Panics if a unary gate receives a fan-in of length other than one.
    pub fn eval<I>(self, inputs: I) -> bool
    where
        I: IntoIterator,
        I::Item: Borrow<bool>,
    {
        let mut inputs = inputs.into_iter().map(|b| *b.borrow());
        match self {
            GateKind::Buf | GateKind::Not => {
                let only = inputs.next().filter(|_| inputs.next().is_none());
                let Some(value) = only else {
                    panic!("{self:?} takes exactly one input");
                };
                value ^ (self == GateKind::Not)
            }
            GateKind::And => inputs.all(|b| b),
            GateKind::Or => inputs.any(|b| b),
            GateKind::Nand => !inputs.all(|b| b),
            GateKind::Nor => !inputs.any(|b| b),
            GateKind::Xor => inputs.fold(false, |a, b| a ^ b),
            GateKind::Xnor => !inputs.fold(false, |a, b| a ^ b),
        }
    }

    /// Whether the gate is unary.
    pub fn is_unary(self) -> bool {
        matches!(self, GateKind::Buf | GateKind::Not)
    }

    /// Number of 2-input gate equivalents for a gate of this kind with
    /// `fanin` inputs.
    ///
    /// Inverting kinds cost one extra inverter on top of their base gate
    /// (except `Not` itself, which costs exactly one).
    pub fn op_count(self, fanin: usize) -> u64 {
        let n = fanin as u64;
        match self {
            GateKind::Buf => 0,
            GateKind::Not => 1,
            GateKind::And | GateKind::Or | GateKind::Xor => n.saturating_sub(1),
            GateKind::Nand | GateKind::Nor | GateKind::Xnor => n.saturating_sub(1) + 1,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_semantics() {
        assert!(GateKind::And.eval([true, true, true]));
        assert!(!GateKind::And.eval([true, false]));
        assert!(GateKind::Or.eval([false, true]));
        assert!(!GateKind::Or.eval([false, false]));
        assert!(GateKind::Nand.eval([true, false]));
        assert!(GateKind::Nor.eval([false, false]));
        assert!(GateKind::Xor.eval([true, false, false]));
        assert!(!GateKind::Xor.eval([true, true]));
        assert!(GateKind::Xnor.eval([true, true]));
        assert!(GateKind::Not.eval([false]));
        assert!(GateKind::Buf.eval([true]));
    }

    #[test]
    fn empty_fanin_identities() {
        assert!(GateKind::And.eval([true; 0]));
        assert!(!GateKind::Or.eval([true; 0]));
        assert!(!GateKind::Xor.eval([true; 0]));
    }

    #[test]
    fn op_counts() {
        assert_eq!(GateKind::And.op_count(4), 3);
        assert_eq!(GateKind::Nand.op_count(4), 4);
        assert_eq!(GateKind::Not.op_count(1), 1);
        assert_eq!(GateKind::Buf.op_count(1), 0);
        assert_eq!(GateKind::Or.op_count(1), 0);
    }

    #[test]
    #[should_panic(expected = "exactly one input")]
    fn unary_gate_rejects_wide_fanin() {
        GateKind::Not.eval([true, false]);
    }
}
