//! Circuit representation and graph construction for the LEQA reproduction.
//!
//! The paper's design flow (§2) starts from a synthesized *reversible* circuit
//! (NOT/CNOT/Toffoli/Fredkin, possibly multi-controlled), lowers it to
//! *fault-tolerant* (FT) operations over the universal set
//! `{CNOT, H, T, T†, S, S†, X, Y, Z}`, and then represents the program as a
//! *quantum operation dependency graph* (QODG, Fig. 2): nodes are FT ops,
//! edges are data dependencies, with synthetic `start`/`end` nodes.
//! A second graph, the *interaction intensity graph* (IIG, §3.1), has logical
//! qubits as nodes and the number of two-qubit ops between a pair as the edge
//! weight.
//!
//! This crate provides all of those pieces:
//!
//! * [`Circuit`]/[`Gate`] — the reversible-level circuit,
//! * [`decompose`] — the paper's decomposition pipeline (multi-controlled
//!   Toffoli/Fredkin → 3-input Toffoli via ancillas, Fredkin → 3 Toffolis,
//!   Toffoli → 15 FT gates), producing an [`FtCircuit`],
//! * [`Qodg`] — the dependency DAG with critical-path extraction,
//! * [`Iig`] — the interaction intensity graph,
//! * [`parser`] — a plain-text circuit format, read and write.
//!
//! # Examples
//!
//! ```
//! use leqa_circuit::{Circuit, Gate, QubitId};
//! use leqa_circuit::decompose::lower_to_ft;
//! use leqa_circuit::{Iig, Qodg};
//!
//! # fn main() -> Result<(), leqa_circuit::CircuitError> {
//! let mut c = Circuit::new(3);
//! c.push(Gate::toffoli(QubitId(0), QubitId(1), QubitId(2))?)?;
//! c.push(Gate::cnot(QubitId(0), QubitId(1))?)?;
//!
//! let ft = lower_to_ft(&c)?;
//! assert_eq!(ft.ops().len(), 16); // 15 for the Toffoli + 1 CNOT
//!
//! let qodg = Qodg::from_ft_circuit(&ft);
//! assert_eq!(qodg.op_count(), 16);
//!
//! let iig = Iig::from_ft_circuit(&ft);
//! assert_eq!(iig.degree(QubitId(2)), 2); // CNOTs touch q2 with q0 and q1
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
pub mod classical;
pub mod decompose;
mod error;
mod gate;
mod iig;
pub mod parser;
mod qodg;
pub mod viz;

pub use circuit::{Circuit, CircuitStats, FtCircuit};
pub use error::CircuitError;
pub use gate::{FtOp, Gate, QubitId};
pub use iig::Iig;
pub use qodg::{ops_critical_path, CriticalPath, CriticalPathScratch, NodeId, Qodg, QodgNode};

pub use leqa_fabric::OneQubitKind;
