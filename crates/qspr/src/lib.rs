//! QSPR — a detailed **q**uantum **s**cheduling, **p**lacement and
//! **r**outing mapper for the tiled quantum architecture.
//!
//! The LEQA paper uses the authors' QSPR tool (DATE 2012, ref. \[20\]) as the
//! ground truth: it maps the quantum operation dependency graph (QODG) onto
//! the ULB grid and simulates **every** qubit movement, producing the
//! "actual delay" column of Table 2 and the runtime baseline of Table 3.
//! That tool is not available; this crate reimplements the described flow
//! from scratch:
//!
//! 1. **Placement** ([`PlacementStrategy`]): logical qubits get home ULBs.
//!    The default interaction-aware strategy orders qubits by a
//!    weighted-BFS over the interaction intensity graph and lays them out
//!    along a center-out spiral, so strongly interacting qubits sit close —
//!    what a force-directed quantum placer converges to.
//! 2. **Scheduling**: list scheduling in QODG topological order; an
//!    operation starts when its graph predecessors finished, its operand
//!    qubits are free and its target ULB is idle.
//! 3. **Routing** ([`channels`]): for each CNOT the control qubit travels
//!    along the dimension-ordered path to the target's ULB, one `T_move`
//!    per channel hop, queueing at channels that already carry `N_c`
//!    qubits (the congestion LEQA models as an M/M/1 queue). After the
//!    gate it returns home. One-qubit operations pay the in/out shuttle
//!    (`2·T_move`) at their home ULB — the empirical cost the paper quotes
//!    as `L_g^avg`.
//!
//! The mapper is deterministic for a fixed seed, reports rich statistics
//! ([`MappingStats`]) and is the baseline every table in the bench harness
//! compares against.
//!
//! # Examples
//!
//! ```
//! use leqa_circuit::{decompose::lower_to_ft, Circuit, Gate, Qodg, QubitId};
//! use leqa_fabric::{FabricDims, PhysicalParams};
//! use qspr::Mapper;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut c = Circuit::new(3);
//! c.push(Gate::toffoli(QubitId(0), QubitId(1), QubitId(2))?)?;
//! let ft = lower_to_ft(&c)?;
//! let qodg = Qodg::from_ft_circuit(&ft);
//!
//! let mapper = Mapper::new(FabricDims::dac13(), PhysicalParams::dac13());
//! let result = mapper.map(&qodg)?;
//! assert!(result.latency.as_f64() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channels;
mod engine;
mod error;
mod placement;
pub mod trace;

pub use engine::{
    MapScratch, Mapper, MapperConfig, MappingResult, MappingStats, MovementModel, RouterStrategy,
};
pub use error::MapError;
pub use placement::{initial_placement, PlacementStrategy};
pub use trace::{OpRecord, Trace, TraceStats};
