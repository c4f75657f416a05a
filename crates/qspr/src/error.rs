//! Error type for the mapper.

use std::error::Error;
use std::fmt;

use leqa_fabric::Ulb;

/// Errors produced by [`Mapper::map`](crate::Mapper::map).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MapError {
    /// More logical qubits than usable ULBs: no placement exists. On a
    /// defective fabric `area` counts only the *live* cells.
    FabricTooSmall {
        /// Logical qubits in the program.
        qubits: u64,
        /// Usable ULBs on the fabric.
        area: u64,
    },
    /// A required qubit transfer has no defect-free path: the fabric's
    /// dead cells/channels disconnect the two ULBs (see
    /// [`FabricMap`](leqa_fabric::FabricMap)).
    Unroutable {
        /// Where the transfer starts.
        from: Ulb,
        /// Where it needs to go.
        to: Ulb,
    },
    /// The mapper's [`FabricMap`](leqa_fabric::FabricMap) describes a
    /// different fabric than the mapper's dimensions.
    FabricMapMismatch {
        /// Fabric width × height the mapper was configured with.
        dims: (u32, u32),
        /// Fabric width × height the map describes.
        map_dims: (u32, u32),
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::FabricTooSmall { qubits, area } => write!(
                f,
                "{qubits} logical qubits cannot be placed on a {area}-ulb fabric"
            ),
            MapError::Unroutable { from, to } => write!(
                f,
                "no defect-free route from {from} to {to}: the fabric map disconnects them"
            ),
            MapError::FabricMapMismatch { dims, map_dims } => write!(
                f,
                "fabric map describes a {}x{} fabric but the mapper is {}x{}",
                map_dims.0, map_dims.1, dims.0, dims.1
            ),
        }
    }
}

impl Error for MapError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            MapError::FabricTooSmall {
                qubits: 10,
                area: 4
            }
            .to_string(),
            "10 logical qubits cannot be placed on a 4-ulb fabric"
        );
        assert_eq!(
            MapError::Unroutable {
                from: Ulb::new(0, 1),
                to: Ulb::new(2, 2)
            }
            .to_string(),
            "no defect-free route from (0, 1) to (2, 2): the fabric map disconnects them"
        );
        assert_eq!(
            MapError::FabricMapMismatch {
                dims: (5, 5),
                map_dims: (4, 4)
            }
            .to_string(),
            "fabric map describes a 4x4 fabric but the mapper is 5x5"
        );
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<MapError>();
    }
}
