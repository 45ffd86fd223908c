//! Transfer occupancy by size, computed once per component instead of once
//! per transfer.

use pdfws_cmp_model::memsys::transfer_cycles;

/// Sizes up to this many bytes are looked up rather than computed.  The
/// engine moves one line (a fill or a writeback) or two (a fill with a
/// piggybacked writeback), so every transfer of a line of up to 256 bytes is
/// covered.
const TABLED_BYTES: usize = 512;

/// [`transfer_cycles`] at one fixed rate, precomputed for every size up to
/// [`TABLED_BYTES`] with the same expression, so a lookup is bit-identical to
/// the f64 divide and `ceil` it replaces.  Larger sizes are computed.
#[derive(Debug, Clone)]
pub(crate) struct TransferTable {
    bytes_per_cycle: f64,
    cycles: Box<[u64]>,
}

impl TransferTable {
    /// The table for a resource moving `bytes_per_cycle` (may be infinite).
    pub(crate) fn new(bytes_per_cycle: f64) -> Self {
        TransferTable {
            bytes_per_cycle,
            cycles: (0..=TABLED_BYTES as u64)
                .map(|bytes| transfer_cycles(bytes, bytes_per_cycle))
                .collect(),
        }
    }

    /// Cycles to move `bytes`.
    #[inline]
    pub(crate) fn cycles(&self, bytes: u64) -> u64 {
        match usize::try_from(bytes).ok().and_then(|b| self.cycles.get(b)) {
            Some(&cycles) => cycles,
            None => transfer_cycles(bytes, self.bytes_per_cycle),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_equal_the_computed_expression() {
        for rate in [0.5, 1.0, 8.0 / 3.0, 16.0 / 3.0, 2.67, 64.0, f64::INFINITY] {
            let table = TransferTable::new(rate);
            for bytes in (0..=2 * TABLED_BYTES as u64).chain([u64::MAX]) {
                assert_eq!(
                    table.cycles(bytes),
                    transfer_cycles(bytes, rate),
                    "{bytes} bytes at {rate} bytes/cycle"
                );
            }
        }
    }
}
