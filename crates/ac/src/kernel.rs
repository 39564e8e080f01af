//! The byte-scanning hot path.
//!
//! Both loops over the one full table expose the same [`ScanKernel`]
//! interface: a resumable scan that reports accepting states and collects
//! the depth samples the MCA²-style stress telemetry needs
//! (DESIGN.md §12). A deployment runs the lane-interleaved loop, which
//! cuts a payload into independent chains so their dependent table loads
//! overlap; [`KernelKind`] exists so the benchmark's verdict check and
//! the equivalence suites can build the plain reference loop over the
//! same table and demand byte-identical match streams and final states.
//! The table's cell width is not a choice: it follows from the state
//! count; nor is the lane count, which follows from the payload.

use crate::StateId;
use serde::{Deserialize, Serialize};

/// Which scan kernel an instance runs. Serialized inside
/// `InstanceConfig`, so the choice survives live rule updates and
/// staged rollouts unchanged.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum KernelKind {
    /// Reference kernel: one chain of dependent table loads, a byte at a
    /// time. The baseline every optimization is measured and verified
    /// against.
    Naive,
    /// The lane-interleaved table scan: the payload is cut into one to
    /// four chunks — as many as its length and the longest pattern allow
    /// — that step through the table together, after a prefix filter has
    /// skipped what provably stays within two bytes of the root. Its
    /// [`ScanKernel::kernel_name`] is the cell width the state count
    /// selected: `"compact"` (`u16`, below 2¹⁶ states) or `"full"`
    /// (`u32`).
    #[default]
    Auto,
}

impl KernelKind {
    /// Both kernels: the reference, then the default.
    pub const ALL: [KernelKind; 2] = [KernelKind::Naive, KernelKind::Auto];

    /// The flag's wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Naive => "naive",
            KernelKind::Auto => "auto",
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Depth-sample accumulator a kernel fills during one scan: 1 in
/// `sample_every` byte positions contributes to `total`, and to `deep`
/// when the automaton state after that byte sits at or past the caller's
/// deep-depth threshold. Exact for every kernel: each one knows every
/// byte's exact state, whether it stepped the byte or skipped it.
///
/// `skipped` says how a kernel got there, not what it saw: the bytes the
/// default loop passed by its prefix filter rather than on the table
/// (0 for the reference loop). Equality therefore compares `total` and
/// `deep` only.
#[derive(Debug, Default, Clone, Copy, Eq)]
pub struct DepthSamples {
    /// Sampled positions.
    pub total: u64,
    /// Sampled positions at or past the deep threshold.
    pub deep: u64,
    /// Bytes skipped at depth ≤ 2 (DESIGN.md §12).
    pub skipped: u64,
}

impl PartialEq for DepthSamples {
    fn eq(&self, other: &DepthSamples) -> bool {
        (self.total, self.deep) == (other.total, other.deep)
    }
}

/// A resumable scanning hot path over one compiled automaton.
///
/// `scan_sampled` is [`crate::Automaton::scan`] plus the telemetry the
/// scan engine needs inline: it invokes `on_accept(end_index, state)`
/// for every accepting state reached and samples scan depth on the
/// `sample_every` grid (position `i` is sampled when `i % sample_every
/// == 0`, matching the engine's historical loop; position 0 is the only
/// one when `sample_every` is 0). Accepts arrive in ascending position
/// order. The returned final state is exact — stateful cross-packet scans
/// store it — and the match stream is byte-identical across all kernels.
pub trait ScanKernel {
    /// The kernel's flag spelling (telemetry, trace events, benches).
    fn kernel_name(&self) -> &'static str;

    /// Scans `data` from `state`; see the trait docs for the contract.
    fn scan_sampled(
        &self,
        state: StateId,
        data: &[u8],
        sample_every: usize,
        deep_depth: u16,
        samples: &mut DepthSamples,
        on_accept: &mut dyn FnMut(usize, StateId),
    ) -> StateId;
}

/// The sampling grid of one scan, filling a [`DepthSamples`]: position
/// `i` is sampled when it is the next multiple of `every`. Position 0 is
/// always on the grid; an `every` of 0, or one reaching past the payload,
/// leaves it the only sampled position.
pub(crate) struct DepthGrid<'a> {
    next: usize,
    every: usize,
    deep_depth: u16,
    depth: &'a [u16],
    samples: &'a mut DepthSamples,
}

impl<'a> DepthGrid<'a> {
    /// A grid over a table's per-state `depth`, starting at position 0.
    pub(crate) fn new(
        depth: &'a [u16],
        every: usize,
        deep_depth: u16,
        samples: &'a mut DepthSamples,
    ) -> DepthGrid<'a> {
        DepthGrid {
            next: 0,
            every,
            deep_depth,
            depth,
            samples,
        }
    }

    /// The grid step when a second grid position falls inside `len`
    /// bytes; `None` when position 0 is the only one.
    pub(crate) fn step_within(&self, len: usize) -> Option<usize> {
        (1..len).contains(&self.every).then_some(self.every)
    }

    /// Records the first `on_grid` of `states` if `i` is on the grid. The
    /// lanes of one scan share a grid: their chunks start on it, so they
    /// pass the position inside the chunk and the states they reached
    /// there. `on_grid` is below the lane count only when position 0 is
    /// the one sample, which belongs to lane 0 alone.
    #[inline(always)]
    pub(crate) fn visit<const K: usize>(&mut self, i: usize, states: [StateId; K], on_grid: usize) {
        if i == self.next {
            for (k, &state) in states.iter().enumerate() {
                if k < on_grid {
                    self.samples.total += 1;
                    if self.depth[state as usize] >= self.deep_depth {
                        self.samples.deep += 1;
                    }
                }
            }
            self.advance();
        }
    }

    /// Moves past the position just sampled; with no step, past the end.
    fn advance(&mut self) {
        self.next = match self.every {
            0 => usize::MAX,
            every => self.next.saturating_add(every),
        };
    }

    /// Records every grid position below `to` not yet recorded, all of
    /// which the caller knows to sit at depth ≤ 2 — `state_at(i)` names
    /// the state there, and is asked only when a threshold of 2 or less
    /// makes the depth matter — then counts the `to` bytes as skipped and
    /// moves the grid's origin to `to`, where a scan of the rest starts.
    pub(crate) fn skip_shallow(&mut self, to: usize, state_at: impl Fn(usize) -> StateId) {
        while self.next < to {
            self.samples.total += 1;
            if self.deep_depth <= 2 && self.depth[state_at(self.next) as usize] >= self.deep_depth {
                self.samples.deep += 1;
            }
            self.advance();
        }
        self.next -= to;
        self.samples.skipped += to as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_serializes_as_snake_case_string() {
        for k in KernelKind::ALL {
            let j = serde_json::to_string(&k).unwrap();
            assert_eq!(j, format!("\"{}\"", k.name()));
            assert_eq!(serde_json::from_str::<KernelKind>(&j).unwrap(), k);
        }
        assert_eq!(KernelKind::default(), KernelKind::Auto);
        // Spellings older peers may still send are rejected, not defaulted.
        for gone in ["\"full\"", "\"compact\"", "\"prefiltered\""] {
            assert!(serde_json::from_str::<KernelKind>(gone).is_err());
        }
    }
}
