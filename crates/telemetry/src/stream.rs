//! Streaming chunk source over a [`Scenario`].
//!
//! Simulates the paper's online setting: telemetry arrives in fixed-size
//! batches of snapshots (e.g. 1,000 time points at a time in Table I). The
//! generator's determinism guarantees that concatenating the chunks equals a
//! single batch generation of the same range.

use crate::envlog::Scenario;
use hpc_linalg::Mat;

/// Iterator over snapshot batches of a scenario.
pub struct ChunkStream<'a> {
    scenario: &'a Scenario,
    pos: usize,
    end: usize,
    chunk: usize,
}

impl<'a> ChunkStream<'a> {
    /// Streams all series over `[t0, t1)` in batches of `chunk` snapshots
    /// (the final batch may be shorter).
    pub fn new(scenario: &'a Scenario, t0: usize, t1: usize, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(t0 <= t1);
        ChunkStream {
            scenario,
            pos: t0,
            end: t1,
            chunk,
        }
    }

    /// Remaining snapshots.
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }
}

impl Iterator for ChunkStream<'_> {
    type Item = Mat;

    fn next(&mut self) -> Option<Mat> {
        if self.pos >= self.end {
            return None;
        }
        let hi = (self.pos + self.chunk).min(self.end);
        let batch = self.scenario.generate(self.pos, hi);
        self.pos = hi;
        Some(batch)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining().div_ceil(self.chunk);
        (n, Some(n))
    }
}

impl ExactSizeIterator for ChunkStream<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envlog::Scenario;
    use crate::machine::theta;

    #[test]
    fn chunks_concatenate_to_batch() {
        let s = Scenario::sc_log(theta().scaled(8), 300, 11);
        let whole = s.generate(0, 300);
        let mut acc: Option<Mat> = None;
        for chunk in ChunkStream::new(&s, 0, 300, 77) {
            acc = Some(match acc {
                None => chunk,
                Some(a) => a.hstack(&chunk),
            });
        }
        assert_eq!(acc.unwrap(), whole);
    }

    #[test]
    fn exact_size_and_final_short_chunk() {
        let s = Scenario::sc_log(theta().scaled(4), 100, 1);
        let stream = ChunkStream::new(&s, 0, 100, 30);
        assert_eq!(stream.len(), 4);
        let sizes: Vec<usize> = ChunkStream::new(&s, 0, 100, 30).map(|m| m.cols()).collect();
        assert_eq!(sizes, vec![30, 30, 30, 10]);
    }

    #[test]
    fn empty_range_yields_nothing() {
        let s = Scenario::sc_log(theta().scaled(4), 50, 1);
        assert_eq!(ChunkStream::new(&s, 10, 10, 5).count(), 0);
    }
}
