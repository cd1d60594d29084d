//! # workload — the serving workload shape
//!
//! The paper drives FlexGen with prompts from the C4 `realnewslike`
//! corpus, truncated/padded to 128 input tokens, generating 21 output
//! tokens, with each prompt repeated 10 times (§III-B). Token
//! *identity* never affects serving performance — only sequence
//! lengths and batch composition do — so every request is a
//! fixed-shape [`WorkloadSpec`] and no corpus ships.
//!
//! # Examples
//!
//! ```
//! use workload::WorkloadSpec;
//!
//! let spec = WorkloadSpec::paper_default();
//! assert_eq!((spec.prompt_len, spec.gen_len, spec.repeats), (128, 21, 10));
//! assert_eq!(spec.context_len(), 149);
//! assert_eq!(spec.tokens_generated(8), 8 * 21);
//! ```

/// The serving workload shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Input sequence length after padding/truncation.
    pub prompt_len: usize,
    /// Output tokens generated per request.
    pub gen_len: usize,
    /// Times each prompt is repeated (cold-start smoothing).
    pub repeats: usize,
}

impl WorkloadSpec {
    /// The paper's configuration: 128 in, 21 out, 10 repeats (§III-B).
    pub fn paper_default() -> Self {
        WorkloadSpec {
            prompt_len: 128,
            gen_len: 21,
            repeats: 10,
        }
    }

    /// A custom shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(prompt_len: usize, gen_len: usize, repeats: usize) -> Self {
        assert!(prompt_len > 0 && gen_len > 0 && repeats > 0);
        WorkloadSpec {
            prompt_len,
            gen_len,
            repeats,
        }
    }

    /// Final context length once generation completes.
    pub fn context_len(&self) -> usize {
        self.prompt_len + self.gen_len
    }

    /// Total tokens generated by a batch of `batch` requests.
    pub fn tokens_generated(&self, batch: u32) -> u64 {
        u64::from(batch) * self.gen_len as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_iii() {
        let spec = WorkloadSpec::paper_default();
        assert_eq!(spec.context_len(), 149);
        assert_eq!(spec.repeats, 10);
        assert_eq!(spec.tokens_generated(44), 44 * 21);
    }

    #[test]
    #[should_panic]
    fn zero_dimensions_rejected() {
        let _ = WorkloadSpec::new(0, 1, 1);
    }
}
