//! The layer sequence and per-layer cost accounting.
//!
//! FlexGen's schedule walks a flat layer list: input embedding, then
//! MHA and FFN alternating per decoder block, then output embedding
//! (paper Listing 1 / §III-B). Each layer knows its weight specs and
//! can report the FLOPs and HBM traffic of its prefill (GEMM over the
//! whole prompt) and decode (GEMV over one token plus KV-cache
//! attention) computations — the inputs to the GPU kernel models.

use crate::config::ModelConfig;
use crate::weights::{DType, WeightSpec};
use simcore::units::ByteSize;
use std::sync::Arc;

/// The four layer classes in FlexGen's flattened model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Token + position embedding lookup.
    InputEmbed,
    /// Multi-head attention half of a decoder block.
    Mha,
    /// Feed-forward half of a decoder block.
    Ffn,
    /// Final norm + LM head.
    OutputEmbed,
}

impl LayerKind {
    /// Whether this is one of the per-block hidden layers.
    pub fn is_hidden(self) -> bool {
        matches!(self, LayerKind::Mha | LayerKind::Ffn)
    }
}

impl std::fmt::Display for LayerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LayerKind::InputEmbed => "embed-in",
            LayerKind::Mha => "MHA",
            LayerKind::Ffn => "FFN",
            LayerKind::OutputEmbed => "embed-out",
        })
    }
}

/// One layer of the flattened model.
///
/// # Examples
///
/// ```
/// use llm::{Layer, LayerKind, ModelConfig};
///
/// let layers = Layer::sequence(&ModelConfig::opt_175b());
/// assert_eq!(layers.len(), 194);
/// assert_eq!(layers[0].kind(), LayerKind::InputEmbed);
/// assert_eq!(layers[1].kind(), LayerKind::Mha);
/// assert_eq!(layers[2].kind(), LayerKind::Ffn);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    kind: LayerKind,
    index: usize,
    block: Option<usize>,
    /// Shared by every layer of one [`Layer::sequence`]; `Arc`'s
    /// `Debug` and `PartialEq` read through to the config.
    config: Arc<ModelConfig>,
}

impl Layer {
    /// The full layer sequence for `config`.
    pub fn sequence(config: &ModelConfig) -> Vec<Layer> {
        let shared = Arc::new(config.clone());
        let mut layers = Vec::with_capacity(config.num_layers());
        layers.push(Layer {
            kind: LayerKind::InputEmbed,
            index: 0,
            block: None,
            config: Arc::clone(&shared),
        });
        for b in 0..config.num_blocks() {
            for kind in [LayerKind::Mha, LayerKind::Ffn] {
                layers.push(Layer {
                    kind,
                    index: layers.len(),
                    block: Some(b),
                    config: Arc::clone(&shared),
                });
            }
        }
        layers.push(Layer {
            kind: LayerKind::OutputEmbed,
            index: layers.len(),
            block: None,
            config: shared,
        });
        layers
    }

    /// Layer class.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// Position in the flattened sequence.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Decoder block this layer belongs to, if any.
    pub fn block(&self) -> Option<usize> {
        self.block
    }

    /// The layer's weight tensors in FlexGen declaration order.
    pub fn weight_specs(&self) -> Vec<WeightSpec> {
        match self.kind {
            LayerKind::InputEmbed => WeightSpec::input_embed_specs(&self.config),
            LayerKind::Mha => WeightSpec::mha_specs(&self.config),
            LayerKind::Ffn => WeightSpec::ffn_specs(&self.config),
            LayerKind::OutputEmbed => WeightSpec::output_embed_specs(&self.config),
        }
    }

    /// Total weight bytes at `dtype`.
    pub fn weight_bytes(&self, dtype: DType) -> ByteSize {
        WeightSpec::total_bytes(&self.weight_specs(), dtype)
    }

    /// Matrix-multiply FLOPs for processing `tokens` positions
    /// (`batch * seq_len` in prefill, `batch` in decode), excluding
    /// attention-score work.
    pub fn matmul_flops(&self, tokens: u64) -> f64 {
        let h = self.config.hidden_size() as f64;
        let kv = self.config.kv_dim() as f64;
        let inter = self.config.ffn_intermediate() as f64;
        let t = tokens as f64;
        match self.kind {
            // Q + output projections (h x h) and K/V (h x kv_dim).
            LayerKind::Mha => 2.0 * t * (2.0 * h * h + 2.0 * h * kv),
            // MLP: up + down; gated FFN adds the gate projection.
            LayerKind::Ffn => {
                let matrices = if self.config.gated_ffn() { 3.0 } else { 2.0 };
                2.0 * t * matrices * inter * h
            }
            // Lookups are bandwidth, not FLOPs.
            LayerKind::InputEmbed => 0.0,
            // LM head: h x vocab GEMM.
            LayerKind::OutputEmbed => 2.0 * t * h * self.config.vocab_size() as f64,
        }
    }

    /// Attention-score FLOPs (Q·K^T and scores·V) for `batch`
    /// sequences attending over `context_len` cached positions with
    /// `new_tokens` query positions each.
    pub fn attention_flops(&self, batch: u32, new_tokens: usize, context_len: usize) -> f64 {
        if self.kind != LayerKind::Mha {
            return 0.0;
        }
        let h = self.config.hidden_size() as f64;
        2.0 * 2.0 * f64::from(batch) * new_tokens as f64 * context_len as f64 * h
    }

    /// KV-cache bytes the attention of this layer streams for `batch`
    /// sequences over `context_len` positions.
    pub fn kv_read_bytes(&self, batch: u32, context_len: usize) -> ByteSize {
        if self.kind != LayerKind::Mha {
            return ByteSize::ZERO;
        }
        ByteSize::from_bytes(
            u64::from(batch)
                * context_len as u64
                * crate::kv::kv_bytes_per_token_per_block(&self.config),
        )
    }

    /// Activation bytes read+written by the layer for `tokens`
    /// positions (hidden in, hidden out at FP16).
    pub fn activation_bytes(&self, tokens: u64) -> ByteSize {
        let h = self.config.hidden_size() as u64;
        match self.kind {
            LayerKind::Ffn => {
                // Expands to the FFN width in the middle (twice for
                // gated variants: gate and up activations).
                let lanes = if self.config.gated_ffn() { 2 } else { 1 };
                ByteSize::from_bytes(
                    tokens * 2 * (2 * h + lanes * self.config.ffn_intermediate() as u64),
                )
            }
            _ => ByteSize::from_bytes(tokens * h * 2 * 2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_shape_matches_flexgen() {
        let cfg = ModelConfig::opt_30b();
        let layers = Layer::sequence(&cfg);
        assert_eq!(layers.len(), 98);
        assert_eq!(layers.first().unwrap().kind(), LayerKind::InputEmbed);
        assert_eq!(layers.last().unwrap().kind(), LayerKind::OutputEmbed);
        let hidden = layers.iter().filter(|l| l.kind().is_hidden()).count();
        assert_eq!(hidden, 96);
        // Blocks alternate MHA, FFN.
        assert_eq!(layers[1].kind(), LayerKind::Mha);
        assert_eq!(layers[2].kind(), LayerKind::Ffn);
        assert_eq!(layers[1].block(), Some(0));
        assert_eq!(layers[3].block(), Some(1));
    }

    #[test]
    fn ffn_has_twice_the_flops_of_mha() {
        let cfg = ModelConfig::opt_175b();
        let layers = Layer::sequence(&cfg);
        let mha = &layers[1];
        let ffn = &layers[2];
        let ratio = ffn.matmul_flops(128) / mha.matmul_flops(128);
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn a_sequence_shares_one_config() {
        let cfg = ModelConfig::opt_175b();
        let layers = Layer::sequence(&cfg);
        assert_eq!(*layers[0].config, cfg);
        assert!(layers
            .iter()
            .all(|l| Arc::ptr_eq(&l.config, &layers[0].config)));
    }

    #[test]
    fn indices_are_contiguous() {
        let layers = Layer::sequence(&ModelConfig::opt_125m());
        for (i, l) in layers.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }

    #[test]
    fn attention_costs_only_on_mha() {
        let cfg = ModelConfig::opt_175b();
        let layers = Layer::sequence(&cfg);
        assert!(layers[1].attention_flops(1, 128, 128) > 0.0);
        assert_eq!(layers[2].attention_flops(1, 128, 128), 0.0);
        assert!(layers[1].kv_read_bytes(1, 149) > ByteSize::ZERO);
        assert_eq!(layers[2].kv_read_bytes(1, 149), ByteSize::ZERO);
    }

    #[test]
    fn weight_bytes_by_kind() {
        let cfg = ModelConfig::opt_175b();
        let layers = Layer::sequence(&cfg);
        let mha = layers[1].weight_bytes(DType::F16);
        let ffn = layers[2].weight_bytes(DType::F16);
        assert!((ffn.as_f64() / mha.as_f64() - 2.0).abs() < 0.01);
        // Compressed sizes from §V: MHA ~0.302 GB, FFN ~0.604 GB.
        let mha_c = layers[1].weight_bytes(DType::Int4Grouped);
        let ffn_c = layers[2].weight_bytes(DType::Int4Grouped);
        assert!((mha_c.as_gb() - 0.34).abs() < 0.02, "mha_c {mha_c}");
        assert!((ffn_c.as_gb() - 0.68).abs() < 0.02, "ffn_c {ffn_c}");
    }

    #[test]
    fn activation_bytes_expand_in_ffn() {
        let cfg = ModelConfig::opt_30b();
        let layers = Layer::sequence(&cfg);
        assert!(layers[2].activation_bytes(128) > layers[1].activation_bytes(128));
    }
}
