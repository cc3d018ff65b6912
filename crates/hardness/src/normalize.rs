//! β-normalization (§3.5, Lemma 3 and Figure 3): encoding an arbitrary input
//! alphabet in binary blocks so that the input alphabet of the resulting
//! problem has exactly two labels.
//!
//! Every node of the original instance is expanded into a block of
//! `γ = 2·⌈log α⌉ + 3` nodes: `a + 1` nodes with input `1`, one node with
//! input `0`, `a` nodes carrying the binary representation of the original
//! input label, and a final node with input `0` (Figure 3). The output of
//! every block node carries the original node's output, and each node must
//! also copy the inputs of its whole block into its output so that the
//! block structure is locally checkable (the full construction additionally
//! introduces the escape labels `E`, `El`, `Er` for instances that are not
//! valid encodings; this implementation covers the encoding itself, the
//! in-block output agreement, and the original constraints across block
//! boundaries, which is the part exercised by valid encodings and measured
//! by the `fig3_normalization` bench, E-F3).

use lcl_problem::{
    Alphabet, InLabel, Instance, Labeling, NormalizedLcl, OutLabel, ProblemError, Result,
};

/// The result of β-normalizing a problem: the new problem, the block length
/// `γ`, and enough bookkeeping to translate instances and labelings.
#[derive(Clone, Debug)]
pub struct BetaNormalized {
    /// The original problem.
    pub original: NormalizedLcl,
    /// The β-normalized problem (binary input alphabet).
    pub normalized: NormalizedLcl,
    /// Number of bits `a = ⌈log₂ α⌉` used per original input label.
    pub bits: usize,
    /// Block length `γ = 2a + 3`.
    pub gamma: usize,
}

fn bits_needed(alpha: usize) -> usize {
    let mut bits = 1;
    while (1usize << bits) < alpha {
        bits += 1;
    }
    bits
}

/// β-normalizes a problem: the new input alphabet is `{0, 1}`, the new output
/// alphabet is `{0, …, γ-1} × Σ_out` (each output records the node's position
/// inside its block and the original output of the block), and the constraints
/// enforce (i) the positions advance cyclically through the block layout,
/// (ii) nodes of the same block agree on the original output, (iii) the
/// claimed position is consistent with the node's binary input per the
/// Figure 3 layout, and (iv) consecutive blocks satisfy the original node and
/// edge constraints (the original input is recovered from the data bits).
///
/// For instances produced by [`BetaNormalized::encode_instance`] the valid
/// labelings of the normalized problem are exactly the block-wise encodings of
/// the valid labelings of the original problem (tested in this module), and
/// the complexity changes by the constant factor `γ` — the content of Lemma 3.
///
/// # Errors
///
/// Propagates construction errors from the problem builder.
pub fn beta_normalize(original: &NormalizedLcl) -> Result<BetaNormalized> {
    let alpha = original.num_inputs();
    let beta = original.num_outputs();
    let bits = bits_needed(alpha);
    let gamma = 2 * bits + 3;

    // New output label (pos, original_input, original_output): the original
    // input must also be carried so that the node constraint at data-bit
    // positions can check the bit against the claimed input, and the block
    // boundary can check the original node constraint.
    let mut out_names = Vec::with_capacity(gamma * alpha * beta);
    for pos in 0..gamma {
        for a in 0..alpha {
            for o in 0..beta {
                out_names.push(format!(
                    "p{pos}|{}|{}",
                    original.input_alphabet().name(a),
                    original.output_alphabet().name(o)
                ));
            }
        }
    }
    let index = |pos: usize, a: usize, o: usize| (pos * alpha + a) * beta + o;

    let mut b = NormalizedLcl::builder(format!("{}-beta-normalized", original.name()));
    b.input_alphabet(Alphabet::new(["0", "1"]));
    b.output_labels(&out_names);

    // Node constraint: the bit at each position must match the Figure 3
    // layout for the claimed original input.
    for pos in 0..gamma {
        for a in 0..alpha {
            let expected_bit: u16 = if pos <= bits {
                1 // the a+1 leading ones
            } else if pos == bits + 1 || pos == gamma - 1 {
                0 // the two zero separators
            } else {
                // data bits, most significant first
                let bit_index = pos - (bits + 2);
                ((a >> (bits - 1 - bit_index)) & 1) as u16
            };
            for o in 0..beta {
                if original.node_ok(InLabel::from_index(a), OutLabel::from_index(o)) {
                    b.allow_node_idx(expected_bit, index(pos, a, o) as u16);
                }
            }
        }
    }

    // Edge constraint: positions advance cyclically; inside a block the
    // carried (input, output) pair stays fixed; across a block boundary the
    // original edge constraint must hold between the two carried outputs.
    for pos in 0..gamma {
        let next_pos = (pos + 1) % gamma;
        for a1 in 0..alpha {
            for o1 in 0..beta {
                for a2 in 0..alpha {
                    for o2 in 0..beta {
                        let ok = if next_pos == 0 {
                            original.edge_ok(OutLabel::from_index(o1), OutLabel::from_index(o2))
                        } else {
                            a1 == a2 && o1 == o2
                        };
                        if ok {
                            b.allow_edge_idx(
                                index(pos, a1, o1) as u16,
                                index(next_pos, a2, o2) as u16,
                            );
                        }
                    }
                }
            }
        }
    }

    Ok(BetaNormalized {
        original: original.clone(),
        normalized: b.build()?,
        bits,
        gamma,
    })
}

impl BetaNormalized {
    /// Encodes an original instance into the binary block layout of Figure 3.
    pub fn encode_instance(&self, instance: &Instance) -> Instance {
        let mut inputs = Vec::with_capacity(instance.len() * self.gamma);
        for &label in instance.inputs() {
            // a+1 ones
            for _ in 0..=self.bits {
                inputs.push(InLabel(1));
            }
            inputs.push(InLabel(0));
            for bit_index in 0..self.bits {
                let bit = (label.index() >> (self.bits - 1 - bit_index)) & 1;
                inputs.push(InLabel(bit as u16));
            }
            inputs.push(InLabel(0));
        }
        match instance.topology() {
            lcl_problem::Topology::Cycle => Instance::cycle(inputs),
            lcl_problem::Topology::Path => Instance::path(inputs),
        }
    }

    /// Encodes a labeling of the original instance into a labeling of the
    /// encoded instance (every block node carries its block's pair).
    ///
    /// # Errors
    ///
    /// Returns an error if the labeling length does not match the instance.
    pub fn encode_labeling(&self, instance: &Instance, labeling: &Labeling) -> Result<Labeling> {
        if instance.len() != labeling.len() {
            return Err(ProblemError::mismatch("instance/labeling length"));
        }
        let alpha = self.original.num_inputs();
        let beta = self.original.num_outputs();
        let mut out = Vec::with_capacity(instance.len() * self.gamma);
        for i in 0..instance.len() {
            let a = instance.input(i).index();
            let o = labeling.output(i).index();
            for pos in 0..self.gamma {
                out.push(OutLabel::from_index((pos * alpha + a) * beta + o));
            }
        }
        Ok(Labeling::new(out))
    }

    /// Decodes a labeling of the encoded instance back to the original
    /// instance (reads the carried output at each block's first node).
    pub fn decode_labeling(&self, encoded: &Labeling) -> Labeling {
        let alpha = self.original.num_inputs();
        let beta = self.original.num_outputs();
        let outputs = encoded
            .outputs()
            .chunks(self.gamma)
            .map(|block| OutLabel::from_index(block[0].index() % (alpha * beta) % beta))
            .collect();
        Labeling::new(outputs)
    }

    /// Decodes the original input labels back out of an encoded instance
    /// (the inverse of [`Self::encode_instance`]); used by tests and by the
    /// Figure 3 demonstration.
    pub fn decode_instance(&self, encoded: &Instance) -> Vec<InLabel> {
        let mut labels = Vec::new();
        for block in encoded.inputs().chunks(self.gamma) {
            if block.len() < self.gamma {
                break;
            }
            let mut value = 0usize;
            for bit_index in 0..self.bits {
                value = (value << 1) | block[self.bits + 2 + bit_index].index();
            }
            labels.push(InLabel::from_index(value));
        }
        labels
    }

    /// Theorem 4 bookkeeping: the size of the description of the normalized
    /// problem, measured as `|Σ'_out|²` (the dominating term of a
    /// β-normalized LCL description, `O(β²)` in the paper's notation).
    pub fn description_size(&self) -> usize {
        let beta = self.normalized.num_outputs();
        beta * beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_problem::Topology;

    fn copy_input() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("copy-input");
        b.input_labels(&["a", "b", "c"]);
        b.output_labels(&["a", "b", "c"]);
        for i in 0..3u16 {
            b.allow_node_idx(i, i);
        }
        b.allow_all_edge_pairs();
        b.build().unwrap()
    }

    #[test]
    fn figure_3_layout() {
        let p = copy_input();
        let norm = beta_normalize(&p).unwrap();
        assert_eq!(norm.bits, 2);
        assert_eq!(norm.gamma, 7);
        let inst = Instance::from_indices(Topology::Cycle, &[2, 0]);
        let enc = norm.encode_instance(&inst);
        assert_eq!(enc.len(), 14);
        // Block for label 2 (= binary 10): 1 1 1 0 1 0 0.
        let first: Vec<u16> = enc.inputs()[..7].iter().map(|l| l.0).collect();
        assert_eq!(first, vec![1, 1, 1, 0, 1, 0, 0]);
        // Round trip.
        assert_eq!(norm.decode_instance(&enc), vec![InLabel(2), InLabel(0)]);
        assert!(norm.description_size() > p.num_outputs() * p.num_outputs());
    }

    #[test]
    fn encoded_labelings_are_valid_iff_original_ones_are() {
        let p = copy_input();
        let norm = beta_normalize(&p).unwrap();
        let inst = Instance::from_indices(Topology::Cycle, &[0, 2, 1, 1]);
        let good = Labeling::from_indices(&[0, 2, 1, 1]);
        assert!(p.is_valid(&inst, &good));
        let enc_inst = norm.encode_instance(&inst);
        let enc_good = norm.encode_labeling(&inst, &good).unwrap();
        assert!(
            norm.normalized.is_valid(&enc_inst, &enc_good),
            "{}",
            norm.normalized.check(&enc_inst, &enc_good)
        );
        // Decoding returns the original labeling.
        assert_eq!(norm.decode_labeling(&enc_good), good);
        // An invalid original labeling encodes to an invalid normalized one.
        let bad = Labeling::from_indices(&[1, 2, 1, 1]);
        assert!(!p.is_valid(&inst, &bad));
        let enc_bad = norm.encode_labeling(&inst, &bad).unwrap();
        assert!(!norm.normalized.is_valid(&enc_inst, &enc_bad));
        // Length mismatches are rejected.
        assert!(norm
            .encode_labeling(&inst, &Labeling::from_indices(&[0]))
            .is_err());
    }

    #[test]
    fn blockwise_agreement_is_enforced() {
        let p = copy_input();
        let norm = beta_normalize(&p).unwrap();
        let inst = Instance::from_indices(Topology::Cycle, &[0, 1]);
        let enc_inst = norm.encode_instance(&inst);
        let good = norm
            .encode_labeling(&inst, &Labeling::from_indices(&[0, 1]))
            .unwrap();
        // Corrupt one block node's carried output: the in-block edge
        // constraint must reject it.
        let mut corrupted = good.clone();
        let beta = p.num_outputs();
        let alpha = p.num_inputs();
        let idx = corrupted.output(3).index();
        *corrupted.output_mut(3) = OutLabel::from_index(
            // same position, same input, different output
            (idx / beta) * beta + ((idx % beta) + 1) % beta.min(alpha * beta),
        );
        assert!(!norm.normalized.is_valid(&enc_inst, &corrupted));
    }

    #[test]
    fn binary_alphabet_needs_one_bit() {
        let mut b = NormalizedLcl::builder("two-inputs");
        b.input_labels(&["x", "y"]);
        b.output_labels(&["o"]);
        b.allow_all_node_pairs();
        b.allow_all_edge_pairs();
        let p = b.build().unwrap();
        let norm = beta_normalize(&p).unwrap();
        assert_eq!(norm.bits, 1);
        assert_eq!(norm.gamma, 5);
        assert_eq!(norm.normalized.num_inputs(), 2);
    }
}
