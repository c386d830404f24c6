//! Archive integrity checksums: a four-lane, word-at-a-time 64-bit hash
//! over encoded bytes.
//!
//! Every sealed segment blob ends with the [`checksum`] of the frames
//! before it, and the container's footer ends with the checksum of every
//! byte before *it*. The hash reads the input as little-endian 8-byte
//! words, zero-padding the last one, so it costs one multiply per word
//! rather than one per byte. The words of each whole 32-byte block go to
//! four independent lanes, so four multiplies are in flight at once
//! instead of one serial chain paying the multiply's latency per word.
//!
//! **The function.** Every state starts from a constant mixed with the
//! input length, and a word `w` steps a state as
//! `h ← rotl((h ⊕ w) · K, R)` with `K` odd. Lane `i` (of four) absorbs
//! words `i, i + 4, i + 8, …` of the whole 32-byte blocks. The four lane
//! values are then absorbed in lane order, each through that same step,
//! into a fresh length-seeded state; the words after the last whole block
//! and the zero-padded tail word follow one by one, and a bijective
//! xorshift-multiply finalizer ends it.
//!
//! **Why a single-byte flip is always caught.** For a fixed word the step
//! is a bijection on the state (xor, multiplication by an odd constant
//! and rotation are each invertible); for a fixed state it is injective
//! in the word. Take two inputs of equal length that differ only inside
//! one aligned 8-byte word — in particular any single-byte change, tail
//! word included. If that word lies in a whole block, its lane is one
//! bijective chain: it reaches a different state after that word and
//! every later step keeps the two apart, while the other three lanes end
//! equal. Absorbing the lanes is the same step with the lane value as
//! the word, so it is injective in the lane value: the combined state
//! differs after the differing lane, and the later lanes, the trailing
//! words and the finalizer are bijections that keep it different. If the
//! word lies after the last whole block, the lanes end equal and the
//! serial part is the one-chain argument. Scrub detection of one-byte
//! flips is a theorem, not a probabilistic claim (the replica proptests
//! lean on this). Zero padding makes `"a"` and `"a\0"` fill the same
//! word; the length in the initial state keeps them apart.
//!
//! **Why the rotation, and why the lanes are not XOR-ed.** Flipping bit
//! 63 of `x` adds `2^63` to it, and `2^63 · K = 2^63` modulo `2^64`
//! because `K` is odd: without the rotation the flip would only ever move
//! bit 63 of the state, and the same flip in a later word of the same
//! chain would cancel it. Across lanes the hazard is different. Bit-63
//! flips in words of two different lanes leave both lanes with the same
//! one-bit delta (bit 63 rotated to bit `63 + R − 64`), so folding the
//! lanes together with XOR would cancel them. Absorbing the lanes through
//! the step does not: a one-bit lane delta `2^p` leaves the state delta
//! `rotl(D, R)`, where `D = (x ⊕ 2^p)·K ⊕ x·K` has lowest set bit `p`
//! (the two products differ by `±2^p · K`, and `K` is odd).
//! The next lane's `2^p` could cancel that only if `rotl(D, R) = 2^p`,
//! i.e. `D = rotr(2^p, R)`, the single bit `(p − R) mod 64`, which is not
//! `p`: the rotation has moved it.
//!
//! Archives written with an earlier checksum — the byte-serial FNV-1a of
//! format version 1, or the single-chain word hash of version 2 — are
//! refused by version number, not misreported as damage (see
//! [`crate::archive::VERSION`]).

use crate::StoreError;

/// Initial state before the length is mixed in (the FNV-1a 64 offset
/// basis, kept as a well-spread constant).
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Odd multiplier of the word step (2^64 / φ).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Rotation of the word step.
const R: u32 = 29;

/// Independent lanes, each absorbing every `LANES`-th word of a block.
const LANES: usize = 4;

/// Bytes in one block: one word per lane.
const BLOCK: usize = 8 * LANES;

/// Byte length of an encoded checksum (little-endian u64).
pub(crate) const CHECKSUM_LEN: usize = 8;

/// One word step: a bijection on `h` for fixed `w`, injective in `w` for
/// fixed `h`.
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(K).rotate_left(R)
}

/// The 64-bit checksum of `bytes`: four length-seeded lanes step through
/// the words of the whole 32-byte blocks (lane `i` takes word `i` of each
/// block), a fresh length-seeded state absorbs the lanes in order and
/// then the remaining words (the tail word zero-padded), each by one
/// [`step`], and a bijective xorshift-multiply finalizer ends it.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let seed = SEED ^ (bytes.len() as u64).wrapping_mul(K);
    let (blocks, rest) = bytes.as_chunks::<BLOCK>();
    let mut lanes = [seed; LANES];
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = step(*lane, u64::from_le_bytes(*word));
        }
    }
    let mut h = lanes.iter().fold(seed, |h, &lane| step(h, lane));
    let (words, tail) = rest.as_chunks::<8>();
    for word in words {
        h = step(h, u64::from_le_bytes(*word));
    }
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(word));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The payload of a checksummed blob — every byte before its trailing
/// checksum — once that checksum verifies. A blob too short to carry a
/// checksum is [`StoreError::Corrupt`]; a stored checksum that disagrees
/// with the payload is [`StoreError::ChecksumMismatch`].
pub(crate) fn verified_payload(blob: &[u8]) -> Result<&[u8], StoreError> {
    let payload_len = blob
        .len()
        .checked_sub(CHECKSUM_LEN)
        .ok_or(StoreError::Corrupt("segment shorter than its checksum"))?;
    let (payload, tail) = blob.split_at(payload_len);
    let mut sum = [0u8; CHECKSUM_LEN];
    sum.copy_from_slice(tail);
    if checksum(payload) != u64::from_le_bytes(sum) {
        return Err(StoreError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Verify a sealed segment blob's trailing checksum without decoding any
/// values. `true` only when the blob is long enough to carry a checksum
/// and the stored hash matches the payload.
pub(crate) fn verify_blob(blob: &[u8]) -> bool {
    verified_payload(blob).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A 100-byte probe: three whole lane blocks and a 4-byte tail.
    const PROBE: &[u8; 100] =
        b"charisma integrity probe: four lanes of words, 32-byte blocks, serial tail words, one finalizer, end";

    #[test]
    fn checksum_matches_the_reference_vectors() {
        // Pinned outputs. Short inputs (empty, 1, 6, 7, 8 and 17 bytes: no
        // word, a padded tail only, exact words, words plus a tail) use
        // the serial part alone; the probe's prefixes cover one block
        // less a byte, one block, one block plus a padded tail or a whole
        // word, two blocks, and three blocks plus a tail. Any change here
        // is an archive format change and needs a `VERSION` bump and a
        // regenerated `archive_hash.txt`.
        assert_eq!(checksum(b""), 0x13ab_3b13_9136_c742);
        assert_eq!(checksum(b"a"), 0xafe1_5373_5a26_8312);
        assert_eq!(checksum(b"foobar"), 0xfdb9_34f7_cfa4_112f);
        assert_eq!(checksum(b"charism"), 0x92dc_396d_aed0_8bf0);
        assert_eq!(checksum(b"charisma"), 0xa1f2_0ae7_15ff_8614);
        assert_eq!(checksum(b"charisma archives"), 0x0ec4_b193_b5e5_5678);
        let pinned: [(usize, u64); 9] = [
            (0, 0x13ab_3b13_9136_c742),
            (1, 0xd972_a228_d004_2ac6),
            (8, 0xa1f2_0ae7_15ff_8614),
            (31, 0xf568_12f8_a806_d227),
            (32, 0xa2f1_0a35_d381_619d),
            (33, 0x0f1f_2300_4c3c_ac73),
            (40, 0xdc83_6c7a_8647_2f65),
            (64, 0xdc04_e4e1_db82_2722),
            (100, 0x1016_e5fd_f65f_d5bf),
        ];
        for (len, sum) in pinned {
            assert_eq!(checksum(&PROBE[..len]), sum, "probe prefix of {len} bytes");
        }
    }

    #[test]
    fn any_single_byte_flip_changes_the_hash() {
        // The injectivity argument, exercised at every length up to three
        // whole lane blocks plus every tail length, so the flip lands in
        // each lane, in a serial word after the blocks, or in the
        // zero-padded tail word.
        for len in 0..=PROBE.len() {
            let base = &PROBE[..len];
            let clean = checksum(base);
            for i in 0..len {
                for mask in [0x01u8, 0x80, 0xff] {
                    let mut flipped = base.to_vec();
                    flipped[i] ^= mask;
                    assert_ne!(
                        checksum(&flipped),
                        clean,
                        "len {len} flip at {i} mask {mask:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_length_separates_inputs_that_pad_to_the_same_words() {
        assert_ne!(checksum(b"a"), checksum(b"a\0"));
        assert_ne!(checksum(b""), checksum(&[0u8; 8]));
        assert_ne!(checksum(b""), checksum(&[0u8; BLOCK]));
    }

    /// `bytes` with bit 63 of each listed little-endian word flipped.
    fn flip_bit_63(bytes: &[u8], words: &[usize]) -> Vec<u8> {
        let mut flipped = bytes.to_vec();
        for &w in words {
            flipped[8 * w + 7] ^= 0x80;
        }
        flipped
    }

    #[test]
    fn bit_63_flips_in_two_words_do_not_cancel() {
        // Without the rotation, flipping bit 63 of a word flips only bit
        // 63 of the state, and the same flip in the next word undoes it.
        let base = [0x5au8; 16];
        let flipped = flip_bit_63(&base, &[0, 1]);
        assert_ne!(checksum(&flipped), checksum(&base));
        let unrotated = |bytes: &[u8]| {
            bytes.chunks_exact(8).fold(SEED, |h, chunk| {
                let mut word = [0u8; 8];
                word.copy_from_slice(chunk);
                (h ^ u64::from_le_bytes(word)).wrapping_mul(K)
            })
        };
        assert_eq!(unrotated(&flipped), unrotated(&base));
    }

    #[test]
    fn bit_63_flips_in_two_lanes_do_not_cancel() {
        // The lanes of `bytes` (whole blocks only) before they are
        // combined.
        let lanes = |bytes: &[u8]| {
            let seed = SEED ^ (bytes.len() as u64).wrapping_mul(K);
            let mut lanes = [seed; LANES];
            for block in bytes.chunks_exact(BLOCK) {
                for (lane, chunk) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                    let mut word = [0u8; 8];
                    word.copy_from_slice(chunk);
                    *lane = step(*lane, u64::from_le_bytes(word));
                }
            }
            lanes
        };
        let xor_of = |lanes: [u64; LANES]| lanes.iter().fold(0, |h, &lane| h ^ lane);

        // Words 0 and 1 of one block: two lanes, each left with the same
        // one-bit delta (bit 63 rotated to bit 63 + R - 64), which an XOR
        // of the lanes would cancel and absorbing them in turn does not.
        let base = [0x5au8; BLOCK];
        let flipped = flip_bit_63(&base, &[0, 1]);
        let (clean, dirty) = (lanes(&base), lanes(&flipped));
        let delta = 1u64 << (63 + R - 64);
        assert_eq!([clean[0] ^ dirty[0], clean[1] ^ dirty[1]], [delta, delta]);
        assert_eq!(xor_of(dirty), xor_of(clean));
        assert_ne!(checksum(&flipped), checksum(&base));

        // Words 0 and 4 of two blocks: the same lane twice, where the
        // rotation keeps the second flip from undoing the first.
        let base = [0x5au8; 2 * BLOCK];
        let flipped = flip_bit_63(&base, &[0, 4]);
        assert_ne!(lanes(&flipped)[0], lanes(&base)[0]);
        assert_ne!(checksum(&flipped), checksum(&base));
    }

    proptest! {
        /// Any one changed byte in an arbitrary blob changes the checksum.
        #[test]
        fn one_changed_byte_always_changes_the_checksum(
            blob in proptest::collection::vec(any::<u8>(), 1..600),
            at in any::<u64>(),
            mask in 1u8..=255,
        ) {
            let mut changed = blob.clone();
            let i = usize::try_from(at % blob.len() as u64).unwrap_or(0);
            changed[i] ^= mask;
            prop_assert_ne!(checksum(&changed), checksum(&blob));
        }
    }

    #[test]
    fn verified_payload_round_trips_and_rejects_damage() {
        let mut blob = b"payload bytes".to_vec();
        let sum = checksum(&blob);
        blob.extend_from_slice(&sum.to_le_bytes());
        assert!(verify_blob(&blob));
        assert_eq!(verified_payload(&blob).expect("verifies"), b"payload bytes");

        // Too short to carry a checksum at all.
        assert!(matches!(
            verified_payload(&blob[..7]),
            Err(StoreError::Corrupt(_))
        ));
        assert!(!verify_blob(&blob[..7]));
        // A flipped payload byte fails verification.
        let mut bad = blob.clone();
        bad[0] ^= 0x10;
        assert!(matches!(
            verified_payload(&bad),
            Err(StoreError::ChecksumMismatch)
        ));
        // A flipped checksum byte fails verification too.
        let mut bad = blob;
        let at = bad.len() - 1;
        bad[at] ^= 0x01;
        assert!(!verify_blob(&bad));
    }
}
