//! Archive integrity checksums: a word-at-a-time 64-bit hash over encoded
//! bytes.
//!
//! Every sealed segment blob ends with the [`checksum`] of the frames
//! before it, and the container's footer ends with the checksum of every
//! byte before *it*. The hash reads the input as little-endian 8-byte
//! words, zero-padding the last one, so it costs one multiply per word
//! rather than one per byte.
//!
//! **Why a single-byte flip is always caught.** The state starts from a
//! constant mixed with the input length, and each word `w` updates it as
//! `h ← rotl((h ⊕ w) · K, R)` with `K` odd. For a fixed word that step is
//! a bijection on the state (xor, multiplication by an odd constant and
//! rotation are each invertible); for a fixed state it is injective in
//! the word. So two inputs of equal length that differ only inside one
//! aligned 8-byte word — in particular any single-byte change, tail word
//! included — reach different states after that word, every later step
//! keeps them apart, and the bijective finalizer maps them to different
//! checksums. Scrub detection of one-byte flips is a theorem, not a
//! probabilistic claim (the replica proptests lean on this). The rotation
//! matters: without it a flip of bit 63 only ever moves bit 63 of the
//! state, so the same flip in a later word would cancel it. Zero padding
//! makes `"a"` and `"a\0"` fill the same word; the length in the initial
//! state keeps them apart.
//!
//! Archives written with the byte-serial FNV-1a checksum of format
//! version 1 are refused by version number, not misreported as damage
//! (see [`crate::archive::VERSION`]).

use crate::StoreError;

/// Initial state before the length is mixed in (the FNV-1a 64 offset
/// basis, kept as a well-spread constant).
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Odd multiplier of the word step (2^64 / φ).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Rotation of the word step.
const R: u32 = 29;

/// Byte length of an encoded checksum (little-endian u64).
pub(crate) const CHECKSUM_LEN: usize = 8;

/// One word step: a bijection on `h` for fixed `w`, injective in `w` for
/// fixed `h`.
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(K).rotate_left(R)
}

/// The 64-bit checksum of `bytes`: length-seeded state, one [`step`] per
/// little-endian 8-byte word (the tail word zero-padded), then a
/// bijective xorshift-multiply finalizer.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut h = SEED ^ (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut word = [0u8; 8];
    for chunk in &mut words {
        word.copy_from_slice(chunk);
        h = step(h, u64::from_le_bytes(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        word = [0u8; 8];
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

    #[test]
    fn checksum_matches_the_reference_vectors() {
        // Pinned outputs (empty, 1, 6, 7, 8 and 17 bytes: no word, a
        // padded tail only, exact words, words plus a tail). Any change
        // here is an archive format change and needs a `VERSION` bump and
        // a regenerated `archive_hash.txt`.
        assert_eq!(checksum(b""), 0xefd0_1f60_ba99_2926);
        assert_eq!(checksum(b"a"), 0xcab7_8db0_e2d7_dc4d);
        assert_eq!(checksum(b"foobar"), 0x0206_be4c_4682_fb5a);
        assert_eq!(checksum(b"charism"), 0xe58b_5d95_34d7_f370);
        assert_eq!(checksum(b"charisma"), 0xff50_57c9_4b22_4b03);
        assert_eq!(checksum(b"charisma archives"), 0x2b28_bb69_e470_751f);
    }

    #[test]
    fn any_single_byte_flip_changes_the_hash() {
        // The injectivity argument, exercised at every length that puts
        // the flip in a full word, in the zero-padded tail word, or both.
        let probe = b"charisma integrity probe: word-at-a-time!";
        for len in 0..=40 {
            let base = &probe[..len];
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
    }

    #[test]
    fn bit_63_flips_in_two_words_do_not_cancel() {
        // Without the rotation, flipping bit 63 of a word flips only bit
        // 63 of the state, and the same flip in the next word undoes it.
        let base = [0x5au8; 16];
        let mut flipped = base;
        flipped[7] ^= 0x80;
        flipped[15] ^= 0x80;
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

    proptest! {
        /// Any one changed byte in an arbitrary blob changes the checksum.
        #[test]
        fn one_changed_byte_always_changes_the_checksum(
            blob in proptest::collection::vec(any::<u8>(), 1..300),
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
