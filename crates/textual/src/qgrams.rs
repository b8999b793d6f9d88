//! Character q-gram extraction and shingle sets.
//!
//! The paper's minhash pipeline (Section 5.1, step "Shingling") converts each
//! record into the set of character q-grams occurring in its selected
//! attribute values; the Jaccard coefficient over these sets is the textual
//! similarity that the LSH family approximates. The experiments sweep
//! `q ∈ {2, 3, 4}` (Fig. 6) and pick `q = 4` for Cora, `q = 2` for NC Voter.

use crate::hashing::{hash_packed, hash_str, StableHashSet};
use crate::normalize::normalize;
use crate::setsim::jaccard;

/// Extracts every q-gram window of a normalised string, in order —
/// repeated grams included, one entry per window.
///
/// When the string is shorter than `q`, the whole string is returned as a
/// single gram so that very short values (initials, single tokens) still
/// produce a non-empty shingle set.
///
/// # Panics
/// Panics if `q == 0`.
///
/// # Examples
/// ```
/// use sablock_textual::qgrams;
/// assert_eq!(qgrams("abcd", 2), vec!["ab", "bc", "cd"]);
/// assert_eq!(qgrams("abab", 2), vec!["ab", "ba", "ab"]);
/// assert_eq!(qgrams("ab", 3), vec!["ab"]);
/// assert!(qgrams("", 2).is_empty());
/// ```
pub fn qgrams(text: &str, q: usize) -> Vec<String> {
    assert!(q > 0, "q-gram size must be positive");
    let chars: Vec<char> = text.chars().collect();
    if chars.is_empty() {
        return Vec::new();
    }
    if chars.len() < q {
        return vec![chars.iter().collect()];
    }
    (0..=chars.len() - q)
        .map(|i| chars[i..i + q].iter().collect())
        .collect()
}

/// The longest gram the packed-word path hashes: FxHash takes a 1–7 byte
/// input in one tail step ([`hash_packed`]).
const MAX_PACKED_GRAM: usize = 7;

/// Hashes every q-gram window of `text` into `hashes` (cleared first):
/// exactly [`qgrams`]`(text, q)` mapped through [`hash_str`], in the same
/// order, without building any gram. Reusing `hashes` across calls
/// allocates nothing once it is large enough.
///
/// ASCII text with `q ≤ 7` slides one packed little-endian word over the
/// bytes and hashes it in place; other text hashes each window's byte
/// slice.
///
/// # Panics
/// Panics if `q == 0`.
///
/// # Examples
/// ```
/// use sablock_textual::{hash_str, qgrams::hash_qgrams_into};
/// let mut hashes = Vec::new();
/// hash_qgrams_into("abab", 2, &mut hashes);
/// assert_eq!(hashes, [hash_str("ab"), hash_str("ba"), hash_str("ab")]);
/// ```
pub fn hash_qgrams_into(text: &str, q: usize, hashes: &mut Vec<u64>) {
    assert!(q > 0, "q-gram size must be positive");
    hashes.clear();
    if q <= MAX_PACKED_GRAM && text.len() >= q && text.is_ascii() {
        // Each new byte enters at the window's last position and the oldest
        // leaves at the bottom; bits above the window stay zero.
        let top = 8 * (q - 1);
        let (head, tail) = text.as_bytes().split_at(q - 1);
        let mut word = head.iter().fold(0u64, |word, &byte| (word >> 8) | (u64::from(byte) << top));
        hashes.extend(tail.iter().map(|&byte| {
            word = (word >> 8) | (u64::from(byte) << top);
            hash_packed(word, q)
        }));
        return;
    }
    // Window k spans chars k..k + q. With fewer than q chars the only end
    // is the text's own, so the whole text is the one gram, as in `qgrams`.
    let starts = text.char_indices().map(|(at, _)| at);
    let ends = text.char_indices().map(|(at, _)| at).skip(q).chain(std::iter::once(text.len()));
    hashes.extend(starts.zip(ends).map(|(start, end)| hash_str(&text[start..end])));
}

/// Extracts padded q-grams: the string is surrounded by `q - 1` copies of a
/// padding character (`#` at the start, `$` at the end) before extraction.
///
/// Padded q-grams give extra weight to the beginning and end of values and
/// are the variant commonly used by q-gram indexing baselines.
///
/// # Examples
/// ```
/// use sablock_textual::padded_qgrams;
/// assert_eq!(padded_qgrams("ab", 2), vec!["#a", "ab", "b$"]);
/// ```
pub fn padded_qgrams(text: &str, q: usize) -> Vec<String> {
    assert!(q > 0, "q-gram size must be positive");
    if text.is_empty() {
        return Vec::new();
    }
    if q == 1 {
        return qgrams(text, 1);
    }
    let mut padded = String::with_capacity(text.len() + 2 * (q - 1));
    for _ in 0..q - 1 {
        padded.push('#');
    }
    padded.push_str(text);
    for _ in 0..q - 1 {
        padded.push('$');
    }
    qgrams(&padded, q)
}

/// Returns the set of distinct q-grams of a *raw* (un-normalised) value.
///
/// The value is normalised first so that q-grams are case- and
/// punctuation-insensitive.
pub fn qgram_set(raw: &str, q: usize) -> StableHashSet<String> {
    qgrams(&normalize(raw), q).into_iter().collect()
}

/// Returns the set of distinct *hashed* q-grams of a raw value.
///
/// Hashing the grams to `u64` keeps shingle sets compact (8 bytes per gram)
/// and is what the minhash implementation consumes.
pub fn hashed_qgram_set(raw: &str, q: usize) -> StableHashSet<u64> {
    let mut hashes = Vec::new();
    hash_qgrams_into(&normalize(raw), q, &mut hashes);
    hashes.into_iter().collect()
}

/// Jaccard similarity of the q-gram sets of two raw values.
///
/// This is the "textual similarity" `sim_J` of the paper when records are
/// shingled with character q-grams.
///
/// # Examples
/// ```
/// use sablock_textual::qgram_similarity;
/// let s = qgram_similarity("cascade correlation", "cascade corelation", 2);
/// assert!(s > 0.7 && s < 1.0);
/// assert_eq!(qgram_similarity("abc", "abc", 2), 1.0);
/// assert_eq!(qgram_similarity("abc", "xyz", 2), 0.0);
/// ```
pub fn qgram_similarity(a: &str, b: &str, q: usize) -> f64 {
    let sa = qgram_set(a, q);
    let sb = qgram_set(b, q);
    jaccard(&sa, &sb)
}

/// Jaccard similarity over *exact* normalised values (q = ∞ in Fig. 6's
/// "Exact Value" series): 1.0 if the normalised values are equal and both
/// non-empty, otherwise 0.0.
pub fn exact_value_similarity(a: &str, b: &str) -> f64 {
    let na = normalize(a);
    let nb = normalize(b);
    if na.is_empty() || nb.is_empty() {
        return 0.0;
    }
    if na == nb {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_bigrams() {
        assert_eq!(qgrams("wang", 2), vec!["wa", "an", "ng"]);
    }

    #[test]
    fn qgram_count_formula() {
        // |qgrams(s, q)| == len - q + 1 for len >= q
        for (s, q) in [("abcdefgh", 2), ("abcdefgh", 3), ("abcdefgh", 4)] {
            assert_eq!(qgrams(s, q).len(), s.len() - q + 1);
        }
    }

    #[test]
    fn short_string_is_single_gram() {
        assert_eq!(qgrams("ab", 4), vec!["ab"]);
        assert_eq!(qgrams("a", 2), vec!["a"]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_q_panics() {
        qgrams("abc", 0);
    }

    #[test]
    fn padded_grams_mark_ends() {
        let grams = padded_qgrams("qing", 3);
        assert!(grams.contains(&"##q".to_string()));
        assert!(grams.contains(&"ng$".to_string()));
        assert!(grams.contains(&"g$$".to_string()));
    }

    #[test]
    fn padded_unigram_equals_plain() {
        assert_eq!(padded_qgrams("abc", 1), qgrams("abc", 1));
    }

    #[test]
    fn qgram_set_is_case_insensitive() {
        assert_eq!(qgram_set("Wang Qing", 2), qgram_set("wang qing", 2));
    }

    #[test]
    fn hashed_set_same_cardinality() {
        let plain = qgram_set("cascade correlation", 3);
        let hashed = hashed_qgram_set("cascade correlation", 3);
        assert_eq!(plain.len(), hashed.len());
    }

    #[test]
    fn similarity_symmetric_and_bounded() {
        let pairs = [
            ("cascade correlation", "cascade corelation"),
            ("qing wang", "wang qing"),
            ("", "abc"),
            ("", ""),
        ];
        for (a, b) in pairs {
            let s1 = qgram_similarity(a, b, 2);
            let s2 = qgram_similarity(b, a, 2);
            assert!((s1 - s2).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&s1));
        }
    }

    #[test]
    fn transposed_names_highly_similar_under_bigrams() {
        // The motivating example of the paper: standard blocking keys cannot
        // match "Qing Wang" and "Wang Qing", but their bigram sets overlap a lot.
        let s = qgram_similarity("Qing Wang", "Wang Qing", 2);
        assert!(s > 0.5, "bigram similarity of transposed names should be high, got {s}");
    }

    #[test]
    fn exact_value_similarity_binary() {
        assert_eq!(exact_value_similarity("The Title", "the   title!"), 1.0);
        assert_eq!(exact_value_similarity("a", "b"), 0.0);
        assert_eq!(exact_value_similarity("", ""), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// ASCII letters and separators, plus multi-byte chars of every UTF-8
    /// width, so windows of q ≤ 9 chars cross the 8-byte word both in
    /// bytes and in chars.
    const ALPHABET: &[char] =
        &['a', 'b', 'c', 'z', '0', ' ', '-', '\u{1}', 'é', 'ß', 'İ', 'ǅ', '\u{307}', '日', '😀'];

    fn arb_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0usize..2 * ALPHABET.len(), 0..24).prop_map(|picks| {
            // Half the draws stay ASCII-only so the packed-word path runs
            // as often as the general one.
            let ascii_only = picks.first().is_some_and(|&first| first % 2 == 0);
            picks
                .into_iter()
                .map(|pick| ALPHABET[pick % ALPHABET.len()])
                .filter(|ch| !ascii_only || ch.is_ascii())
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn hashed_windows_equal_hashed_qgrams(text in arb_text(), q in 1usize..10) {
            let mut hashes = vec![42];
            hash_qgrams_into(&text, q, &mut hashes);
            let expected: Vec<u64> = qgrams(&text, q).iter().map(|gram| hash_str(gram)).collect();
            prop_assert_eq!(hashes, expected, "text {:?}, q {}", text, q);
        }

        #[test]
        fn hashed_windows_equal_hashed_qgrams_on_any_scalar_values(
            codes in proptest::collection::vec(any::<u32>(), 0..16),
            q in 1usize..10
        ) {
            let text: String = codes.into_iter().filter_map(|code| char::from_u32(code % 0x11_0000)).collect();
            let mut hashes = Vec::new();
            hash_qgrams_into(&text, q, &mut hashes);
            let expected: Vec<u64> = qgrams(&text, q).iter().map(|gram| hash_str(gram)).collect();
            prop_assert_eq!(hashes, expected, "text {:?}, q {}", text, q);
        }
    }
}
