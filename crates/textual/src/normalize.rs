//! Text normalisation applied before any similarity computation.
//!
//! The ER literature (and Christen's survey, which the paper follows for its
//! baseline comparison) normalises attribute values before blocking:
//! lower-casing, collapsing whitespace and stripping punctuation. The paper's
//! running example treats `"E. Fahlman and C. Lebiere"` and
//! `"E. Fahlman & C. Lebiere"` as highly similar, which only works after this
//! kind of canonicalisation.

/// Normalises a raw attribute value for comparison.
///
/// Steps, in order:
/// 1. Unicode characters are lower-cased.
/// 2. Any character that is not alphanumeric is treated as a separator.
/// 3. Runs of separators collapse to a single ASCII space.
/// 4. Leading/trailing separators are removed.
///
/// # Examples
/// ```
/// use sablock_textual::normalize;
/// assert_eq!(normalize("  The Cascade-Correlation   Learning! "), "the cascade correlation learning");
/// assert_eq!(normalize("E. Fahlman & C. Lebiere"), "e fahlman c lebiere");
/// assert_eq!(normalize(""), "");
/// ```
pub fn normalize(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    normalize_into([raw], &mut out);
    out
}

/// Normalises several values as if joined by single spaces, into `out`
/// (cleared first): `normalize_into(values, out)` leaves exactly
/// `normalize(&values.join(" "))` in `out`, without building the joined
/// string. Reusing `out` across calls allocates nothing once it is large
/// enough; all-ASCII values take a per-byte path.
///
/// # Examples
/// ```
/// use sablock_textual::normalize::normalize_into;
/// let mut out = String::new();
/// normalize_into(["The Cascade-Correlation!", "", "Fahlman, S."], &mut out);
/// assert_eq!(out, "the cascade correlation fahlman s");
/// ```
pub fn normalize_into<'a>(values: impl IntoIterator<Item = &'a str>, out: &mut String) {
    out.clear();
    for value in values {
        // The boundary between two values is a separator, like the space
        // that would join them.
        let mut pending_space = true;
        // Room for the value and its separator, enough for any ASCII value.
        out.reserve(value.len() + 1);
        if value.is_ascii() {
            for &byte in value.as_bytes() {
                if byte.is_ascii_alphanumeric() {
                    if pending_space && !out.is_empty() {
                        out.push(' ');
                    }
                    pending_space = false;
                    out.push(char::from(byte.to_ascii_lowercase()));
                } else {
                    pending_space = true;
                }
            }
        } else {
            for ch in value.chars() {
                if ch.is_alphanumeric() {
                    if pending_space && !out.is_empty() {
                        out.push(' ');
                    }
                    pending_space = false;
                    out.extend(ch.to_lowercase());
                } else {
                    pending_space = true;
                }
            }
        }
    }
}

/// Normalises a value and strips inner spaces entirely.
///
/// Useful for building blocking keys where token order and spacing should not
/// matter at all (e.g. suffix-array blocking keys).
///
/// # Examples
/// ```
/// use sablock_textual::normalize::normalize_compact;
/// assert_eq!(normalize_compact("Wang, Qing"), "wangqing");
/// ```
pub fn normalize_compact(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for ch in raw.chars() {
        if ch.is_alphanumeric() {
            for low in ch.to_lowercase() {
                out.push(low);
            }
        }
    }
    out
}

/// Returns `true` when a raw attribute value should be treated as missing.
///
/// The paper's semantic functions are driven by *patterns of missing values*
/// (Table 1); "missing" in real data sets can be an empty string, pure
/// whitespace, or a conventional placeholder such as `"null"`, `"n/a"` or
/// `"unknown"`.
///
/// # Examples
/// ```
/// use sablock_textual::normalize::is_missing_text;
/// assert!(is_missing_text(""));
/// assert!(is_missing_text("  "));
/// assert!(is_missing_text("N/A"));
/// assert!(is_missing_text("null"));
/// assert!(!is_missing_text("TR"));
/// ```
pub fn is_missing_text(raw: &str) -> bool {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return true;
    }
    matches!(
        trimmed.to_ascii_lowercase().as_str(),
        "null" | "n/a" | "na" | "none" | "unknown" | "-" | "?"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_collapses() {
        assert_eq!(normalize("Hello   WORLD"), "hello world");
    }

    #[test]
    fn strips_punctuation() {
        assert_eq!(normalize("cascade-correlation, learning."), "cascade correlation learning");
    }

    #[test]
    fn empty_input_is_empty() {
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("   \t\n"), "");
        assert_eq!(normalize_compact("  .,! "), "");
    }

    #[test]
    fn unicode_lowercasing() {
        assert_eq!(normalize("Ärger MIT Straße"), "ärger mit straße");
    }

    #[test]
    fn normalize_into_treats_value_boundaries_as_spaces() {
        let values = ["İstanbul", "--", "", "Straße", "ǅemal", "  "];
        let mut out = String::new();
        normalize_into(values, &mut out);
        assert_eq!(out, normalize(&values.join(" ")));
        assert_eq!(out, "i\u{307}stanbul straße ǆemal");
        normalize_into(["", " . "], &mut out);
        assert_eq!(out, "");
    }

    #[test]
    fn compact_removes_spaces() {
        assert_eq!(normalize_compact("Qing  Wang"), "qingwang");
    }

    #[test]
    fn missing_placeholders_detected() {
        for v in ["", " ", "NULL", "n/a", "None", "-", "?"] {
            assert!(is_missing_text(v), "{v:?} should be missing");
        }
        for v in ["0", "TR", "Proceedings"] {
            assert!(!is_missing_text(v), "{v:?} should not be missing");
        }
    }

    #[test]
    fn normalization_is_idempotent() {
        let once = normalize("The  Cascade-Correlation Learning Architecture!");
        let twice = normalize(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn digits_are_kept() {
        assert_eq!(normalize("TR-95 (1995)"), "tr 95 1995");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Characters that exercise every branch of the normaliser: ASCII
    /// letters, digits, separators and controls, and non-ASCII letters whose
    /// lower case is longer (`İ`), is themselves (`ß`), or is a titlecase
    /// pair (`ǅ`), plus combining marks and symbols.
    const ALPHABET: &[char] = &[
        'a', 'Z', 'q', '0', '9', ' ', ' ', '-', ',', '.', '\t', '\u{1}', 'İ', 'ß', 'ǅ', 'Σ', 'é', 'Ä', '\u{307}',
        '日', '٣', '€', '😀',
    ];

    /// The per-`char` normaliser without the ASCII byte path: the
    /// reference both paths of [`normalize_into`] must agree with.
    fn char_by_char(raw: &str) -> String {
        let mut out = String::new();
        let mut pending_space = false;
        for ch in raw.chars() {
            if ch.is_alphanumeric() {
                if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                out.extend(ch.to_lowercase());
            } else {
                pending_space = true;
            }
        }
        out
    }

    fn arb_value() -> impl Strategy<Value = String> {
        proptest::collection::vec(0usize..ALPHABET.len(), 0..12)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn normalize_into_equals_normalize_of_the_joined_values(
            values in proptest::collection::vec(arb_value(), 0..5)
        ) {
            let joined = values.join(" ");
            let mut out = String::from("stale");
            normalize_into(values.iter().map(String::as_str), &mut out);
            prop_assert_eq!(&out, &normalize(&joined));
            prop_assert_eq!(&out, &char_by_char(&joined));
        }
    }
}
