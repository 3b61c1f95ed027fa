//! Tokenization: text → indexed word stream.
//!
//! Words are maximal alphanumeric runs, lowercased; single characters and
//! stopwords are dropped *before* positions are assigned, so phrases match
//! across stopwords ("state of the art" matches the phrase "state art").
//! Documents and queries go through the same `for_each_word`.
//!
//! The scan is byte-level: an ASCII byte is a letter, a digit or a
//! separator by itself, so ASCII text splits and lowercases one byte at a
//! time. A segment between ASCII separators that holds a non-ASCII byte
//! falls back to the `char` rule (`char::is_alphanumeric`,
//! `str::to_lowercase`), which gives the same words at the same positions.
//! The rule lowercases a word before it splits and measures it, so every
//! token tokenizes to itself and a query for it finds it.

/// Common English stopwords (the short list Domino's index options used).
pub const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "had", "has", "have",
    "he", "her", "his", "if", "in", "is", "it", "its", "not", "of", "on", "or", "she", "that",
    "the", "their", "they", "this", "to", "was", "we", "were", "which", "will", "with", "you",
];

/// No stopword is longer: a longer word skips the search.
const STOPWORD_MAX: usize = 5;

fn is_stopword(w: &str) -> bool {
    w.len() <= STOPWORD_MAX && STOPWORDS.binary_search(&w).is_ok()
}

/// The one tokenizer: hand each word of `text` to `f` with its position,
/// numbering from `*pos` and leaving `*pos` one past the last word. A word
/// that is not lowercase already is lowercased into `buf`, which the
/// caller reuses, so an ASCII word allocates nothing.
pub(crate) fn for_each_word(
    text: &str,
    pos: &mut u32,
    buf: &mut String,
    mut f: impl FnMut(&str, u32),
) {
    let mut emit = |word: &str| {
        if !is_stopword(word) {
            f(word, *pos);
            *pos += 1;
        }
    };
    let bytes = text.as_bytes();
    let separator = |b: &u8| b.is_ascii() && !b.is_ascii_alphanumeric();
    let mut end = 0;
    while let Some(start) = bytes[end..].iter().position(|b| !separator(b)) {
        let start = end + start;
        // A separator is ASCII and not uppercase: it leaves both flags.
        let (mut wide, mut upper) = (false, false);
        end = start
            + bytes[start..]
                .iter()
                .take_while(|&b| {
                    wide |= !b.is_ascii();
                    upper |= b.is_ascii_uppercase();
                    !separator(b)
                })
                .count();
        // `start` and `end` sit at an ASCII byte or an end: char boundaries.
        let segment = &text[start..end];
        if wide {
            // Each word is lowercased whole (`str::to_lowercase` knows the
            // word-final sigma; `char` does not), then split again and
            // measured: a lowercase can shrink a letter (the Kelvin sign
            // to `k`) or add a mark that is not alphanumeric (`İ` to `i`
            // and U+0307), and what is indexed must tokenize to itself.
            for word in segment.split(|c: char| !c.is_alphanumeric()) {
                for piece in word.to_lowercase().split(|c: char| !c.is_alphanumeric()) {
                    if piece.len() >= 2 {
                        emit(piece);
                    }
                }
            }
        } else if segment.len() >= 2 {
            if upper {
                buf.clear();
                buf.push_str(segment);
                buf.make_ascii_lowercase();
                emit(buf);
            } else {
                emit(segment);
            }
        }
    }
}

/// Split text into `(word, position)` pairs.
pub fn tokenize(text: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for_each_word(text, &mut 0, &mut String::new(), |w, pos| {
        out.push((w.to_owned(), pos))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopword_list_is_sorted_for_binary_search() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS);
    }

    #[test]
    fn no_stopword_is_longer_than_the_search_bound() {
        assert!(STOPWORDS.iter().all(|w| w.len() <= STOPWORD_MAX));
    }

    #[test]
    fn tokenize_basic() {
        let toks = tokenize("The quick-brown FOX!");
        assert_eq!(
            toks,
            vec![
                ("quick".to_string(), 0),
                ("brown".to_string(), 1),
                ("fox".to_string(), 2)
            ]
        );
    }

    #[test]
    fn stopwords_and_short_words_dropped_before_positions() {
        let toks = tokenize("state of the art x engine");
        assert_eq!(
            toks,
            vec![
                ("state".to_string(), 0),
                ("art".to_string(), 1),
                ("engine".to_string(), 2)
            ]
        );
    }

    #[test]
    fn numbers_are_tokens() {
        let toks = tokenize("q3 revenue 2024");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[2].0, "2024");
    }

    #[test]
    fn unicode_text_survives() {
        let toks = tokenize("naïve café systems");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0].0, "naïve");
        // A word-final capital sigma lowercases as `str::to_lowercase` does.
        assert_eq!(tokenize("ΟΔΟΣ")[0].0, "\u{3bf}\u{3b4}\u{3bf}\u{3c2}");
    }

    #[test]
    fn a_word_is_measured_and_split_after_it_is_lowercased() {
        // The Kelvin sign lowercases to a one-byte `k`; dotted capital I
        // to `i` and a combining dot that is not alphanumeric.
        assert!(tokenize("\u{212a}").is_empty());
        let words: Vec<String> = tokenize("İstanbul").into_iter().map(|(w, _)| w).collect();
        assert_eq!(words, ["stanbul"]);
    }
}
