//! Tokenization: text → indexed word stream.
//!
//! Words are maximal alphanumeric runs, lowercased; single characters and
//! stopwords are dropped *before* positions are assigned, so phrases match
//! across stopwords ("state of the art" matches the phrase "state art").

/// Common English stopwords (the short list Domino's index options used).
pub const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "had", "has", "have",
    "he", "her", "his", "if", "in", "is", "it", "its", "not", "of", "on", "or", "she", "that",
    "the", "their", "they", "this", "to", "was", "we", "were", "which", "will", "with", "you",
];

fn is_stopword(w: &str) -> bool {
    STOPWORDS.binary_search(&w).is_ok()
}

/// The one tokenizer: hand each word of `text` to `f` with its position,
/// numbering from `*pos` and leaving `*pos` one past the last word. Each
/// word is lowercased into `buf`, which the caller reuses, so an ASCII
/// word allocates nothing.
pub(crate) fn for_each_word(
    text: &str,
    pos: &mut u32,
    buf: &mut String,
    mut f: impl FnMut(&str, u32),
) {
    for raw in text.split(|c: char| !c.is_alphanumeric()) {
        if raw.len() < 2 {
            continue;
        }
        buf.clear();
        if raw.is_ascii() {
            buf.push_str(raw);
            buf.make_ascii_lowercase();
        } else {
            // `str::to_lowercase` knows the word-final sigma; `char` does not.
            buf.push_str(&raw.to_lowercase());
        }
        if is_stopword(buf) {
            continue;
        }
        f(buf, *pos);
        *pos += 1;
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

/// Tokenize a query word the same way documents are (single normalization
/// path keeps query and index consistent).
pub fn normalize_word(word: &str) -> Option<String> {
    let w: String = word
        .chars()
        .filter(|c| c.is_alphanumeric())
        .collect::<String>()
        .to_lowercase();
    if w.len() < 2 || is_stopword(&w) {
        None
    } else {
        Some(w)
    }
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
    fn normalize_word_matches_tokenizer() {
        assert_eq!(normalize_word("FOX!"), Some("fox".to_string()));
        assert_eq!(normalize_word("the"), None);
        assert_eq!(normalize_word("x"), None);
    }

    #[test]
    fn unicode_text_survives() {
        let toks = tokenize("naïve café systems");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0].0, "naïve");
        // A word-final capital sigma lowercases as the query side does.
        assert_eq!(tokenize("ΟΔΟΣ")[0].0, normalize_word("ΟΔΟΣ").unwrap());
    }
}
