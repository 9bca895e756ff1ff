//! Vocabulary interning with document frequencies.
//!
//! Words become dense `WordId`s so they can index embedding rows directly.
//! The builder accumulates document frequencies across the corpus and prunes
//! words outside a `[min_df, max_df_fraction]` band — rare words are noise,
//! ubiquitous words are stop-word-like.

use std::collections::HashMap;

/// Dense id of a vocabulary word (also its embedding row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WordId(pub u32);

impl WordId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Accumulates document frequencies, then freezes into a [`Vocabulary`].
#[derive(Debug, Default)]
pub struct VocabularyBuilder {
    doc_freq: HashMap<String, u32>,
    num_docs: u32,
}

impl VocabularyBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one document's tokens (duplicates within the document count
    /// once toward document frequency).
    pub fn add_document<'a, I: IntoIterator<Item = &'a str>>(&mut self, tokens: I) {
        self.num_docs += 1;
        let mut seen = std::collections::HashSet::new();
        for t in tokens {
            if seen.insert(t) {
                *self.doc_freq.entry(t.to_string()).or_insert(0) += 1;
            }
        }
    }

    /// Number of documents recorded so far.
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Freeze into a vocabulary, keeping words with document frequency in
    /// `[min_df, max_df_fraction · num_docs]`. Word ids are assigned in
    /// lexicographic order so the mapping is deterministic.
    pub fn build(self, min_df: u32, max_df_fraction: f64) -> Vocabulary {
        assert!(
            (0.0..=1.0).contains(&max_df_fraction),
            "max_df_fraction must be in [0, 1], got {max_df_fraction}"
        );
        let max_df = (max_df_fraction * self.num_docs as f64).ceil() as u32;
        let mut kept: Vec<(String, u32)> =
            self.doc_freq.into_iter().filter(|(_, df)| *df >= min_df && *df <= max_df).collect();
        kept.sort_unstable_by(|a, b| a.0.cmp(&b.0));

        let mut word_to_id = HashMap::with_capacity(kept.len());
        let mut words = Vec::with_capacity(kept.len());
        let mut doc_freqs = Vec::with_capacity(kept.len());
        for (i, (w, df)) in kept.into_iter().enumerate() {
            word_to_id.insert(w.clone(), WordId(i as u32));
            words.push(w);
            doc_freqs.push(df);
        }
        Vocabulary { word_to_id, words, doc_freqs, num_docs: self.num_docs }
    }
}

/// A frozen word ↔ id mapping with document frequencies.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    word_to_id: HashMap<String, WordId>,
    words: Vec<String>,
    doc_freqs: Vec<u32>,
    num_docs: u32,
}

impl Vocabulary {
    /// Look up a word's id.
    pub fn id(&self, word: &str) -> Option<WordId> {
        self.word_to_id.get(word).copied()
    }

    /// Look up an id's word.
    pub fn word(&self, id: WordId) -> &str {
        &self.words[id.index()]
    }

    /// Document frequency of a word id.
    pub fn doc_freq(&self, id: WordId) -> u32 {
        self.doc_freqs[id.index()]
    }

    /// Number of documents the vocabulary was built over.
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if no words survived pruning.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterate over `(id, word, document frequency)`.
    pub fn iter(&self) -> impl Iterator<Item = (WordId, &str, u32)> {
        self.words
            .iter()
            .zip(&self.doc_freqs)
            .enumerate()
            .map(|(i, (w, &df))| (WordId(i as u32), w.as_str(), df))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vocabulary {
        let mut b = VocabularyBuilder::new();
        b.add_document(["jazz", "concert", "night"]);
        b.add_document(["jazz", "club", "night", "night"]); // dup "night" counts once
        b.add_document(["tech", "talk"]);
        b.build(1, 1.0)
    }

    #[test]
    fn ids_round_trip_and_are_dense() {
        let v = corpus();
        assert_eq!(v.len(), 6);
        for (id, word, _) in v.iter() {
            assert_eq!(v.id(word), Some(id));
            assert_eq!(v.word(id), word);
        }
    }

    #[test]
    fn document_frequencies_count_documents_not_tokens() {
        let v = corpus();
        assert_eq!(v.doc_freq(v.id("night").unwrap()), 2);
        assert_eq!(v.doc_freq(v.id("jazz").unwrap()), 2);
        assert_eq!(v.doc_freq(v.id("tech").unwrap()), 1);
        assert_eq!(v.num_docs(), 3);
    }

    #[test]
    fn min_df_prunes_rare_words() {
        let mut b = VocabularyBuilder::new();
        b.add_document(["common", "rare1"]);
        b.add_document(["common", "rare2"]);
        let v = b.build(2, 1.0);
        assert_eq!(v.len(), 1);
        assert!(v.id("common").is_some());
        assert!(v.id("rare1").is_none());
    }

    #[test]
    fn max_df_prunes_ubiquitous_words() {
        let mut b = VocabularyBuilder::new();
        for i in 0..10 {
            let unique = format!("unique{i}");
            b.add_document(["everywhere", unique.as_str()]);
        }
        let v = b.build(1, 0.5);
        assert!(v.id("everywhere").is_none());
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn ids_are_deterministic_lexicographic() {
        let v = corpus();
        let words: Vec<&str> = (0..v.len()).map(|i| v.word(WordId(i as u32))).collect();
        let mut sorted = words.clone();
        sorted.sort_unstable();
        assert_eq!(words, sorted);
    }

    #[test]
    fn unknown_word_is_none() {
        assert_eq!(corpus().id("nonexistent"), None);
    }

    #[test]
    fn empty_builder_builds_empty_vocab() {
        let v = VocabularyBuilder::new().build(1, 1.0);
        assert!(v.is_empty());
        assert_eq!(v.num_docs(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every surviving word's df respects the pruning band and ids are a
        /// dense bijection.
        #[test]
        fn pruning_band_respected(
            docs in prop::collection::vec(
                prop::collection::vec("[a-f]{1,2}", 1..6), 1..20),
            min_df in 1u32..4,
        ) {
            let mut b = VocabularyBuilder::new();
            let n = docs.len() as u32;
            for d in &docs {
                b.add_document(d.iter().map(|s| s.as_str()));
            }
            let v = b.build(min_df, 0.8);
            let max_df = (0.8 * n as f64).ceil() as u32;
            let mut seen = std::collections::HashSet::new();
            for (id, word, df) in v.iter() {
                prop_assert!(df >= min_df && df <= max_df);
                prop_assert_eq!(v.id(word), Some(id));
                prop_assert!(seen.insert(id));
            }
            prop_assert_eq!(seen.len(), v.len());
        }
    }
}
