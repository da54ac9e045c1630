//! Helpers shared by this crate's integration tests and, through a
//! `#[path]` import, by its unit-test differential module.

use surveyor_corpus::fuzz::ADJECTIVES;
use surveyor_nlp::Lexicon;

/// A core lexicon that also knows every adjective the sentence fuzzer uses.
pub fn fuzz_lexicon() -> Lexicon {
    let mut lexicon = Lexicon::new();
    for adjective in ADJECTIVES {
        lexicon.add_adjective(adjective);
    }
    lexicon
}
