//! Rule-cascade dependency parser producing Stanford-typed dependencies.
//!
//! The extraction patterns of paper Figure 4 are defined over typed
//! dependency trees (adjectival modifier `amod`, copular `cop`+`nsubj`,
//! adjective conjunction `conj`), and the polarity rule of Figure 5 walks
//! the path from the property token to the tree root counting negated
//! tokens. This module builds exactly those trees for the sentence families
//! the corpus contains:
//!
//! - copular clauses with adjectival or nominal predicates, optional
//!   negation, degree adverbs, and prepositional attachments
//!   ("San Francisco is not a very big city", "New York is bad for parking");
//! - attributive noun phrases ("the cute cat", "a fast and exciting sport");
//! - embedded clauses under verbs of thinking ("I don't think that snakes
//!   are never dangerous");
//! - small clauses ("I find kittens cute");
//! - plain transitive clauses ("I love the cute kitten").
//!
//! The parser is deterministic: the same token sequence always yields the
//! same tree, which keeps the extraction pipeline reproducible.

use crate::token::{Pos, TokenizedSentence};
use serde::{Deserialize, Serialize};

/// Stanford-style dependency relations (the subset the patterns need).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DepRel {
    /// Clause root.
    Root,
    /// Nominal subject.
    Nsubj,
    /// Copula (`is` attached to its predicate).
    Cop,
    /// Adjectival modifier of a noun.
    Amod,
    /// Adverbial modifier.
    Advmod,
    /// Determiner.
    Det,
    /// Negation modifier.
    Neg,
    /// Conjunct (second adjective in "fast and exciting").
    Conj,
    /// Coordinating conjunction token.
    Cc,
    /// Prepositional modifier (the preposition itself).
    Prep,
    /// Object of a preposition.
    Pobj,
    /// Clausal complement ("think [that snakes are dangerous]").
    Ccomp,
    /// Complementizer `that`.
    Mark,
    /// Auxiliary (`do` in "do n't think").
    Aux,
    /// Direct object.
    Dobj,
    /// Noun compound modifier ("Grizzly \[bear\]").
    Nn,
    /// Relative-clause modifier: the predicate adjective of "a city
    /// [that is big]" attaches to the noun it modifies.
    Rcmod,
    /// Punctuation.
    Punct,
    /// Unclassified attachment.
    Dep,
}

/// A typed dependency tree over a token sequence.
///
/// `heads[i]` is `None` exactly for the root; every other token has a head
/// index and relation. Construction through [`parse`] guarantees a single
/// root and acyclicity (checked by [`DepTree::validate`] in tests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepTree {
    heads: Vec<Option<(usize, DepRel)>>,
    root: usize,
}

impl DepTree {
    /// Number of tokens covered.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Index of the root token.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Head index of token `i`, `None` for the root.
    pub fn head(&self, i: usize) -> Option<usize> {
        self.heads[i].map(|(h, _)| h)
    }

    /// Relation of token `i` to its head; `Root` for the root.
    pub fn rel(&self, i: usize) -> DepRel {
        self.heads[i].map(|(_, r)| r).unwrap_or(DepRel::Root)
    }

    /// Children of token `i`, in token order.
    pub fn children(&self, i: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&j| self.head(j) == Some(i))
            .collect()
    }

    /// Children of token `i` holding relation `rel`, in token order.
    pub fn children_with_rel(&self, i: usize, rel: DepRel) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(move |&j| self.heads[j] == Some((i, rel)))
    }

    /// Whether token `i` has a child with relation `rel`.
    pub fn has_child_with_rel(&self, i: usize, rel: DepRel) -> bool {
        self.heads.contains(&Some((i, rel)))
    }

    /// Token indexes from `i` (inclusive) up to the root (inclusive).
    pub fn path_to_root(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        // A well-formed tree has at most `len` nodes on a path; the bound
        // only ends the walk on a malformed one.
        std::iter::successors(Some(i), move |&node| self.head(node)).take(self.len() + 1)
    }

    /// Renders the tree as an indented outline rooted at the clause root —
    /// a terminal-friendly version of the paper's Figure 4/5 diagrams.
    pub fn render(&self, tokens: &TokenizedSentence) -> String {
        fn walk(
            tree: &DepTree,
            tokens: &TokenizedSentence,
            node: usize,
            depth: usize,
            out: &mut String,
        ) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!(
                "{} ({:?})\n",
                tokens.text_of(node),
                tree.rel(node)
            ));
            for child in tree.children(node) {
                walk(tree, tokens, child, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, tokens, self.root, 0, &mut out);
        out
    }

    /// Checks structural invariants: exactly one root, every head index in
    /// range, no cycles. Returns an error description on violation.
    pub fn validate(&self) -> Result<(), String> {
        let roots = self.heads.iter().filter(|h| h.is_none()).count();
        if roots != 1 {
            return Err(format!("expected exactly one root, found {roots}"));
        }
        if self.heads[self.root].is_some() {
            return Err("root index has a head".to_owned());
        }
        for (i, h) in self.heads.iter().enumerate() {
            if let Some((head, _)) = h {
                if *head >= self.len() {
                    return Err(format!("head of {i} out of range"));
                }
            }
            if self.path_to_root(i).last() != Some(self.root) {
                return Err(format!("token {i} does not reach the root"));
            }
        }
        Ok(())
    }
}

/// One chunked item produced by the NP/AdjP pass.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Item {
    /// Noun phrase with head token index.
    Np(usize),
    /// Predicative adjective phrase with head token index.
    AdjP(usize),
    Cop(usize),
    Aux(usize),
    Neg(usize),
    Verb(usize),
    Prep(usize),
    Mark(usize),
    Adv(usize),
    Other(usize),
}

impl Item {
    fn idx(self) -> usize {
        match self {
            Item::Np(i)
            | Item::AdjP(i)
            | Item::Cop(i)
            | Item::Aux(i)
            | Item::Neg(i)
            | Item::Verb(i)
            | Item::Prep(i)
            | Item::Mark(i)
            | Item::Adv(i)
            | Item::Other(i) => i,
        }
    }
}

/// Reusable work lists for [`parse_with`]: the chunked items, the
/// head-assigned flags and the adjective groups of the phrase being
/// chunked. The tree a parse returns owns its head vector; nothing else a
/// parse builds outlives it, so one scratch per worker makes that vector
/// the parser's only allocation.
#[derive(Debug, Default)]
pub(crate) struct ParseScratch {
    items: Vec<Item>,
    assigned: Vec<bool>,
    /// `(adjective, first adverb)`: a group's adverbs are the tokens
    /// `first adverb..adjective`, always adjacent to their adjective.
    groups: Vec<(usize, usize)>,
    ccs: Vec<usize>,
}

/// Builder that accumulates head assignments.
struct TreeBuilder<'s> {
    heads: Vec<Option<(usize, DepRel)>>,
    assigned: &'s mut Vec<bool>,
}

impl<'s> TreeBuilder<'s> {
    fn new(n: usize, assigned: &'s mut Vec<bool>) -> Self {
        assigned.clear();
        assigned.resize(n, false);
        Self {
            heads: vec![None; n],
            assigned,
        }
    }

    fn attach(&mut self, child: usize, head: usize, rel: DepRel) {
        debug_assert!(child != head, "self-loop at {child}");
        if !self.assigned[child] {
            self.heads[child] = Some((head, rel));
            self.assigned[child] = true;
        }
    }

    fn mark_root(&mut self, i: usize) {
        self.assigned[i] = true;
        self.heads[i] = None;
    }

    fn finish(mut self, root: usize, tokens: &TokenizedSentence) -> DepTree {
        // Attach any stragglers to the root.
        for (i, head) in self.heads.iter_mut().enumerate() {
            if !self.assigned[i] {
                let rel = if tokens[i].pos == Pos::Punct {
                    DepRel::Punct
                } else {
                    DepRel::Dep
                };
                *head = Some((root, rel));
                self.assigned[i] = true;
            }
        }
        DepTree {
            heads: self.heads,
            root,
        }
    }
}

/// Parses a tagged token sequence into a dependency tree.
///
/// Returns `None` for an empty sequence. Sentences outside the recognized
/// families degrade gracefully: the parser picks the first content token as
/// root and attaches the rest flat, which simply yields no extractions
/// downstream (precision-first, like the paper's restrictive patterns).
pub fn parse(tokens: &TokenizedSentence) -> Option<DepTree> {
    parse_with(&mut ParseScratch::default(), tokens)
}

/// [`parse`] with caller-owned work lists, for loops that parse many
/// sentences.
pub(crate) fn parse_with(
    scratch: &mut ParseScratch,
    tokens: &TokenizedSentence,
) -> Option<DepTree> {
    if tokens.is_empty() {
        return None;
    }
    let ParseScratch {
        items,
        assigned,
        groups,
        ccs,
    } = scratch;
    let mut b = TreeBuilder::new(tokens.len(), assigned);
    chunk(tokens, &mut b, items, groups, ccs);
    let root = assemble(tokens, items, &mut b, true);
    let tree = b.finish(root, tokens);
    debug_assert!(tree.validate().is_ok(), "parser produced invalid tree");
    Some(tree)
}

/// Chunks the sentence into NPs, AdjPs, and singleton items (written to
/// `items`, which is emptied first), recording intra-phrase edges (det /
/// amod / advmod / conj / cc / nn) on the builder.
fn chunk(
    tokens: &TokenizedSentence,
    b: &mut TreeBuilder,
    items: &mut Vec<Item>,
    groups: &mut Vec<(usize, usize)>,
    ccs: &mut Vec<usize>,
) {
    items.clear();
    let hi = tokens.len();
    let mut i = 0;
    while i < hi {
        match tokens[i].pos {
            Pos::Determiner | Pos::Adjective | Pos::Adverb | Pos::Noun | Pos::ProperNoun => {
                let (item, next) = chunk_phrase(tokens, i, hi, b, groups, ccs);
                match item {
                    Some(it) => {
                        items.push(it);
                        i = next;
                    }
                    None => {
                        // Lone adverb or determiner that formed no phrase.
                        if tokens[i].pos == Pos::Adverb {
                            items.push(Item::Adv(i));
                        } else {
                            items.push(Item::Other(i));
                        }
                        i += 1;
                    }
                }
            }
            Pos::Pronoun => {
                items.push(Item::Np(i));
                i += 1;
            }
            Pos::Copula => {
                items.push(Item::Cop(i));
                i += 1;
            }
            Pos::Aux => {
                items.push(Item::Aux(i));
                i += 1;
            }
            Pos::Negation => {
                items.push(Item::Neg(i));
                i += 1;
            }
            Pos::Verb => {
                items.push(Item::Verb(i));
                i += 1;
            }
            Pos::Preposition => {
                items.push(Item::Prep(i));
                i += 1;
            }
            Pos::Complementizer => {
                items.push(Item::Mark(i));
                i += 1;
            }
            _ => {
                items.push(Item::Other(i));
                i += 1;
            }
        }
    }
}

/// Attempts to chunk a phrase starting at `i`:
/// `Det? (Adv* Adj (Cc Adv* Adj)*)* Nominal*`.
///
/// With trailing nominals it is an NP (head = last nominal, adjectives
/// attach as `amod`); without nominals but with adjectives it is a
/// predicative AdjP (head = first adjective, later conjuncts attach as
/// `conj`). Returns `(None, _)` when neither forms.
fn chunk_phrase(
    tokens: &TokenizedSentence,
    start: usize,
    hi: usize,
    b: &mut TreeBuilder,
    groups: &mut Vec<(usize, usize)>,
    ccs: &mut Vec<usize>,
) -> (Option<Item>, usize) {
    groups.clear();
    ccs.clear();
    let mut i = start;
    let det = if tokens[i].pos == Pos::Determiner {
        i += 1;
        Some(start)
    } else {
        None
    };

    // Adjective groups: each group is (adjective idx, first adverb idx);
    // its adverbs run from there up to the adjective.
    loop {
        let mut j = i;
        while j < hi && tokens[j].pos == Pos::Adverb {
            j += 1;
        }
        if j < hi && tokens[j].pos == Pos::Adjective {
            groups.push((j, i));
            i = j + 1;
            // Conjunction chain: "fast and exciting", "fast, cheap and fun".
            while i < hi
                && (tokens[i].pos == Pos::Conjunction
                    || (tokens[i].pos == Pos::Punct && tokens.text_of(i) == ","))
            {
                let mut k = i + 1;
                while k < hi && tokens[k].pos == Pos::Adverb {
                    k += 1;
                }
                if k < hi && tokens[k].pos == Pos::Adjective {
                    if tokens[i].pos == Pos::Conjunction {
                        ccs.push(i);
                    } else {
                        // Comma in a list: attach as punct later.
                    }
                    groups.push((k, i + 1));
                    i = k + 1;
                } else {
                    break;
                }
            }
        } else {
            break;
        }
    }

    // Nominal run.
    let nominal_start = i;
    while i < hi && matches!(tokens[i].pos, Pos::Noun | Pos::ProperNoun) {
        i += 1;
    }
    let nominal_end = i;

    if nominal_end > nominal_start {
        // NP: head is the last nominal.
        let head = nominal_end - 1;
        if let Some(d) = det {
            b.attach(d, head, DepRel::Det);
        }
        for n in nominal_start..head {
            b.attach(n, head, DepRel::Nn);
        }
        if let Some(&(first_adj, _)) = groups.first() {
            b.attach(first_adj, head, DepRel::Amod);
            for &(adj, _) in &groups[1..] {
                b.attach(adj, first_adj, DepRel::Conj);
            }
            for &cc in ccs.iter() {
                b.attach(cc, first_adj, DepRel::Cc);
            }
            for &(adj, first_adverb) in groups.iter() {
                for a in first_adverb..adj {
                    b.attach(a, adj, DepRel::Advmod);
                }
            }
        }
        (Some(Item::Np(head)), nominal_end)
    } else if let Some(&(first_adj, _)) = groups.first() {
        // Predicative AdjP.
        for &(adj, _) in &groups[1..] {
            b.attach(adj, first_adj, DepRel::Conj);
        }
        for &cc in ccs.iter() {
            b.attach(cc, first_adj, DepRel::Cc);
        }
        for &(adj, first_adverb) in groups.iter() {
            for a in first_adverb..adj {
                b.attach(a, adj, DepRel::Advmod);
            }
        }
        if let Some(d) = det {
            b.attach(d, first_adj, DepRel::Dep);
        }
        (Some(Item::AdjP(first_adj)), i)
    } else {
        (None, start)
    }
}

/// Assembles chunked items into a clause; returns the clause root index.
///
/// `is_matrix` distinguishes the top-level call (which must pick some root
/// even for fragments) from embedded-clause recursion.
fn assemble(
    tokens: &TokenizedSentence,
    items: &[Item],
    b: &mut TreeBuilder,
    is_matrix: bool,
) -> usize {
    // Locate the first predicate-forming element: a copula or verb.
    let pred_pos = items
        .iter()
        .position(|it| matches!(it, Item::Cop(_) | Item::Verb(_)));

    let Some(pi) = pred_pos else {
        // No predicate: fragment. Root = first NP/AdjP head, else first token.
        let root = items
            .iter()
            .find_map(|it| match it {
                Item::Np(h) | Item::AdjP(h) => Some(*h),
                _ => None,
            })
            .unwrap_or_else(|| items.first().map(|it| it.idx()).unwrap_or(0));
        b.mark_root(root);
        attach_leftovers(tokens, items, root, b, &[root]);
        return root;
    };

    // Subject: last NP before the predicate. PPs between subject and
    // predicate attach to the subject head ("the weather in Chicago is…").
    let mut subj: Option<usize> = None;
    let mut k = 0;
    while k < pi {
        match items[k] {
            Item::Np(h) => subj = Some(h),
            Item::Prep(p) => {
                if let (Some(s), Some(Item::Np(obj))) = (subj, items.get(k + 1)) {
                    b.attach(p, s, DepRel::Prep);
                    b.attach(*obj, p, DepRel::Pobj);
                    k += 1;
                }
            }
            _ => {}
        }
        k += 1;
    }

    match items[pi] {
        Item::Cop(cop) => assemble_copular(tokens, items, pi, cop, subj, b, is_matrix),
        Item::Verb(v) => assemble_verbal(tokens, items, pi, v, subj, b, is_matrix),
        _ => unreachable!("pred_pos points at a copula or verb"), // lint:allow(panic-reachability): find_predicate only returns Cop/Verb positions
    }
}

/// Copular clause: `[NP] cop [neg] (AdjP | NP) PP*`.
#[allow(clippy::too_many_arguments)]
fn assemble_copular(
    tokens: &TokenizedSentence,
    items: &[Item],
    pi: usize,
    cop: usize,
    mut subj: Option<usize>,
    b: &mut TreeBuilder,
    _is_matrix: bool,
) -> usize {
    // Find the predicate after the copula; the negations passed on the
    // way are the `Neg` items of `items[pi + 1..j]` wherever the scan
    // stops.
    let mut pred: Option<usize> = None;
    let mut rest_start = items.len();
    let mut j = pi + 1;
    while j < items.len() {
        match items[j] {
            Item::Neg(_) => {}
            Item::AdjP(h) | Item::Np(h) => {
                // Question form "Are snakes dangerous": the NP right after
                // the copula is the subject if we have none yet and an
                // AdjP/NP follows.
                if subj.is_none()
                    && matches!(items[j], Item::Np(_))
                    && items[j + 1..]
                        .iter()
                        .any(|it| matches!(it, Item::AdjP(_) | Item::Np(_)))
                {
                    subj = Some(h);
                } else {
                    pred = Some(h);
                    rest_start = j + 1;
                    break;
                }
            }
            // Lone adverbs between copula and predicate ("is clearly
            // big") attach later as leftovers with an Advmod relation.
            Item::Adv(_) => {}
            Item::Verb(v)
                if crate::lexicon::is_small_clause_verb_word(tokens.lower_of(v))
                    && matches!(items.get(j + 1), Some(Item::AdjP(_))) =>
            {
                // Passive report: "X is considered dangerous". The verb
                // heads the clause; the adjective is its small-clause
                // complement with the subject as its own nsubj — the same
                // shape as "I find X dangerous", so only the extended verb
                // class extracts it.
                let Some(Item::AdjP(adj)) = items.get(j + 1).copied() else {
                    unreachable!("guarded by matches!"); // lint:allow(panic-reachability): match guard checked AdjP at j+1
                };
                b.mark_root(v);
                b.attach(cop, v, DepRel::Aux);
                b.attach(adj, v, DepRel::Ccomp);
                if let Some(sb) = subj {
                    b.attach(sb, adj, DepRel::Nsubj);
                }
                for n in negations(&items[pi + 1..j]) {
                    b.attach(n, v, DepRel::Neg);
                }
                attach_postfield(tokens, items, j + 2, adj, b);
                attach_leftovers(tokens, items, v, b, &[v]);
                return v;
            }
            _ => {
                rest_start = j;
                break;
            }
        }
        j += 1;
    }

    let root = match pred {
        Some(p) => p,
        None => {
            // "X is." or trailing copula: degrade to subject or copula root.
            let r = subj.unwrap_or(cop);
            b.mark_root(r);
            attach_leftovers(tokens, items, r, b, &[r]);
            return r;
        }
    };

    b.mark_root(root);
    b.attach(cop, root, DepRel::Cop);
    if let Some(s) = subj {
        if s != root {
            b.attach(s, root, DepRel::Nsubj);
        }
    }
    for n in negations(&items[pi + 1..j]) {
        b.attach(n, root, DepRel::Neg);
    }
    // Relative clause on a nominal predicate: "X is a city [that is big]".
    // The embedded adjective modifies the predicate noun (rcmod), which
    // corefers with the subject — extraction treats it like amod.
    let rest_start = if let (Some(Item::Mark(mark)), Some(Item::Cop(rel_cop))) =
        (items.get(rest_start), items.get(rest_start + 1))
    {
        let mut k = rest_start + 2;
        while let Some(Item::Neg(_)) = items.get(k) {
            k += 1;
        }
        if let Some(Item::AdjP(adj)) = items.get(k).copied() {
            b.attach(adj, root, DepRel::Rcmod);
            b.attach(*mark, adj, DepRel::Mark);
            b.attach(*rel_cop, adj, DepRel::Cop);
            for n in negations(&items[rest_start + 2..k]) {
                b.attach(n, adj, DepRel::Neg);
            }
            k + 1
        } else {
            rest_start
        }
    } else {
        rest_start
    };
    attach_postfield(tokens, items, rest_start, root, b);
    attach_leftovers(tokens, items, root, b, &[root]);
    root
}

/// The token indexes of the `Neg` items among `items`, in order.
fn negations(items: &[Item]) -> impl Iterator<Item = usize> + '_ {
    items.iter().filter_map(|item| match item {
        Item::Neg(n) => Some(*n),
        _ => None,
    })
}

/// Verbal clause: embedding verbs take `ccomp`, small-clause verbs take
/// `NP + AdjP`, other verbs take `dobj`.
#[allow(clippy::too_many_arguments)]
fn assemble_verbal(
    tokens: &TokenizedSentence,
    items: &[Item],
    pi: usize,
    verb: usize,
    subj: Option<usize>,
    b: &mut TreeBuilder,
    _is_matrix: bool,
) -> usize {
    b.mark_root(verb);
    if let Some(s) = subj {
        b.attach(s, verb, DepRel::Nsubj);
    }
    // Auxiliaries and negations between subject and verb.
    for it in &items[..pi] {
        match *it {
            Item::Aux(a) => b.attach(a, verb, DepRel::Aux),
            Item::Neg(n) => b.attach(n, verb, DepRel::Neg),
            _ => {}
        }
    }

    let lower = tokens.lower_of(verb);
    let is_embedding = crate::lexicon::is_embedding_verb_word(lower);
    let is_small_clause = crate::lexicon::is_small_clause_verb_word(lower);

    let after = &items[pi + 1..];
    if is_embedding && !after.is_empty() {
        // Optional complementizer, then an embedded clause.
        let (mark, clause_items) = match after[0] {
            Item::Mark(m) => (Some(m), &after[1..]),
            _ => (None, after),
        };
        if clause_items.iter().any(|it| {
            matches!(
                it,
                Item::Cop(_) | Item::Verb(_) | Item::AdjP(_) | Item::Np(_)
            )
        }) {
            let sub_root = assemble_embedded(tokens, clause_items, b);
            b.attach(sub_root, verb, DepRel::Ccomp);
            if let Some(m) = mark {
                b.attach(m, sub_root, DepRel::Mark);
            }
        }
    } else if is_small_clause {
        // "I find kittens cute": NP + AdjP. The adjective heads a small
        // clause (ccomp) with the NP as its subject, so the adjectival-
        // complement pattern can see nsubj(cute, kittens).
        let mut np: Option<usize> = None;
        for it in after {
            match *it {
                Item::Np(h) if np.is_none() => np = Some(h),
                Item::AdjP(adj) => {
                    b.attach(adj, verb, DepRel::Ccomp);
                    if let Some(n) = np.take() {
                        b.attach(n, adj, DepRel::Nsubj);
                    }
                    break;
                }
                Item::Neg(n) => b.attach(n, verb, DepRel::Neg),
                _ => break,
            }
        }
        if let Some(n) = np {
            b.attach(n, verb, DepRel::Dobj);
        }
    } else {
        // Plain transitive: first NP after the verb is the object; any
        // negations directly after the verb attach to it.
        for it in after {
            match *it {
                Item::Np(h) => {
                    b.attach(h, verb, DepRel::Dobj);
                    break;
                }
                Item::Neg(n) => b.attach(n, verb, DepRel::Neg),
                _ => break,
            }
        }
    }
    attach_postfield_from(tokens, after, verb, b);
    attach_leftovers(tokens, items, verb, b, &[verb]);
    verb
}

/// Assembles an embedded clause from pre-chunked items; falls back to the
/// first phrase head when the clause lacks a predicate.
fn assemble_embedded(tokens: &TokenizedSentence, items: &[Item], b: &mut TreeBuilder) -> usize {
    // Temporarily reuse `assemble`, then demote the root marking: the
    // embedded root will be attached to the matrix verb by the caller.
    let root = assemble(tokens, items, b, false);
    // Un-mark root status so the caller can attach it.
    b.assigned[root] = false;
    b.heads[root] = None;
    root
}

/// Attaches post-predicate prepositional phrases: `prep(pred, P)` +
/// `pobj(P, NP)` — the constriction sub-trees the intrinsicness filter
/// looks for ("bad **for parking**").
fn attach_postfield(
    tokens: &TokenizedSentence,
    items: &[Item],
    from: usize,
    pred: usize,
    b: &mut TreeBuilder,
) {
    attach_postfield_from(tokens, &items[from.min(items.len())..], pred, b);
}

fn attach_postfield_from(
    _tokens: &TokenizedSentence,
    items: &[Item],
    pred: usize,
    b: &mut TreeBuilder,
) {
    let mut j = 0;
    while j < items.len() {
        if let Item::Prep(p) = items[j] {
            b.attach(p, pred, DepRel::Prep);
            if let Some(Item::Np(obj)) = items.get(j + 1) {
                b.attach(*obj, p, DepRel::Pobj);
                j += 1;
            }
        }
        j += 1;
    }
}

/// Attaches remaining unassigned item heads flat under the root.
fn attach_leftovers(
    tokens: &TokenizedSentence,
    items: &[Item],
    root: usize,
    b: &mut TreeBuilder,
    skip: &[usize],
) {
    for it in items {
        let i = it.idx();
        if skip.contains(&i) || b.assigned[i] {
            continue;
        }
        let rel = match it {
            Item::Adv(_) => DepRel::Advmod,
            Item::Neg(_) => DepRel::Neg,
            Item::Np(_) | Item::AdjP(_) => DepRel::Dep,
            _ => {
                if tokens[i].pos == Pos::Punct {
                    DepRel::Punct
                } else {
                    DepRel::Dep
                }
            }
        };
        b.attach(i, root, rel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexicon::Lexicon;
    use crate::token::tokenize;

    fn parse_str(s: &str) -> (TokenizedSentence, DepTree) {
        let lex = Lexicon::new();
        let mut toks = tokenize(s);
        lex.tag(&mut toks);
        let tree = parse(&toks).expect("non-empty sentence");
        tree.validate().expect("valid tree");
        (toks, tree)
    }

    fn idx(tokens: &TokenizedSentence, word: &str) -> usize {
        (0..tokens.len())
            .position(|i| tokens.lower_of(i) == word.to_lowercase())
            .unwrap_or_else(|| panic!("token {word} not found"))
    }

    #[test]
    fn copular_adjective_predicate() {
        let (toks, tree) = parse_str("Chicago is very big");
        let big = idx(&toks, "big");
        assert_eq!(tree.root(), big);
        assert_eq!(tree.rel(idx(&toks, "Chicago")), DepRel::Nsubj);
        assert_eq!(tree.head(idx(&toks, "Chicago")), Some(big));
        assert_eq!(tree.rel(idx(&toks, "is")), DepRel::Cop);
        assert_eq!(tree.rel(idx(&toks, "very")), DepRel::Advmod);
        assert_eq!(tree.head(idx(&toks, "very")), Some(big));
    }

    #[test]
    fn copular_nominal_predicate_with_amod() {
        let (toks, tree) = parse_str("San Francisco is not a big city");
        let city = idx(&toks, "city");
        let big = idx(&toks, "big");
        assert_eq!(tree.root(), city);
        assert_eq!(tree.rel(big), DepRel::Amod);
        assert_eq!(tree.head(big), Some(city));
        assert_eq!(tree.rel(idx(&toks, "not")), DepRel::Neg);
        assert_eq!(tree.head(idx(&toks, "not")), Some(city));
        // "San" is a compound modifier of "Francisco".
        assert_eq!(tree.rel(idx(&toks, "San")), DepRel::Nn);
        assert_eq!(tree.rel(idx(&toks, "Francisco")), DepRel::Nsubj);
        assert_eq!(tree.rel(idx(&toks, "a")), DepRel::Det);
    }

    #[test]
    fn predicate_nominal_coref_structure() {
        // Table 1 row 1: "Snakes are dangerous animals".
        let (toks, tree) = parse_str("Snakes are dangerous animals");
        let animals = idx(&toks, "animals");
        assert_eq!(tree.root(), animals);
        assert_eq!(tree.rel(idx(&toks, "dangerous")), DepRel::Amod);
        assert_eq!(tree.rel(idx(&toks, "snakes")), DepRel::Nsubj);
        assert_eq!(tree.rel(idx(&toks, "are")), DepRel::Cop);
    }

    #[test]
    fn adjective_conjunction() {
        // Table 1 row 3: "Soccer is a fast and exciting sport".
        let (toks, tree) = parse_str("Soccer is a fast and exciting sport");
        let sport = idx(&toks, "sport");
        let fast = idx(&toks, "fast");
        let exciting = idx(&toks, "exciting");
        assert_eq!(tree.root(), sport);
        assert_eq!(tree.rel(fast), DepRel::Amod);
        assert_eq!(tree.head(exciting), Some(fast));
        assert_eq!(tree.rel(exciting), DepRel::Conj);
        assert_eq!(tree.rel(idx(&toks, "and")), DepRel::Cc);
    }

    #[test]
    fn predicative_conjunction() {
        let (toks, tree) = parse_str("Soccer is fast and exciting");
        let fast = idx(&toks, "fast");
        assert_eq!(tree.root(), fast);
        assert_eq!(tree.rel(idx(&toks, "exciting")), DepRel::Conj);
        assert_eq!(tree.rel(idx(&toks, "Soccer")), DepRel::Nsubj);
    }

    #[test]
    fn figure5_embedded_double_negation() {
        let (toks, tree) = parse_str("I don't think that snakes are never dangerous");
        let think = idx(&toks, "think");
        let dangerous = idx(&toks, "dangerous");
        assert_eq!(tree.root(), think);
        assert_eq!(tree.rel(idx(&toks, "I")), DepRel::Nsubj);
        assert_eq!(tree.rel(idx(&toks, "do")), DepRel::Aux);
        assert_eq!(tree.rel(idx(&toks, "n't")), DepRel::Neg);
        assert_eq!(tree.head(idx(&toks, "n't")), Some(think));
        assert_eq!(tree.rel(dangerous), DepRel::Ccomp);
        assert_eq!(tree.head(dangerous), Some(think));
        assert_eq!(tree.rel(idx(&toks, "never")), DepRel::Neg);
        assert_eq!(tree.head(idx(&toks, "never")), Some(dangerous));
        assert_eq!(tree.rel(idx(&toks, "that")), DepRel::Mark);
        assert_eq!(tree.rel(idx(&toks, "snakes")), DepRel::Nsubj);
        assert_eq!(tree.head(idx(&toks, "snakes")), Some(dangerous));
        // The polarity path of Figure 5: dangerous -> think (root).
        assert_eq!(
            tree.path_to_root(dangerous).collect::<Vec<_>>(),
            vec![dangerous, think]
        );
    }

    #[test]
    fn small_clause_find() {
        let (toks, tree) = parse_str("I find kittens cute");
        let cute = idx(&toks, "cute");
        let find = idx(&toks, "find");
        assert_eq!(tree.root(), find);
        assert_eq!(tree.rel(cute), DepRel::Ccomp);
        assert_eq!(tree.rel(idx(&toks, "kittens")), DepRel::Nsubj);
        assert_eq!(tree.head(idx(&toks, "kittens")), Some(cute));
    }

    #[test]
    fn transitive_clause_with_attributive_np() {
        let (toks, tree) = parse_str("I love the cute kitten");
        let love = idx(&toks, "love");
        let kitten = idx(&toks, "kitten");
        assert_eq!(tree.root(), love);
        assert_eq!(tree.rel(kitten), DepRel::Dobj);
        assert_eq!(tree.rel(idx(&toks, "cute")), DepRel::Amod);
        assert_eq!(tree.head(idx(&toks, "cute")), Some(kitten));
    }

    #[test]
    fn prepositional_constriction_on_predicate() {
        let (toks, tree) = parse_str("New York is bad for parking");
        let bad = idx(&toks, "bad");
        let for_ = idx(&toks, "for");
        assert_eq!(tree.root(), bad);
        assert_eq!(tree.rel(for_), DepRel::Prep);
        assert_eq!(tree.head(for_), Some(bad));
        assert_eq!(tree.rel(idx(&toks, "parking")), DepRel::Pobj);
        assert_eq!(tree.head(idx(&toks, "parking")), Some(for_));
    }

    #[test]
    fn subject_attached_pp() {
        let (toks, tree) = parse_str("The weather in Chicago is bad");
        let bad = idx(&toks, "bad");
        let weather = idx(&toks, "weather");
        assert_eq!(tree.root(), bad);
        assert_eq!(tree.rel(weather), DepRel::Nsubj);
        assert_eq!(tree.rel(idx(&toks, "in")), DepRel::Prep);
        assert_eq!(tree.head(idx(&toks, "in")), Some(weather));
        assert_eq!(tree.rel(idx(&toks, "Chicago")), DepRel::Pobj);
    }

    #[test]
    fn attributive_amod_on_subject() {
        // "southern France is warm" — amod(France, southern).
        let (toks, tree) = parse_str("southern France is warm");
        let warm = idx(&toks, "warm");
        let france = idx(&toks, "France");
        assert_eq!(tree.root(), warm);
        assert_eq!(tree.rel(idx(&toks, "southern")), DepRel::Amod);
        assert_eq!(tree.head(idx(&toks, "southern")), Some(france));
        assert_eq!(tree.rel(france), DepRel::Nsubj);
    }

    #[test]
    fn fragment_np_root() {
        let (toks, tree) = parse_str("the cute cat");
        assert_eq!(tree.root(), idx(&toks, "cat"));
        assert_eq!(tree.rel(idx(&toks, "cute")), DepRel::Amod);
    }

    #[test]
    fn question_inverted_copula() {
        let (toks, tree) = parse_str("Are snakes dangerous");
        let dangerous = idx(&toks, "dangerous");
        assert_eq!(tree.root(), dangerous);
        assert_eq!(tree.rel(idx(&toks, "snakes")), DepRel::Nsubj);
        assert_eq!(tree.rel(idx(&toks, "are")), DepRel::Cop);
    }

    #[test]
    fn every_token_reaches_root_on_noise() {
        for s in [
            "and or but",
            "for in of",
            ", , ,",
            "big",
            "the",
            "is",
            "I think",
            "very really quite",
            "Chicago Chicago Chicago is is big big",
        ] {
            let lex = Lexicon::new();
            let mut toks = tokenize(s);
            lex.tag(&mut toks);
            if toks.is_empty() {
                continue;
            }
            let tree = parse(&toks).unwrap();
            tree.validate().unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn relative_clause_on_predicate_nominal() {
        let (toks, tree) = parse_str("Chicago is a city that is very big");
        let city = idx(&toks, "city");
        let big = idx(&toks, "big");
        assert_eq!(tree.root(), city);
        assert_eq!(tree.rel(big), DepRel::Rcmod);
        assert_eq!(tree.head(big), Some(city));
        assert_eq!(tree.rel(idx(&toks, "that")), DepRel::Mark);
        assert_eq!(tree.rel(idx(&toks, "very")), DepRel::Advmod);
        assert_eq!(tree.head(idx(&toks, "very")), Some(big));
        // Both copulas attach where they belong.
        assert!(tree.has_child_with_rel(city, DepRel::Cop));
        assert!(tree.has_child_with_rel(big, DepRel::Cop));
    }

    #[test]
    fn negated_relative_clause() {
        let (toks, tree) = parse_str("Chicago is a city that is not big");
        let big = idx(&toks, "big");
        assert_eq!(tree.rel(big), DepRel::Rcmod);
        assert!(tree.has_child_with_rel(big, DepRel::Neg));
    }

    #[test]
    fn passive_report_small_clause() {
        let (toks, tree) = parse_str("Chicago is considered big");
        let considered = idx(&toks, "considered");
        let big = idx(&toks, "big");
        assert_eq!(tree.root(), considered);
        assert_eq!(tree.rel(big), DepRel::Ccomp);
        assert_eq!(tree.rel(idx(&toks, "Chicago")), DepRel::Nsubj);
        assert_eq!(tree.head(idx(&toks, "Chicago")), Some(big));
        assert_eq!(tree.rel(idx(&toks, "is")), DepRel::Aux);
    }

    #[test]
    fn negated_passive_report() {
        let (toks, tree) = parse_str("Chicago is not considered big");
        let considered = idx(&toks, "considered");
        assert_eq!(tree.root(), considered);
        assert!(tree.has_child_with_rel(considered, DepRel::Neg));
    }

    #[test]
    fn empty_input_is_none() {
        assert!(parse(&tokenize("")).is_none());
    }

    #[test]
    fn render_outline_covers_every_token() {
        let (toks, tree) = parse_str("I don't think that snakes are never dangerous");
        let rendered = tree.render(&toks);
        for i in 0..toks.len() {
            assert!(
                rendered.contains(toks.text_of(i)),
                "missing {:?}",
                toks.text_of(i)
            );
        }
        // Root first, at zero indentation.
        assert!(rendered.starts_with("think (Root)"));
    }

    #[test]
    fn children_and_path_utilities() {
        let (toks, tree) = parse_str("Chicago is not big");
        let big = idx(&toks, "big");
        let children = tree.children(big);
        assert!(children.contains(&idx(&toks, "Chicago")));
        assert!(children.contains(&idx(&toks, "is")));
        assert!(children.contains(&idx(&toks, "not")));
        assert!(tree.has_child_with_rel(big, DepRel::Neg));
        assert_eq!(
            tree.path_to_root(idx(&toks, "Chicago")).collect::<Vec<_>>(),
            vec![idx(&toks, "Chicago"), big]
        );
    }
}
