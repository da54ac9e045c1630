//! Extraction configuration and the pattern versions of Table 4.

use serde::Serialize;

/// Verb class admitted by the adjectival-complement pattern's top node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum VerbSet {
    /// Only forms of "to be" (the restrictive choice of versions V3/V4).
    ToBe,
    /// The full copula class (`seems`, `looks`, …) plus small-clause verbs
    /// (`find`, `consider`) — versions V1/V2.
    CopulaClass,
}

/// Which of the Figure 4 patterns are enabled and how strictly they filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ExtractionConfig {
    /// Adjectival-modifier pattern (Figure 4a).
    pub amod: bool,
    /// Adjectival-complement pattern (Figure 4b).
    pub acomp: bool,
    /// Conjunction expansion (Figure 4c).
    pub conj: bool,
    /// Verb class for the complement pattern.
    pub verbs: VerbSet,
    /// Intrinsicness filtering: prepositional-constriction rejection and
    /// the coreference requirement on the amod pattern (§4).
    pub intrinsic_checks: bool,
}

impl ExtractionConfig {
    /// The configuration the paper shipped (Table 4 version 4).
    pub fn paper_final() -> Self {
        PatternVersion::V4.config()
    }
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        Self::paper_final()
    }
}

/// The four extraction-pattern versions compared in paper Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PatternVersion {
    /// amod only, copula class, no intrinsicness checks.
    V1,
    /// amod + acomp, copula class, no checks — highest recall, low quality.
    V2,
    /// acomp only, "to be", checks — highest precision, low recall.
    V3,
    /// amod + acomp, "to be", checks — the shipped trade-off.
    V4,
}

impl PatternVersion {
    /// All versions in Table 4 order.
    pub fn all() -> [PatternVersion; 4] {
        [Self::V1, Self::V2, Self::V3, Self::V4]
    }

    /// The concrete configuration for this version.
    pub fn config(self) -> ExtractionConfig {
        match self {
            Self::V1 => ExtractionConfig {
                amod: true,
                acomp: false,
                conj: true,
                verbs: VerbSet::CopulaClass,
                intrinsic_checks: false,
            },
            Self::V2 => ExtractionConfig {
                amod: true,
                acomp: true,
                conj: true,
                verbs: VerbSet::CopulaClass,
                intrinsic_checks: false,
            },
            Self::V3 => ExtractionConfig {
                amod: false,
                acomp: true,
                conj: true,
                verbs: VerbSet::ToBe,
                intrinsic_checks: true,
            },
            Self::V4 => ExtractionConfig {
                amod: true,
                acomp: true,
                conj: true,
                verbs: VerbSet::ToBe,
                intrinsic_checks: true,
            },
        }
    }

    /// Table 4's "Modifiers" column.
    pub fn modifiers_label(self) -> &'static str {
        match self {
            Self::V1 => "amod",
            Self::V2 | Self::V4 => "amod+acomp",
            Self::V3 => "acomp",
        }
    }

    /// Table 4's "Verbs" column.
    pub fn verbs_label(self) -> &'static str {
        match self.config().verbs {
            VerbSet::ToBe => "to be",
            VerbSet::CopulaClass => "copula",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v4_is_default_and_paper_final() {
        let d = ExtractionConfig::default();
        assert_eq!(d, PatternVersion::V4.config());
        assert!(d.amod && d.acomp && d.conj && d.intrinsic_checks);
        assert_eq!(d.verbs, VerbSet::ToBe);
    }

    #[test]
    fn version_matrix_matches_table4() {
        let v1 = PatternVersion::V1.config();
        assert!(v1.amod && !v1.acomp && !v1.intrinsic_checks);
        assert_eq!(v1.verbs, VerbSet::CopulaClass);
        let v2 = PatternVersion::V2.config();
        assert!(v2.amod && v2.acomp && !v2.intrinsic_checks);
        let v3 = PatternVersion::V3.config();
        assert!(!v3.amod && v3.acomp && v3.intrinsic_checks);
        assert_eq!(v3.verbs, VerbSet::ToBe);
    }

    #[test]
    fn labels_match_table4() {
        assert_eq!(PatternVersion::V1.modifiers_label(), "amod");
        assert_eq!(PatternVersion::V2.modifiers_label(), "amod+acomp");
        assert_eq!(PatternVersion::V3.verbs_label(), "to be");
        assert_eq!(PatternVersion::V1.verbs_label(), "copula");
    }

    #[test]
    fn all_lists_four_versions() {
        assert_eq!(PatternVersion::all().len(), 4);
    }
}
