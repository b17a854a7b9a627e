//! RDF terms and their compact interned identifiers.

use std::fmt;

/// Compact identifier for an interned [`Term`].
///
/// `TermId`s are dense indexes handed out by a
/// [`TermInterner`](crate::TermInterner); they are only meaningful relative
/// to the interner that produced them. All higher layers (stores, deltas,
/// measures, recommenders) operate on `TermId`s and never on term text,
/// which keeps triples at 12 bytes and comparisons branch-free.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// Smallest possible identifier; used as a range endpoint in index scans.
    pub const MIN: TermId = TermId(0);
    /// Largest possible identifier; used as a range endpoint in index scans.
    pub const MAX: TermId = TermId(u32::MAX);

    /// Construct from a raw `u32`. Intended for interners and
    /// (de)serialisation code; arbitrary values will not resolve to terms.
    #[inline]
    pub const fn from_u32(raw: u32) -> Self {
        TermId(raw)
    }

    /// The raw `u32` behind this identifier.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The identifier as a `usize` index into interner storage.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An RDF term: IRI, literal, or blank node.
///
/// Literals carry an optional datatype IRI *or* an optional language tag
/// (mutually exclusive per RDF 1.1; plain literals have neither).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// An IRI reference such as `http://example.org/Person`.
    Iri(Box<str>),
    /// A literal with lexical form and optional datatype / language tag.
    Literal {
        /// The lexical form (unescaped).
        lexical: Box<str>,
        /// Datatype IRI, if any (`None` for plain and language-tagged).
        datatype: Option<Box<str>>,
        /// BCP-47 language tag, if any.
        lang: Option<Box<str>>,
    },
    /// A blank node with local label (without the `_:` prefix).
    Blank(Box<str>),
}

impl Term {
    /// Build an IRI term.
    pub fn iri(value: impl Into<String>) -> Term {
        Term::Iri(value.into().into_boxed_str())
    }

    /// Build a plain (untyped, untagged) literal.
    pub fn literal(lexical: impl Into<String>) -> Term {
        Term::Literal {
            lexical: lexical.into().into_boxed_str(),
            datatype: None,
            lang: None,
        }
    }

    /// Build a literal with an explicit datatype IRI.
    pub fn typed_literal(lexical: impl Into<String>, datatype: impl Into<String>) -> Term {
        Term::Literal {
            lexical: lexical.into().into_boxed_str(),
            datatype: Some(datatype.into().into_boxed_str()),
            lang: None,
        }
    }

    /// Build a language-tagged literal.
    pub fn lang_literal(lexical: impl Into<String>, lang: impl Into<String>) -> Term {
        Term::Literal {
            lexical: lexical.into().into_boxed_str(),
            datatype: None,
            lang: Some(lang.into().into_boxed_str()),
        }
    }

    /// Build a blank node from its local label (no `_:` prefix).
    pub fn blank(label: impl Into<String>) -> Term {
        Term::Blank(label.into().into_boxed_str())
    }

    /// `true` if this term is an IRI.
    #[inline]
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// `true` if this term is a literal.
    #[inline]
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// `true` if this term is a blank node.
    #[inline]
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// The IRI string, if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    /// The lexical form, if this term is a literal.
    pub fn as_literal(&self) -> Option<&str> {
        match self {
            Term::Literal { lexical, .. } => Some(lexical),
            _ => None,
        }
    }

    /// A short human-oriented rendering: the fragment / last path segment
    /// for IRIs, the lexical form for literals, `_:label` for blanks.
    pub fn short_name(&self) -> &str {
        match self {
            Term::Iri(iri) => iri
                .rsplit_once(['#', '/'])
                .map(|(_, tail)| tail)
                .filter(|tail| !tail.is_empty())
                .unwrap_or(iri),
            Term::Literal { lexical, .. } => lexical,
            Term::Blank(label) => label,
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Term {
    /// Renders in N-Triples surface syntax (unescaped lexical forms; use
    /// [`ntriples::write_term`](crate::ntriples::write_term) for canonical
    /// escaped output).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => write!(f, "<{iri}>"),
            Term::Literal {
                lexical,
                datatype,
                lang,
            } => {
                write!(f, "\"{lexical}\"")?;
                if let Some(lang) = lang {
                    write!(f, "@{lang}")?;
                } else if let Some(dt) = datatype {
                    write!(f, "^^<{dt}>")?;
                }
                Ok(())
            }
            Term::Blank(label) => write!(f, "_:{label}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_classify_correctly() {
        assert!(Term::iri("http://x/a").is_iri());
        assert!(Term::literal("x").is_literal());
        assert!(Term::blank("b0").is_blank());
        assert!(!Term::literal("x").is_iri());
    }

    #[test]
    fn as_iri_roundtrip() {
        let t = Term::iri("http://example.org/Person");
        assert_eq!(t.as_iri(), Some("http://example.org/Person"));
        assert_eq!(Term::literal("x").as_iri(), None);
    }

    #[test]
    fn short_name_extracts_fragment() {
        assert_eq!(Term::iri("http://x/ontology#Person").short_name(), "Person");
        assert_eq!(Term::iri("http://x/ontology/Person").short_name(), "Person");
        assert_eq!(Term::iri("urn:isolated").short_name(), "urn:isolated");
        assert_eq!(Term::literal("42").short_name(), "42");
        assert_eq!(Term::blank("b3").short_name(), "b3");
    }

    #[test]
    fn short_name_handles_trailing_separator() {
        // A trailing '/' yields an empty tail; fall back to the full IRI.
        assert_eq!(Term::iri("http://x/").short_name(), "http://x/");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
        assert_eq!(Term::literal("hi").to_string(), "\"hi\"");
        assert_eq!(Term::lang_literal("hi", "en").to_string(), "\"hi\"@en");
        assert_eq!(
            Term::typed_literal("5", "http://www.w3.org/2001/XMLSchema#integer").to_string(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        assert_eq!(Term::blank("b1").to_string(), "_:b1");
    }

    #[test]
    fn term_ordering_is_total_and_stable() {
        let mut terms = vec![
            Term::blank("z"),
            Term::iri("http://a"),
            Term::literal("m"),
            Term::iri("http://b"),
        ];
        terms.sort();
        let again = {
            let mut t = terms.clone();
            t.sort();
            t
        };
        assert_eq!(terms, again);
    }

    #[test]
    fn term_id_raw_roundtrip() {
        let id = TermId::from_u32(77);
        assert_eq!(id.as_u32(), 77);
        assert_eq!(id.index(), 77);
        assert!(TermId::MIN < id && id < TermId::MAX);
    }

    #[test]
    fn lang_and_datatype_literals_are_distinct() {
        let a = Term::lang_literal("chat", "fr");
        let b = Term::typed_literal("chat", "http://x/dt");
        let c = Term::literal("chat");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
