//! A small Datalog-style textual syntax for UCQs with selections.
//!
//! Grammar (informally):
//!
//! ```text
//! program   := rule+
//! rule      := HEAD "(" headterms? ")" ":-" body "."
//! headterms := VARIABLE ("," VARIABLE)* ("," aggregate)? | aggregate
//! aggregate := "COUNT" "(" "*" ")" | ("SUM" | "MIN" | "MAX") "(" VARIABLE ")"
//! body      := item ("," item)*
//! item      := atom | selection
//! atom      := NAME "(" term ("," term)* ")"
//! term      := VARIABLE | INTEGER | "'" chars "'"
//! selection := VARIABLE op (INTEGER | "'" chars "'")
//! op        := "<" | "<=" | "=" | "!=" | ">=" | ">"
//! ```
//!
//! Variables start with an upper-case letter; relation names with any letter.
//! Rules with the same head predicate form a union of conjunctive queries.
//! An aggregate, if present, must be the last head term; the plain head
//! variables are the grouping keys, and every rule of a union must carry the
//! same aggregate kind.

use crate::{AggregateSpec, Atom, Comparison, ConjunctiveQuery, Selection, Term, UnionQuery};
use banzhaf_boolean::AggregateKind;
use banzhaf_db::Value;
use std::fmt;

/// A parse error with a human-readable message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Description of what went wrong.
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        ParseError { message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a program (one or more rules) into a [`UnionQuery`].
///
/// All rules must share the same head predicate and arity; they become the
/// disjuncts of the union.
pub fn parse_program(input: &str) -> Result<UnionQuery, ParseError> {
    // Drop comment lines (starting with '%') before splitting into rules.
    let stripped: String = input
        .lines()
        .filter(|line| !line.trim_start().starts_with('%'))
        .collect::<Vec<_>>()
        .join("\n");
    let rules: Vec<&str> = stripped.split('.').map(str::trim).filter(|s| !s.is_empty()).collect();
    if rules.is_empty() {
        return Err(ParseError::new("empty program"));
    }
    let mut disjuncts = Vec::with_capacity(rules.len());
    for rule in rules {
        disjuncts.push(parse_rule(rule)?);
    }
    let name = disjuncts[0].name.clone();
    let arity = disjuncts[0].head.len();
    let kind = disjuncts[0].aggregate.as_ref().map(|a| a.kind);
    for cq in &disjuncts {
        if cq.name != name {
            return Err(ParseError::new(format!(
                "all rules must define the same head predicate ({} vs {})",
                name, cq.name
            )));
        }
        if cq.head.len() != arity {
            return Err(ParseError::new("all rules must have the same head arity"));
        }
        if cq.aggregate.as_ref().map(|a| a.kind) != kind {
            return Err(ParseError::new("all rules must carry the same aggregate"));
        }
    }
    Ok(UnionQuery { disjuncts })
}

fn parse_rule(rule: &str) -> Result<ConjunctiveQuery, ParseError> {
    let (head, body) = rule
        .split_once(":-")
        .ok_or_else(|| ParseError::new(format!("missing ':-' in rule: {rule}")))?;
    let (name, head_vars, aggregate) = parse_head(head.trim())?;
    let items = split_top_level(body.trim());
    let mut atoms = Vec::new();
    let mut selections = Vec::new();
    for item in items {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        if item.contains('(') {
            atoms.push(parse_atom(item)?);
        } else {
            selections.push(parse_selection(item)?);
        }
    }
    if atoms.is_empty() {
        return Err(ParseError::new("a rule needs at least one relational atom"));
    }
    // Head variables — and the aggregated variable — must occur in the body.
    let input = aggregate.as_ref().and_then(|a| a.input.clone());
    for hv in head_vars.iter().chain(&input) {
        let occurs = atoms.iter().any(|a| a.variables().any(|v| v == hv));
        if !occurs {
            return Err(ParseError::new(format!("head variable {hv} does not occur in the body")));
        }
    }
    Ok(ConjunctiveQuery { name, head: head_vars, aggregate, atoms, selections })
}

#[allow(clippy::type_complexity)]
fn parse_head(head: &str) -> Result<(String, Vec<String>, Option<AggregateSpec>), ParseError> {
    let open = head.find('(').ok_or_else(|| ParseError::new(format!("malformed head: {head}")))?;
    let close =
        head.rfind(')').ok_or_else(|| ParseError::new(format!("malformed head: {head}")))?;
    if close < open {
        return Err(ParseError::new(format!("')' before '(' in head: {head}")));
    }
    let name = head[..open].trim();
    if name.is_empty() {
        return Err(ParseError::new("head predicate name is empty"));
    }
    let inner = head[open + 1..close].trim();
    let mut vars = Vec::new();
    let mut aggregate = None;
    if !inner.is_empty() {
        for term in split_top_level(inner) {
            let term = term.trim();
            if aggregate.is_some() {
                return Err(ParseError::new("the aggregate must be the last head term"));
            }
            if let Some(spec) = parse_aggregate_term(term)? {
                aggregate = Some(spec);
            } else if is_variable(term) {
                vars.push(term.to_owned());
            } else {
                return Err(ParseError::new(format!("head term {term} must be a variable")));
            }
        }
    }
    Ok((name.to_owned(), vars, aggregate))
}

/// Parses `COUNT(*)` / `SUM(V)` / `MIN(V)` / `MAX(V)`; `Ok(None)` if the
/// term carries no parentheses (a plain head variable).
fn parse_aggregate_term(term: &str) -> Result<Option<AggregateSpec>, ParseError> {
    let Some(open) = term.find('(') else {
        return Ok(None);
    };
    let inner = term[open + 1..]
        .strip_suffix(')')
        .ok_or_else(|| ParseError::new(format!("malformed aggregate head term: {term}")))?
        .trim();
    let kind = match term[..open].trim() {
        "COUNT" => AggregateKind::Count,
        "SUM" => AggregateKind::Sum,
        "MIN" => AggregateKind::Min,
        "MAX" => AggregateKind::Max,
        other => {
            return Err(ParseError::new(format!(
                "unknown aggregate {other} (expected COUNT, SUM, MIN, or MAX)"
            )))
        }
    };
    let input = match (kind, inner) {
        (AggregateKind::Count, "*") => None,
        (AggregateKind::Count, other) => {
            return Err(ParseError::new(format!("COUNT takes '*', not {other}")));
        }
        (_, v) if is_variable(v) => Some(v.to_owned()),
        (_, other) => {
            return Err(ParseError::new(format!("{kind} takes a variable, not {other}")));
        }
    };
    Ok(Some(AggregateSpec { kind, input }))
}

/// Splits a rule body on commas that are not nested inside parentheses or
/// quotes.
fn split_top_level(body: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_quote = false;
    let mut current = String::new();
    for c in body.chars() {
        match c {
            '\'' => {
                in_quote = !in_quote;
                current.push(c);
            }
            '(' if !in_quote => {
                depth += 1;
                current.push(c);
            }
            ')' if !in_quote => {
                depth = depth.saturating_sub(1);
                current.push(c);
            }
            ',' if depth == 0 && !in_quote => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        parts.push(current);
    }
    parts
}

fn parse_atom(item: &str) -> Result<Atom, ParseError> {
    let open = item.find('(').expect("caller checked");
    let close =
        item.rfind(')').ok_or_else(|| ParseError::new(format!("missing ')' in atom: {item}")))?;
    if close < open {
        return Err(ParseError::new(format!("')' before '(' in atom: {item}")));
    }
    let relation = item[..open].trim();
    if relation.is_empty() {
        return Err(ParseError::new(format!("missing relation name in atom: {item}")));
    }
    let inner = &item[open + 1..close];
    let terms = split_top_level(inner)
        .into_iter()
        .map(|t| parse_term(t.trim()))
        .collect::<Result<Vec<_>, _>>()?;
    if terms.is_empty() {
        return Err(ParseError::new(format!("atom {relation} has no terms")));
    }
    Ok(Atom::new(relation, terms))
}

fn parse_term(term: &str) -> Result<Term, ParseError> {
    if term.is_empty() {
        return Err(ParseError::new("empty term"));
    }
    if is_variable(term) {
        return Ok(Term::var(term));
    }
    Ok(Term::Constant(parse_value(term)?))
}

fn parse_value(text: &str) -> Result<Value, ParseError> {
    if let Some(stripped) = text.strip_prefix('\'') {
        let inner = stripped
            .strip_suffix('\'')
            .ok_or_else(|| ParseError::new(format!("unterminated string constant: {text}")))?;
        return Ok(Value::from(inner));
    }
    text.parse::<i64>()
        .map(Value::from)
        .map_err(|_| ParseError::new(format!("invalid constant: {text}")))
}

fn parse_selection(item: &str) -> Result<Selection, ParseError> {
    // Two-character operators first so that ">=" is not parsed as ">".
    for (symbol, op) in [
        ("<=", Comparison::Le),
        (">=", Comparison::Ge),
        ("!=", Comparison::Ne),
        ("<", Comparison::Lt),
        (">", Comparison::Gt),
        ("=", Comparison::Eq),
    ] {
        if let Some((lhs, rhs)) = item.split_once(symbol) {
            let variable = lhs.trim();
            if !is_variable(variable) {
                return Err(ParseError::new(format!(
                    "selection left-hand side {variable} must be a variable"
                )));
            }
            let constant = parse_value(rhs.trim())?;
            return Ok(Selection { variable: variable.to_owned(), comparison: op, constant });
        }
    }
    Err(ParseError::new(format!("unrecognized body item: {item}")))
}

fn is_variable(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_boolean_query() {
        let q = parse_program("Q() :- R(X), S(X, Y), T(Y).").unwrap();
        assert!(q.is_boolean());
        assert_eq!(q.disjuncts.len(), 1);
        assert_eq!(q.disjuncts[0].atoms.len(), 3);
        assert_eq!(q.disjuncts[0].variables(), vec!["X".to_owned(), "Y".to_owned()]);
    }

    #[test]
    fn parses_free_variables_and_constants() {
        let q = parse_program("Q(X, Y) :- R(X, 3), S(X, Y, 'abc').").unwrap();
        let cq = &q.disjuncts[0];
        assert_eq!(cq.head, vec!["X".to_owned(), "Y".to_owned()]);
        assert_eq!(cq.atoms[0].terms[1], Term::Constant(Value::from(3)));
        assert_eq!(cq.atoms[1].terms[2], Term::Constant(Value::from("abc")));
    }

    #[test]
    fn parses_selections() {
        let q = parse_program("Q(X) :- R(X, Y), Y >= 10, X != 'x', Y < 20.").unwrap();
        let cq = &q.disjuncts[0];
        assert_eq!(cq.selections.len(), 3);
        assert_eq!(cq.selections[0].comparison, Comparison::Ge);
        assert_eq!(cq.selections[1].comparison, Comparison::Ne);
        assert_eq!(cq.selections[2].comparison, Comparison::Lt);
    }

    #[test]
    fn parses_unions() {
        let q = parse_program(
            "Q(X) :- R(X, Y), S(Y).
             Q(X) :- T(X).",
        )
        .unwrap();
        assert_eq!(q.disjuncts.len(), 2);
        assert_eq!(q.head_arity(), 1);
    }

    #[test]
    fn rejects_malformed_programs() {
        assert!(parse_program("").is_err());
        assert!(parse_program("Q(X) : R(X).").is_err());
        assert!(parse_program("Q(X) :- .").is_err());
        assert!(parse_program("Q(X) :- R(Y).").is_err()); // head var not in body
        assert!(parse_program("Q(x) :- R(x).").is_err()); // lower-case head term
        assert!(parse_program("Q(X) :- R(X, 'oops).").is_err()); // unterminated string
        assert!(parse_program("Q(X) :- R(X).\nP(X) :- S(X).").is_err()); // two predicates
        assert!(parse_program("Q(X) :- R(X).\nQ(X, Y) :- S(X, Y).").is_err()); // arity clash
    }

    #[test]
    fn display_then_reparse() {
        let text = "Q(X) :- R(X, Y), S(Y, 7), Y > 3.";
        let q = parse_program(text).unwrap();
        let printed = q.to_string();
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(q, reparsed);
    }

    #[test]
    fn parses_aggregate_heads() {
        let q = parse_program("Q(X, SUM(V)) :- R(X, Y), S(Y, V).").unwrap();
        let cq = &q.disjuncts[0];
        assert_eq!(cq.head, vec!["X".to_owned()]);
        assert_eq!(
            cq.aggregate,
            Some(AggregateSpec { kind: AggregateKind::Sum, input: Some("V".into()) })
        );
        let count = parse_program("Q(COUNT(*)) :- R(X, Y).").unwrap();
        assert_eq!(
            count.disjuncts[0].aggregate,
            Some(AggregateSpec { kind: AggregateKind::Count, input: None })
        );
        assert!(count.disjuncts[0].head.is_empty());
        for (text, kind) in [("MIN(V)", AggregateKind::Min), ("MAX(V)", AggregateKind::Max)] {
            let q = parse_program(&format!("Q({text}) :- R(X, V).")).unwrap();
            assert_eq!(q.disjuncts[0].aggregate.as_ref().unwrap().kind, kind);
        }
    }

    #[test]
    fn aggregate_heads_display_then_reparse() {
        for text in
            ["Q(X, SUM(V)) :- R(X, V).", "Q(COUNT(*)) :- R(X, Y).", "Q(MAX(V)) :- R(X, V), X > 2."]
        {
            let q = parse_program(text).unwrap();
            let reparsed = parse_program(&q.to_string()).unwrap();
            assert_eq!(q, reparsed, "{text}");
        }
    }

    #[test]
    fn rejects_malformed_aggregates() {
        // The aggregate must be the last head term.
        assert!(parse_program("Q(SUM(V), X) :- R(X, V).").is_err());
        // At most one aggregate.
        assert!(parse_program("Q(SUM(V), COUNT(*)) :- R(X, V).").is_err());
        // COUNT takes '*', the others take a variable.
        assert!(parse_program("Q(COUNT(V)) :- R(X, V).").is_err());
        assert!(parse_program("Q(SUM(*)) :- R(X, V).").is_err());
        assert!(parse_program("Q(SUM(3)) :- R(X, V).").is_err());
        // Unknown aggregate name.
        assert!(parse_program("Q(AVG(V)) :- R(X, V).").is_err());
        // The aggregated variable must occur in the body.
        assert!(parse_program("Q(SUM(W)) :- R(X, V).").is_err());
        // Every rule of a union must carry the same aggregate kind.
        assert!(parse_program("Q(X, SUM(V)) :- R(X, V).\nQ(X, MAX(V)) :- S(X, V).").is_err());
        assert!(parse_program("Q(X, SUM(V)) :- R(X, V).\nQ(X) :- S(X, V).").is_err());
    }

    #[test]
    fn a_closing_parenthesis_before_the_opening_one_is_a_parse_error() {
        for text in ["Q)(X :- R(X).", "Q(X) :- R)(X.", "Q():-) R(X, Y"] {
            assert!(parse_program(text).is_err(), "{text}");
        }
    }

    /// Seeded mutations of valid programs — deleted, inserted, duplicated and
    /// swapped characters drawn from the grammar's own punctuation — must
    /// each parse or return a [`ParseError`], never panic.
    #[test]
    fn mutated_programs_never_panic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const SEEDS: [&str; 6] = [
            "Q() :- R(X), S(X, Y), T(Y).",
            "Q(X, Y) :- R(X, 3), S(X, Y, 'abc').",
            "Q(X) :- R(X, Y), Y >= 10, X != 'x', Y < 20.",
            "Q(X) :- R(X, Y), S(Y).\nQ(X) :- T(X).",
            "Q(X, SUM(V)) :- R(X, Y), S(Y, V).",
            "% comment\nQ(COUNT(*)) :- R(X, Y), X <= 2.",
        ];
        const ALPHABET: &[char] = &[
            '(', ')', ',', '.', ':', '-', '\'', '*', '<', '>', '=', '!', '%', ' ', '\n', 'X', 'q',
            '7',
        ];
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..20_000 {
            let mut text: Vec<char> = SEEDS[rng.gen_range(0..SEEDS.len())].chars().collect();
            for _ in 0..rng.gen_range(1..4usize) {
                let (at, other) = (rng.gen_range(0..text.len()), rng.gen_range(0..text.len()));
                match rng.gen_range(0..4u8) {
                    0 => {
                        text.remove(at);
                    }
                    1 => text.insert(at, ALPHABET[rng.gen_range(0..ALPHABET.len())]),
                    2 => text.insert(at, text[other]),
                    _ => text.swap(at, other),
                }
                if text.is_empty() {
                    break;
                }
            }
            let text: String = text.into_iter().collect();
            let outcome = std::panic::catch_unwind(|| parse_program(&text));
            assert!(outcome.is_ok(), "parse_program panicked on {text:?}");
        }
    }

    #[test]
    fn comments_are_ignored() {
        let q = parse_program("% the basic non-hierarchical query\nQ() :- R(X), S(X, Y), T(Y).");
        assert!(q.is_ok());
    }
}
